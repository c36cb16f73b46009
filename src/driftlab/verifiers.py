"""Grid certificates for the drift inequalities.

Each verifier evaluates both sides of one inequality on a finite grid,
fits the free constants the inequality only asserts to exist, freezes
them, and reports per-point margins.  A report is a certificate over its
grid, not a proof over the whole space.

Margin rules: quadrature points pass at absolute tolerance ``1e-9``;
Monte-Carlo points pass only when the margin exceeds three standard
errors.  Fitted constants get a hair of headroom so frozen reports pass
their own rule strictly.

``verify_<check>`` takes what ``config.build_check_args`` builds and does
not re-check the rules checked at load; it checks only numbers it computes
(kernel applications, proposal radii, delta(0)).
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .adaptation import (
    RULE_AM,
    AdaptationRule,
    am_update,
    scalar_update,
)
from .kernels import (
    FAMILY_UNIFORM,
    PARAM_SCALAR_LOG_SCALE,
    QUAD_TOL,
    AMParam,
    ProposalSpec,
    ScalarParam,
    acceptance,
    acceptance_breakpoints,
    acceptance_vec,
    apply_kernel_to_function,
    draw_increments,
    mean_acceptance,
    toy_second_eigenvalue,
    toy_transition_matrix,
)
from .lyapunov import (
    DriftCoefficients,
    ParamLyapunov,
    StateLyapunov,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
)
from .quadrature import integrate_interval
from .streams import substream
from .targets import TargetModel, matched_density_point

METHOD_QUADRATURE = "quadrature"
METHOD_MONTE_CARLO = "monte_carlo"

MC_SE_FACTOR = 3.0
HEADROOM = 1e-9


class GridSpec(NamedTuple):
    """Evaluation grid plus estimation method for one verifier run."""

    x_grid: tuple
    theta_grid: tuple = ()
    gamma_grid: tuple = (0.05,)
    method: str = METHOD_QUADRATURE
    mc_n: int = 10_000
    seed: int = 2024


class DriftRow(NamedTuple):
    point: dict
    lhs: float
    rhs: float
    margin: float
    se: float
    passed: bool


class DriftReport:
    """One check's verdict: its grid, fitted constants, rows and notes."""

    __slots__ = ("check", "grid", "fitted", "rows", "passed", "notes")

    def __init__(self, check: str, grid: dict, fitted: dict, rows: list[DriftRow], passed: bool,
                 notes: Optional[dict] = None):
        self.check = check
        self.grid = grid
        self.fitted = fitted
        self.rows = rows
        self.passed = passed
        self.notes = {} if notes is None else notes

    @property
    def worst_point(self) -> Optional[dict]:
        if not self.rows:
            return None
        worst = min(self.rows, key=lambda r: r.margin)
        return {"point": worst.point, "margin": worst.margin}

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "grid": self.grid,
            "fitted_constants": {k: _jsonable(v) for k, v in self.fitted.items()},
            "rows": [
                {
                    "point": {k: _jsonable(v) for k, v in r.point.items()},
                    "lhs": _jsonable(r.lhs),
                    "rhs": _jsonable(r.rhs),
                    "margin": _jsonable(r.margin),
                    "se": _jsonable(r.se),
                    "pass": bool(r.passed),
                }
                for r in self.rows
            ],
            "pass": bool(self.passed),
            "worst_point": _jsonable(self.worst_point),
            "notes": _jsonable(self.notes),
        }


def _jsonable(v):
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(u) for u in np.asarray(v).tolist()] if isinstance(v, np.ndarray) else [
            _jsonable(u) for u in v
        ]
    if isinstance(v, dict):
        return {k: _jsonable(u) for k, u in v.items()}
    if isinstance(v, (np.integer,)):
        return int(v)
    return repr(v)


def _as_param(p):
    if isinstance(p, (ScalarParam, AMParam)):
        return p
    if isinstance(p, (int, float, np.floating)):
        return ScalarParam(theta=float(p))
    raise ValueError(f"cannot interpret {p!r} as a kernel parameter")


def _param_label(p) -> dict:
    if isinstance(p, AMParam):
        return {"mu": [float(u) for u in p.mu], "cov": [[float(u) for u in row] for row in p.cov]}
    return {"theta": float(p.theta)}


def _grid_dict(grid: GridSpec) -> dict:
    return {
        "x_grid": [_jsonable(np.asarray(x, dtype=float).tolist()) for x in grid.x_grid],
        "theta_grid": [_param_label(_as_param(t)) for t in grid.theta_grid],
        "gamma_grid": [float(g) for g in grid.gamma_grid],
        "method": grid.method,
        "mc_n": grid.mc_n if grid.method == METHOD_MONTE_CARLO else None,
        "seed": grid.seed,
    }


def _row_passes(margin: float, se: float, mc: bool) -> bool:
    """The margin rule: beyond MC_SE_FACTOR standard errors for a
    Monte-Carlo row, at least -QUAD_TOL for a quadrature row."""
    return margin > MC_SE_FACTOR * se if mc else margin >= -QUAD_TOL


def _weight_vectorized(weight: ParamLyapunov) -> Callable[[np.ndarray], np.ndarray]:
    """Vector form of a scalar-parameter weight for Monte-Carlo batches."""
    if weight.variant == W_EXP_ABS:
        return lambda t: np.exp(np.minimum(np.abs(t), 700.0))
    if weight.variant == W_ONE_PLUS_SQUARE:
        return lambda t: 1.0 + t * t
    raise ValueError("vectorized weights exist for scalar variants only")


def _one_step_pairs(
    target: TargetModel,
    proposal: ProposalSpec,
    lyap: StateLyapunov,
    param,
    x,
    n: int,
    rng: np.random.Generator,
    rule: Optional[AdaptationRule] = None,
    weight: Optional[ParamLyapunov] = None,
    gamma: float = 0.0,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-pair samples of one adaptive step from (``param``, ``x``): the
    Monte Carlo estimator behind every drift check.

    Draws ``n // 2`` increments z from ``rng`` and pairs each with -z
    (antithetic increments).  The accept coin is integrated out in closed
    form, the Rao-Blackwellised acceptance of Andrieu and Thoms (2008), "A
    tutorial on adaptive MCMC": a proposal y adds
    ``alpha * V(y) + (1 - alpha) * V(x)`` to E[V(X1)], with
    ``alpha * V(y) = exp(min(0, ly - lx) + log V(y))`` formed in log space,
    so it stays finite where V(y) alone overflows.  Given a ``rule`` (with
    its ``weight`` and stepsize ``gamma``) the second samples are
    E[w(theta1)]: the scalar update keyed to alpha, or the accepted and
    rejected running moments weighted by alpha; without one they are None.
    """
    dim = target.dim
    z = draw_increments(proposal, param, dim, rng, size=n // 2).reshape(-1, dim)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    lx = float(target.log_density(float(xv[0]) if dim == 1 else xv))
    v_x = lyap.of_log_density(lx)
    if rule is not None and rule.kind == RULE_AM:
        w_reject = weight.of_moments(*am_update(param.mu, param.cov, xv, gamma))
    v_sum = w_sum = 0.0
    for y in (xv[None, :] + z, xv[None, :] - z):
        ly = np.asarray(target.log_density(y[:, 0] if dim == 1 else y), dtype=float)
        alpha, log_alpha = acceptance_vec(ly, lx)
        v_sum = v_sum + (np.exp(np.minimum(log_alpha + lyap.log(y, ly), 700.0)) + (1.0 - alpha) * v_x)
        if rule is None:
            continue
        if rule.kind == RULE_AM:
            w_accept = weight.of_moments(*am_update(param.mu, param.cov, y, gamma))
            # a proposal adds only the outcomes it can have: a weight past the
            # float range times a zero probability would be nan, not 0
            w_step = np.zeros_like(alpha)
            moves, stays = alpha > 0.0, alpha < 1.0
            w_step[moves] = alpha[moves] * w_accept[moves]
            w_step[stays] += (1.0 - alpha[stays]) * w_reject
            w_sum = w_sum + w_step
        else:
            # the fixed rule hands theta back as a scalar
            t_new = scalar_update(rule.kind, param.theta, alpha, gamma, rule.alpha_star)[0]
            w_sum = w_sum + _weight_vectorized(weight)(np.broadcast_to(t_new, alpha.shape))
    return 0.5 * v_sum, None if rule is None else 0.5 * w_sum


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; either is inf or nan, without a
    warning, once the samples' sums pass the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(samples.size))


# ---------------------------------------------------------------------------
# fixed-theta state drift: P_theta V <= [V - V**iota / a] outside the center,
# <= b inside


def verify_fixed_theta_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    lyap: StateLyapunov,
    coef: DriftCoefficients,
    grid: GridSpec,
    center_radius: float = 5.0,
) -> DriftReport:
    """Certificate for the state-space drift at frozen kernel parameters.

    Fits the largest rate constant ``a0`` (and smallest level bound ``b``)
    under the grid's margin rule, freezes them, and reports margins against
    the frozen constants.  Passes when a positive ``a0`` exists and ``b``
    is finite.
    """
    mc = grid.method == METHOD_MONTE_CARLO
    evals = []
    idx = 0
    for p_raw in grid.theta_grid:
        param = _as_param(p_raw)
        base_a = coef.a(param) * coef.a0  # scenario rate with the a0 scale removed
        for x in grid.x_grid:
            xf = float(np.asarray(x, dtype=float).reshape(()))
            if mc:
                v_pairs, _ = _one_step_pairs(
                    target, proposal, lyap, param, xf, grid.mc_n, substream(grid.seed, idx)
                )
                pv, se = _mean_se(v_pairs)
            else:
                pv, se = apply_kernel_to_function(target, proposal, param, lyap.log, xf), 0.0
            if not math.isfinite(pv):
                raise ValueError(f"non-finite kernel application at theta={param}, x={xf}")
            v = float(lyap(xf))
            inside = abs(xf) <= center_radius
            evals.append((param, xf, v, pv, se, inside, base_a))
            idx += 1

    slack = lambda se: MC_SE_FACTOR * se if mc else QUAD_TOL
    # Cap per tail point: the largest a0 whose frozen row still meets the
    # margin rule.  Quadrature rows may sit at -QUAD_TOL, so the cap gains it;
    # MC rows must clear +3 SE, so the cap loses it.  A degenerate Lyapunov
    # (zero deficit everywhere) then fits a tiny positive a0 instead of
    # flagging infeasibility.
    caps = [
        (v - pv + (QUAD_TOL if not mc else -MC_SE_FACTOR * se)) * base_a / v**coef.iota
        for (param, xf, v, pv, se, inside, base_a) in evals
        if not inside
    ]
    a0_fit = min(caps) if caps else None
    if a0_fit is not None:
        a0_fit = a0_fit * (1.0 - HEADROOM) - 1e-15 if a0_fit > 0 else a0_fit
    b_vals = [pv + slack(se) for (_, _, _, pv, se, inside, _) in evals if inside]
    b_fit = (max(b_vals) * (1.0 + HEADROOM) + 1e-15) if b_vals else None

    frozen = coef.with_constants(
        a0=a0_fit if (a0_fit is not None and a0_fit > 0) else coef.a0,
        b_const=b_fit if b_fit is not None else coef.b_const,
    )
    rows = []
    for param, xf, v, pv, se, inside, base_a in evals:
        if inside:
            rhs = frozen.b(param)
        else:
            rhs = v - v**coef.iota / frozen.a(param)
        margin = rhs - pv
        rows.append(
            DriftRow(
                point={**_param_label(param), "x": xf, "region": "center" if inside else "tail"},
                lhs=pv, rhs=rhs, margin=margin, se=se, passed=_row_passes(margin, se, mc),
            )
        )
    feasible = (a0_fit is None or a0_fit > 0) and (b_fit is None or math.isfinite(b_fit))
    passed = feasible and all(r.passed for r in rows)
    return DriftReport(
        check="fixed_theta_drift",
        grid=_grid_dict(grid),
        fitted={"a0": a0_fit, "b": b_fit, "iota": coef.iota, "center_radius": center_radius},
        rows=rows,
        passed=passed,
    )


def deficit_loglog_slope(
    target: TargetModel,
    eta: float,
    x: float,
    sigmas: Sequence[float],
) -> tuple[float, list[float]]:
    """Log-log slope of the drift deficit ``V(x) - P_sigma V(x)`` against
    the proposal radius, for regime-structure checks.  Requires every
    deficit on the grid to be positive."""
    if len(sigmas) < 2:
        raise ValueError("need at least two proposal radii for a slope")
    lyap = StateLyapunov(target, eta)
    spec = ProposalSpec(family=FAMILY_UNIFORM, parametrization=PARAM_SCALAR_LOG_SCALE)
    deficits = []
    v = float(lyap(x))
    for sigma in sigmas:
        param = ScalarParam(theta=math.log(sigma))
        pv = apply_kernel_to_function(target, spec, param, lyap.log, float(x))
        deficits.append(v - pv)
    if any(d <= 0 for d in deficits):
        return math.nan, deficits
    slope = float(np.polyfit(np.log(np.asarray(sigmas, dtype=float)), np.log(deficits), 1)[0])
    return slope, deficits


# ---------------------------------------------------------------------------
# parameter drift: E[w(update(theta, X+))] <= w(theta) (1 - gamma * Delta(arg))


def _w_drift_lhs_quadrature(target, proposal, rule, weight, param, x, gamma) -> float:
    """E[w(theta')] for one step of the adaptive pair, by quadrature: the
    running-moments update under the am rule, else the scalar update, whose
    increments are compact-uniform."""
    if rule.kind == RULE_AM:
        def log_w(y: float, ly: float) -> float:
            return math.log(weight.of_moments(*am_update(param.mu, param.cov, [y], gamma)))

        return apply_kernel_to_function(target, proposal, param, log_w, x)
    theta = param.theta
    sigma = param.sigma
    if not math.isfinite(sigma):
        raise ValueError("proposal radius overflow")
    lx = float(target.log_density(x))

    def integrand(z: float) -> float:
        alpha = acceptance(float(target.log_density(x + z)), lx)
        t_new = scalar_update(rule.kind, theta, alpha, gamma, rule.alpha_star)[0]
        return weight(t_new) / (2.0 * sigma)

    points = acceptance_breakpoints(target, x, sigma)
    return integrate_interval(integrand, -sigma, sigma, tol=QUAD_TOL, points=points)


def verify_w_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    rule: AdaptationRule,
    weight: ParamLyapunov,
    coef: DriftCoefficients,
    grid: GridSpec,
    state_lyapunov: Optional[StateLyapunov] = None,
    center_radius: float = 5.0,
) -> DriftReport:
    """Certificate for the parameter drift with the scenario slope function.

    The slope constant is the smallest value making every grid margin pass,
    found by bisection (the right side is monotone in the constant); the
    report freezes it with a relative headroom bump.
    """
    lyap = state_lyapunov if state_lyapunov is not None else StateLyapunov(target, 0.5)
    mc = grid.method == METHOD_MONTE_CARLO

    # sup of V**beta over the center set enters d(theta); exact for targets
    # that decay monotonically away from the mode
    sup_vbeta = max(
        float(lyap(xx)) ** coef.beta
        for xx in {0.0, center_radius, -center_radius}
    )
    coef = coef.with_constants(sup_c_vbeta=sup_vbeta)

    evals = []
    idx = 0
    for p_raw in grid.theta_grid:
        param = _as_param(p_raw)
        w_theta = weight(param)
        for x in grid.x_grid:
            xf = float(np.asarray(x, dtype=float).reshape(()))
            v_val = float(lyap(xf))
            inside = abs(xf) <= center_radius
            for gamma in grid.gamma_grid:
                if mc:
                    _, w_pairs = _one_step_pairs(
                        target, proposal, lyap, param, xf, grid.mc_n, substream(grid.seed, idx),
                        rule, weight, gamma,
                    )
                    lhs, se = _mean_se(w_pairs)
                else:
                    try:
                        lhs = _w_drift_lhs_quadrature(target, proposal, rule, weight, param, xf, gamma)
                    except OverflowError:
                        lhs = math.inf
                    se = 0.0
                if not math.isfinite(lhs):
                    # E[w(theta')] past the float range: the row fails with margin -inf
                    lhs = math.inf
                evals.append((param, xf, gamma, w_theta, v_val, inside, lhs, se))
                idx += 1

    def rhs_of(cc: DriftCoefficients, param, gamma, w_theta, v_val, inside) -> float:
        arg = cc.d(param) if inside else cc.c(param) + v_val**cc.beta / cc.e(param)
        return w_theta * (1.0 - gamma * cc.delta(arg))

    def margins(c_val: float) -> list[float]:
        cc = coef.with_constants(slope_c=c_val)
        return [
            rhs_of(cc, param, gamma, w_theta, v_val, inside) - lhs - (MC_SE_FACTOR * se if mc else QUAD_TOL)
            for param, xf, gamma, w_theta, v_val, inside, lhs, se in evals
        ]

    lo, hi = 1e-6, 1e12
    fit_c: Optional[float] = None
    if min(margins(hi)) >= 0.0:
        if min(margins(lo)) >= 0.0:
            fit_c = lo
        else:
            a, b = lo, hi
            for _ in range(200):
                mid = math.sqrt(a * b)
                if min(margins(mid)) >= 0.0:
                    b = mid
                else:
                    a = mid
                if b - a <= 1e-9 * max(1.0, b):
                    break
            fit_c = b
    if fit_c is not None:
        fit_c = fit_c * (1.0 + 1e-6) + 1e-12

    frozen = coef.with_constants(slope_c=fit_c) if fit_c is not None else coef
    rows = []
    for param, xf, gamma, w_theta, v_val, inside, lhs, se in evals:
        rhs = rhs_of(frozen, param, gamma, w_theta, v_val, inside)
        margin = rhs - lhs
        rows.append(
            DriftRow(
                point={**_param_label(param), "x": xf, "gamma": gamma,
                       "region": "center" if inside else "tail"},
                lhs=lhs, rhs=rhs, margin=margin, se=se, passed=_row_passes(margin, se, mc),
            )
        )
    passed = fit_c is not None and all(r.passed for r in rows)
    return DriftReport(
        check="w_drift",
        grid=_grid_dict(grid),
        fitted={
            "slope_c": fit_c,
            "sup_center_vbeta": sup_vbeta,
            "beta": coef.beta,
            "delta0": frozen.delta0(),
            "center_radius": center_radius,
        },
        rows=rows,
        passed=passed,
        notes={"scenario": coef.scenario},
    )


# ---------------------------------------------------------------------------
# compound drift: one adaptive step must contract lam*V + w/gamma outside
# a joint level set


def verify_compound_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    rule: AdaptationRule,
    lyap_v: StateLyapunov,
    weight: ParamLyapunov,
    grid: GridSpec,
    coef: DriftCoefficients,
    center_radius: float = 5.0,
) -> DriftReport:
    """Monte-Carlo certificate for the one-step compound contraction.

    Searches doubling ``lam_star`` values and parameter-weight levels
    ``m_star`` (lexicographically) for the smallest pair giving a positive
    contraction rate ``delta`` with every outside margin beyond three
    standard errors.  When the search fails it reports the best candidate's
    delta and judges the candidate's rows at delta = 0, so the rows that
    block a positive delta fail.
    Each stepsize is paired with itself, so the inverse-difference ceiling
    on stepsize pairs reduces to ``delta(0) > 0``.

    Each point's one-step expectations of V and w come from
    :func:`_one_step_pairs`, as ``mc_n // 2`` antithetic pair samples with
    the accept coin integrated out.  Certifiable margins at desk-scale
    sample sizes need this: the state Lyapunov spans many orders of
    magnitude across the grid and a raw estimator's noise would otherwise
    swamp genuinely positive drift gaps.
    """
    if not coef.delta0() > 0.0:
        raise ValueError("compound drift needs a slope function with delta(0) > 0")

    dim = target.dim
    points = []
    idx = 0
    for p_raw in grid.theta_grid:
        param = _as_param(p_raw)
        w_theta = weight(param)
        for x in grid.x_grid:
            xf = np.atleast_1d(np.asarray(x, dtype=float))
            v_x = float(lyap_v(float(xf[0]) if dim == 1 else xf))
            inside_c = float(np.linalg.norm(xf)) <= center_radius
            for g in grid.gamma_grid:
                v_pair, w_pair = _one_step_pairs(
                    target, proposal, lyap_v, param, xf, grid.mc_n, substream(grid.seed, idx),
                    rule, weight, g,
                )
                # inf or nan, as in _mean_se, once the samples pass the float range
                with np.errstate(over="ignore", invalid="ignore"):
                    mean_v = float(v_pair.mean())
                    mean_w = float(w_pair.mean())
                    var_v = float(v_pair.var(ddof=1))
                    var_w = float(w_pair.var(ddof=1))
                    cov_vw = float(np.cov(v_pair, w_pair, ddof=1)[0, 1])
                denom = v_x**coef.iota / coef.a(param) + w_theta
                points.append(
                    {
                        "param": param, "x": xf, "v_x": v_x, "w_theta": w_theta,
                        "inside_c": inside_c, "gamma": g,
                        "mean_v": mean_v, "mean_w": mean_w,
                        "var_v": var_v, "var_w": var_w, "cov_vw": cov_vw,
                        "n": v_pair.size, "denom": denom,
                    }
                )
                idx += 1

    def row_stats(lam: float) -> list[tuple[float, float]]:
        """(mean, SE) of lam * V + w / gamma one step on, per point."""
        out = []
        for pt in points:
            mean_s = lam * pt["mean_v"] + pt["mean_w"] / pt["gamma"]
            var_s = (
                lam * lam * pt["var_v"]
                + 2.0 * lam * pt["cov_vw"] / pt["gamma"]
                + pt["var_w"] / pt["gamma"] ** 2
            )
            out.append((mean_s, math.sqrt(max(var_s, 0.0) / pt["n"])))
        return out

    def outside(pt, m_star: float) -> bool:
        return not (pt["w_theta"] <= m_star and pt["inside_c"])

    w_levels = sorted({pt["w_theta"] for pt in points})
    lam_values = [float(2**k) for k in range(11)]
    found = None
    best = None
    for lam in lam_values:
        stats = row_stats(lam)
        for m_star in w_levels:
            caps = [
                (lam * pt["v_x"] + pt["w_theta"] / pt["gamma"] - mean_s - MC_SE_FACTOR * se) / pt["denom"]
                for pt, (mean_s, se) in zip(points, stats)
                if outside(pt, m_star)
            ]
            if not caps:
                continue
            delta = min(caps)
            if best is None or delta > best[2]:
                best = (lam, m_star, delta, stats)
            if delta > 0.0:
                found = (lam, m_star, delta, stats)
                break
        if found:
            break

    # with no candidate every point lies in the joint center, so no row is kept
    lam, m_star, delta_raw, stats = found or best or (1.0, w_levels[0], math.nan, [])
    delta = delta_raw * (1.0 - HEADROOM) if found else 0.0

    rows = []
    for pt, (mean_s, se) in zip(points, stats):
        if not outside(pt, m_star):
            continue
        rhs = lam * pt["v_x"] + pt["w_theta"] / pt["gamma"] - delta * pt["denom"]
        margin = rhs - mean_s
        rows.append(
            DriftRow(
                point={
                    **_param_label(pt["param"]),
                    "x": float(pt["x"][0]) if dim == 1 else [float(u) for u in pt["x"]],
                    "gamma": pt["gamma"], "gamma_bar": pt["gamma"],
                },
                lhs=mean_s, rhs=rhs, margin=margin, se=se,
                passed=_row_passes(margin, se, True),
            )
        )
    passed = found is not None and bool(rows) and all(r.passed for r in rows)
    return DriftReport(
        check="compound_drift",
        grid=_grid_dict(grid),
        fitted={
            "lam_star": lam,
            "m_star": m_star,
            "delta": delta if found else delta_raw,
            "center_radius": center_radius,
            "found": found is not None,
        },
        rows=rows,
        passed=passed,
        notes={"scenario": coef.scenario, "searched_lam": lam_values, "w_levels": w_levels},
    )


# ---------------------------------------------------------------------------
# acceptance-rate envelopes for vanishing and exploding proposal radii


def verify_acceptance_bounds(
    target: TargetModel,
    sigma_grid: Sequence[float],
    x_grid: Sequence[float],
) -> DriftReport:
    """Bounds on the compact-uniform acceptance rate at the radius extremes.

    Small radii: ``alpha >= 1/2 - c_minus * sigma``; large radii:
    ``alpha <= c_plus * ((-log density)**(1/p) or 1) / sigma``.  Both
    constants are fitted as grid maxima.  Stabilization is recorded so a
    blow-up at either radius extreme is visible; the large-radius trend is
    tested per start point and only over radii that cover it, since the
    1/sigma scaling has no reason to hold while sigma < x.
    """
    p = target.tail.exponent
    sigmas = sorted(float(s) for s in sigma_grid)
    alphas: dict[tuple[float, float], float] = {}
    for s in sigmas:
        for x in x_grid:
            alphas[(s, float(x))] = mean_acceptance(target, s, float(x))
    # tail scale (-log density)**(1/p), floored at 1, of each start point
    scales = {}
    for x in x_grid:
        l_val = float(target.log_density(float(x)))
        scales[float(x)] = max((-l_val) ** (1.0 / p) if l_val < 0 else 0.0, 1.0)

    low_sigmas = [s for s in sigmas if s <= 1.0]
    high_sigmas = [s for s in sigmas if s >= 1.0]

    low_level = {s: max((0.5 - alphas[(s, float(x))]) / s for x in x_grid) for s in low_sigmas}

    def high_level(s: float) -> float:
        return max(alphas[(s, float(x))] * s / scales[float(x)] for x in x_grid)

    c_minus = max((max(0.0, low_level[s]) for s in low_sigmas), default=None)
    c_plus = max((high_level(s) for s in high_sigmas), default=None)
    if c_minus is not None:
        c_minus = c_minus * (1.0 + HEADROOM) + 1e-15
    if c_plus is not None:
        c_plus = c_plus * (1.0 + HEADROOM) + 1e-15

    stab_low = True
    if len(low_sigmas) >= 2:
        stab_low = low_level[low_sigmas[0]] <= low_level[low_sigmas[1]] + 1e-9
    stab_high = True
    if len(high_sigmas) >= 2:
        for x in x_grid:
            xf = float(x)
            engaged = [s for s in high_sigmas if s >= xf]
            if len(engaged) < 2:
                continue
            levels = [alphas[(s, xf)] * s / scales[xf] for s in engaged]
            if levels[-1] > 1.25 * max(levels[:-1]) + 1e-12:
                stab_high = False
                break

    rows = []
    for s in sigmas:
        for x in x_grid:
            a_val = alphas[(s, float(x))]
            if s <= 1.0 and c_minus is not None:
                lhs = 0.5 - c_minus * s
                rows.append(
                    DriftRow(
                        point={"sigma": s, "x": float(x), "bound": "lower"},
                        lhs=lhs, rhs=a_val, margin=a_val - lhs, se=0.0,
                        passed=_row_passes(a_val - lhs, 0.0, False),
                    )
                )
            if s >= 1.0 and c_plus is not None:
                rhs = c_plus * scales[float(x)] / s
                rows.append(
                    DriftRow(
                        point={"sigma": s, "x": float(x), "bound": "upper"},
                        lhs=a_val, rhs=rhs, margin=rhs - a_val, se=0.0,
                        passed=_row_passes(rhs - a_val, 0.0, False),
                    )
                )
    fits_ok = (c_minus is None or math.isfinite(c_minus)) and (
        c_plus is None or math.isfinite(c_plus)
    )
    passed = fits_ok and stab_low and stab_high and all(r.passed for r in rows)
    return DriftReport(
        check="acceptance_bounds",
        grid={"sigma_grid": sigmas, "x_grid": [float(x) for x in x_grid],
              "method": METHOD_QUADRATURE, "mc_n": None},
        fitted={
            "c_minus": c_minus,
            "c_plus": c_plus,
            "tail_exponent": p,
            "stabilized_small_sigma": stab_low,
            "stabilized_large_sigma": stab_high,
        },
        rows=rows,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# four-term decomposition of the normalized kernel application


# Absolute tolerance of the decomposition's integrals.
_DECOMP_TOL = 1e-10
# Largest |lhs - rhs| between the two pipelines, and the sign slack of the
# profile and crossing terms.
_RESIDUAL_TOL = 1e-6
_SIGN_TOL = 1e-9
# Points of the accept/reject profile on [0, x].
_PROFILE_POINTS = 201


def _phi(target: TargetModel, base: float, expo: float, sign: float, z: float) -> float:
    """[(density at base + sign*z) / (density at base)] ** expo, in log space."""
    diff = float(target.log_density(base + sign * z)) - float(target.log_density(base))
    arg = expo * diff
    return math.exp(arg) if arg < 700.0 else math.inf


def accept_reject_profile(target: TargetModel, eta: float, x: float, z: float) -> float:
    """Local accept/reject balance of the two moves of length z from x.

    Combines the inward Lyapunov gain, the outward accepted loss, and the
    outward rejection mass; nonpositive on [0, x] for flat-tailed targets
    once x is large.
    """
    return (
        (_phi(target, x, -eta, -1.0, z) - 1.0)
        + (_phi(target, x, 1.0 - eta, 1.0, z) - 1.0)
        - (_phi(target, x, 1.0, 1.0, z) - 1.0)
    )


def decomposition_terms(
    target: TargetModel,
    eta: float,
    sigma: float,
    x: float,
) -> dict:
    """The four pieces of ``P_sigma V(x)/V(x) - 1`` for the compact-uniform
    kernel: local balance, outward tail, and the two matched-point crossing
    terms (accepted and rejected)."""
    if x <= 0:
        raise ValueError("decomposition is stated for positive x")
    ups = matched_density_point(target, x)
    q = 1.0 / (2.0 * sigma)

    local = q * integrate_interval(
        lambda z: accept_reject_profile(target, eta, x, z), 0.0, min(sigma, x), tol=_DECOMP_TOL
    )

    outward = 0.0
    if sigma >= x:
        outward = q * integrate_interval(
            lambda z: _phi(target, x, 1.0 - eta, 1.0, z) - _phi(target, x, 1.0, 1.0, z),
            x, sigma, tol=_DECOMP_TOL,
        )

    cross_accept = 0.0
    if sigma >= x:
        upper = min(sigma - x + ups, 0.0)
        if upper > ups:
            cross_accept = q * integrate_interval(
                lambda z: _phi(target, ups, -eta, -1.0, z) - 1.0, ups, upper, tol=_DECOMP_TOL
            )

    cross_reject = 0.0
    if sigma >= x - ups:
        upper = sigma - (x - ups)
        if upper > 0.0:
            cross_reject = q * integrate_interval(
                lambda z: _phi(target, ups, 1.0 - eta, -1.0, z) - _phi(target, ups, 1.0, -1.0, z),
                0.0, upper, tol=_DECOMP_TOL,
            )

    return {
        "local": local,
        "outward": outward,
        "cross_accept": cross_accept,
        "cross_reject": cross_reject,
        "matched_point": ups,
    }


def normalized_kernel_gain(target: TargetModel, eta: float, sigma: float, x: float) -> float:
    """``P_sigma V(x)/V(x) - 1`` as one integral over the move length, of
    alpha * (V(y)/V(x) - 1) in log space, finite where V(y) overflows."""
    lx = float(target.log_density(x))

    def integrand(z: float) -> float:
        d = float(target.log_density(x + z)) - lx
        return math.expm1(-eta * d) if d >= 0.0 else math.exp((1.0 - eta) * d) - math.exp(d)

    ups = matched_density_point(target, x)
    points = [p for p in (0.0, ups - x, -x) if -sigma < p < sigma]
    return integrate_interval(integrand, -sigma, sigma, tol=_DECOMP_TOL, points=points) / (2.0 * sigma)


def verify_decomposition(
    target: TargetModel,
    lyap: StateLyapunov,
    sigma_grid: Sequence[float],
    x_grid: Sequence[float],
) -> DriftReport:
    """Two independent quadrature pipelines for the normalized kernel gain
    must agree; the profile and crossing terms must carry the signs the
    tail analysis claims.

    The inward/outward deficit only engages beyond a threshold radius: for
    moderate x the outward mass can still dominate, so the fitted rate
    eps_t is frozen on the suffix of the x grid where every larger level
    keeps the deficit strictly negative at all sigma >= x.  The smallest
    such level is reported as r_t; no qualifying level means fail."""
    eta = lyap.eta
    rows = []
    profile_max = -math.inf
    cross_accept_max = -math.inf
    tail_eps: dict[float, list[float]] = {}
    for x in x_grid:
        xf = float(x)
        zs = np.linspace(0.0, xf, _PROFILE_POINTS)
        psi_vals = [accept_reject_profile(target, eta, xf, float(z)) for z in zs]
        profile_max = max(profile_max, max(psi_vals))
        for s in sigma_grid:
            sf = float(s)
            lhs = normalized_kernel_gain(target, eta, sf, xf)
            terms = decomposition_terms(target, eta, sf, xf)
            rhs = terms["local"] + terms["outward"] + terms["cross_accept"] + terms["cross_reject"]
            residual = abs(lhs - rhs)
            if sf >= xf:
                cross_accept_max = max(cross_accept_max, terms["cross_accept"])
                tail_eps.setdefault(xf, []).append(
                    -(terms["local"] + terms["outward"]) * sf / xf
                )
            rows.append(
                DriftRow(
                    point={"sigma": sf, "x": xf},
                    lhs=lhs, rhs=rhs, margin=_RESIDUAL_TOL - residual, se=0.0,
                    passed=residual <= _RESIDUAL_TOL,
                )
            )
    profile_ok = profile_max <= _SIGN_TOL
    cross_ok = cross_accept_max <= _SIGN_TOL if tail_eps else True
    xs_sorted = sorted(tail_eps)
    r_t = None
    for idx, xv in enumerate(xs_sorted):
        if all(min(tail_eps[xu]) > 0.0 for xu in xs_sorted[idx:]):
            r_t = xv
            break
    if r_t is not None:
        eps_t = min(min(tail_eps[xu]) for xu in xs_sorted if xu >= r_t)
    elif tail_eps:
        # nothing qualified; report the global worst rate for diagnosis
        eps_t = min(min(v) for v in tail_eps.values())
    else:
        eps_t = None
    eps_ok = r_t is not None if tail_eps else True
    passed = profile_ok and cross_ok and eps_ok and all(r.passed for r in rows)
    return DriftReport(
        check="decomposition",
        grid={"sigma_grid": [float(s) for s in sigma_grid],
              "x_grid": [float(x) for x in x_grid],
              "method": METHOD_QUADRATURE, "mc_n": None},
        fitted={
            "eps_t": eps_t,
            "r_t": r_t,
            "profile_max": profile_max,
            "cross_accept_max": cross_accept_max if tail_eps else None,
            "residual_tol": _RESIDUAL_TOL,
        },
        rows=rows,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# two-state chain: invariant row vector and second eigenvalue


# Largest gap between the closed-form and the computed second eigenvalue,
# and largest invariance residual of the uniform row vector.
_EIG_TOL = 1e-12
_INV_TOL = 1e-14


def verify_toy(theta_grid: Sequence[float]) -> DriftReport:
    """Closed-form second eigenvalue against a direct eigendecomposition,
    plus exact invariance of the uniform row vector."""
    rows = []
    pi = np.array([0.5, 0.5])
    for t in theta_grid:
        tf = float(t)
        p = toy_transition_matrix(tf)
        formula = toy_second_eigenvalue(tf)
        # the chain's spectrum is {1, lambda} with lambda < 1, so the
        # second eigenvalue is identified without referencing the formula
        second = float(np.min(np.linalg.eigvals(p).real))
        inv_residual = float(np.max(np.abs(pi @ p - pi)))
        ok = abs(formula - second) <= _EIG_TOL and inv_residual <= _INV_TOL
        rows.append(
            DriftRow(
                point={"theta": tf},
                lhs=formula, rhs=second,
                margin=_EIG_TOL - abs(formula - second),
                se=inv_residual, passed=ok,
            )
        )
    return DriftReport(
        check="toy",
        grid={"theta_grid": [float(t) for t in theta_grid],
              "method": "exact", "mc_n": None},
        fitted={"eig_tol": _EIG_TOL, "invariance_tol": _INV_TOL},
        rows=rows,
        passed=all(r.passed for r in rows),
    )
