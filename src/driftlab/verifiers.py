"""Grid certificates for the drift inequalities.

Each verifier evaluates both sides of one inequality on a finite grid,
fits the free constants the inequality only asserts to exist, freezes
them, and reports per-point margins.  A report is a certificate over its
grid, not a proof over the whole space.

Margin rules (``_row_passes``): a quadrature row passes when its margin
is at least ``-QUAD_TOL`` (1e-9), a Monte-Carlo row only when its margin
exceeds ``MC_SE_FACTOR`` (3) standard errors; ``_slack`` gives either slack.
An agreement row (``decomposition``, ``toy``) has se 0 and passes when
|lhs - rhs| is within its tolerance.

One PASS rule serves all six checks (``DriftReport.passed``): a report
passes when it has rows, every row passes, every constant named in
``notes["binding_rows"]`` is None (set by no row) or finite and positive,
and every side condition in ``notes["conditions"]`` holds.  A condition
is ``{"value", "bound", "pass"}``, passing when value <= bound or when the
value is None (nothing to test): ``acceptance_bounds`` has
``stabilized_small_sigma`` and ``stabilized_large_sigma``,
``decomposition`` ``profile_max`` and ``cross_accept_max``, ``toy``
``invariance_residual``.  A report is an intersection-union test, whose
level is the per-row level with no multiplicity correction (Berger 1982,
"Multiparameter hypothesis testing and acceptance sampling").

The three drift checks (``fixed_theta_drift``, ``w_drift`` and
``compound_drift``) share one skeleton, ``_certify``: estimate every grid
row; fit each free constant so that every row's margin clears its slack
(the slack is always subtracted from what a row allows); freeze each
constant with one headroom rule toward its feasible side (``_freeze``);
then judge every row again at the frozen constants.  A row whose estimate
is not finite fails and is left out of the fit, and a row that set a
constant that is not finite and positive fails.

``w_drift`` and ``compound_drift`` run at one stepsize, ``gamma_max``, and
cover (0, gamma_max]: gamma enters only through (E w(theta + gamma H) -
w(theta)) / gamma, H does not depend on gamma and every weight w is convex,
so that quotient is nondecreasing in gamma draw by draw (Rockafellar 1970,
"Convex Analysis", Thm 23.1).

``verify_<check>`` takes what ``config.build_check_args`` builds and does
not re-check the rules checked at load; it checks only numbers it computes
(non-finite estimates, proposal radii, delta(0)).  The grid (``GridSpec``),
the method names and the JSON encoding of a report are ``config``'s.

The one-dimensional kernel integrals (``mean_acceptance`` and
``apply_kernel_to_function``, P f) live here with the checks that take
them: this is the one module that loads ``quadrature``, and ``cli`` loads
it only for a document that lists a check.
"""
from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .adaptation import (
    RULE_AM,
    AdaptationRule,
    am_update,
    scalar_update,
)
from .config import METHOD_MONTE_CARLO, METHOD_QUADRATURE, GridSpec, _jsonable
from .kernels import (
    EXP_CUTOFF,
    FAMILY_GAUSSIAN,
    FAMILY_UNIFORM,
    PARAM_SCALAR_LOG_SCALE,
    AMParam,
    ProposalSpec,
    acceptance,
    acceptance_vec,
    draw_increments,
    exp_or_inf,
    proposal_covariance,
    toy_second_eigenvalue,
    toy_transition_matrix,
)
from .lyapunov import DriftCoefficients, ParamLyapunov, StateLyapunov
from .quadrature import integrate_interval
from .streams import substream
from .targets import TargetModel, matched_density_point

# Absolute tolerance of the kernel integrals (acceptance rate, P f).
QUAD_TOL = 1e-9
MC_SE_FACTOR = 3.0
HEADROOM = 1e-9
# Absolute step of a frozen constant toward its feasible side.
_FREEZE_STEP = 1e-15
# Relative width at which w_drift's bisection for its slope constant stops.
_BISECT_RTOL = 1e-9
# acceptance_bounds' stabilization conditions: how far the level may rise
# toward the smallest radius, and how far past _LARGE_SIGMA_GROWTH times the
# largest level before it a start point's last large-radius level may grow.
_SMALL_SIGMA_SLACK = 1e-9
_LARGE_SIGMA_GROWTH = 1.25
_LARGE_SIGMA_SLACK = 1e-12


class DriftRow(NamedTuple):
    point: dict
    lhs: float
    rhs: float
    margin: float
    se: float
    passed: bool


def _admissible(constant: Optional[float]) -> bool:
    """The constants rule: a binding constant is None (set by no row) or
    finite and positive."""
    return constant is None or (math.isfinite(constant) and constant > 0.0)


def _condition(value: Optional[float], bound: float) -> dict:
    """A named side condition: it holds when ``value`` is at most
    ``bound``, or is None (nothing to test)."""
    return {"value": value, "bound": bound, "pass": value is None or value <= bound}


class DriftReport:
    """One check's report: its grid, fitted constants, rows and notes, and
    the one PASS rule of the module docstring.  ``notes`` always has
    ``binding_rows`` (constant name -> row index or None) and
    ``conditions`` (name -> ``_condition``)."""

    __slots__ = ("check", "grid", "fitted", "rows", "notes")

    def __init__(self, check: str, grid: dict, fitted: dict, rows: list[DriftRow], notes: Optional[dict] = None):
        self.check = check
        self.grid = grid
        self.fitted = fitted
        self.rows = rows
        self.notes = {"binding_rows": {}, "conditions": {}, **(notes or {})}

    @property
    def passed(self) -> bool:
        return (bool(self.rows) and all(r.passed for r in self.rows)
                and all(_admissible(self.fitted[name]) for name in self.notes["binding_rows"])
                and all(c["pass"] for c in self.notes["conditions"].values()))

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
            "pass": self.passed,
            "worst_point": _jsonable(self.worst_point),
            "notes": _jsonable(self.notes),
        }


def _param_label(p) -> dict:
    if isinstance(p, AMParam):
        return {"mu": [float(u) for u in p.mu], "cov": [[float(u) for u in row] for row in p.cov]}
    return {"theta": float(p)}


def _grid_dict(grid: GridSpec) -> dict:
    return {
        "x_grid": [float(x) for x in grid.x_grid],
        "theta_grid": [_param_label(t) for t in grid.theta_grid],
        "method": grid.method,
        "mc_n": grid.mc_n if grid.method == METHOD_MONTE_CARLO else None,
        "seed": grid.seed,
    }


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
    so it stays finite where V(y) alone overflows.  A proposal where
    log pi = -inf (alpha = 0) adds only ``V(x)``: its V(y) is not formed.
    Given a ``rule`` (with its ``weight`` and stepsize ``gamma``) the second
    samples are E[w(theta1)]: the scalar update keyed to alpha, or the
    accepted and rejected running moments weighted by alpha; without one
    they are None.
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
        with np.errstate(over="ignore"):  # far enough out, log pi is -inf
            ly = np.asarray(target.log_density(y[:, 0] if dim == 1 else y), dtype=float)
        alpha, log_alpha = acceptance_vec(ly, lx)
        # -inf + inf would be nan: a proposal pi never reaches is never accepted
        v_step = (1.0 - alpha) * v_x
        moves = log_alpha > -np.inf
        v_step[moves] += np.exp(np.minimum(log_alpha[moves] + lyap.log(y[moves], ly[moves]), EXP_CUTOFF))
        v_sum = v_sum + v_step
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
            t_new = scalar_update(rule.kind, param, alpha, gamma, rule.alpha_star)[0]
            w_sum = w_sum + weight.of_thetas(np.broadcast_to(t_new, alpha.shape))
    return 0.5 * v_sum, None if rule is None else 0.5 * w_sum


def _pow2_scaled(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """``samples`` times 2**-k, with k the binary exponent of the largest
    |sample| (0 when that is 0 or not finite), and k.  Scaling by a power
    of two is exact, so moments of the scaled samples, scaled back, are
    those of the samples, and their squares stay in the float range."""
    k = math.frexp(float(np.abs(samples).max()))[1]
    return np.ldexp(samples, -k), k


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, formed on ``_pow2_scaled``
    samples; either is inf or nan, without a warning, when a sample is."""
    scaled, k = _pow2_scaled(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        return math.ldexp(float(scaled.mean()), k), math.ldexp(float(scaled.std(ddof=1) / math.sqrt(samples.size)), k)


# ---------------------------------------------------------------------------
# one-dimensional kernel integrals: the acceptance rate and P f by quadrature


def acceptance_breakpoints(target: TargetModel, x: float, half: float) -> list[float]:
    """Breakpoints, as increments from ``x``, of a one-step integrand over
    the window (-half, half): 0, the moves to the mode and to the
    matched-density point (kinks of the acceptance probability), and the
    target's bulk edges (``TargetModel.bulk_edge``) inside the window.  A
    window much wider than the bulk can hold all of it between a breakpoint
    and QAG-21's nearest node (0.22% of the subinterval's width away), so
    the bulk edges are breakpoints too.  The integrator drops points
    outside the window."""
    pts = [0.0]
    if target.unimodal_1d:
        m = float(target.mode)
        if x != m:
            pts.append(m - x)
            y_star = matched_density_point(target, x)
            z_star = y_star - x
            if -half < z_star < half:
                pts.append(z_star)
        for side in (-1.0, 1.0):
            z_edge = target.bulk_edge(side) - x
            if -half < z_edge < half:
                pts.append(z_edge)
    return pts


def mean_acceptance(target: TargetModel, sigma: float, x: float) -> float:
    """Average acceptance probability from ``x`` under compact-uniform
    increments of half-width ``sigma``, by adaptive quadrature.

    Only the compact-uniform family admits this finite-interval quadrature;
    for unbounded increment families the one-step Monte Carlo estimator
    (``_one_step_pairs``) integrates the acceptance coin out instead.
    """
    if target.dim != 1:
        raise ValueError("mean_acceptance requires a one-dimensional target")
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    x = float(x)
    lx = float(target.log_density(x))
    if not math.isfinite(lx):
        raise ValueError(f"invalid point: log-density not finite at x={x!r}")
    q = 0.5 / sigma
    return _acceptance_mass(target, x, lx, lambda z: q, sigma, acceptance_breakpoints(target, x, sigma))


def _acceptance_mass(target: TargetModel, x: float, lx: float, q_of: Callable[[float], float], half: float,
                     pts: list[float]) -> float:
    """The integral of ``q_of(z) * alpha(x, x + z)`` over the window
    (-half, half), split at ``pts``: the mean acceptance probability from
    ``x`` (log-density ``lx``) under the increment density ``q_of``."""
    logp = target.log_density

    def integrand(z: float) -> float:
        return q_of(z) * acceptance(float(logp(x + z)), lx)

    return integrate_interval(integrand, -half, half, tol=QUAD_TOL, points=pts)


def apply_kernel_to_function(
    target: TargetModel,
    spec: ProposalSpec,
    param: float | AMParam,
    log_f: Callable[[float, float], float],
    x,
) -> float:
    """(P f)(x), the one-step kernel average of a positive function ``f``
    from ``x``, by adaptive quadrature.  ``param`` is a float theta under
    the scalar log-scale parametrization and an ``AMParam`` under running
    moments.

    ``log_f(y, ly)`` is log f(y) at a state ``y`` whose log-density ``ly``
    the integrand already has (``StateLyapunov.log`` fits), so log pi is
    evaluated once per node.  Each proposal contributes
    ``alpha * f(y) + (1 - alpha) * f(x)``, with the product formed as
    ``exp(min(0, ly - lx) + log f(y))``: it stays finite where a state
    Lyapunov function's f(y) alone overflows.  A proposal where
    log pi = -inf (alpha = 0) contributes only ``f(x)``: its f(y) is not
    formed.

    One-dimensional targets with compact-uniform or gaussian increments
    only; other families go through the Monte Carlo estimator,
    ``_one_step_pairs``.
    Gaussian increments are integrated over a 40-standard-deviation window.
    The tail left out is below any realistic tolerance for the functions
    used here (state Lyapunov functions, where ``alpha * f(y) <= f(x)``
    caps the integrand, and polynomially growing parameter weights).
    ``OverflowError`` is raised when ``f`` or ``alpha * f`` at a node is
    past the float range.
    """
    if target.dim != 1:
        raise ValueError("quadrature requires a one-dimensional target")
    if spec.family == FAMILY_UNIFORM:
        if isinstance(param, AMParam):
            raise ValueError("parametrization mismatch: scalar proposal needs a float theta")
        sigma = exp_or_inf(param)
        half = sigma

        def q_of(z: float) -> float:
            return 0.5 / sigma

    elif spec.family == FAMILY_GAUSSIAN:
        if isinstance(param, AMParam):
            if param.mu.shape[0] != 1:
                raise ValueError("quadrature requires a one-dimensional target")
            sd = math.sqrt(float(proposal_covariance(spec, param)[0, 0]))
        else:
            sd = exp_or_inf(param)
        if not (0.0 < sd < math.inf):
            raise ValueError("gaussian quadrature needs a finite positive scale")
        half = 40.0 * sd
        norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
        inv2 = 0.5 / (sd * sd)

        def q_of(z: float) -> float:
            return norm * math.exp(-z * z * inv2)

    else:
        raise ValueError(
            "quadrature supports compact-uniform and gaussian increments; "
            "use monte_carlo for heavy-tailed families"
        )
    x = float(x)
    lx = float(target.log_density(x))
    logp = target.log_density
    log_fx = log_f(x, lx)
    if not log_fx < EXP_CUTOFF:
        raise OverflowError("non-integrable test function: non-finite value at the current state")
    fx = math.exp(log_fx)

    def accepted_part(z: float) -> float:
        y = x + z
        ly = float(logp(y))
        if ly == -math.inf:  # never accepted; -inf + inf would be nan
            return 0.0
        arg = min(0.0, ly - lx) + log_f(y, ly)
        if not arg < EXP_CUTOFF:
            raise OverflowError(f"non-integrable test function: alpha * f is not finite at y={y!r}")
        return q_of(z) * math.exp(arg)

    pts = acceptance_breakpoints(target, x, half)
    moved = integrate_interval(accepted_part, -half, half, tol=QUAD_TOL, points=pts)
    return moved + fx * (1.0 - _acceptance_mass(target, x, lx, q_of, half, pts))


# ---------------------------------------------------------------------------
# the drift skeleton: one grid walk, fit, freeze, re-judge and report for the
# fixed_theta_drift, w_drift and compound_drift checks


def _slack(se: float, mc: bool) -> float:
    """What a row's margin is measured against: MC_SE_FACTOR standard
    errors for a Monte Carlo row, QUAD_TOL for a quadrature row."""
    return MC_SE_FACTOR * se if mc else QUAD_TOL


def _row_passes(margin: float, se: float, mc: bool) -> bool:
    """The margin rule: beyond the slack for a Monte-Carlo row, at least
    minus the slack for a quadrature row."""
    return margin > _slack(se, mc) if mc else margin >= -_slack(se, mc)


def _row(point: dict, lhs: float, rhs: float, se: float = 0.0, mc: bool = False) -> DriftRow:
    """A row of the inequality lhs <= rhs, judged by the margin rule."""
    return DriftRow(point, lhs, rhs, rhs - lhs, se, _row_passes(rhs - lhs, se, mc))


def _agreement_row(point: dict, lhs: float, rhs: float, tol: float) -> DriftRow:
    """A row that passes when ``lhs`` and ``rhs`` agree within ``tol``."""
    margin = tol - abs(lhs - rhs)
    return DriftRow(point, lhs, rhs, margin, 0.0, margin >= 0.0)


def _freeze(fit: float, side: int) -> float:
    """A fitted constant moved by HEADROOM relative and _FREEZE_STEP
    absolute toward its feasible side (``side`` +1 where larger values are
    feasible, -1 where smaller ones are), so that frozen rows clear the
    rule they were fitted to."""
    return fit * (1.0 + HEADROOM if (fit >= 0.0) == (side > 0) else 1.0 - HEADROOM) + side * _FREEZE_STEP


def _region(pt) -> dict:
    return {"region": "center" if pt.inside else "tail"}


def _certify(
    check: str,
    grid: GridSpec,
    lyap: StateLyapunov,
    center_radius: float,
    estimate: Callable,
    rhs: Callable,
    fit: Callable,
    notes: Optional[dict] = None,
    lhs: Callable = lambda k, pt: pt.est,
    label: Callable = _region,
) -> DriftReport:
    """The drift skeleton of the module docstring, for one check.

    Walks theta, then x.  A point has ``i``, its position and substream
    index, ``param``, ``x`` (a float on a one-dimensional target, else the
    array with every coordinate x), ``v`` = V(x), ``inside`` (|x| <=
    center_radius) and ``est``: ``estimate(param, x, rng)``, the point's
    values and then their error term (``rng`` is None by quadrature).  An
    OverflowError or a value that is not finite makes ``est`` None, an inf
    row.  ``fit(points, slack)`` sees the other points and returns the
    report's fitted constants in order, the feasible side (+1 or -1) of each
    one to freeze, the point index that set each of those, and which points
    the report keeps (a predicate, or None for all).  A kept row's sides are
    ``lhs(constants, point)`` -> (lhs, se) and ``rhs(constants, point)``; a
    row that set a frozen constant that is not finite and positive fails.
    The report's verdict is ``DriftReport.passed``.
    """
    mc = grid.method == METHOD_MONTE_CARLO
    dim = lyap.target.dim
    points = []
    for i, (param, x_raw) in enumerate((p, x) for p in grid.theta_grid for x in grid.x_grid):
        x = float(x_raw) if dim == 1 else np.full(dim, float(x_raw))
        v = float(lyap(x))
        inside = (abs(x) if dim == 1 else float(np.linalg.norm(x))) <= center_radius
        try:
            est = estimate(param, x, substream(grid.seed, i) if mc else None)
        except OverflowError:
            est = None
        if est is not None and not all(math.isfinite(u) for u in est[:-1]):
            est = None
        points.append(SimpleNamespace(i=i, param=param, x=x, v=v, inside=inside, est=est))

    constants, toward, binding, keep = fit([pt for pt in points if pt.est is not None], lambda se: _slack(se, mc))
    frozen = {
        name: _freeze(value, toward[name]) if name in toward and value is not None else value
        for name, value in constants.items()
    }
    blocked = {binding[name] for name in toward if not _admissible(frozen[name])}
    rows, row_of = [], {}
    for pt in points:
        if keep is not None and not keep(pt):
            continue
        lhs_val, se = (math.inf, math.inf) if pt.est is None else lhs(frozen, pt)
        point = {**_param_label(pt.param), "x": pt.x if dim == 1 else [float(u) for u in pt.x], **label(pt)}
        row = _row(point, lhs_val, rhs(frozen, pt), se, mc)
        row_of[pt.i] = len(rows)
        rows.append(row._replace(passed=row.passed and pt.i not in blocked))
    return DriftReport(check, _grid_dict(grid), frozen, rows,
                       {**(notes or {}), "binding_rows": {name: row_of.get(i) for name, i in binding.items()}})


# ---------------------------------------------------------------------------
# fixed-theta state drift: P_theta V <= [V - V**iota / a] outside the center,
# <= b inside


def verify_fixed_theta_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    lyap: StateLyapunov,
    coef: DriftCoefficients,
    grid: GridSpec,
    center_radius: float,
) -> DriftReport:
    """Certificate for the state-space drift at frozen kernel parameters.

    Fits the largest rate constant ``a0`` and the smallest level bound
    ``b`` whose rows clear their slack, in closed form: each tail row caps
    ``a0``, each center row floors ``b``.  Passes when ``a0`` is positive
    and every row passes at the frozen constants; a tail row with no
    deficit beyond its slack (P V = V, say) caps ``a0`` at or below 0 and
    fails the check.
    """
    mc = grid.method == METHOD_MONTE_CARLO

    def estimate(param, x, rng):
        if mc:
            return _mean_se(_one_step_pairs(target, proposal, lyap, param, x, grid.mc_n, rng)[0])
        return apply_kernel_to_function(target, proposal, param, lyap.log, x), 0.0

    def rhs(k, pt):
        if pt.inside:
            return k["b"]
        # a rate that fits no row is judged at the scenario's own a0
        a0 = k["a0"] if k["a0"] > 0 else coef.a0
        return pt.v - pt.v**coef.iota / coef._replace(a0=a0).a(pt.param)

    def fit(points, slack):
        # each tail row caps a0 (coef.a(param) * coef.a0 is the scenario's
        # rate with the a0 scale removed), each center row floors b
        caps = [((pt.v - pt.est[0] - slack(pt.est[1])) * (coef.a(pt.param) * coef.a0) / pt.v**coef.iota, pt.i)
                for pt in points if not pt.inside]
        floors = [(pt.est[0] + slack(pt.est[1]), pt.i) for pt in points if pt.inside]
        a0, a0_at = min(caps, default=(None, None))
        b, b_at = max(floors, key=lambda floor: floor[0], default=(None, None))
        return ({"a0": a0, "b": b, "iota": coef.iota, "center_radius": center_radius},
                {"a0": -1, "b": 1}, {"a0": a0_at, "b": b_at}, None)

    return _certify("fixed_theta_drift", grid, lyap, center_radius, estimate, rhs, fit)


def deficit_loglog_slope(
    target: TargetModel,
    eta: float,
    x: float,
    sigmas: Sequence[float],
) -> tuple[float, list[float]]:
    """Log-log slope of the drift deficit ``V(x) - P_sigma V(x)`` against
    the proposal radius, for regime-structure checks.  Requires every
    deficit on the grid to be positive.

    States the paper's regime structure of the uniform random-walk drift on
    a subexponential target, which acceptance criterion 5 tests: the deficit
    grows as sigma**2 for radii small against x and decays as 1/sigma for
    radii beyond x.  No command reaches it.
    """
    if len(sigmas) < 2:
        raise ValueError("need at least two proposal radii for a slope")
    lyap = StateLyapunov(target, eta)
    spec = ProposalSpec(family=FAMILY_UNIFORM, parametrization=PARAM_SCALAR_LOG_SCALE)
    deficits = []
    v = float(lyap(x))
    for sigma in sigmas:
        pv = apply_kernel_to_function(target, spec, math.log(sigma), lyap.log, float(x))
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
    sigma = exp_or_inf(param)
    if not math.isfinite(sigma):
        raise ValueError("proposal radius overflow")
    lx = float(target.log_density(x))

    def integrand(z: float) -> float:
        alpha = acceptance(float(target.log_density(x + z)), lx)
        t_new = scalar_update(rule.kind, param, alpha, gamma, rule.alpha_star)[0]
        return weight(t_new) / (2.0 * sigma)

    points = acceptance_breakpoints(target, x, sigma)
    return integrate_interval(integrand, -sigma, sigma, tol=QUAD_TOL, points=points)


def verify_w_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    rule: AdaptationRule,
    coef: DriftCoefficients,
    grid: GridSpec,
    lyap: StateLyapunov,
    center_radius: float,
) -> DriftReport:
    """Certificate for the parameter drift with the scenario slope function,
    in the scenario's weight ``coef.weight()``.

    The slope constant is the smallest value making every row clear its
    slack, found by geometric bisection on [1e-6, 1e12] (the right side
    grows with the constant); it is inf when no value up to 1e12 does, and
    the rows are then judged at the scenario's own constant.
    """
    weight = coef.weight()
    mc = grid.method == METHOD_MONTE_CARLO

    # sup of V**beta over the center set enters d(theta); exact for
    # one-dimensional targets that decay monotonically away from the mode
    sup_vbeta = max(
        float(lyap(xx)) ** coef.beta
        for xx in {0.0, center_radius, -center_radius}
    )
    coef = coef._replace(sup_c_vbeta=sup_vbeta)
    gamma = coef.gamma_max

    def estimate(param, x, rng):
        if mc:
            return _mean_se(_one_step_pairs(target, proposal, lyap, param, x, grid.mc_n, rng, rule, weight, gamma)[1])
        return _w_drift_lhs_quadrature(target, proposal, rule, weight, param, x, gamma), 0.0

    def rhs_at(cc: DriftCoefficients, pt) -> float:
        arg = cc.d(pt.param) if pt.inside else cc.c(pt.param) + pt.v**cc.beta / cc.e(pt.param)
        return weight(pt.param) * (1.0 - gamma * cc.delta(arg))

    def rhs(k, pt):
        c = k["slope_c"]
        return rhs_at(coef._replace(slope_c=c) if c is not None and math.isfinite(c) else coef, pt)

    def fit(points, slack):
        def worst(c: float) -> tuple[float, Optional[int]]:
            """The smallest margin beyond the slack at slope constant c, and its row."""
            cc = coef._replace(slope_c=c)
            return min(((rhs_at(cc, pt) - pt.est[0] - slack(pt.est[1]), pt.i) for pt in points),
                       default=(math.inf, None))

        lo, hi = 1e-6, 1e12
        c = lo
        if worst(hi)[0] < 0.0:
            c = math.inf
        elif worst(lo)[0] < 0.0:
            a, c = lo, hi
            for _ in range(200):
                mid = math.sqrt(a * c)
                if worst(mid)[0] >= 0.0:
                    c = mid
                else:
                    a = mid
                if c - a <= _BISECT_RTOL * max(1.0, c):
                    break
        return ({"slope_c": c if points else None, "sup_center_vbeta": sup_vbeta, "beta": coef.beta,
                 "delta0": coef.delta0(), "center_radius": center_radius, "gamma_max": gamma},
                {"slope_c": 1}, {"slope_c": worst(min(c, hi))[1]}, None)

    return _certify("w_drift", grid, lyap, center_radius, estimate, rhs, fit,
                    notes={"scenario": coef.scenario}, label=lambda pt: {"gamma": gamma, **_region(pt)})


# ---------------------------------------------------------------------------
# compound drift: one adaptive step must contract lam*V + w/gamma outside
# a joint level set


def verify_compound_drift(
    target: TargetModel,
    proposal: ProposalSpec,
    rule: AdaptationRule,
    lyap_v: StateLyapunov,
    grid: GridSpec,
    coef: DriftCoefficients,
    center_radius: float,
) -> DriftReport:
    """Monte-Carlo certificate for the one-step compound contraction, in
    the scenario's weight ``coef.weight()``.

    Searches doubling ``lam_star`` values and parameter-weight levels
    ``m_star`` (lexicographically) for the smallest pair giving a positive
    contraction rate ``delta`` with every outside row clearing its slack;
    the points inside the joint center (weight at most ``m_star`` and x in
    the center ball) are dropped.  When the search fails it reports the
    best candidate's delta and judges the candidate's rows at delta = 0, so
    the rows that block a positive delta fail.
    The one stepsize, ``coef.gamma_max``, is paired with itself, so the
    inverse-difference ceiling on stepsize pairs reduces to ``delta(0) > 0``.

    Each point's one-step expectations of V and w come from
    :func:`_one_step_pairs`, as ``mc_n // 2`` antithetic pair samples with
    the accept coin integrated out.  Certifiable margins at desk-scale
    sample sizes need this: the state Lyapunov spans many orders of
    magnitude across the grid and a raw estimator's noise would otherwise
    swamp genuinely positive drift gaps.
    """
    if not coef.delta0() > 0.0:
        raise ValueError("compound drift needs a slope function with delta(0) > 0")
    grid = grid._replace(method=METHOD_MONTE_CARLO)
    n_pairs = grid.mc_n // 2
    gamma = coef.gamma_max
    weight = coef.weight()

    def estimate(param, x, rng):
        """The means of V and w one step on, then the variances and the
        covariance of their pairs in units of 4**top, and top: each side is
        _pow2_scaled, so the sums stay in the float range; inf or nan, as in
        _mean_se, when a sample is."""
        (v_pair, kv), (w_pair, kw) = map(_pow2_scaled, _one_step_pairs(
            target, proposal, lyap_v, param, x, grid.mc_n, rng, rule, weight, gamma))
        top = max(kv, kw)
        with np.errstate(over="ignore", invalid="ignore"):
            return math.ldexp(float(v_pair.mean()), kv), math.ldexp(float(w_pair.mean()), kw), (
                math.ldexp(float(v_pair.var(ddof=1)), 2 * (kv - top)),
                math.ldexp(float(w_pair.var(ddof=1)), 2 * (kw - top)),
                math.ldexp(float(np.cov(v_pair, w_pair, ddof=1)[0, 1]), kv + kw - 2 * top), top)

    def lhs(k, pt):
        """(mean, SE) of lam * V + w / gamma one step on."""
        lam = k["lam_star"]
        mean_v, mean_w, (var_v, var_w, cov_vw, top) = pt.est
        var_s = lam * lam * var_v + 2.0 * lam * cov_vw / gamma + var_w / gamma**2
        with np.errstate(over="ignore"):  # inf past the float range
            return lam * mean_v + mean_w / gamma, float(np.ldexp(math.sqrt(max(var_s, 0.0) / n_pairs), top))

    def denom(pt):
        return pt.v**coef.iota / coef.a(pt.param) + weight(pt.param)

    def rhs(k, pt):
        delta = k["delta"] if k["found"] else 0.0
        return k["lam_star"] * pt.v + weight(pt.param) / gamma - delta * denom(pt)

    def outside(pt, m_star):
        return not (weight(pt.param) <= m_star and pt.inside)

    w_levels = sorted({weight(t) for t in grid.theta_grid})
    lam_values = [float(2**k) for k in range(11)]

    def fit(points, slack):
        def fitted(lam, m_star, delta, at):
            return ({"lam_star": lam, "m_star": m_star, "delta": delta, "center_radius": center_radius,
                     "gamma_max": gamma, "found": delta > 0.0},
                    {"delta": -1}, {"delta": at}, lambda pt: outside(pt, m_star))

        # with no candidate every point lies in the joint center, so no row is kept
        best = (1.0, w_levels[0], math.nan, None)
        for lam in lam_values:
            k = {"lam_star": lam}
            caps = []  # per point, the largest delta its row allows
            for pt in points:
                mean_s, se = lhs(k, pt)
                caps.append(((lam * pt.v + weight(pt.param) / gamma - mean_s - slack(se)) / denom(pt), pt.i))
            for m_star in w_levels:
                delta, at = min((cap for cap, pt in zip(caps, points) if outside(pt, m_star)),
                                default=(None, None))
                if delta is not None and not delta <= best[2]:  # a nan best is no candidate yet
                    best = (lam, m_star, delta, at)
                    if delta > 0.0:
                        return fitted(*best)
        return fitted(*best)

    return _certify("compound_drift", grid, lyap_v, center_radius, estimate, rhs, fit,
                    notes={"scenario": coef.scenario, "searched_lam": lam_values, "w_levels": w_levels},
                    lhs=lhs, label=lambda pt: {"gamma": gamma})


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
    constants are fitted as grid maxima of the levels (1/2 - alpha) / sigma
    and alpha * sigma / scale, and each names the row that set it.  Two
    conditions make a blow-up at either radius extreme fail the report:
    ``stabilized_small_sigma`` bounds the rise of the level from the second
    smallest radius to the smallest, and ``stabilized_large_sigma`` the
    growth of each start point's last large-radius level, tested only over
    radii that cover the point, since the 1/sigma scaling has no reason to
    hold while sigma < x.
    """
    p = target.tail.exponent
    sigmas = sorted(float(s) for s in sigma_grid)
    xs = [float(x) for x in x_grid]
    alphas = {(s, x): mean_acceptance(target, s, x) for s in sigmas for x in xs}
    # tail scale (-log density)**(1/p), floored at 1, of each start point
    scales = {}
    for x in xs:
        l_val = float(target.log_density(x))
        scales[x] = max((-l_val) ** (1.0 / p) if l_val < 0 else 0.0, 1.0)

    # the level of each row, in row order: the lower bound's at sigma <= 1,
    # the upper bound's at sigma >= 1
    levels = {}
    for s in sigmas:
        for x in xs:
            if s <= 1.0:
                levels[("lower", s, x)] = (0.5 - alphas[(s, x)]) / s
            if s >= 1.0:
                levels[("upper", s, x)] = alphas[(s, x)] * s / scales[x]
    keys = list(levels)  # row i is keys[i]'s
    # the row that sets each constant: its bound's largest level
    top = {name: max((i for i, key in enumerate(keys) if key[0] == bound), key=lambda i: levels[keys[i]], default=None)
           for name, bound in (("c_minus", "lower"), ("c_plus", "upper"))}
    c_minus = None if top["c_minus"] is None else _freeze(max(0.0, levels[keys[top["c_minus"]]]), 1)
    c_plus = None if top["c_plus"] is None else _freeze(levels[keys[top["c_plus"]]], 1)

    rows = []
    for bound, s, x in levels:
        a_val = alphas[(s, x)]
        point = {"sigma": s, "x": x, "bound": bound}
        if bound == "lower":
            rows.append(_row(point, 0.5 - c_minus * s, a_val))
        else:
            rows.append(_row(point, a_val, c_plus * scales[x] / s))

    low = [max(levels[("lower", s, x)] for x in xs) for s in sigmas if s <= 1.0]
    growth = []
    for x in xs:
        engaged = [levels[("upper", s, x)] for s in sigmas if s >= max(x, 1.0)]
        if len(engaged) >= 2:
            growth.append(engaged[-1] - _LARGE_SIGMA_GROWTH * max(engaged[:-1]))
    return DriftReport(
        "acceptance_bounds",
        {"sigma_grid": sigmas, "x_grid": xs, "method": METHOD_QUADRATURE, "mc_n": None},
        {"c_minus": c_minus, "c_plus": c_plus, "tail_exponent": p},
        rows,
        {"binding_rows": top,
         "conditions": {"stabilized_small_sigma": _condition(low[0] - low[1] if len(low) >= 2 else None,
                                                             _SMALL_SIGMA_SLACK),
                        "stabilized_large_sigma": _condition(max(growth, default=None), _LARGE_SIGMA_SLACK)}},
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
    return exp_or_inf(expo * diff)


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

    outward = cross_accept = 0.0
    if sigma >= x:
        outward = q * integrate_interval(
            lambda z: _phi(target, x, 1.0 - eta, 1.0, z) - _phi(target, x, 1.0, 1.0, z),
            x, sigma, tol=_DECOMP_TOL,
        )
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
    tail analysis claims (the conditions ``profile_max`` and
    ``cross_accept_max``).

    The inward/outward deficit only engages beyond a threshold radius: for
    moderate x the outward mass can still dominate, so the fitted rate
    eps_t is frozen on the suffix of the x grid where every level keeps
    the deficit strictly negative at all sigma >= x.  The smallest such
    level is reported as r_t.  With no qualifying level r_t is None and
    eps_t is the worst rate on the grid, which is not positive, so the
    report fails.  eps_t names the row of its (x, sigma), and r_t the
    worst-rate row of the tail level just below it."""
    eta = lyap.eta
    rows = []
    profile_max = -math.inf
    cross_accept_max = -math.inf
    worst: dict[float, tuple[float, int]] = {}  # tail level x -> (worst rate over sigma >= x, its row)
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
            if sf >= xf:
                cross_accept_max = max(cross_accept_max, terms["cross_accept"])
                rate = (-(terms["local"] + terms["outward"]) * sf / xf, len(rows))
                worst[xf] = min(worst.get(xf, rate), rate)
            rows.append(_agreement_row({"sigma": sf, "x": xf}, lhs, rhs, _RESIDUAL_TOL))
    levels = sorted(worst)
    k = len(levels)  # the qualifying suffix is levels[k:]
    while k > 0 and worst[levels[k - 1]][0] > 0.0:
        k -= 1
    r_t = levels[k] if k < len(levels) else None
    # with no qualifying level, the worst rate of every level
    eps_t, eps_at = min((worst[xv] for xv in levels[k:] or levels), default=(None, None))
    return DriftReport(
        "decomposition",
        {"sigma_grid": [float(s) for s in sigma_grid], "x_grid": [float(x) for x in x_grid],
         "method": METHOD_QUADRATURE, "mc_n": None},
        {"eps_t": eps_t, "r_t": r_t, "residual_tol": _RESIDUAL_TOL},
        rows,
        {"binding_rows": {"eps_t": eps_at, "r_t": worst[levels[k - 1]][1] if 0 < k < len(levels) else None},
         "conditions": {"profile_max": _condition(profile_max, _SIGN_TOL),
                        "cross_accept_max": _condition(cross_accept_max if worst else None, _SIGN_TOL)}},
    )


# ---------------------------------------------------------------------------
# two-state chain: invariant row vector and second eigenvalue


# Largest gap between the closed-form and the computed second eigenvalue,
# and largest invariance residual of the uniform row vector.
_EIG_TOL = 1e-12
_INV_TOL = 1e-14


def verify_toy(theta_grid: Sequence[float]) -> DriftReport:
    """Closed-form second eigenvalue against a direct eigendecomposition,
    one row per theta, plus exact invariance of the uniform row vector, the
    condition ``invariance_residual``."""
    rows, residuals = [], []
    pi = np.array([0.5, 0.5])
    for t in theta_grid:
        tf = float(t)
        p = toy_transition_matrix(tf)
        # the chain's spectrum is {1, lambda} with lambda < 1, so the
        # second eigenvalue is identified without referencing the formula
        second = float(np.min(np.linalg.eigvals(p).real))
        residuals.append(float(np.max(np.abs(pi @ p - pi))))
        rows.append(_agreement_row({"theta": tf}, toy_second_eigenvalue(tf), second, _EIG_TOL))
    return DriftReport(
        "toy",
        {"theta_grid": [float(t) for t in theta_grid], "method": "exact", "mc_n": None},
        {"eig_tol": _EIG_TOL},
        rows,
        {"conditions": {"invariance_residual": _condition(max(residuals, default=None), _INV_TOL)}},
    )
