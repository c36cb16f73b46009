"""Adaptive-chain simulation and recurrence diagnostics.

One step of the controlled chain: draw the next state from the current
kernel, then move the kernel parameter with the adaptation rule and the
stepsize schedule.  Trajectories record states, parameters, acceptance
data, Lyapunov values, and membership in the recurrence set
``{w(theta) <= M} x {|x| <= R}``.

Divergence policy: a run halts as soon as any parameter component leaves
[-1e12, 1e12] or turns non-finite, or the 1-D running-moments variance
turns negative; the trajectory is flagged rather than raising, so replica
sweeps can count failures.

The toy chain runs on one lockstep engine: all replicas advance together
as numpy vectors, each drawing its uniforms in blocks from its own
substream, with a block length chosen so that block length times replica
count stays near 2**15 elements.  Each block is reduced to per-replica
recurrence statistics as the run goes, and only replica 0 keeps its path,
so ``record_stride`` thins that trajectory and never the statistics.  The
srwm paths run one replica at a time and reduce its full stride-1
trajectory.

The multivariate path evaluates the target once per step, at the proposal:
log pi of the current state is carried from step to step, and V is computed
from it.  It builds and checks one kernel parameter per step, which serves
both the recorded w and the next proposal.  ``Trajectory.to_csv`` formats
blocks of rows a column at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adaptation import (
    RULE_AM,
    RULE_COERCED,
    RULE_FAST_COERCED,
    RULE_FIXED,
    RULE_TOY_MEAN,
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    MeanFieldAM,
    PolynomialSchedule,
    Schedule,
    am_increment,
    am_update,
    coerced_update,
    fast_coerced_update,
    gamma_at,
    kesten_advance,
)
from .kernels import (
    FAMILY_GAUSSIAN,
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    RW_SCALE,
    AMParam,
    ProposalSpec,
    ScalarParam,
    srwm_step,
)
from .lyapunov import (
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    CompoundSpec,
    ParamLyapunov,
    StateLyapunov,
    compound_value,
)
from .streams import substream

THETA_MAX = 1e12

CHAIN_SRWM = "srwm"
CHAIN_TOY = "toy"


@dataclass(frozen=True)
class ChainConfig:
    """Everything needed to reproduce one adaptive run."""

    kind: str
    rule: AdaptationRule
    schedule: Schedule
    theta0: float | AMParam
    x0: float | int | np.ndarray
    horizon: int
    seed: int
    recurrence_m: float
    recurrence_r: float
    target: Optional[object] = None
    proposal: Optional[ProposalSpec] = None
    record_stride: int = 1
    state_lyapunov: Optional[StateLyapunov] = None
    param_weight: ParamLyapunov = field(default_factory=lambda: ParamLyapunov("one_plus_square"))
    compound: CompoundSpec = field(default_factory=CompoundSpec)
    moments: Optional[MeanFieldAM] = None

    def __post_init__(self):
        if self.kind not in (CHAIN_SRWM, CHAIN_TOY):
            raise ValueError(f"unknown chain kind {self.kind!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (self.recurrence_m >= 1.0):
            raise ValueError("recurrence level M must be >= 1")
        if not (self.recurrence_r > 0.0):
            raise ValueError("recurrence radius R must be positive")
        if self.kind == CHAIN_TOY:
            if self.rule.kind != RULE_TOY_MEAN:
                raise ValueError("toy chain requires the toy_mean rule")
            if self.x0 not in (0, 1):
                raise ValueError("toy chain state must start in {0, 1}")
        else:
            if self.target is None or self.proposal is None:
                raise ValueError("srwm chain requires a target and a proposal")
            if self.rule.kind == RULE_TOY_MEAN:
                raise ValueError("toy_mean rule requires the toy chain")
            if self.rule.kind == RULE_AM:
                if not isinstance(self.theta0, AMParam):
                    raise ValueError("am rule requires an AMParam initial parameter")
                if self.proposal.parametrization != PARAM_AM_COVARIANCE:
                    raise ValueError("am rule requires the covariance parametrization")
            else:
                if isinstance(self.theta0, AMParam):
                    raise ValueError("scalar rules require a scalar initial parameter")
                if self.proposal.parametrization != PARAM_SCALAR_LOG_SCALE:
                    raise ValueError("scalar rules require the scalar log-scale parametrization")


@dataclass
class Trajectory:
    """Recorded rows of one run.  Row 0 is the initial condition."""

    index: np.ndarray
    theta: np.ndarray
    theta_labels: list[str]
    x: np.ndarray
    y: np.ndarray
    accepted: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    v: np.ndarray
    w: np.ndarray
    compound: np.ndarray
    in_set: np.ndarray
    kesten_counts: Optional[np.ndarray]
    record_stride: int
    horizon: int
    diverged: bool
    halt_index: Optional[int]
    replica: int
    recurrence_m: float
    recurrence_r: float

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def column_names(self) -> list[str]:
        xcols = ["x"] if self.dim == 1 else [f"x_{j+1}" for j in range(self.dim)]
        ycols = ["y"] if self.dim == 1 else [f"y_{j+1}" for j in range(self.dim)]
        cols = (
            ["i"]
            + list(self.theta_labels)
            + xcols
            + ycols
            + ["accepted", "alpha", "gamma_i", "V", "w", "W", "in_C"]
        )
        if self.kesten_counts is not None:
            cols.append("s")
        return cols

    def to_csv(self, path) -> None:
        """Write the rows under ``column_names()``: integers and flags as
        integers, floats by ``repr`` (so they read back exactly).  Cells are
        formatted a column at a time, ``_CSV_CHUNK_ROWS`` rows at a time."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            for lo in range(0, self.index.shape[0], _CSV_CHUNK_ROWS):
                rows = slice(lo, lo + _CSV_CHUNK_ROWS)
                cols = [_int_cells(self.index[rows])]
                for block in (self.theta[rows], self.x[rows], self.y[rows]):
                    cols += [_float_cells(c) for c in block.T]
                cols.append(_int_cells(self.accepted[rows]))
                cols += [_float_cells(c[rows]) for c in (self.alpha, self.gamma, self.v, self.w, self.compound)]
                cols.append(_int_cells(self.in_set[rows]))
                if self.kesten_counts is not None:
                    cols.append(_int_cells(self.kesten_counts[rows]))
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


# Rows per block of Trajectory.to_csv.  Only one block's cells are held at a
# time: whole columns at once raise a long run's peak memory by several MB,
# and blocks of 1,024 rows still add about 0.8 MB (2 %) to a 2,001-row toy
# run's.  At 128 rows the writer is as fast and the peak does not move.
_CSV_CHUNK_ROWS = 128


def _float_cells(col: np.ndarray) -> list[str]:
    return list(map(repr, col.tolist()))


def _int_cells(col: np.ndarray) -> list[str]:
    return list(map(str, col.astype(np.int64).tolist()))


class _Recorder:
    def __init__(self, theta_labels, dim, kesten: bool):
        self.theta_labels = theta_labels
        self.dim = dim
        self.kesten = kesten
        self.idx: list[int] = []
        self.theta: list[tuple] = []
        self.x: list[tuple] = []
        self.y: list[tuple] = []
        self.accepted: list[bool] = []
        self.alpha: list[float] = []
        self.gamma: list[float] = []
        self.v: list[float] = []
        self.w: list[float] = []
        self.compound: list[float] = []
        self.in_set: list[bool] = []
        self.counts: list[int] = []

    def add(self, i, theta, x, y, accepted, alpha, gamma, v, w, comp, in_set, s=0):
        self.idx.append(i)
        self.theta.append(theta)
        self.x.append(x)
        self.y.append(y)
        self.accepted.append(accepted)
        self.alpha.append(alpha)
        self.gamma.append(gamma)
        self.v.append(v)
        self.w.append(w)
        self.compound.append(comp)
        self.in_set.append(in_set)
        if self.kesten:
            self.counts.append(s)

    def build(self, config: ChainConfig, diverged, halt_index, replica) -> Trajectory:
        return Trajectory(
            index=np.asarray(self.idx, dtype=np.int64),
            theta=np.asarray(self.theta, dtype=float).reshape(len(self.idx), -1),
            theta_labels=self.theta_labels,
            x=np.asarray(self.x, dtype=float).reshape(len(self.idx), self.dim),
            y=np.asarray(self.y, dtype=float).reshape(len(self.idx), self.dim),
            accepted=np.asarray(self.accepted, dtype=bool),
            alpha=np.asarray(self.alpha, dtype=float),
            gamma=np.asarray(self.gamma, dtype=float),
            v=np.asarray(self.v, dtype=float),
            w=np.asarray(self.w, dtype=float),
            compound=np.asarray(self.compound, dtype=float),
            in_set=np.asarray(self.in_set, dtype=bool),
            kesten_counts=np.asarray(self.counts, dtype=np.int64) if self.kesten else None,
            record_stride=config.record_stride,
            horizon=config.horizon,
            diverged=diverged,
            halt_index=halt_index,
            replica=replica,
            recurrence_m=config.recurrence_m,
            recurrence_r=config.recurrence_r,
        )


def run_chain(config: ChainConfig, rng: Optional[np.random.Generator] = None, replica: int = 0) -> Trajectory:
    """Run one adaptive chain; deterministic given (config, seed, replica)."""
    if rng is None:
        rng = substream(config.seed, replica)
    if config.kind == CHAIN_TOY:
        return _run_toy_replicas(config, [rng], replica=replica)[1]
    if config.rule.kind == RULE_AM:
        if config.theta0.mu.shape[0] == 1 and config.proposal.family in (
            FAMILY_GAUSSIAN,
            FAMILY_STUDENT,
        ):
            return _run_am_1d(config, rng, replica)
        return _run_generic(config, rng, replica)
    return _run_scalar(config, rng, replica)


def _kesten_on(schedule) -> bool:
    return isinstance(schedule, KestenSchedule)


def _schedule_constants(schedule) -> tuple[str, float, float, float]:
    """Hoisted form for loop-inlined stepsizes; arithmetic identical to
    gamma_at so recorded values match it bit for bit."""
    if isinstance(schedule, PolynomialSchedule):
        return ("poly", schedule.c0, schedule.c1, schedule.a)
    if isinstance(schedule, ConstantSchedule):
        return ("const", schedule.gamma0, 0.0, 0.0)
    return ("kesten", 0.0, 0.0, 0.0)


def _run_scalar(config: ChainConfig, rng, replica: int) -> Trajectory:
    """Scalar log-scale rules (coerced / fast_coerced / fixed) in one dimension
    or with scalar proposals; tight loop over python floats."""
    target = config.target
    if target.dim != 1:
        return _run_generic(config, rng, replica)
    spec = config.proposal
    rule = config.rule
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    n = config.horizon
    stride = config.record_stride
    eta = config.state_lyapunov.eta if config.state_lyapunov is not None else 0.0
    weight = config.param_weight
    comp = config.compound
    m_level = config.recurrence_m
    r_level = config.recurrence_r
    alpha_star = rule.alpha_star if rule.alpha_star is not None else 0.0
    fast = rule.kind == RULE_FAST_COERCED
    fixed = rule.kind == RULE_FIXED

    logp = target.log_density
    exp = math.exp
    draw_normal = rng.standard_normal
    draw_uniform = rng.random
    draw_t = rng.standard_t
    family = spec.family
    dof = spec.student_dof

    theta = float(config.theta0)
    x = float(np.asarray(config.x0, dtype=float).reshape(()))
    lx = float(logp(x))
    s = 0
    h_prev: Optional[float] = None

    rec = _Recorder(["theta_1"], 1, kesten)

    isfinite = math.isfinite
    w_exp_abs = weight.variant == W_EXP_ABS
    w_plus_sq = weight.variant == W_ONE_PLUS_SQUARE
    uv, uw = comp.upsilon_v, comp.upsilon_w
    u_mode = comp.mode == "U"
    sched_kind, sc0, sc1, sca = _schedule_constants(schedule)

    def record(i, th, xx, yy, acc, al, gm, lxx, count):
        v = exp(-eta * lxx) if -eta * lxx < 700.0 else math.inf
        if w_exp_abs:
            a_th = abs(th)
            wv = exp(a_th) if a_th < 700.0 else math.inf
        elif w_plus_sq:
            wv = 1.0 + th * th
        else:
            wv = weight(th)
        if isfinite(wv) and isfinite(v):
            cv = v**uv + wv**uw / gm
            if u_mode:
                cv = gm * cv
        else:
            cv = math.inf
        inside = wv <= m_level and abs(xx) <= r_level
        rec.add(i, (th,), (xx,), (yy,), acc, al, gm, v, wv, cv, inside, count)

    gamma0 = gamma_at(schedule, 1, 0 if kesten else None)
    record(0, theta, x, x, False, math.nan, gamma0, lx, 0)

    diverged = False
    halt_index: Optional[int] = None
    for i in range(1, n + 1):
        if sched_kind == "poly":
            gm = sc0 / (sc1 + i) ** sca
        elif sched_kind == "const":
            gm = sc0
        else:
            gm = gamma_at(schedule, i, s)
        sigma = exp(theta) if theta < 700.0 else math.inf
        if family == FAMILY_GAUSSIAN:
            z = sigma * draw_normal()
        elif family == FAMILY_UNIFORM:
            z = sigma * (2.0 * draw_uniform() - 1.0)
        else:
            z = sigma * draw_t(dof)
        y = x + z
        ly = float(logp(y))
        d = ly - lx
        alpha = 1.0 if d >= 0.0 else exp(d)
        accepted = draw_uniform() < alpha
        if accepted:
            x, lx = y, ly
        if fixed:
            h_cur = 0.0
        elif fast:
            h_cur = (abs(theta) + 1.0) * (alpha - alpha_star)
            theta = theta + gm * h_cur
        else:
            h_cur = alpha - alpha_star
            theta = theta + gm * h_cur
        if kesten:
            if h_prev is not None and h_prev * h_cur < 0.0:
                s += 1
            h_prev = h_cur
        if not (math.isfinite(theta) and abs(theta) <= THETA_MAX and math.isfinite(x)):
            diverged = True
            halt_index = i
            record(i, theta, x, y, accepted, alpha, gm, lx, s)
            break
        if i % stride == 0 or i == n:
            record(i, theta, x, y, accepted, alpha, gm, lx, s)
    return rec.build(config, diverged, halt_index, replica)


def _run_am_1d(config: ChainConfig, rng, replica: int) -> Trajectory:
    """Running-moments rule in one dimension; scalar fast path."""
    target = config.target
    spec = config.proposal
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    n = config.horizon
    stride = config.record_stride
    eta = config.state_lyapunov.eta if config.state_lyapunov is not None else 0.0
    weight = config.param_weight
    comp = config.compound
    m_level = config.recurrence_m
    r_level = config.recurrence_r
    eps = spec.eps_ridge
    scale2 = RW_SCALE * RW_SCALE
    gaussian = spec.family == FAMILY_GAUSSIAN
    dof = spec.student_dof

    logp = target.log_density
    exp = math.exp
    sqrt = math.sqrt
    draw_normal = rng.standard_normal
    draw_uniform = rng.random
    draw_t = rng.standard_t

    mu = float(config.theta0.mu[0])
    g = float(config.theta0.cov[0, 0])
    x = float(np.asarray(config.x0, dtype=float).reshape(()))
    lx = float(logp(x))
    s = 0
    h_prev: Optional[tuple[float, float]] = None

    rec = _Recorder(["mu_1", "cov_11"], 1, kesten)

    isfinite = math.isfinite
    am_poly = weight.variant == W_AM_POLY
    w_expo = 2.0 + weight.eps
    uv, uw = comp.upsilon_v, comp.upsilon_w
    u_mode = comp.mode == "U"
    sched_kind, sc0, sc1, sca = _schedule_constants(schedule)

    def record(i, xx, yy, acc, al, gm, lxx, count):
        v = exp(-eta * lxx) if -eta * lxx < 700.0 else math.inf
        if am_poly:
            # same arithmetic as the weight on a 1x1 running-moment pair
            wv = 1.0 + abs(mu) ** w_expo + abs(g)
        else:
            wv = weight(AMParam(mu=np.array([mu]), cov=np.array([[g]])))
        if isfinite(wv) and isfinite(v):
            cv = v**uv + wv**uw / gm
            if u_mode:
                cv = gm * cv
        else:
            cv = math.inf
        inside = wv <= m_level and abs(xx) <= r_level
        rec.add(i, (mu, g), (xx,), (yy,), acc, al, gm, v, wv, cv, inside, count)

    gamma0 = gamma_at(schedule, 1, 0 if kesten else None)
    record(0, x, x, False, math.nan, gamma0, lx, 0)

    diverged = False
    halt_index: Optional[int] = None
    for i in range(1, n + 1):
        if sched_kind == "poly":
            gm = sc0 / (sc1 + i) ** sca
        elif sched_kind == "const":
            gm = sc0
        else:
            gm = gamma_at(schedule, i, s)
        var = scale2 * (g + eps)
        sd = sqrt(var) if var > 0 else 0.0
        z = sd * draw_normal() if gaussian else sd * draw_t(dof)
        y = x + z
        ly = float(logp(y))
        d = ly - lx
        alpha = 1.0 if d >= 0.0 else exp(d)
        accepted = draw_uniform() < alpha
        if accepted:
            x, lx = y, ly
        dev = x - mu
        h_cur = (dev, dev * dev - g)
        mu = mu + gm * dev
        g = g + gm * (dev * dev - g)
        if kesten:
            if h_prev is not None and (h_prev[0] * h_cur[0] + h_prev[1] * h_cur[1]) < 0.0:
                s += 1
            h_prev = h_cur
        # a negative running variance is no covariance: halt as diverged
        if not (
            math.isfinite(mu)
            and 0.0 <= g <= THETA_MAX
            and abs(mu) <= THETA_MAX
            and math.isfinite(x)
        ):
            diverged = True
            halt_index = i
            record(i, x, y, accepted, alpha, gm, lx, s)
            break
        if i % stride == 0 or i == n:
            record(i, x, y, accepted, alpha, gm, lx, s)
    return rec.build(config, diverged, halt_index, replica)


# Steps x replicas held by one block of the toy engine's buffers; the block
# length follows from the replica count, so memory stays flat as it grows.
_BLOCK_ELEMENTS = 1 << 15


def _run_toy_replicas(
    config: ChainConfig,
    rngs: list,
    keep_first: bool = True,
    replica: int = 0,
) -> tuple[list[dict], Optional[Trajectory]]:
    """Two-state chain with the mean-tracking parameter update, one replica
    per generator in ``rngs``, all stepped together as numpy vectors.

    Each replica draws one uniform per step from its own generator, in
    blocks of B steps with B * len(rngs) near ``_BLOCK_ELEMENTS``; a block
    draw returns what B scalar draws would, so every replica sees exactly
    the numbers a one-chain loop sees.  After each block its rows are folded
    into the recurrence statistics and dropped, except replica 0's path,
    which becomes the returned trajectory (thinned by ``record_stride`` and
    labelled ``replica``) when ``keep_first``.  A replica that diverges is
    frozen at its halt row.  Returns one record per generator, in order,
    and the trajectory.
    """
    n = config.horizon
    n_rep = len(rngs)
    block = max(1, _BLOCK_ELEMENTS // n_rep)
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    if kesten:
        # step i uses the count left by steps 2..i-1, so at most n - 2
        gamma_table = np.array([schedule.gamma_of_count(c) for c in range(n)])
    weight = config.param_weight
    if weight.variant == W_ONE_PLUS_SQUARE:
        def weights(th):
            return 1.0 + th * th
    else:
        weights = np.vectorize(weight, otypes=[float])
    stats = _RecurrenceCounter(n_rep, config.recurrence_m, config.recurrence_r)

    theta = np.full(n_rep, float(config.theta0))
    x = np.full(n_rep, bool(config.x0))
    counts = np.zeros(n_rep, dtype=np.int64)
    end = np.full(n_rep, n, dtype=np.int64)  # halt index, or the horizon
    halted = np.zeros(n_rep, dtype=bool)
    active = np.arange(n_rep)
    final_theta = theta.copy()
    if keep_first:
        path_theta = np.empty(n + 1)
        path_x = np.empty(n + 1, dtype=bool)
        path_theta[0], path_x[0] = theta[0], x[0]

    start = 1
    # theta and w may overflow to inf, silently, as Python floats do
    with np.errstate(over="ignore"):
        stats.add(np.zeros(1, dtype=np.int64), np.abs(theta)[None], weights(theta)[None], x[None], active, end)
        while start <= n and active.size:
            rows = min(block, n - start + 1)
            u = np.empty((active.size, rows))
            for j, k in enumerate(active):
                rngs[k].random(out=u[j])
            u = np.ascontiguousarray(u.T)
            th_blk = np.empty((rows, active.size))
            x_blk = np.empty((rows, active.size), dtype=bool)
            # per-step work is a few ufunc calls, so they write into scratch
            # arrays: p holds exp(-|theta|), then the parameter increment
            p = np.empty(active.size)
            flipped = np.empty(active.size, dtype=bool)
            for b in range(rows):
                i = start + b
                gm = gamma_table[counts] if kesten else gamma_at(schedule, i)
                np.abs(theta, out=p)
                np.negative(p, out=p)
                np.exp(p, out=p)
                np.less(u[b], p, out=flipped)
                x = np.logical_xor(x, flipped, out=x_blk[b])
                if kesten and i > 1:
                    counts += flipped  # h_{i-1} * h_i < 0 exactly when x flips
                np.subtract(0.5, x, out=p)
                np.multiply(p, gm, out=p)
                theta = np.add(theta, p, out=th_blk[b])
            # freeze each replica at its first row past THETA_MAX; x needs no
            # freezing, since exp(-|theta|) is 0 there and x cannot flip
            bad = ~(np.abs(th_blk) <= THETA_MAX)
            for j in np.flatnonzero(bad.any(axis=0)):
                b = int(bad[:, j].argmax())
                th_blk[b + 1:, j] = th_blk[b, j]
                end[active[j]] = start + b
                halted[active[j]] = True
            index = np.arange(start, start + rows)
            stats.add(index, np.abs(th_blk), weights(th_blk), x_blk, active, end[active])
            final_theta[active] = th_blk[-1]
            if keep_first and active[0] == 0:
                path_theta[start:start + rows] = th_blk[:, 0]
                path_x[start:start + rows] = x_blk[:, 0]
            going = ~halted[active]
            active, theta, x, counts = active[going], th_blk[-1, going], x_blk[-1, going], counts[going]
            start += rows

    records = [
        {
            "replica": j,
            **stats.record(j),
            "diverged": bool(halted[j]),
            "halt_index": int(end[j]) if halted[j] else None,
            "acceptance_tail": None,
            "final_theta": [float(final_theta[j])],
        }
        for j in range(n_rep)
    ]
    traj = None
    if keep_first:
        traj = _toy_trajectory(config, path_theta, path_x, int(end[0]), bool(halted[0]), replica)
    return records, traj


def _toy_trajectory(config: ChainConfig, path_theta, path_x, end: int, diverged: bool, replica: int) -> Trajectory:
    """Rows 0, every ``record_stride``-th step and the last step of one toy
    path; w, W and in_C in scalar arithmetic, as a one-chain loop records
    them."""
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    weight = config.param_weight
    w_plus_sq = weight.variant == W_ONE_PLUS_SQUARE
    comp = config.compound
    uv, uw = comp.upsilon_v, comp.upsilon_w
    u_mode = comp.mode == "U"
    m_level = config.recurrence_m
    r_level = config.recurrence_r

    flipped = np.zeros(end + 1, dtype=bool)
    flipped[1:] = path_x[1:end + 1] != path_x[:end]
    counts = np.zeros(end + 1, dtype=np.int64)
    counts[2:] = np.cumsum(flipped[2:])
    steps = list(range(0, end + 1, config.record_stride))
    if steps[-1] != end:
        steps.append(end)

    gammas, ws, comps, inside = [], [], [], []
    for i, th, xx in zip(steps, path_theta[steps].tolist(), path_x[steps].tolist()):
        # row i >= 1 carries the stepsize step i used, under the count of
        # row i - 1; row 0 carries the first step's
        gm = gamma_at(schedule, max(i, 1), int(counts[max(i - 1, 0)]) if kesten else None)
        wv = 1.0 + th * th if w_plus_sq else weight(th)
        if math.isfinite(wv):
            cv = 1.0**uv + wv**uw / gm
            if u_mode:
                cv = gm * cv
        else:
            cv = math.inf
        gammas.append(gm)
        ws.append(wv)
        comps.append(cv)
        inside.append(wv <= m_level and abs(xx) <= r_level)
    rows = len(steps)
    x_col = path_x[steps].astype(float).reshape(rows, 1)
    return Trajectory(
        index=np.asarray(steps, dtype=np.int64),
        theta=path_theta[steps].reshape(rows, 1),
        theta_labels=["theta_1"],
        x=x_col,
        y=x_col.copy(),
        accepted=flipped[steps],
        alpha=np.full(rows, math.nan),
        gamma=np.asarray(gammas, dtype=float),
        v=np.ones(rows),
        w=np.asarray(ws, dtype=float),
        compound=np.asarray(comps, dtype=float),
        in_set=np.asarray(inside, dtype=bool),
        kesten_counts=counts[steps] if kesten else None,
        record_stride=config.record_stride,
        horizon=config.horizon,
        diverged=diverged,
        halt_index=end if diverged else None,
        replica=replica,
        recurrence_m=m_level,
        recurrence_r=r_level,
    )


def _run_generic(config: ChainConfig, rng, replica: int) -> Trajectory:
    """Multivariate chains, numpy per step.

    Each step builds one kernel parameter, after the update; it is checked
    once, gives the recorded w and drives the next proposal.  The target is
    evaluated once per step, at the proposal: log pi of the current state is
    carried from step to step, and V is computed from it.
    """
    target = config.target
    spec = config.proposal
    rule = config.rule
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    n = config.horizon
    stride = config.record_stride
    state_lyap = config.state_lyapunov
    weight = config.param_weight
    comp = config.compound
    m_level = config.recurrence_m
    r_level = config.recurrence_r
    dim = target.dim

    am = rule.kind == RULE_AM
    if am:
        mu = config.theta0.mu.copy()
        cov = config.theta0.cov.copy()
        k = mu.shape[0]
        labels = [f"mu_{j+1}" for j in range(k)] + [
            f"cov_{a+1}{b+1}" for a in range(k) for b in range(k)
        ]
    else:
        theta = float(config.theta0)
        labels = ["theta_1"]

    x = np.atleast_1d(np.asarray(config.x0, dtype=float)).copy()
    lx = float(np.asarray(target.log_density(x), dtype=float))
    s = 0
    h_prev = None

    rec = _Recorder(labels, dim, kesten)

    def current_param():
        return AMParam(mu=mu, cov=cov) if am else ScalarParam(theta=theta)

    def record(i, yy, acc, al, gm, count):
        v = state_lyap.of_log_density(lx) if state_lyap is not None else 1.0
        wv = float(weight(param))
        cv = compound_value(comp, v, wv, gm) if math.isfinite(wv) and math.isfinite(v) else math.inf
        inside = wv <= m_level and float(np.linalg.norm(x)) <= r_level
        theta_row = (*mu.tolist(), *cov.ravel().tolist()) if am else (theta,)
        rec.add(i, theta_row, tuple(x.tolist()), tuple(yy.tolist()), acc, al, gm, v, wv, cv, inside, count)

    param = current_param()
    gamma0 = gamma_at(schedule, 1, 0 if kesten else None)
    record(0, x, False, math.nan, gamma0, 0)

    diverged = False
    halt_index: Optional[int] = None
    for i in range(1, n + 1):
        gm = gamma_at(schedule, i, s if kesten else None)
        step = srwm_step(target, spec, param, x, rng, lx)
        x = np.atleast_1d(np.asarray(step.state, dtype=float))
        lx = step.log_density
        if am:
            if kesten:
                h_cur = am_increment(mu, cov, x)
            mu, cov = am_update(mu, cov, x, gm)
            bounded = np.abs(mu).max() <= THETA_MAX and np.abs(cov).max() <= THETA_MAX
        else:
            if rule.kind == RULE_COERCED:
                h_cur = step.alpha - rule.alpha_star
                theta = coerced_update(theta, step.alpha, gm, rule.alpha_star)
            elif rule.kind == RULE_FAST_COERCED:
                h_cur = (abs(theta) + 1.0) * (step.alpha - rule.alpha_star)
                theta = fast_coerced_update(theta, step.alpha, gm, rule.alpha_star)
            else:
                h_cur = 0.0
            bounded = abs(theta) <= THETA_MAX
        if kesten:
            if h_prev is not None:
                s = kesten_advance(s, h_prev, h_cur)
            h_prev = h_cur
        # a NaN or infinite parameter fails the bound as well
        halt = not (bounded and np.isfinite(x).all())
        param = current_param()
        if halt:
            diverged = True
            halt_index = i
            record(i, step.proposed, step.accepted, step.alpha, gm, s)
            break
        if i % stride == 0 or i == n:
            record(i, step.proposed, step.accepted, step.alpha, gm, s)
    return rec.build(config, diverged, halt_index, replica)


# ---------------------------------------------------------------------------
# recurrence diagnostics


@dataclass(frozen=True)
class RecurrenceStats:
    """Visit bookkeeping for the recurrence set {w <= M} x {|x| <= R}.

    ``hitting_times`` lists the first entry and every re-entry after an
    excursion.  ``last_exit_time`` and ``exit_count`` track exits from the
    parameter level set {w <= M} alone.  ``censored`` is true when the run
    ends outside the recurrence set.
    """

    first_hit: Optional[int]
    hitting_times: list[int]
    visit_count: int
    last_exit_time: Optional[int]
    exit_count: int
    max_abs_theta: float
    censored: bool
    diverged: bool


class _RecurrenceCounter:
    """Recurrence-set statistics of several replicas, fed rows block by block.

    Per replica it holds the counts ``recurrence_stats`` reports and whether
    the last row seen lay in {w <= M} and in {w <= M} x {|x| <= R}, so each
    block continues where the one before it ended.  Row 0 of a run is fed
    like any other row.
    """

    def __init__(self, n: int, m_level: float, r_level: float):
        self.m_level = m_level
        self.r_level = r_level
        self.first_hit = np.full(n, -1, dtype=np.int64)
        self.n_hits = np.zeros(n, dtype=np.int64)
        self.visits = np.zeros(n, dtype=np.int64)
        self.exits = np.zeros(n, dtype=np.int64)
        self.last_exit = np.full(n, -1, dtype=np.int64)
        self.max_abs_theta = np.zeros(n)
        self.inside = np.zeros(n, dtype=bool)
        self.w_in = np.zeros(n, dtype=bool)

    def add(self, index, abs_theta, w, x_norm, cols, end) -> np.ndarray:
        """Fold in the rows ``index`` of the replicas ``cols``.

        ``abs_theta`` (largest |theta| component), ``w`` and ``x_norm`` have
        one row per index and one column per replica.  Rows of column j past
        ``end[j]`` must repeat its row at ``end[j]`` (a halted replica); they
        add no visit.  Returns the entry mask: rows in the recurrence set
        whose previous row, if any, was not.
        """
        w_in = w <= self.m_level
        inside = w_in & (x_norm <= self.r_level)
        enter = inside.copy()
        enter[0] &= ~self.inside[cols]
        enter[1:] &= ~inside[:-1]
        leave = ~w_in
        leave[0] &= self.w_in[cols]
        leave[1:] &= w_in[:-1]

        first = enter.any(axis=0) & (self.first_hit[cols] < 0)
        self.first_hit[cols[first]] = index[enter[:, first].argmax(axis=0)]
        left = leave.any(axis=0)
        self.last_exit[cols[left]] = index[len(index) - 1 - leave[::-1, left].argmax(axis=0)]
        self.n_hits[cols] += enter.sum(axis=0)
        self.visits[cols] += (inside & (index[:, None] <= end)).sum(axis=0)
        self.exits[cols] += leave.sum(axis=0)
        self.max_abs_theta[cols] = np.maximum(self.max_abs_theta[cols], abs_theta.max(axis=0))
        self.inside[cols] = inside[-1]
        self.w_in[cols] = w_in[-1]
        return enter

    def record(self, j: int) -> dict:
        """Replica j's statistics under the per-replica record's keys."""
        first = int(self.first_hit[j])
        last = int(self.last_exit[j])
        return {
            "first_hit": first if first >= 0 else None,
            "n_hits": int(self.n_hits[j]),
            "visit_count": int(self.visits[j]),
            "last_exit_time": last if last >= 0 else None,
            "exit_count": int(self.exits[j]),
            "max_abs_theta": float(self.max_abs_theta[j]),
            "censored": not bool(self.inside[j]),
        }


def recurrence_stats(
    traj: Trajectory,
    m: Optional[float] = None,
    r: Optional[float] = None,
) -> RecurrenceStats:
    """Recurrence-set statistics of a stride-1 trajectory.

    ``m`` and ``r`` override the levels stored in the trajectory; entries
    and exits are recomputed from the recorded w and |x| columns.
    """
    if traj.record_stride != 1:
        raise ValueError("recurrence statistics require record_stride == 1")
    if traj.index.shape[0] == 0:
        raise ValueError("empty trajectory")
    counter = _RecurrenceCounter(
        1,
        traj.recurrence_m if m is None else float(m),
        traj.recurrence_r if r is None else float(r),
    )
    enter = counter.add(
        traj.index,
        np.abs(traj.theta).max(axis=1)[:, None],
        traj.w[:, None],
        np.linalg.norm(traj.x, axis=1)[:, None],
        np.zeros(1, dtype=np.int64),
        traj.index[-1:],
    )
    rec = counter.record(0)
    return RecurrenceStats(
        first_hit=rec["first_hit"],
        hitting_times=traj.index[enter[:, 0]].tolist(),
        visit_count=rec["visit_count"],
        last_exit_time=rec["last_exit_time"],
        exit_count=rec["exit_count"],
        max_abs_theta=rec["max_abs_theta"],
        censored=rec["censored"],
        diverged=traj.diverged,
    )


@dataclass(frozen=True)
class ReplicaSummary:
    """Order-independent aggregate over replica substreams."""

    n_replicas: int
    base_seed: int
    per_replica: list[dict]
    aggregate: dict
    any_diverged: bool

    def to_json_dict(self) -> dict:
        return {
            "n_replicas": self.n_replicas,
            "base_seed": self.base_seed,
            "any_diverged": self.any_diverged,
            "aggregate": self.aggregate,
            "per_replica": self.per_replica,
        }


def _quantile(values: list[float], q: float) -> float:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.nan
    return float(np.quantile(np.asarray(finite), q))


def summarize_replicas(per_replica: list[dict], base_seed: int) -> ReplicaSummary:
    """Build the aggregate from per-replica stats; sorted by replica index,
    so any execution order yields the same summary."""
    stats = sorted(per_replica, key=lambda d: d["replica"])
    hits = [s["first_hit"] if s["first_hit"] is not None else math.inf for s in stats]
    tails = [s["acceptance_tail"] for s in stats if s["acceptance_tail"] is not None]
    aggregate = {
        "first_hit_q25": _quantile(hits, 0.25),
        "first_hit_median": _quantile(hits, 0.5),
        "first_hit_q75": _quantile(hits, 0.75),
        "hit_count": sum(1 for h in hits if math.isfinite(h)),
        "diverged_count": sum(1 for s in stats if s["diverged"]),
        "censored_count": sum(1 for s in stats if s["censored"]),
        "max_abs_theta": max(s["max_abs_theta"] for s in stats),
        "visit_count_median": _quantile([float(s["visit_count"]) for s in stats], 0.5),
    }
    if tails:
        aggregate["acceptance_tail_median"] = _quantile(tails, 0.5)
        aggregate["acceptance_tail_min"] = min(tails)
        aggregate["acceptance_tail_max"] = max(tails)
    err_mu = [s["final_err_mu"] for s in stats if s.get("final_err_mu") is not None]
    if err_mu:
        aggregate["final_err_mu_median"] = _quantile(err_mu, 0.5)
        aggregate["final_err_cov_median"] = _quantile(
            [s["final_err_cov"] for s in stats if s.get("final_err_cov") is not None], 0.5
        )
    return ReplicaSummary(
        n_replicas=len(stats),
        base_seed=base_seed,
        per_replica=stats,
        aggregate=aggregate,
        any_diverged=any(s["diverged"] for s in stats),
    )


def _replica_record(config: ChainConfig, traj: Trajectory) -> dict:
    stats = recurrence_stats(traj)
    n_steps = traj.index.shape[0] - 1
    tail_len = min(10_000, max(n_steps // 10, 1))
    tail = traj.accepted[-tail_len:] if n_steps >= 1 else np.zeros(0, dtype=bool)
    acceptance_tail = float(tail.mean()) if tail.size and config.kind == CHAIN_SRWM else None
    rec = {
        "replica": traj.replica,
        "first_hit": stats.first_hit,
        "n_hits": len(stats.hitting_times),
        "visit_count": stats.visit_count,
        "last_exit_time": stats.last_exit_time,
        "exit_count": stats.exit_count,
        "max_abs_theta": stats.max_abs_theta,
        "censored": stats.censored,
        "diverged": stats.diverged,
        "halt_index": traj.halt_index,
        "acceptance_tail": acceptance_tail,
        "final_theta": [float(t) for t in traj.theta[-1]],
    }
    if config.rule.kind == RULE_AM and config.moments is not None and not traj.diverged:
        k = config.moments.mu_pi.shape[0]
        mu_f = traj.theta[-1, :k]
        cov_f = traj.theta[-1, k:].reshape(k, k)
        rec["final_err_mu"] = float(np.linalg.norm(mu_f - config.moments.mu_pi))
        rec["final_err_cov"] = float(np.linalg.norm(cov_f - config.moments.cov_pi))
    return rec


def run_replicas(
    config: ChainConfig,
    n_replicas: int,
    base_seed: Optional[int] = None,
    keep_first_trajectory: bool = False,
) -> tuple[ReplicaSummary, Optional[Trajectory]]:
    """Run ``n_replicas`` independent chains on replica substreams.

    Returns the summary plus (optionally) replica 0's full trajectory for
    trace output.  Trajectories of other replicas are reduced to stats
    immediately to keep memory at desk scale.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    seed = config.seed if base_seed is None else int(base_seed)
    if config.kind == CHAIN_TOY:
        rngs = [substream(seed, k) for k in range(n_replicas)]
        records, first_traj = _run_toy_replicas(config, rngs, keep_first=keep_first_trajectory)
        return summarize_replicas(records, seed), first_traj
    records = []
    first_traj: Optional[Trajectory] = None
    for k in range(n_replicas):
        traj = run_chain(config, rng=substream(seed, k), replica=k)
        if k == 0 and keep_first_trajectory:
            first_traj = traj
        records.append(_replica_record(config, traj))
    return summarize_replicas(records, seed), first_traj
