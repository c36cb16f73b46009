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

Replicas never keep their whole path.  The toy chain runs on one lockstep
engine: all replicas advance together as numpy vectors, each drawing its
uniforms in blocks from its own substream, with a block length chosen so
that block length times replica count stays near 2**15 elements.  One toy
chain alone pays numpy's per-call cost on every step (11.7 us/step at R = 1,
against 2.3 us for a scalar loop, on a 2-vCPU VM); no preset or benchmark
workload runs one, so it gets no second engine of its own, and it stays in
one process.  srwm replicas are split into contiguous slices, one per usable
core, each run in a forked worker (``_fork_map``) except the first, which
this process runs.  Within a slice, replicas run one after another, each in
a loop that appends only raw values (parameter, state, proposal, acceptance,
stepsize, log pi) to per-block lists.  On a 1-D target the loop runs over
Python floats, and a uniform proposal draws a block's uniforms at once, in
the order of the scalar draws.
In several dimensions it runs numpy per step: the target is evaluated once
per step, at the proposal, with log pi of the current state carried from
step to step, and one kernel parameter is built and checked per step, which
drives the next proposal.  A step that overflows the parameter is kept, raw,
as the halt row.

Either engine folds each block into per-replica recurrence statistics
(``_RecurrenceCounter``) and drops it; replica 0's rows also go to
``_KeptPath`` as a ``_RawBlock`` (a toy block reads x = y = the state,
log pi = 0 and alpha = NaN).  ``_KeptPath`` alone picks the kept rows,
every ``record_stride``-th step and the last, and computes their V, w, W and
in_C in the scalar arithmetic of a row-at-a-time recorder, so
``record_stride`` thins the trajectory and never the statistics.
``Trajectory.to_csv`` formats blocks of rows a column at a time, its rows
split over forked workers the same way.  Neither split changes a byte of the
outputs: each replica draws from its own substream, records carry their
global replica index, and a CSV row's text depends on that row alone.
"""
from __future__ import annotations

import math
import os
import pickle
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import BinaryIO, Callable, NamedTuple, NoReturn, Optional

import numpy as np

from .adaptation import (
    RULE_AM,
    RULE_FAST_COERCED,
    RULE_FIXED,
    KestenSchedule,
    PolynomialSchedule,
    am_increment,
    am_update,
    gamma_at,
    kesten_advance,
    scalar_update,
)
from .config import CHAIN_TOY, ChainConfig
from .kernels import (
    FAMILY_GAUSSIAN,
    FAMILY_UNIFORM,
    RW_SCALE,
    AMParam,
    ScalarParam,
    srwm_step,
)
from .lyapunov import (
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    CompoundSpec,
    ParamLyapunov,
    pow_or_inf,
)
from .streams import substream

THETA_MAX = 1e12


# Stays a dataclass: bench/spans.py reads its arrays through dataclasses.fields.
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
        integers, floats by ``repr`` (so they read back exactly).

        The rows are split into contiguous slices, one per worker
        (``_slices``).  This process writes the first slice straight to the
        file; each forked worker formats its slice in its own memory and
        sends the bytes through a pipe, which this process copies into the
        file ``_PIPE_CHUNK_BYTES`` at a time, so it never holds another
        slice's text.
        """
        own, *rest = _slices(self.index.shape[0], 1, _MIN_WORKER_ROWS)
        with open(path, "wb") as fh:
            fh.write((",".join(self.column_names()) + "\n").encode())

            def write_own() -> None:
                for text in self._csv_blocks(own):
                    fh.write(text)

            def copy(stream: BinaryIO) -> None:
                while chunk := stream.read(_PIPE_CHUNK_BYTES):
                    fh.write(chunk)

            jobs = [lambda part=part: b"".join(self._csv_blocks(part)) for part in rest]
            _fork_map(jobs, write_own, copy)

    def _csv_blocks(self, part: slice):
        """The CSV lines of rows ``part``, as bytes, ``_CSV_CHUNK_ROWS`` rows
        at a time, each formatted a column at a time."""
        for lo in range(part.start, part.stop, _CSV_CHUNK_ROWS):
            rows = slice(lo, min(lo + _CSV_CHUNK_ROWS, part.stop))
            cols = [_int_cells(self.index[rows])]
            for block in (self.theta[rows], self.x[rows], self.y[rows]):
                cols += [_float_cells(c) for c in block.T]
            cols.append(_int_cells(self.accepted[rows]))
            cols += [_float_cells(c[rows]) for c in (self.alpha, self.gamma, self.v, self.w, self.compound)]
            cols.append(_int_cells(self.in_set[rows]))
            if self.kesten_counts is not None:
                cols.append(_int_cells(self.kesten_counts[rows]))
            yield ("\n".join(map(",".join, zip(*cols))) + "\n").encode()


# Rows per block of Trajectory._csv_blocks.  This process holds one block's
# cells at a time (a CSV worker holds its whole slice's text, in its own
# memory): whole columns at once raise a long run's peak memory by several
# MB, and blocks of 1,024 rows still add about 0.8 MB (2 %) to a 2,001-row
# toy run's.  At 128 rows the writer is as fast and the peak does not move.
_CSV_CHUNK_ROWS = 128

# Bytes per read when a CSV worker's pipe is copied into the file.
_PIPE_CHUNK_BYTES = 1 << 16


def _float_cells(col: np.ndarray) -> list[str]:
    return list(map(repr, col.tolist()))


def _int_cells(col: np.ndarray) -> list[str]:
    return list(map(str, col.astype(np.int64).tolist()))


def run_chain(config: ChainConfig, rng: Optional[np.random.Generator] = None, replica: int = 0) -> Trajectory:
    """Run one adaptive chain; deterministic given (config, seed, replica)."""
    if rng is None:
        rng = substream(config.seed, replica)
    engine = _run_toy_replicas if config.kind == CHAIN_TOY else _run_srwm
    return engine(config, [rng], replica=replica)[1]


def _kesten_on(schedule) -> bool:
    return isinstance(schedule, KestenSchedule)


# Steps per block of the srwm loops.  Each block's raw columns are folded into
# the recurrence statistics and then dropped, or, for a kept path, turned into
# trajectory columns.
_SRWM_BLOCK_STEPS = 1 << 12

# acceptance_tail is the accept rate over the last min(10,000, steps // 10)
# steps (never row 0's flag); a ring of this many flags holds them.
_TAIL_MAX = 10_000


class _RawBlock(NamedTuple):
    """Consecutive rows of one path as its loop produced them.

    ``theta`` holds one list per parameter column, ``x`` and ``y`` one float
    per row on a 1-D target and one list of coordinates per row otherwise,
    ``gamma`` the stepsize each row's step used (row 0: the first step's),
    ``counts`` the Kesten count after each row (None without a Kesten
    schedule), and ``halted`` says the block ends at the divergence halt.
    """

    theta: tuple
    x: list
    y: list
    accepted: list
    alpha: list
    gamma: list
    log_density: list
    counts: Optional[list]
    halted: bool


def _first_stepsize(schedule) -> tuple[bool, float, float, float, float]:
    """(polynomial?, c0, c1, a, stepsize of step 1) for the 1-D loops.

    A polynomial stepsize is recomputed on every step as ``c0 / (c1 + i) **
    a``, the arithmetic of ``gamma_at``; a constant one never changes, and a
    Kesten one changes only when the count does.
    """
    first = gamma_at(schedule, 1, 0 if _kesten_on(schedule) else None)
    if isinstance(schedule, PolynomialSchedule):
        return True, schedule.c0, schedule.c1, schedule.a, first
    return False, 0.0, 0.0, 0.0, first


def _scalar_blocks(config: ChainConfig, rng, block: int):
    """Scalar log-scale rules (coerced / fast_coerced / fixed) on a 1-D
    target, over Python floats: yields row 0, then blocks of up to ``block``
    steps, the last one ending at the horizon or at the halt row.

    A uniform proposal draws a block's increments and coins at once, 2 *
    block uniforms read alternately, which is the order of one increment and
    one coin per step; a Gaussian or Student proposal draws its increment
    and then its coin on every step.
    """
    target = config.target
    spec = config.proposal
    rule = config.rule
    kesten = _kesten_on(config.schedule)
    gamma_of_count = config.schedule.gamma_of_count if kesten else None
    n = config.horizon
    alpha_star = rule.alpha_star if rule.alpha_star is not None else 0.0
    fast = rule.kind == RULE_FAST_COERCED
    fixed = rule.kind == RULE_FIXED
    uniform = spec.family == FAMILY_UNIFORM
    gaussian = spec.family == FAMILY_GAUSSIAN
    dof = spec.student_dof

    logp = target.log_density
    exp = math.exp
    isfinite = math.isfinite
    inf = math.inf
    draw_normal = rng.standard_normal
    draw_uniform = rng.random
    draw_t = rng.standard_t
    poly, c0, c1, a, gm = _first_stepsize(config.schedule)

    theta = float(config.theta0)
    x = float(np.asarray(config.x0, dtype=float).reshape(()))
    lx = float(logp(x))
    s = 0
    h_prev = 0.0  # 0 * h is never negative, so step 1 cannot advance s
    yield _RawBlock(([theta],), [x], [x], [False], [math.nan], [gm], [lx], [0] if kesten else None, False)

    for start in range(1, n + 1, block):
        stop = min(start + block, n + 1)
        if uniform:
            u = rng.random(2 * (stop - start)).tolist()
            incs, coins = u[0::2], u[1::2]
        else:
            incs = coins = repeat(0.0)
        ths, xs, ys, accs, alphas, gms, lxs = [], [], [], [], [], [], []
        counts = [] if kesten else None
        halted = False
        for i, du, coin in zip(range(start, stop), incs, coins):
            if poly:
                gm = c0 / (c1 + i) ** a
            sigma = exp(theta) if theta < 700.0 else inf
            if uniform:
                z = sigma * (2.0 * du - 1.0)
            else:
                z = sigma * draw_normal() if gaussian else sigma * draw_t(dof)
                coin = draw_uniform()
            y = x + z
            ly = float(logp(y))
            # kernels.acceptance and adaptation.scalar_update inlined: the two calls
            # took a 1.2 us step to 1.4 us (coerced preset, 2 x 200,000 steps, 2-vCPU VM)
            d = ly - lx
            alpha = 1.0 if d >= 0.0 else exp(d)
            accepted = coin < alpha
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
            ths.append(theta)
            xs.append(x)
            ys.append(y)
            accs.append(accepted)
            alphas.append(alpha)
            gms.append(gm)
            lxs.append(lx)
            if kesten:
                if h_prev * h_cur < 0.0:
                    s += 1
                    gm = gamma_of_count(s)
                h_prev = h_cur
                counts.append(s)
            # a NaN or infinite theta fails the bound as well
            if not (abs(theta) <= THETA_MAX and isfinite(x)):
                halted = True
                break
        yield _RawBlock((ths,), xs, ys, accs, alphas, gms, lxs, counts, halted)
        if halted:
            return


def _am_1d_blocks(config: ChainConfig, rng, block: int):
    """Running-moments rule on a 1-D target with a Gaussian or Student
    proposal, over Python floats: yields row 0, then blocks of up to
    ``block`` steps, the last one ending at the horizon or at the halt row.
    A negative running variance is no covariance, so it halts the run."""
    target = config.target
    spec = config.proposal
    kesten = _kesten_on(config.schedule)
    gamma_of_count = config.schedule.gamma_of_count if kesten else None
    n = config.horizon
    eps = spec.eps_ridge
    scale2 = RW_SCALE * RW_SCALE
    gaussian = spec.family == FAMILY_GAUSSIAN
    dof = spec.student_dof

    logp = target.log_density
    exp = math.exp
    sqrt = math.sqrt
    isfinite = math.isfinite
    draw_normal = rng.standard_normal
    draw_uniform = rng.random
    draw_t = rng.standard_t
    poly, c0, c1, a, gm = _first_stepsize(config.schedule)

    mu = float(config.theta0.mu[0])
    g = float(config.theta0.cov[0, 0])
    x = float(np.asarray(config.x0, dtype=float).reshape(()))
    lx = float(logp(x))
    s = 0
    h_mu = h_g = 0.0  # the increment before step 1: cannot advance s
    yield _RawBlock(([mu], [g]), [x], [x], [False], [math.nan], [gm], [lx], [0] if kesten else None, False)

    for start in range(1, n + 1, block):
        mus, gs, xs, ys, accs, alphas, gms, lxs = [], [], [], [], [], [], [], []
        counts = [] if kesten else None
        halted = False
        for i in range(start, min(start + block, n + 1)):
            if poly:
                gm = c0 / (c1 + i) ** a
            var = scale2 * (g + eps)
            sd = sqrt(var) if var > 0 else 0.0
            z = sd * draw_normal() if gaussian else sd * draw_t(dof)
            y = x + z
            ly = float(logp(y))
            d = ly - lx
            alpha = 1.0 if d >= 0.0 else exp(d)  # kernels.acceptance, inlined as above
            accepted = draw_uniform() < alpha
            if accepted:
                x, lx = y, ly
            dev = x - mu
            dg = dev * dev - g
            mu = mu + gm * dev
            g = g + gm * dg
            mus.append(mu)
            gs.append(g)
            xs.append(x)
            ys.append(y)
            accs.append(accepted)
            alphas.append(alpha)
            gms.append(gm)
            lxs.append(lx)
            if kesten:
                if h_mu * dev + h_g * dg < 0.0:
                    s += 1
                    gm = gamma_of_count(s)
                h_mu, h_g = dev, dg
                counts.append(s)
            # NaN or infinite moments fail the bounds as well
            if not (0.0 <= g <= THETA_MAX and abs(mu) <= THETA_MAX and isfinite(x)):
                halted = True
                break
        yield _RawBlock((mus, gs), xs, ys, accs, alphas, gms, lxs, counts, halted)
        if halted:
            return


def _generic_blocks(config: ChainConfig, rng, block: int):
    """Multivariate chains, numpy per step: yields row 0, then blocks of up
    to ``block`` steps, the last one ending at the horizon or at the halt row.

    Each step builds one kernel parameter, after the update; it is checked
    once and drives the next proposal.  A step that leaves the parameter
    past THETA_MAX (or non-finite) halts the run before that parameter is
    built, so the halt row carries the raw mean and covariance (or theta).
    The target is evaluated once per step, at the proposal: log pi of the
    current state is carried from step to step.
    """
    target = config.target
    spec = config.proposal
    rule = config.rule
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    n = config.horizon
    am = rule.kind == RULE_AM
    if am:
        mu = config.theta0.mu.copy()
        cov = config.theta0.cov.copy()
        param = AMParam(mu=mu, cov=cov)
        row = (*mu.tolist(), *cov.ravel().tolist())
    else:
        theta = float(config.theta0)
        param = ScalarParam(theta=theta)
        row = (theta,)
    x = np.atleast_1d(np.asarray(config.x0, dtype=float)).copy()
    lx = float(np.asarray(target.log_density(x), dtype=float))
    s = 0
    h_prev = None
    gm = gamma_at(schedule, 1, 0 if kesten else None)
    yield _RawBlock(_columns([row]), [x.tolist()], [x.tolist()], [False], [math.nan], [gm], [lx],
                    [0] if kesten else None, False)

    for start in range(1, n + 1, block):
        rows, xs, ys, accs, alphas, gms, lxs = [], [], [], [], [], [], []
        counts = [] if kesten else None
        halted = False
        for i in range(start, min(start + block, n + 1)):
            gm = gamma_at(schedule, i, s if kesten else None)
            step = srwm_step(target, spec, param, x, rng, lx)
            x = np.atleast_1d(np.asarray(step.state, dtype=float))
            lx = step.log_density
            if am:
                if kesten:
                    h_cur = am_increment(mu, cov, x)
                mu, cov = am_update(mu, cov, x, gm)
                bounded = np.abs(mu).max() <= THETA_MAX and np.abs(cov).max() <= THETA_MAX
                rows.append((*mu.tolist(), *cov.ravel().tolist()))
            else:
                theta, h_cur = scalar_update(rule.kind, theta, step.alpha, gm, rule.alpha_star)
                bounded = abs(theta) <= THETA_MAX
                rows.append((theta,))
            if kesten:
                if h_prev is not None:
                    s = kesten_advance(s, h_prev, h_cur)
                h_prev = h_cur
                counts.append(s)
            xs.append(x.tolist())
            ys.append(step.proposed.tolist())
            accs.append(step.accepted)
            alphas.append(step.alpha)
            gms.append(gm)
            lxs.append(lx)
            # a NaN or infinite parameter fails the bound as well
            if not (bounded and np.isfinite(x).all()):
                halted = True
                break
            param = AMParam(mu=mu, cov=cov) if am else ScalarParam(theta=theta)
        yield _RawBlock(_columns(rows), xs, ys, accs, alphas, gms, lxs, counts, halted)
        if halted:
            return


def _columns(rows: list[tuple]) -> tuple:
    """Parameter rows as one list per column."""
    return tuple(map(list, zip(*rows)))


def _srwm_weights(weight: ParamLyapunov, dim: int):
    """w of every row of a block's parameter columns: ``weight.of_moments``
    row by row for running moments in several dimensions, else the scalar
    arithmetic of ``weight`` (on a 1x1 running-moment pair for am_poly)."""
    exp = math.exp
    inf = math.inf
    if weight.variant == W_AM_POLY and dim > 1:
        def moments(cols):
            rows = np.array(cols).T.copy()
            return [weight.of_moments(r[:dim], r[dim:].reshape(dim, dim)) for r in rows]
        return moments
    if weight.variant == W_AM_POLY:
        expo = 2.0 + weight.eps
        def am_poly_1d(cols):
            try:
                return [1.0 + abs(m) ** expo + abs(g) for m, g in zip(*cols)]
            except OverflowError:  # a block with an overflowing weight, taken again row by row
                return [1.0 + pow_or_inf(abs(m), expo) + abs(g) for m, g in zip(*cols)]
        return am_poly_1d
    if weight.variant == W_EXP_ABS:
        return lambda cols: [exp(t) if t < 700.0 else inf for t in map(abs, cols[0])]
    return lambda cols: [1.0 + t * t for t in cols[0]]


def _run_srwm(
    config: ChainConfig,
    rngs: list,
    keep_first: bool = True,
    replica: int = 0,
) -> tuple[list[dict], Optional[Trajectory]]:
    """srwm chains, one replica per generator in ``rngs``, run one after
    another; the generators are those of replicas ``replica``,
    ``replica + 1``, ...

    Each replica's loop (``_scalar_blocks`` or ``_am_1d_blocks`` on a 1-D
    target, ``_generic_blocks`` otherwise) yields raw columns block by block.
    A block is folded into the recurrence statistics and its accept flags
    into a ring for ``acceptance_tail``, then dropped, except the first
    replica's when ``keep_first``: its rows, thinned by ``record_stride``,
    become the returned trajectory's columns (labelled ``replica``).
    Returns one record per generator, in order and labelled with its
    replica index, and the trajectory.
    """
    dim = config.target.dim
    am = config.rule.kind == RULE_AM
    if dim > 1:
        blocks_of = _generic_blocks
    else:
        blocks_of = _am_1d_blocks if am else _scalar_blocks
    if am:
        labels = [f"mu_{j+1}" for j in range(dim)] + [f"cov_{a+1}{b+1}" for a in range(dim) for b in range(dim)]
    else:
        labels = ["theta_1"]
    weights = _srwm_weights(config.param_weight, dim)
    stats = _RecurrenceCounter(len(rngs), config.recurrence_m, config.recurrence_r)
    horizon = np.array([config.horizon])
    records = []
    traj = None
    for k, rng in enumerate(rngs):
        cols = np.array([k])
        path = _KeptPath(config, labels) if keep_first and k == 0 else None
        flags = deque(maxlen=_TAIL_MAX)
        start = 0
        for blk in blocks_of(config, rng, _SRWM_BLOCK_STEPS):
            index = np.arange(start, start + len(blk.x))
            theta = np.array(blk.theta)
            x = np.array(blk.x).reshape(index.shape[0], dim)
            x_norm = np.abs(x[:, 0]) if dim == 1 else np.linalg.norm(x, axis=1)
            w_cells = weights(blk.theta)
            w = np.array(w_cells)
            stats.add(index, np.abs(theta).max(axis=0)[:, None], w[:, None], x_norm[:, None], cols, horizon)
            flags.extend(blk.accepted)
            if path is not None:
                path.add(index, blk, theta, x, x_norm, w, w_cells)
            start += len(blk.x)
        end = start - 1
        tail = list(flags)[-min(_TAIL_MAX, max(end // 10, 1)):]
        final_theta = [th[-1] for th in blk.theta]
        records.append({
            "replica": replica + k,
            **stats.record(k),
            "diverged": blk.halted,
            "halt_index": end if blk.halted else None,
            "acceptance_tail": sum(tail) / len(tail),
            "final_theta": final_theta,
            **_final_errors(config, np.array(final_theta), blk.halted),
        })
        if path is not None:
            traj = path.build(end, blk.halted, replica)
    return records, traj


class _KeptPath:
    """Trajectory columns of one path, toy or srwm, built block by block.

    A block keeps its rows at multiples of ``record_stride`` and its last
    row when it ends the run; V, W and in_C of those rows are computed in
    the scalar arithmetic of a one-row-at-a-time recorder.
    """

    def __init__(self, config: ChainConfig, labels: list[str]):
        self.config = config
        self.labels = labels
        self.eta = config.state_lyapunov.eta if config.state_lyapunov is not None else 0.0
        self.cols: dict[str, list[np.ndarray]] = {}

    def add(self, index, blk: _RawBlock, theta, x, x_norm, w, w_cells: list) -> None:
        """Keep rows of ``blk``; ``index``, ``theta``, ``x``, ``x_norm`` and
        ``w`` are its step numbers, parameter columns, states (one row per
        step), state norms and weights as arrays, and ``w_cells`` the weights
        as floats."""
        config = self.config
        stride = config.record_stride
        if stride == 1:
            keep = slice(None)

            def pick(col):
                return col
        else:
            rows = index.shape[0]
            ends_run = blk.halted or index[-1] == config.horizon
            keep = list(range(int(-index[0]) % stride, rows, stride))
            if ends_run and (not keep or keep[-1] != rows - 1):
                keep.append(rows - 1)
            if not keep:
                return

            def pick(col):
                return [col[p] for p in keep]
        exp = math.exp
        inf = math.inf
        eta = self.eta
        vs = [exp(-eta * lx) if -eta * lx < 700.0 else inf for lx in pick(blk.log_density)]
        gammas = pick(blk.gamma)
        x, w = x[keep], w[keep]
        for name, col in (
            ("index", index[keep]),
            ("theta", theta[:, keep].T),
            ("x", x),
            ("y", np.array(pick(blk.y)).reshape(x.shape)),
            ("accepted", np.array(pick(blk.accepted), dtype=bool)),
            ("alpha", np.array(pick(blk.alpha))),
            ("gamma", np.array(gammas)),
            ("v", np.array(vs)),
            ("w", w),
            ("compound", np.array(_compound_cells(config.compound, vs, pick(w_cells), gammas))),
            ("in_set", (w <= config.recurrence_m) & (x_norm[keep] <= config.recurrence_r)),
            ("counts", np.array(pick(blk.counts) if blk.counts is not None else [], dtype=np.int64)),
        ):
            self.cols.setdefault(name, []).append(col)

    def build(self, end: int, diverged: bool, replica: int) -> Trajectory:
        config = self.config
        col = {name: np.concatenate(parts) for name, parts in self.cols.items()}
        return Trajectory(
            index=col["index"],
            theta=np.ascontiguousarray(col["theta"]),
            theta_labels=self.labels,
            x=col["x"],
            y=col["y"],
            accepted=col["accepted"],
            alpha=col["alpha"],
            gamma=col["gamma"],
            v=col["v"],
            w=col["w"],
            compound=col["compound"],
            in_set=col["in_set"],
            kesten_counts=col["counts"] if _kesten_on(config.schedule) else None,
            record_stride=config.record_stride,
            horizon=config.horizon,
            diverged=diverged,
            halt_index=end if diverged else None,
            replica=replica,
            recurrence_m=config.recurrence_m,
            recurrence_r=config.recurrence_r,
        )


def _compound_cells(comp: CompoundSpec, vs, ws, gammas) -> list[float]:
    """W = V**uv + w**uw / gamma (times gamma in mode U) of each row, or inf
    where V or w is not finite."""
    uv, uw = comp.upsilon_v, comp.upsilon_w
    isfinite = math.isfinite
    inf = math.inf
    rows = zip(vs, ws, gammas)
    if comp.mode == "U":
        return [gm * (v**uv + wv**uw / gm) if isfinite(wv) and isfinite(v) else inf for v, wv, gm in rows]
    return [v**uv + wv**uw / gm if isfinite(wv) and isfinite(v) else inf for v, wv, gm in rows]


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
    into the recurrence statistics and dropped; when ``keep_first``, replica
    0's rows up to its halt row also go to a ``_KeptPath``, which builds the
    returned trajectory (labelled ``replica``).  A replica that diverges is
    frozen at its halt row.  Returns one record per generator, in order,
    and the trajectory.
    """
    n = config.horizon
    n_rep = len(rngs)
    block = max(1, _BLOCK_ELEMENTS // n_rep)
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    # step i uses the count left by steps 2..i-1, so at most n - 2
    gamma_table = np.array([schedule.gamma_of_count(c) for c in range(n)]) if kesten else None
    weight = config.param_weight
    if weight.variant == W_ONE_PLUS_SQUARE:
        def weights(th):
            return 1.0 + th * th
    else:
        weights = np.vectorize(weight, otypes=[float])
    stats = _RecurrenceCounter(n_rep, config.recurrence_m, config.recurrence_r)
    path = _KeptPath(config, ["theta_1"]) if keep_first else None

    theta = np.full(n_rep, float(config.theta0))
    x = np.full(n_rep, bool(config.x0))
    counts = np.zeros(n_rep, dtype=np.int64)
    end = np.full(n_rep, n, dtype=np.int64)  # halt index, or the horizon
    halted = np.zeros(n_rep, dtype=bool)
    active = np.arange(n_rep)
    final_theta = theta.copy()

    start = 1
    # theta and w may overflow to inf, silently, as Python floats do
    with np.errstate(over="ignore"):
        w = weights(theta)
        stats.add(np.zeros(1, dtype=np.int64), np.abs(theta)[None], w[None], x[None], active, end)
        if path is not None:
            _keep_toy_rows(path, schedule, gamma_table, np.zeros(1, dtype=np.int64), theta[:1], x[:1], w[:1],
                           bool(x[0]), 0, False)
        while start <= n and active.size:
            rows = min(block, n - start + 1)
            u = np.empty((active.size, rows))
            for j, k in enumerate(active):
                rngs[k].random(out=u[j])
            u = np.ascontiguousarray(u.T)
            th_blk = np.empty((rows, active.size))
            x_blk = np.empty((rows, active.size), dtype=bool)
            x_in, count_in = bool(x[0]), int(counts[0])
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
            w = weights(th_blk)
            stats.add(index, np.abs(th_blk), w, x_blk, active, end[active])
            final_theta[active] = th_blk[-1]
            if path is not None and active[0] == 0:
                cut = int(end[0]) - start + 1  # rows up to replica 0's halt row, or all
                _keep_toy_rows(path, schedule, gamma_table, index[:cut], th_blk[:cut, 0], x_blk[:cut, 0],
                               w[:cut, 0], x_in, count_in, bool(halted[0]))
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
    traj = path.build(int(end[0]), bool(halted[0]), replica) if path is not None else None
    return records, traj


def _keep_toy_rows(path: _KeptPath, schedule, gamma_table, index, theta, x, w, x_in: bool, count_in: int,
                   halted: bool) -> None:
    """Hand replica 0's toy rows ``index`` to ``path`` as the block an srwm
    loop would hand over: x = y = the state, log pi = 0 (so V = 1), alpha =
    NaN, a flip as the accept flag, and the weights ``w`` the statistics
    used.  ``x_in`` and ``count_in`` are the state and Kesten count before
    the rows; ``gamma_table`` is None without a Kesten schedule."""
    flips = x != np.concatenate(([x_in], x[:-1]))
    counts = None
    if gamma_table is not None:
        # the count moves from step 2 on, and step i uses the count of row i - 1
        after = count_in + np.cumsum(flips & (index > 1))
        gammas = gamma_table[np.concatenate(([count_in], after[:-1]))].tolist()
        counts = after.tolist()
    else:
        gammas = [gamma_at(schedule, max(i, 1)) for i in index.tolist()]  # row 0: step 1's
    xs = x.astype(float)
    cells, w_cells = xs.tolist(), w.tolist()
    rows = len(cells)
    blk = _RawBlock((theta.tolist(),), cells, cells, flips.tolist(), [math.nan] * rows, gammas, [0.0] * rows,
                    counts, halted)
    # arrays of their own, as _run_srwm builds them: the path keeps what it is
    # given, and a view of theta or w would keep every replica's block alive
    path.add(index, blk, np.array(blk.theta), xs[:, None], xs, np.array(w_cells), w_cells)


# ---------------------------------------------------------------------------
# recurrence diagnostics


class RecurrenceStats(NamedTuple):
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


class ReplicaSummary(NamedTuple):
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
    """The q-quantile of the finite values, nan when there are none.

    numpy's default "linear" rule, in its own arithmetic: virtual index
    (n - 1) * q, and a lerp that works from the upper end when the weight
    is at least 1/2.  ``np.quantile`` itself would import ``numpy.ma`` (via
    ``np.unique``) on its first call, about 12 ms of every run.
    """
    finite = sorted(v for v in values if math.isfinite(v))
    if not finite:
        return math.nan
    n = len(finite)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return float(finite[-1])
    lo = math.floor(virtual)
    t = virtual - lo
    a, b = finite[lo], finite[lo + 1]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


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


def _final_errors(config: ChainConfig, final_theta: np.ndarray, diverged: bool) -> dict:
    """Distances of a running-moments run's final mean and covariance from
    the target's, when both are known and the run did not diverge."""
    if config.rule.kind != RULE_AM or config.moments is None or diverged:
        return {}
    k = config.moments.mu_pi.shape[0]
    return {
        "final_err_mu": float(np.linalg.norm(final_theta[:k] - config.moments.mu_pi)),
        "final_err_cov": float(np.linalg.norm(final_theta[k:].reshape(k, k) - config.moments.cov_pi)),
    }


def run_replicas(
    config: ChainConfig,
    n_replicas: int,
    base_seed: Optional[int] = None,
    keep_first_trajectory: bool = False,
) -> tuple[ReplicaSummary, Optional[Trajectory]]:
    """Run ``n_replicas`` independent chains on replica substreams.

    Returns the summary plus (optionally) replica 0's full trajectory for
    trace output.  Every replica is reduced to statistics block by block as
    it runs, so memory stays at desk scale.

    srwm replicas are split into contiguous slices, one per worker
    (``_slices``).  This process runs the first slice, so replica 0's
    trajectory never crosses a pipe; each forked worker runs one other slice
    and sends back only its records.  The toy engine stays in this process:
    its per-step cost is mostly numpy call overhead, which a split does not
    divide.  200 x 2,000 steps took 58 ms in one process and 51 ms over two
    workers (2-vCPU VM), 7 ms of a 0.38 s ``driftlab run`` of that size.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    seed = config.seed if base_seed is None else int(base_seed)
    rngs = [substream(seed, k) for k in range(n_replicas)]
    if config.kind == CHAIN_TOY:
        records, first_traj = _run_toy_replicas(config, rngs, keep_first=keep_first_trajectory)
        return summarize_replicas(records, seed), first_traj
    own, *rest = _slices(n_replicas, config.horizon + 1, _MIN_WORKER_STEPS)
    records = []

    def run_own():
        own_records, traj = _run_srwm(config, rngs[own], keep_first=keep_first_trajectory)
        records.extend(own_records)
        return traj

    jobs = [lambda part=part: pickle.dumps(_run_srwm(config, rngs[part], False, part.start)[0])
            for part in rest]
    first_traj = _fork_map(jobs, run_own, lambda stream: records.extend(pickle.load(stream)))
    return summarize_replicas(records, seed), first_traj


# ---------------------------------------------------------------------------
# worker processes
#
# One fork, pipe and reap round trip with an empty job costs about 4.8 ms
# on a 2-vCPU VM from a 40 MB process, and a worker then runs its first few
# ms slower than this process would (copy-on-write faults), so a worker pays
# for itself only past about 8 ms of work.  Measured break-evens, in work per
# worker (R = 2, forced one against two workers, median of 21): 4,000-5,000
# replica-steps of the 1-D scalar loops (1,500 for 1-D AM), and about 750
# CSV rows of a 1-D srwm trajectory or 1,000-1,600 of a toy one.  A split
# never leaves a worker less than these minimums.
_MIN_WORKER_STEPS = 5_000
_MIN_WORKER_ROWS = 1_500

# The first byte a worker writes: its job's bytes follow, or the pickled
# exception the job raised.
_JOB_DONE = b"\0"
_JOB_FAILED = b"\1"


def _usable_cores() -> int:
    """CPUs this process may run on, the most workers a split uses; 1 where
    the platform cannot say (and may have no ``os.fork``)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _slices(n: int, cost: int, min_cost: int) -> list[slice]:
    """[0, n) as contiguous slices of near-equal length, the first ones
    longest: one per usable core, at most one per item, and no more than
    leave each slice ``min_cost`` when each item costs ``cost``."""
    parts = max(1, min(_usable_cores(), n, n * cost // min_cost))
    q, r = divmod(n, parts)
    bounds = [k * q + min(k, r) for k in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _fork_map(
    jobs: list[Callable[[], bytes]],
    own: Callable[[], object],
    take: Callable[[BinaryIO], None],
):
    """Run ``own()`` in this process while each of ``jobs`` runs in a forked
    worker, and return what ``own`` returns.

    A job returns bytes, which its worker writes to a pipe.  Once ``own``
    returns, ``take(stream)`` reads each job's bytes from a binary stream,
    in job order.  An exception a job raises is raised here again, with its
    type and message.  Every worker is reaped before this returns or
    raises, after every read end is closed, so a worker blocked on a full
    pipe gets EPIPE and exits instead of waiting for a reader that is gone.
    """
    pids, reads = [], []
    try:
        for job in jobs:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(job, w, reads)
            finally:
                os.close(w)
            pids.append(pid)
        result = own()
        for k, r in enumerate(reads):
            with open(r, "rb", closefd=False) as stream:
                status = stream.read(1)
                if status == _JOB_DONE:
                    take(stream)
                    continue
                body = stream.read()
            if status == _JOB_FAILED:
                raise pickle.loads(body)  # bytes our own worker wrote
            raise RuntimeError(f"worker {k + 1} of {len(jobs)} ended without a result")
        return result
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(job: Callable[[], bytes], w: int, reads: list[int]) -> NoReturn:
    """A forked worker's whole life: close the read ends it inherited, run
    ``job`` and write its status byte and bytes (or the exception it raised)
    to the pipe ``w``.  It leaves through ``os._exit``, so it never returns
    into its caller's frames or flushes buffers it shares with its parent;
    an exception that cannot be written leaves no status byte."""
    code = 1
    try:
        for r in reads:
            os.close(r)
        try:
            status, body = _JOB_DONE, job()
        except Exception as exc:
            status, body = _JOB_FAILED, pickle.dumps(exc)
        with open(w, "wb") as out:
            out.write(status)
            out.write(body)
        code = 0
    finally:
        os._exit(code)
