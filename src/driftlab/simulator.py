"""Adaptive-chain simulation and recurrence diagnostics, entered through
``run_replicas``.

One step of the controlled chain: draw the next state from the current
kernel, then move the kernel parameter with the adaptation rule and the
stepsize schedule.  Trajectories record states, parameters, acceptance
data, Lyapunov values, and membership in the recurrence set
``{w(theta) <= M} x {|x| <= R}``.

Divergence policy: a run halts as soon as any parameter component leaves
[-1e12, 1e12] or turns non-finite, or the 1-D running-moments variance
turns negative; the replica's record is flagged rather than raising, so
replica sweeps can count failures.

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
stepsize, log pi) to per-block lists.  Each srwm replica k draws from split
streams (``streams.split_streams``), one per kind of draw: its increments
from ``spawn_key=(k, 0)``, its coins from ``(k, 1)`` and, under running
moments with Student increments in several dimensions, its chi-square
mixing variable from ``(k, 2)``.  A loop draws each block's values with
one sized call per stream, and its step loop only reads them; since a block
draw returns what as many scalar draws would, no output depends on the block
length.  On a 1-D target one loop over Python floats (``_line_blocks``)
serves every rule: the rules differ only in the update, which also forms
the next proposal scale, and the Kesten test and the halt check are
written once.  In several dimensions the loop (``_generic_blocks``) runs
over Python floats too, calling numpy only to draw: under running moments
the proposal applies the root of the proposal covariance from
``kernels._root_rows`` (closed-form at d = 2, ``eigh`` from d = 3 on) row
by row, and the running-moments update is the elementwise arithmetic of
``adaptation.am_update``.  The target is evaluated once per step, at the
proposal, with log pi of the current state carried from step to step, and
the divergence check reads the row the step appends.  A step that
overflows the parameter is kept, raw, as the halt row.

Either engine folds each block into per-replica recurrence statistics
(``_RecurrenceCounter``) and drops it; replica 0's blocks of at most
``_BLOCK_STEPS`` (512) steps also go, as ``_RawBlock``s (a toy block reads
x = y = the state, log pi = 0 and alpha = NaN), to the one sink that
``run_replicas`` chose.  ``_KeptPath`` alone forms, keeps and writes the
rows of ``trajectory.csv``: it builds the header from the config, picks the
kept rows, every ``record_stride``-th step and the last, computes their V,
w, W and in_C in the scalar arithmetic of a row-at-a-time recorder (so
``record_stride`` thins the trajectory and never the statistics), and keeps
each block as its CSV columns.  ``_csv_rows`` formats kept rows through
``csvfmt``, whose numpy digits are ``repr``'s bytes; both writers below
call it once a block.

``trajectory.csv`` is written one of two ways.  When the replica split
leaves a usable core idle (one srwm replica, or the toy engine, on two
cores), replica 0's loop is a slow one (the toy engine, or several
dimensions) and it keeps at least ``_MIN_STREAM_ROWS`` rows (3,000), it is
streamed: replica 0's blocks are pickled down a pipe to a forked writer
(``_write_kept_csv``), which forms and formats their kept rows while the
loop runs.  Otherwise a ``_KeptPath`` in this process keeps them, and its
``to_csv`` writes the file after the run, its blocks split over forked
workers the same way as the replicas.
No split changes a byte of the outputs: each replica draws from its own
streams, records carry their global replica index, and a CSV row's text
depends on that row alone.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import os
import pickle
import shutil
from collections import deque
from itertools import chain, repeat
from operator import add, mul, sub
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn, Optional

import numpy as np

from .adaptation import (
    RULE_AM,
    RULE_FAST_COERCED,
    RULE_FIXED,
    KestenSchedule,
    PolynomialSchedule,
    gamma_at,
)
from .config import CHAIN_TOY, ChainConfig
from .kernels import (
    EXP_CUTOFF,
    FAMILY_GAUSSIAN,
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    RW_SCALE,
    _root_rows,
)
from .lyapunov import CompoundSpec
from .streams import split_streams, substream

THETA_MAX = 1e12


def _kesten_on(schedule) -> bool:
    return isinstance(schedule, KestenSchedule)


# Steps per block of the srwm loops, and the most per toy block.  A streamed
# replica 0 overlaps its writer a block at a time, so at 4,096 steps a 1 x
# 4,000 2-D AM run would arrive as one block and nothing would overlap.
# Streamed against written after the run, in process, 1 x 4,000 2-D AM and
# 1 x 10,000 2-D coerced took 0.79 and 0.84 of the time at 512 steps (0.77
# and 0.87 at 256, 0.86 and 0.91 at 1,024; 2-vCPU VM, median of 21).
_BLOCK_STEPS = 1 << 9

# acceptance_tail is the accept rate over the last min(10,000, steps // 10)
# steps (never row 0's flag); a ring of this many flags holds them.
_TAIL_MAX = 10_000


class _RawBlock(NamedTuple):
    """Consecutive rows of one path as its loop produced them.

    ``theta`` holds one list per parameter column, ``x`` and ``y`` one float
    per row on a 1-D target and one tuple of coordinates per row otherwise,
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
    """(polynomial?, c0, c1, a, stepsize of step 1) for the srwm loops.

    A polynomial stepsize is recomputed on every step as ``c0 / (c1 + i) **
    a``, the arithmetic of ``gamma_at``; a constant one never changes, and a
    Kesten one changes only when the count does.
    """
    first = gamma_at(schedule, 1, 0 if _kesten_on(schedule) else None)
    if isinstance(schedule, PolynomialSchedule):
        return True, schedule.c0, schedule.c1, schedule.a, first
    return False, 0.0, 0.0, 0.0, first


def _unit_draws(spec, inc) -> Callable:
    """``draw(shape)``: a block of unscaled scalar-rule increments from the
    increment stream ``inc``, uniform on (-1, 1), standard normal or
    standard Student as ``spec.family`` says.  A block draw returns the
    values that as many scalar draws would, in the same order."""
    if spec.family == FAMILY_UNIFORM:
        return lambda shape: 2.0 * inc.random(shape) - 1.0
    if spec.family == FAMILY_GAUSSIAN:
        return inc.standard_normal
    return lambda shape: inc.standard_t(spec.student_dof, shape)


def _line_blocks(config: ChainConfig, streams: tuple):
    """Every srwm rule on a 1-D target, over Python floats: yields row 0,
    then blocks of up to ``_BLOCK_STEPS`` steps, the last one ending at the
    horizon or at the halt row.

    Each block draws its unscaled increments (``_unit_draws``) from the
    increment stream and its coins from the coin stream, one sized call
    each, and the step loop reads them.  A step is the one recursion of
    every rule: a Metropolis move at the proposal scale sigma, then the
    update theta += gamma * h, which also forms the next step's sigma.  A
    scalar log-scale rule moves theta, the log scale, by h = alpha -
    alpha_star (coerced), (|theta| + 1)(alpha - alpha_star) (fast_coerced)
    or 0 (fixed), and sigma = exp(theta).  Running moments move theta, the
    mean, by h = x - theta and the variance g by dg = h**2 - g, and sigma =
    sqrt(RW_SCALE**2 * (g + eps_ridge)).  Under a scalar rule g = dg = 0
    throughout, so one Kesten test (on h_prev * h + h_g * dg) and one halt
    check serve every rule; a negative running variance is no covariance,
    so it halts the run.
    """
    rule = config.rule
    spec = config.proposal
    kesten = _kesten_on(config.schedule)
    gamma_of_count = config.schedule.gamma_of_count if kesten else None
    n = config.horizon
    am = rule.kind == RULE_AM
    fast = rule.kind == RULE_FAST_COERCED
    adapts = rule.kind != RULE_FIXED
    alpha_star = rule.alpha_star if rule.alpha_star is not None else 0.0
    eps = spec.eps_ridge
    scale2 = RW_SCALE * RW_SCALE
    inc, coin = streams
    draw = _unit_draws(spec, inc)

    logp = config.target.log_density
    exp = math.exp
    sqrt = math.sqrt
    isfinite = math.isfinite
    inf = math.inf
    cutoff = EXP_CUTOFF
    poly, c0, c1, a, gm = _first_stepsize(config.schedule)

    if am:
        theta, g = float(config.theta0.mu[0]), float(config.theta0.cov[0, 0])
        var = scale2 * (g + eps)
        sigma = sqrt(var) if var > 0 else 0.0
    else:
        theta, g = float(config.theta0), 0.0
        sigma = exp(theta) if theta < cutoff else inf
    params = 2 if am else 1
    x = float(np.asarray(config.x0, dtype=float).reshape(()))
    lx = float(logp(x))
    s = 0
    h = h_prev = h_g = dg = 0.0  # h stays 0 under the fixed rule; the increment before step 1 cannot advance s
    yield _RawBlock(([theta], [g])[:params], [x], [x], [False], [math.nan], [gm], [lx], [0] if kesten else None, False)

    for start in range(1, n + 1, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n + 1)
        units = draw(stop - start).tolist()
        coins = coin.random(stop - start).tolist()
        ths, gs, xs, ys, accs, alphas, gms, lxs = [], [], [], [], [], [], [], []
        counts = [] if kesten else None
        halted = False
        for i, unit, u in zip(range(start, stop), units, coins):
            if poly:
                gm = c0 / (c1 + i) ** a
            y = x + sigma * unit
            ly = float(logp(y))
            # kernels.acceptance and adaptation.scalar_update inlined: the two calls
            # took a 1.2 us step to 1.4 us (coerced preset, 2 x 200,000 steps, 2-vCPU VM)
            d = ly - lx
            alpha = 1.0 if d >= 0.0 else exp(d)
            accepted = u < alpha
            if accepted:
                x, lx = y, ly
            if am:
                h = x - theta
                dg = h * h - g
                theta = theta + gm * h
                g = g + gm * dg
                var = scale2 * (g + eps)
                sigma = sqrt(var) if var > 0 else 0.0
                gs.append(g)  # a column of running moments only
            elif adapts:
                h = (abs(theta) + 1.0) * (alpha - alpha_star) if fast else alpha - alpha_star
                theta = theta + gm * h
                sigma = exp(theta) if theta < cutoff else inf
            ths.append(theta)
            xs.append(x)
            ys.append(y)
            accs.append(accepted)
            alphas.append(alpha)
            gms.append(gm)
            lxs.append(lx)
            if kesten:
                if h_prev * h + h_g * dg < 0.0:
                    s += 1
                    gm = gamma_of_count(s)
                h_prev, h_g = h, dg
                counts.append(s)
            # a NaN or infinite parameter fails the bounds as well
            if not (0.0 <= g <= THETA_MAX and abs(theta) <= THETA_MAX and isfinite(x)):
                halted = True
                break
        yield _RawBlock((ths, gs)[:params], xs, ys, accs, alphas, gms, lxs, counts, halted)
        if halted:
            return


def _generic_blocks(config: ChainConfig, streams: tuple):
    """Multivariate chains over Python floats, one step at a time: yields
    row 0, then blocks of up to ``_BLOCK_STEPS`` steps, the last one ending
    at the horizon or at the halt row.

    Each block of B steps draws, one sized call per stream, a (B, d) block
    of standard normals from the increment stream (Student draws under a
    scalar rule with Student increments), B coins from the coin stream and,
    under running moments with Student increments, B chi-squares from the
    mixing stream.  Under running moments a step applies the
    ``kernels._root_rows`` root of the proposal covariance (RW_SCALE**2 / d)
    * (cov + eps_ridge * I) to its normals row by row and divides by the
    root of its chi-square over the dof, as ``kernels.draw_increments``
    does; a scalar rule scales its draws by exp(theta).  The update is the
    elementwise arithmetic of ``adaptation.am_update`` or of
    ``scalar_update``; a Kesten count compares successive increments, under
    running moments the mean's and the covariance's increments flattened
    into one vector.  Sums of products are Python's ``sum``, so they do not
    depend on the BLAS build (from Python 3.12 on ``sum`` is compensated,
    which can move a last digit once more than two terms are summed).  The
    target is evaluated once per step, at the proposal: log pi of the
    current state is carried from step to step.

    No kernel parameter is built or checked: the update keeps the
    covariance symmetric, the step's row is checked against THETA_MAX (a
    NaN fails too) before it can drive a proposal, and
    ``config.build_schedule`` keeps an AM stepsize at most 1.  A step that
    fails the check is kept, raw, as the halt row.
    """
    target = config.target
    spec = config.proposal
    rule = config.rule
    kesten = _kesten_on(config.schedule)
    gamma_of_count = config.schedule.gamma_of_count if kesten else None
    n = config.horizon
    dim = target.dim
    am = rule.kind == RULE_AM
    fast = rule.kind == RULE_FAST_COERCED
    fixed = rule.kind == RULE_FIXED
    alpha_star = rule.alpha_star if rule.alpha_star is not None else 0.0
    inc, coin, *mixing = streams  # mixing: the chi-square stream, if there is one
    draw = inc.standard_normal if am else _unit_draws(spec, inc)
    dof = spec.student_dof
    # proposal covariance scale * (cov + ridge), the elementwise arithmetic
    # of kernels.proposal_covariance, row-major like the covariance
    scale = RW_SCALE**2 / dim
    ridge = (spec.eps_ridge * np.eye(dim)).ravel().tolist()

    logp = target.log_density
    exp = math.exp
    isfinite = math.isfinite
    inf = math.inf
    cutoff = EXP_CUTOFF
    poly, c0, c1, a, gm = _first_stepsize(config.schedule)

    if am:
        mu, cov = config.theta0.mu.tolist(), config.theta0.cov.ravel().tolist()  # cov row-major
        row = mu + cov
        h_prev = [0.0] * len(row)  # the increment before step 1: cannot advance s
    else:
        theta = float(config.theta0)
        row = [theta]
        h_prev = 0.0
    x = tuple(np.atleast_1d(np.asarray(config.x0, dtype=float)).tolist())
    lx = float(logp(x))
    s = 0
    yield _RawBlock(_columns([row]), [x], [x], [False], [math.nan], [gm], [lx], [0] if kesten else None, False)

    for start in range(1, n + 1, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n + 1)
        units = draw((stop - start, dim)).tolist()
        coins = coin.random(stop - start).tolist()
        roots = np.sqrt(mixing[0].chisquare(dof, stop - start) / dof).tolist() if mixing else repeat(None)
        rows, xs, ys, accs, alphas, gms, lxs = [], [], [], [], [], [], []
        counts = [] if kesten else None
        halted = False
        for i, unit, u, q in zip(range(start, stop), units, coins, roots):
            if poly:
                gm = c0 / (c1 + i) ** a
            if am:
                root = _root_rows([scale * (c + e) for c, e in zip(cov, ridge)], dim)
                z = [sum(map(mul, r, unit)) for r in root]
                if q is not None:
                    z = [v / q for v in z] if q > 0.0 else [v * inf for v in z]  # numpy's v / 0
            else:
                sigma = exp(theta) if theta < cutoff else inf
                z = [sigma * v for v in unit]
            y = tuple(map(add, x, z))  # a list(map(...)) of 2 would hold 8 slots
            ly = float(logp(y))
            d = ly - lx
            alpha = 1.0 if d >= 0.0 else exp(d)  # kernels.acceptance, inlined as in the 1-D loops
            accepted = u < alpha
            if accepted:
                x, lx = y, ly
            if am:
                dev = list(map(sub, x, mu))
                h_cur = dev + list(map(sub, [u * v for u in dev for v in dev], cov))
                row = [t + gm * h for t, h in zip(row, h_cur)]
                mu, cov = row[:dim], row[dim:]
                bounded = all(abs(v) <= THETA_MAX for v in row)
            else:
                if fixed:
                    h_cur = 0.0
                elif fast:
                    h_cur = (abs(theta) + 1.0) * (alpha - alpha_star)
                    theta = theta + gm * h_cur
                else:
                    h_cur = alpha - alpha_star
                    theta = theta + gm * h_cur
                row = [theta]
                bounded = abs(theta) <= THETA_MAX
            rows.append(row)
            xs.append(x)
            ys.append(y)
            accs.append(accepted)
            alphas.append(alpha)
            gms.append(gm)
            lxs.append(lx)
            if kesten:
                if (sum(map(mul, h_prev, h_cur)) if am else h_prev * h_cur) < 0.0:
                    s += 1
                    gm = gamma_of_count(s)
                h_prev = h_cur
                counts.append(s)
            # a NaN or infinite parameter fails the bound as well
            if not (bounded and all(map(isfinite, x))):
                halted = True
                break
        yield _RawBlock(_columns(rows), xs, ys, accs, alphas, gms, lxs, counts, halted)
        if halted:
            return


def _columns(rows: list[tuple]) -> tuple:
    """Parameter rows as one list per column."""
    return tuple(map(list, zip(*rows)))


# A chain far out overflows the multivariate update, the state's norm and
# the weight to inf or NaN silently, as Python floats do in 1-D; the halt
# check then ends the replica.
@np.errstate(over="ignore", invalid="ignore")
def _run_srwm(config: ChainConfig, streams: list[tuple], replica: int, keep: Optional[Callable] = None) -> list[dict]:
    """srwm chains, one replica per entry of ``streams``, run one after
    another; the entries are the split streams (``_replica_streams``) of
    replicas ``replica``, ``replica + 1``, ...

    Each replica's loop (``_line_blocks`` on a 1-D target,
    ``_generic_blocks`` otherwise) yields raw columns in blocks of
    ``_BLOCK_STEPS`` steps.  A block is folded into the recurrence
    statistics and its accept flags into a ring for ``acceptance_tail``,
    then dropped; the first replica's blocks also go to
    ``keep(start, blk, w_cells)`` (see ``_KeptPath.add``).
    Returns one record per replica, in order and labelled with its
    replica index.
    """
    dim = config.target.dim
    blocks_of = _line_blocks if dim == 1 else _generic_blocks
    weights = config.param_weight.of_columns
    stats = _RecurrenceCounter(len(streams), config.recurrence_m, config.recurrence_r)
    horizon = np.array([config.horizon])
    records = []
    for k, draws in enumerate(streams):
        cols = np.array([k])
        flags = deque(maxlen=_TAIL_MAX)
        start = 0
        for blk in blocks_of(config, draws):
            index = np.arange(start, start + len(blk.x))
            w_cells = weights(blk.theta, dim)
            stats.add(index, np.abs(np.array(blk.theta)).max(axis=0)[:, None], np.array(w_cells)[:, None],
                      _state_arrays(blk.x)[1][:, None], cols, horizon)
            flags.extend(blk.accepted)
            if keep is not None and k == 0:
                keep(start, blk, w_cells)
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
    return records


def _points(cells: list) -> np.ndarray:
    """States or proposals given as one float per row (a 1-D target) or one
    tuple of coordinates per row, as an array with one row per point.
    Tuples are flattened first: numpy reads 512 pairs of floats in about
    0.2 ms as tuples and in a fifth of that as one flat list."""
    if isinstance(cells[0], tuple):
        return np.array([*chain.from_iterable(cells)]).reshape(len(cells), -1)
    return np.array(cells)[:, None]


def _state_arrays(xs: list) -> tuple[np.ndarray, np.ndarray]:
    """States as ``_points`` takes them, as an array with one row per
    state, and their norms."""
    x = _points(xs)
    return x, np.abs(x[:, 0]) if x.shape[1] == 1 else np.linalg.norm(x, axis=1)


class _KeptPath:
    """Replica 0's ``trajectory.csv``: its header, and the kept rows of one
    path, toy or srwm, held block by block as their CSV columns in header
    order.

    The columns are i, the parameter (theta_1, or mu_j and the covariance
    cov_ab row-major), the state x and the proposal y (x_j and y_j in several
    dimensions), accepted, alpha, gamma_i, V, w, W and in_C, and under a
    Kesten schedule s, the count.  Row 0 is the initial condition; whether
    and where the run halted is in the replica's record.  A block keeps its
    rows at multiples of ``record_stride`` and its last row when it ends the
    run; V, W and in_C of those rows are computed in the scalar arithmetic of
    a one-row-at-a-time recorder.
    """

    def __init__(self, config: ChainConfig):
        self.config = config
        dim = 1 if config.target is None else config.target.dim
        if config.rule.kind == RULE_AM:
            labels = [f"mu_{j+1}" for j in range(dim)] + [f"cov_{a+1}{b+1}" for a in range(dim) for b in range(dim)]
        else:
            labels = ["theta_1"]
        coords = [""] if dim == 1 else [f"_{j+1}" for j in range(dim)]
        names = ["i", *labels, *(f"x{c}" for c in coords), *(f"y{c}" for c in coords),
                 "accepted", "alpha", "gamma_i", "V", "w", "W", "in_C"]
        if _kesten_on(config.schedule):
            names.append("s")
        self.header = (",".join(names) + "\n").encode()
        self.eta = config.state_lyapunov.eta if config.state_lyapunov is not None else 0.0
        self.blocks: list[list[np.ndarray]] = []

    def add(self, start: int, blk: _RawBlock, w_cells: list) -> bool:
        """Keep rows of ``blk``, whose first row is step ``start`` and whose
        weights are ``w_cells``, as one more block; says whether it kept
        any."""
        config = self.config
        stride = config.record_stride
        rows = len(blk.x)
        if stride == 1:
            keep = slice(None)

            def pick(col):
                return col
        else:
            ends_run = blk.halted or start + rows - 1 == config.horizon
            keep = list(range(-start % stride, rows, stride))
            if ends_run and (not keep or keep[-1] != rows - 1):
                keep.append(rows - 1)
            if not keep:
                return False

            def pick(col):
                return [col[p] for p in keep]
        exp = math.exp
        inf = math.inf
        cutoff = EXP_CUTOFF
        eta = self.eta
        vs = [exp(-eta * lx) if -eta * lx < cutoff else inf for lx in pick(blk.log_density)]
        gammas = pick(blk.gamma)
        x, x_norm = _state_arrays(pick(blk.x))
        w = np.array(pick(w_cells))
        cols = [np.arange(start, start + rows)[keep]]
        cols += [np.array(pick(c)) for c in blk.theta]
        cols += [*x.T, *_points(pick(blk.y)).T]
        cols += [
            np.array(pick(blk.accepted), dtype=bool),
            np.array(pick(blk.alpha)),
            np.array(gammas),
            np.array(vs),
            w,
            np.array(_compound_cells(config.compound, vs, pick(w_cells), gammas)),
            (w <= config.recurrence_m) & (x_norm <= config.recurrence_r),
        ]
        if blk.counts is not None:
            cols.append(np.array(pick(blk.counts), dtype=np.int64))
        self.blocks.append(cols)
        return True

    def to_csv(self, path) -> None:
        """Write the header and every kept block to ``path``.

        The blocks are split into contiguous slices, one per worker, as
        ``_slices`` splits them when each costs the blocks' mean row count.
        This process writes the first slice straight to the file; each forked
        worker formats its slice in its own memory and sends the bytes
        through a pipe, which this process copies into the file a buffer at a
        time (``shutil.copyfileobj``), so it never holds another slice's
        text.
        """
        # ``_csv_rows``' module, imported before the workers fork so that they
        # share its code and tables: compiled in each worker instead, a
        # 10,001-row write took about 3 ms longer (median of 15 whole runs)
        importlib.import_module(".csvfmt", __package__)

        blocks = self.blocks
        rows = sum(len(cols[0]) for cols in blocks)
        own, *rest = _slices(len(blocks), rows // len(blocks), _MIN_WORKER_ROWS)
        with open(path, "wb") as fh:
            fh.write(self.header)

            def write_own() -> None:
                fh.writelines(map(_csv_rows, blocks[own]))

            jobs = [lambda part=part: b"".join(map(_csv_rows, blocks[part])) for part in rest]
            _fork_map(jobs, write_own, lambda stream: shutil.copyfileobj(stream, fh))


def _csv_rows(cols: list[np.ndarray]) -> bytes:
    """The CSV lines of one kept block, given as its columns in header order:
    floats by ``repr``'s bytes, so that they read back exactly, and
    integers and flags as integers (``csvfmt``, imported at the first CSV
    write, since a run without one never needs its tables)."""
    from .csvfmt import csv_lines

    return csv_lines(cols)


def _write_kept_csv(config: ChainConfig, path, blocks: Iterator) -> None:
    """Write replica 0's ``trajectory.csv`` from its raw blocks, given in
    path order as ``(start, blk, w_cells)`` (see ``_KeptPath.add``), each
    block's kept rows as it arrives."""
    kept = _KeptPath(config)
    with open(path, "wb") as fh:
        fh.write(kept.header)
        for block in blocks:
            if kept.add(*block):
                fh.write(_csv_rows(kept.blocks.pop()))


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


def _run_toy_replicas(config: ChainConfig, rngs: list, keep: Optional[Callable] = None) -> list[dict]:
    """Two-state chain with the mean-tracking parameter update, one replica
    per generator in ``rngs``, all stepped together as numpy vectors.

    Each replica draws one uniform per step from its own generator, in
    blocks of B steps, with B * len(rngs) near ``_BLOCK_ELEMENTS`` and B at
    most ``_BLOCK_STEPS``; a block draw returns what B scalar draws would,
    so every replica sees exactly the numbers a one-chain loop sees.  After
    each block its rows are folded into the recurrence statistics and
    dropped; replica 0's rows up to its halt row also go to ``keep(start,
    blk, w_cells)`` (see ``_KeptPath.add``).  A replica that diverges is
    frozen at its halt row.
    Returns one record per generator, in order.
    """
    n = config.horizon
    n_rep = len(rngs)
    block = max(1, min(_BLOCK_ELEMENTS // n_rep, _BLOCK_STEPS))
    schedule = config.schedule
    kesten = _kesten_on(schedule)
    # step i uses the count left by steps 2..i-1, so at most n - 2
    gamma_table = np.array([schedule.gamma_of_count(c) for c in range(n)]) if kesten else None
    weights = config.param_weight.of_thetas
    stats = _RecurrenceCounter(n_rep, config.recurrence_m, config.recurrence_r)

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
        if keep is not None:
            _keep_toy_rows(keep, schedule, gamma_table, np.zeros(1, dtype=np.int64), theta[:1], x[:1], w[:1],
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
            if keep is not None and active[0] == 0:
                cut = int(end[0]) - start + 1  # rows up to replica 0's halt row, or all
                _keep_toy_rows(keep, schedule, gamma_table, index[:cut], th_blk[:cut, 0], x_blk[:cut, 0],
                               w[:cut, 0], x_in, count_in, bool(halted[0]))
            going = ~halted[active]
            active, theta, x, counts = active[going], th_blk[-1, going], x_blk[-1, going], counts[going]
            start += rows

    return [
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


def _keep_toy_rows(keep: Callable, schedule, gamma_table, index, theta, x, w,
                   x_in: bool, count_in: int, halted: bool) -> None:
    """Hand replica 0's toy rows ``index`` to ``keep`` as the block an srwm
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
    cells = x.astype(float).tolist()
    rows = len(cells)
    blk = _RawBlock((theta.tolist(),), cells, cells, flips.tolist(), [math.nan] * rows, gammas, [0.0] * rows,
                    counts, halted)
    keep(int(index[0]), blk, w.tolist())


# ---------------------------------------------------------------------------
# recurrence diagnostics


class _RecurrenceCounter:
    """Recurrence-set statistics of several replicas, fed rows block by block.

    Per replica it holds the counts of its record (``record``) and whether
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

    def add(self, index, abs_theta, w, x_norm, cols, end) -> None:
        """Fold in the rows ``index`` of the replicas ``cols``.

        ``abs_theta`` (largest |theta| component), ``w`` and ``x_norm`` have
        one row per index and one column per replica.  Rows of column j past
        ``end[j]`` must repeat its row at ``end[j]`` (a halted replica); they
        add no visit.  An entry is a row in the recurrence set whose
        previous row, if any, was not.
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


class ReplicaSummary(NamedTuple):
    """Order-independent aggregate over replica substreams."""

    n_replicas: int
    base_seed: int
    per_replica: list[dict]
    aggregate: dict
    any_diverged: bool


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
    target = config.target
    if config.rule.kind != RULE_AM or target.known_mean is None or diverged:
        return {}
    k = target.dim
    return {
        "final_err_mu": float(np.linalg.norm(final_theta[:k] - target.known_mean)),
        "final_err_cov": float(np.linalg.norm(final_theta[k:].reshape(k, k) - target.known_cov)),
    }


def run_replicas(config: ChainConfig, n_replicas: int, csv_path=None) -> ReplicaSummary:
    """Run ``n_replicas`` independent chains on replica substreams and
    return their summary; with ``csv_path``, replica 0's trajectory is
    written to that file as ``_KeptPath.to_csv`` writes it.  Every replica
    is reduced to statistics block by block as it runs, so memory stays at
    desk scale.

    srwm replicas are split into contiguous slices, one per worker
    (``_slices``).  This process runs the first slice, so replica 0's rows
    never cross a pipe unless they are streamed; each forked worker runs one
    other slice and sends back only its records.  The toy engine runs every
    replica in this process: its per-step cost is mostly numpy call
    overhead, which a split does not divide.  200 x 2,000 steps took 58 ms
    in one process and 51 ms over two workers (2-vCPU VM), 7 ms of a 0.38 s
    ``driftlab run`` of that size.

    Replica 0's rows go to one sink, chosen here.  When the split leaves a
    usable core idle and they are ``_worth_streaming``, it is a ``_Feed``:
    one more forked worker (``_write_kept_csv``) forms and writes them while
    the loop runs.  Otherwise, with ``csv_path``, it is a ``_KeptPath``,
    which writes them after the run, its blocks split over forked workers;
    without, there is none.  Either way the file's bytes are the
    same, and a run that raises leaves no partly streamed file behind.
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    toy = config.kind == CHAIN_TOY
    own, *rest = [slice(0, n_replicas)] if toy else _slices(n_replicas, config.horizon + 1, _MIN_WORKER_STEPS)
    streamed = csv_path is not None and len(rest) + 1 < _usable_cores() and _worth_streaming(config)
    kept = _KeptPath(config) if csv_path is not None and not streamed else None
    records = []

    def run_own(feed: Optional[_Feed] = None) -> None:
        keep = None if kept is None else kept.add
        if feed is not None:  # streamed: the writer keeps the rows
            keep = lambda *block: feed.put(block)
        if toy:
            records.extend(_run_toy_replicas(config, [substream(config.seed, k) for k in range(n_replicas)], keep))
        else:
            records.extend(_run_srwm(config, _replica_streams(config, own), 0, keep))

    jobs = [lambda part=part: pickle.dumps(_run_srwm(config, _replica_streams(config, part), part.start))
            for part in rest]
    feed = (lambda blocks: _write_kept_csv(config, csv_path, blocks)) if streamed else None
    try:
        _fork_map(jobs, run_own, lambda stream: records.extend(pickle.load(stream)), feed)
    except BaseException:
        if streamed:
            with contextlib.suppress(OSError):
                os.unlink(csv_path)
        raise
    if kept is not None:
        kept.to_csv(csv_path)
    return summarize_replicas(records, config.seed)


def _replica_streams(config: ChainConfig, part: slice) -> list[tuple]:
    """The split streams (``streams.split_streams``) of srwm replicas
    ``part``, made where they run: stream 0 for the increments, stream 1 for
    the coins and, under running moments with Student increments in several
    dimensions, stream 2 for the chi-square mixing variable."""
    mixing = config.rule.kind == RULE_AM and config.target.dim > 1 and config.proposal.family == FAMILY_STUDENT
    return [split_streams(config.seed, k, 3 if mixing else 2) for k in range(part.start, part.stop)]


def _worth_streaming(config: ChainConfig) -> bool:
    """Whether replica 0's CSV pays for a writer of its own on an idle core:
    its loop makes a kept row about as slowly as the writer formats one, as
    the toy engine and the loops in several dimensions do, and it keeps at
    least ``_MIN_STREAM_ROWS`` rows.  A 1-D loop makes a row about 3 times
    faster than the writer forms, formats and writes it (0.97-1.07 us a step
    against 3.3-3.6 us a row, in process on a 2-vCPU VM, min of 15), so a
    writer would set its pace, where the after-run split formats on every
    core."""
    slow = config.kind == CHAIN_TOY or config.target.dim > 1
    return slow and _kept_rows(config) >= _MIN_STREAM_ROWS


def _kept_rows(config: ChainConfig) -> int:
    """The rows replica 0 keeps in a run to the horizon: every
    ``record_stride``-th step and the last."""
    return config.horizon // config.record_stride + 1 + (config.horizon % config.record_stride != 0)


# ---------------------------------------------------------------------------
# worker processes
#
# One fork, pipe and reap round trip with an empty job costs about 4.8 ms
# on a 2-vCPU VM from a 40 MB process, and a worker then runs its first few
# ms slower than this process would (copy-on-write faults), so a worker pays
# for itself only past about 8 ms of work; a ``driftlab run`` that forked
# also takes about 4 ms longer to exit.  Measured break-evens, in work per
# worker (R = 2, forced one against two workers, median of 21): 4,000-5,000
# replica-steps of the 1-D loop under a scalar rule and about 4,000 under AM.
# Whole ``driftlab run`` processes of 2 x 5,000 1-D AM steps took 207 ms
# on two workers against 211 on one (median of 15).  The after-run CSV split
# pays from about 4,000 rows a worker since ``csvfmt`` formats a row in
# about 2 us: whole 1-D coerced runs (R = 2, one process against two,
# medians of 11-21 alternating runs) took 163 against 178 ms at 2,001 rows,
# 178 against 183 at 4,001, 210 against 226 at 6,001, 287 against 280 at
# 8,001 and 228 against 222 at 10,001; in process ``to_csv`` alone took 8.3
# against 13.8 ms at 3,001 rows and 22.8 against 17.2 at 7,001 (min of 31).
# A split never leaves a worker less than these minimums (a CSV split counts
# each kept block at the blocks' mean row count).
_MIN_WORKER_STEPS = 5_000
_MIN_WORKER_ROWS = 4_000

# Rows replica 0 must keep for its CSV to be streamed.  Below 3,000 rows the
# after-run split writes the file without a fork, and a writer's fork and
# exit cost about what its overlap saves.  Measured on whole ``driftlab
# run`` processes (2-vCPU VM, median of the run and its exit over 15
# alternating runs, written after the run against streamed, ``csvfmt``
# formatting): 2-D AM 210 -> 205 ms at 2,001 rows, 290 -> 279 at 3,001, 350
# -> 272 at 4,001 and 382 -> 365 at 6,001; 2-D coerced 203 -> 220 ms at
# 2,001 rows, 294 -> 299 at 3,001, 305 -> 300 at 4,001 and 314 -> 307 at
# 6,001; the toy at R = 200 286 -> 312 ms at 2,001 rows, 368 -> 358 at
# 3,001, 373 -> 354 at 4,001 and 432 -> 401 at 6,001.  1-D loops (R = 1)
# still lose or tie: coerced 287 -> 300 ms at 5,001 rows and 304 -> 302 at
# 10,001, 1-D AM 268 -> 274 at 5,001 and 287 -> 297 at 10,001.
_MIN_STREAM_ROWS = 3_000

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
    own: Callable[..., object],
    take: Callable[[BinaryIO], None],
    feed: Optional[Callable[[Iterator], None]] = None,
):
    """Run ``own()`` in this process while each of ``jobs`` runs in a forked
    worker, and return what ``own`` returns.

    A job returns bytes, which its worker writes to a pipe.  Once ``own``
    returns, ``take(stream)`` reads each job's bytes from a binary stream,
    in job order.

    With ``feed``, one more worker runs ``feed(items)`` while ``own`` runs,
    and ``own`` is called with a ``_Feed``: each object passed to its
    ``put`` comes out of the iterator ``items``, which ends when ``own``
    returns or raises.  Every job's worker closes both ends of the feed's
    pipe, and the feed's worker its write end, so that the feed sees the
    end.

    An exception a job or the feed raises is raised here again, with its
    type and message, once ``own`` has returned.  Every worker is reaped
    before this returns or raises, after every read end is closed, so a
    worker blocked on a full pipe gets EPIPE and exits instead of waiting
    for a reader that is gone.
    """
    pids, reads = [], []
    workers = [(job, ()) for job in jobs]
    sink = None
    if feed is not None:
        feed_r, feed_w = os.pipe()
        sink = _Feed(feed_w)  # a worker closes the descriptor and never touches this object
        workers = [(job, (feed_r, feed_w)) for job in jobs]

        def drain() -> bytes:
            feed(_unpickled(feed_r))
            return b""

        workers.append((drain, (feed_w,)))
    try:
        for job, inherited in workers:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(job, w, reads + list(inherited))
            finally:
                os.close(w)
            pids.append(pid)
        if sink is None:
            result = own()
        else:
            os.close(feed_r)
            feed_r = None
            result = own(sink)
            sink.close()
        for k, r in enumerate(reads):
            with open(r, "rb", closefd=False) as stream:
                status = stream.read(1)
                if status == _JOB_DONE:
                    if k < len(jobs):
                        take(stream)
                    continue
                body = stream.read()
            if status == _JOB_FAILED:
                raise pickle.loads(body)  # bytes our own worker wrote
            raise RuntimeError(f"worker {k + 1} of {len(workers)} ended without a result")
        return result
    finally:
        if sink is not None:
            sink.close()
            if feed_r is not None:
                os.close(feed_r)
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


class _Feed:
    """The write end of a feed worker's input pipe, given to ``own`` by
    ``_fork_map``.

    ``put`` pickles an object down the pipe.  Once the worker has failed
    and exited, ``put`` drops what it is given: ``_fork_map`` raises the
    worker's exception after ``own`` returns.
    """

    def __init__(self, fd: int):
        self.stream = open(fd, "wb")

    def put(self, item) -> None:
        if not self.stream.closed:
            try:
                pickle.dump(item, self.stream, pickle.HIGHEST_PROTOCOL)
                self.stream.flush()
            except BrokenPipeError:
                self.close()

    def close(self) -> None:
        """Close the pipe; a worker that has already exited cannot take the
        last bytes, and they are dropped."""
        with contextlib.suppress(BrokenPipeError):
            self.stream.close()


def _unpickled(fd: int) -> Iterator:
    """The objects pickled into the pipe whose read end is ``fd``, until it
    is closed."""
    with open(fd, "rb") as stream:
        while True:
            try:
                yield pickle.load(stream)
            except EOFError:
                return


def _work(job: Callable[[], bytes], w: int, inherited: list[int]) -> NoReturn:
    """A forked worker's whole life: close the pipe ends ``inherited`` from
    its parent, run ``job`` and write its status byte and bytes (or the
    exception it raised) to the pipe ``w``.  It leaves through ``os._exit``,
    so it never returns into its caller's frames or flushes buffers it
    shares with its parent; an exception that cannot be written leaves no
    status byte."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
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
