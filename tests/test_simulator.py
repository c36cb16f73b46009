"""Chain driver: reproducibility, recorded columns, recurrence bookkeeping."""

import dataclasses
import functools
import math
import operator
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import simulator
from driftlab.adaptation import (
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    PolynomialSchedule,
    RULE_AM,
    RULE_COERCED,
    RULE_FAST_COERCED,
    RULE_FIXED,
    RULE_TOY_MEAN,
    am_update,
    gamma_at,
    scalar_update,
)
from driftlab.config import ChainConfig
from driftlab.kernels import (
    AMParam,
    FAMILY_GAUSSIAN,
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    ProposalSpec,
    ScalarParam,
    _root_rows,
    draw_increments,
)
from driftlab.lyapunov import (
    CompoundSpec,
    ParamLyapunov,
    StateLyapunov,
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
)
from driftlab.simulator import (
    THETA_MAX,
    _compound_cells,
    run_replicas,
)
from driftlab.streams import split_streams, substream
from driftlab.targets import gaussian_target

UNIFORM_1D = ProposalSpec(family=FAMILY_UNIFORM, parametrization=PARAM_SCALAR_LOG_SCALE)


def toy_config(
    c0=100.0, horizon=2000, seed=11, m=2501.0, r=1.5, schedule=None, theta0=0.0, stride=1, weight=W_ONE_PLUS_SQUARE
):
    return ChainConfig(
        kind="toy",
        rule=AdaptationRule(kind=RULE_TOY_MEAN),
        schedule=schedule or PolynomialSchedule(c0=c0, c1=0.0, a=1.0),
        theta0=theta0,
        x0=0,
        horizon=horizon,
        seed=seed,
        recurrence_m=m,
        recurrence_r=r,
        record_stride=stride,
        param_weight=ParamLyapunov(weight),
    )


def coerced_config(horizon=2000, seed=7, schedule=None, theta0=0.0):
    t = gaussian_target(dim=1)
    return ChainConfig(
        kind="srwm",
        rule=AdaptationRule(kind=RULE_COERCED, alpha_star=0.44),
        schedule=schedule or PolynomialSchedule(c0=0.5, c1=10.0, a=0.6),
        theta0=theta0,
        x0=0.0,
        horizon=horizon,
        seed=seed,
        recurrence_m=math.exp(5.0),
        recurrence_r=10.0,
        target=t,
        proposal=UNIFORM_1D,
        state_lyapunov=StateLyapunov(t, 0.5),
        param_weight=ParamLyapunov(W_EXP_ABS),
    )


def am_config(horizon=2000, seed=5, schedule=None):
    t = gaussian_target(dim=1, mean=[3.0], cov=[[4.0]])
    return ChainConfig(
        kind="srwm",
        rule=AdaptationRule(kind=RULE_AM),
        schedule=schedule or PolynomialSchedule(c0=0.5, c1=10.0, a=0.6),
        theta0=AMParam(mu=np.zeros(1), cov=np.eye(1)),
        x0=0.0,
        horizon=horizon,
        seed=seed,
        recurrence_m=1000.0,
        recurrence_r=10.0,
        target=t,
        proposal=ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE),
        state_lyapunov=StateLyapunov(t, 0.5),
        param_weight=ParamLyapunov("am_poly", eps=0.5),
    )


# Columns written as integers; every other column is a float.
INT_COLUMNS = ("i", "accepted", "in_C", "s")


def param_labels(cfg):
    """The parameter's column names: mu_j and cov_ab (row-major) under
    running moments, else theta_1."""
    if cfg.rule.kind != RULE_AM:
        return ["theta_1"]
    d = cfg.target.dim
    return [f"mu_{j+1}" for j in range(d)] + [f"cov_{a+1}{b+1}" for a in range(d) for b in range(d)]


def csv_names(labels, dim, kesten):
    """The header of a trajectory with parameter columns ``labels`` in
    ``dim`` dimensions, with an ``s`` column under a Kesten schedule."""
    coords = [""] if dim == 1 else [f"_{j+1}" for j in range(dim)]
    return (["i"] + list(labels) + [f"x{c}" for c in coords] + [f"y{c}" for c in coords]
            + ["accepted", "alpha", "gamma_i", "V", "w", "W", "in_C"] + (["s"] if kesten else []))


def csv_text(names, rows) -> bytes:
    """CSV text of ``rows`` under the header ``names``, one cell at a time:
    ``str(int(.))`` in the INT_COLUMNS, ``repr(float(.))`` elsewhere."""
    is_int = [name in INT_COLUMNS for name in names]
    lines = [",".join(names)]
    for row in rows:
        assert len(row) == len(names)
        lines.append(",".join(str(int(v)) if i else repr(float(v)) for v, i in zip(row, is_int)))
    return ("\n".join(lines) + "\n").encode()


def read_rows(text: bytes):
    """A trajectory read back from its CSV text: ``csv`` (the text),
    ``names`` (the header), and its columns as arrays,
    ``index``, ``theta``, ``x`` and ``y`` (one column per component),
    ``accepted``, ``alpha``, ``gamma``, ``v``, ``w``, ``compound``, ``in_set``
    and ``kesten_counts`` (None without an ``s`` column)."""
    lines = text.decode().splitlines()
    names = lines[0].split(",")
    table = dict(zip(names, zip(*(line.split(",") for line in lines[1:]))))

    def floats(*cols):
        return np.array([[float(v) for v in table[c]] for c in cols], dtype=float).T

    xs = [n for n in names if n == "x" or n.startswith("x_")]
    ys = [n for n in names if n == "y" or n.startswith("y_")]
    labels = names[1:names.index(xs[0])]
    return SimpleNamespace(
        csv=text,
        names=names,
        index=np.array([int(v) for v in table["i"]], dtype=np.int64),
        theta=floats(*labels),
        x=floats(*xs),
        y=floats(*ys),
        accepted=np.array([int(v) for v in table["accepted"]]) == 1,
        alpha=floats("alpha")[:, 0],
        gamma=floats("gamma_i")[:, 0],
        v=floats("V")[:, 0],
        w=floats("w")[:, 0],
        compound=floats("W")[:, 0],
        in_set=np.array([int(v) for v in table["in_C"]]) == 1,
        kesten_counts=np.array([int(v) for v in table["s"]], dtype=np.int64) if "s" in table else None,
    )


def kept_rows(kept):
    """The rows a ``_KeptPath`` holds, formatted block by block by the
    simulator and read back by ``read_rows``."""
    return read_rows(kept.header + b"".join(map(simulator._csv_rows, kept.blocks)))


def replica_draws(cfg, replica):
    """An srwm replica's split streams, keyed ``spawn_key=(replica, j)``:
    j = 0 for the increments, 1 for the coins and, under running moments
    with Student increments in several dimensions, 2 for the chi-square
    mixing variable."""
    mixing = cfg.rule.kind == RULE_AM and cfg.target.dim > 1 and cfg.proposal.family == FAMILY_STUDENT
    return split_streams(cfg.seed, replica, 3 if mixing else 2)


def run_kept(cfg, n_rep=1):
    """``n_rep`` replicas by their engine, in this process, with replica 0's
    rows handed to a ``_KeptPath``: their records, in replica order, and the
    kept path."""
    kept = simulator._KeptPath(cfg)
    if cfg.kind == "toy":
        records = simulator._run_toy_replicas(cfg, [substream(cfg.seed, k) for k in range(n_rep)], kept.add)
    else:
        records = simulator._run_srwm(cfg, [replica_draws(cfg, k) for k in range(n_rep)], 0, kept.add)
    return records, kept


def kept_run(cfg, n_rep=1):
    """``run_kept``'s records, and replica 0's trajectory as ``kept_rows``
    reads it."""
    records, kept = run_kept(cfg, n_rep)
    return records, kept_rows(kept)


def first_run(cfg):
    """Replica 0 alone, by its engine: its trajectory and its record."""
    records, traj = kept_run(cfg)
    return traj, records[0]


def recount(traj, m, r):
    """The recurrence statistics of a stride-1 trajectory, counted row by
    row from its theta, w and x columns: entries into {w <= m} x {|x| <= r}
    (a first row inside counts), exits from {w <= m}, and visits."""
    w_in = (traj.w <= m).tolist()
    inside = [wi and norm <= r for wi, norm in zip(w_in, np.linalg.norm(traj.x, axis=1).tolist())]
    index = traj.index.tolist()
    entries = [index[j] for j in range(len(index)) if inside[j] and (j == 0 or not inside[j - 1])]
    exits = [index[j] for j in range(1, len(index)) if w_in[j - 1] and not w_in[j]]
    return {
        "first_hit": entries[0] if entries else None,
        "n_hits": len(entries),
        "visit_count": sum(inside),
        "last_exit_time": exits[-1] if exits else None,
        "exit_count": len(exits),
        "max_abs_theta": float(np.abs(traj.theta).max()),
        "censored": not inside[-1],
    }


def test_split_streams_follow_the_documented_keys():
    # stream j of replica k is Philox keyed SeedSequence(entropy=seed,
    # spawn_key=(k, j)), apart from the replica's substream (k,); and the
    # run draws the layout replica_draws names
    seed, k = 7, 3
    got = [s.random(4).tolist() for s in split_streams(seed, k, 3)]
    want = [np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(k, j))))
            .random(4).tolist() for j in range(3)]
    assert got == want
    assert substream(seed, k).random(4).tolist() not in got
    configs = (srwm_1d_config(), mv_config(), mv_config(family=FAMILY_STUDENT),
               mv_config(rule=RULE_COERCED, family=FAMILY_STUDENT))
    for cfg in configs:
        made = simulator._replica_streams(cfg, slice(k, k + 1))[0]
        assert [s.random() for s in made] == [s.random() for s in replica_draws(cfg, k)]


def test_run_chain_reproducible_and_substream_equivalent():
    # one chain, run twice, and once more by the toy engine on replica 0's
    # substream
    cfg = toy_config()
    t1, _ = first_run(cfg)
    t2, _ = first_run(cfg)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.x, t2.x)
    kept = simulator._KeptPath(cfg)
    simulator._run_toy_replicas(cfg, [substream(cfg.seed, 0)], kept.add)
    assert np.array_equal(t1.theta, kept_rows(kept).theta)


def test_recorded_gamma_matches_schedule():
    for cfg in (toy_config(horizon=500), coerced_config(horizon=500)):
        traj, _ = first_run(cfg)
        for j in range(1, traj.index.shape[0]):
            i = int(traj.index[j])
            assert traj.gamma[j] == gamma_at(cfg.schedule, i)
    cfg = coerced_config(horizon=300, schedule=ConstantSchedule(0.02))
    traj, _ = first_run(cfg)
    assert np.all(traj.gamma[1:] == 0.02)


def test_recorded_columns_are_self_consistent():
    cfg = coerced_config(horizon=800)
    traj, _ = first_run(cfg)
    # w column is exp(|theta|); W column the compound value; V from the
    # state function; in_C the conjunction of both level sets
    th = traj.theta[:, 0]
    assert traj.w == pytest.approx(np.exp(np.abs(th)), rel=1e-12)
    v_ref = np.exp(0.5 * 0.5 * traj.x[:, 0] ** 2)
    assert traj.v == pytest.approx(v_ref, rel=1e-12)
    w_ref = traj.v + traj.w / traj.gamma
    assert traj.compound == pytest.approx(w_ref, rel=1e-12)
    in_ref = (traj.w <= cfg.recurrence_m) & (np.abs(traj.x[:, 0]) <= cfg.recurrence_r)
    assert np.array_equal(traj.in_set.astype(bool), in_ref)
    # alpha is a probability on srwm rows past the initial one
    assert np.all((traj.alpha[1:] >= 0.0) & (traj.alpha[1:] <= 1.0))


def test_csv_headers_by_rule(tmp_path):
    _, kept = run_kept(coerced_config(horizon=10))
    assert kept.header == b"i,theta_1,x,y,accepted,alpha,gamma_i,V,w,W,in_C\n"
    _, am = run_kept(am_config(horizon=10))
    assert am.header == b"i,mu_1,cov_11,x,y,accepted,alpha,gamma_i,V,w,W,in_C\n"
    _, mv = run_kept(mv_config(rule=RULE_COERCED))
    assert mv.header == b"i,theta_1,x_1,x_2,y_1,y_2,accepted,alpha,gamma_i,V,w,W,in_C\n"
    toy, _ = first_run(toy_config(horizon=10))
    assert toy.names[:2] == ["i", "theta_1"]
    # toy rows carry no acceptance probability
    assert math.isnan(float(toy.alpha[1]))
    p = tmp_path / "t.csv"
    kept.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "i,theta_1,x,y,accepted,alpha,gamma_i,V,w,W,in_C"
    assert len(lines) == 12
    # the blocks hold the columns in header order, and values round-trip
    # through repr
    row1 = lines[2].split(",")
    assert float(row1[1]) == kept.blocks[1][1][0]


def test_kesten_column_and_count_consistency(tmp_path):
    sched = KestenSchedule(c0=0.5, a=0.6)
    cfg = coerced_config(horizon=400, schedule=sched)
    traj, _ = first_run(cfg)
    assert traj.kesten_counts is not None
    counts = traj.kesten_counts
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0
    # the stepsize at row i uses the count as of the previous row
    for j in range(1, traj.index.shape[0]):
        assert traj.gamma[j] == sched.gamma_of_count(int(counts[j - 1]))
    assert traj.names[-1] == "s"
    _, kept = run_kept(cfg)
    p = tmp_path / "k.csv"
    kept.to_csv(p)
    header = p.read_text().split("\n", 1)[0]
    assert header.endswith(",s")


def test_divergence_guard_halts():
    cfg = toy_config(c0=1e12, horizon=50)
    traj, rec = first_run(cfg)
    assert rec["diverged"]
    assert rec["halt_index"] is not None and rec["halt_index"] <= 50
    # the trajectory ends at the halt row
    assert traj.index[-1] == rec["halt_index"]
    assert abs(traj.theta[-1, 0]) > THETA_MAX or not math.isfinite(traj.theta[-1, 0])


def test_record_stride_keeps_final_row():
    cfg = toy_config(horizon=100)
    cfg = ChainConfig(**{**cfg.__dict__, "record_stride": 7})
    traj, _ = first_run(cfg)
    idx = traj.index.tolist()
    assert idx[0] == 0
    assert idx[-1] == 100
    assert all(i % 7 == 0 or i == 100 for i in idx)


def test_recurrence_stats_match_direct_recount():
    cfg = coerced_config(horizon=600, seed=19)
    traj, rec = first_run(cfg)
    in_set = (traj.w <= cfg.recurrence_m) & (np.abs(traj.x[:, 0]) <= cfg.recurrence_r)
    assert np.array_equal(traj.in_set, in_set)
    entries = [
        int(traj.index[j])
        for j in range(len(in_set))
        if in_set[j] and (j == 0 or not in_set[j - 1])
    ]
    assert rec["visit_count"] == int(in_set.sum())
    assert rec["n_hits"] == len(entries)
    assert rec["first_hit"] == (entries[0] if entries else None)
    w_in = traj.w <= cfg.recurrence_m
    exits = [int(traj.index[j]) for j in range(1, len(w_in)) if w_in[j - 1] and not w_in[j]]
    assert rec["exit_count"] == len(exits)
    assert rec["last_exit_time"] == (exits[-1] if exits else None)
    assert rec["censored"] == (not bool(in_set[-1]))
    assert rec["max_abs_theta"] == float(np.abs(traj.theta).max())
    # the same path with unbounded levels visits on every row
    _, loose = first_run(dataclasses.replace(cfg, recurrence_m=math.inf, recurrence_r=math.inf))
    assert loose["visit_count"] == traj.index.shape[0]
    assert (loose["n_hits"], loose["first_hit"], loose["exit_count"]) == (1, 0, 0)


def test_run_replicas_matches_individual_runs():
    cfg = toy_config(horizon=300, seed=42)
    summary = run_replicas(cfg, 3)
    first, _ = first_run(cfg)
    assert first is not None
    assert summary.n_replicas == 3
    assert [r["replica"] for r in summary.per_replica] == [0, 1, 2]
    # replica 2 run alone, by the engine on its substream, is the same chain
    kept = simulator._KeptPath(cfg)
    simulator._run_toy_replicas(cfg, [substream(42, 2)], kept.add)
    solo = kept_rows(kept)
    for k, traj in ((0, first), (2, solo)):
        want = recount(traj, cfg.recurrence_m, cfg.recurrence_r)
        assert {key: summary.per_replica[k][key] for key in want} == want
    assert summary.aggregate["hit_count"] <= 3
    with pytest.raises(ValueError):
        run_replicas(cfg, 0)


def test_am_error_fields_present_and_plausible():
    summary = run_replicas(am_config(horizon=4000), 2)
    for rec in summary.per_replica:
        assert rec["final_err_mu"] is not None
        assert rec["final_err_cov"] is not None
        assert rec["acceptance_tail"] is not None
        assert 0.0 <= rec["acceptance_tail"] <= 1.0
    assert "final_err_mu_median" in summary.aggregate


def test_config_validation_rejects_mismatches():
    cfg = toy_config()
    with pytest.raises(ValueError):
        ChainConfig(**{**cfg.__dict__, "x0": 2})
    with pytest.raises(ValueError):
        ChainConfig(**{**cfg.__dict__, "rule": AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)})
    c2 = coerced_config()
    with pytest.raises(ValueError):
        ChainConfig(**{**c2.__dict__, "theta0": AMParam(mu=np.zeros(1), cov=np.eye(1))})


def test_config_rejects_an_initial_mean_that_does_not_fit():
    am = am_config()
    # the running mean has the target's dimension, which picks the path
    with pytest.raises(ValueError):
        ChainConfig(**{**am.__dict__, "theta0": AMParam(mu=np.zeros(2), cov=np.eye(2))})


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_coerced_increment_envelope_along_path(seed):
    cfg = coerced_config(horizon=300, seed=seed)
    traj, _ = first_run(cfg)
    th = traj.theta[:, 0]
    for j in range(1, len(th)):
        gm = traj.gamma[j]
        assert abs(th[j] - th[j - 1]) <= gm * max(0.44, 0.56) + 1e-12


# ---------------------------------------------------------------------------
# the lockstep toy engine against the recursion, one scalar step at a time


def reference_toy(cfg, replica):
    """The toy recursion in scalars, one draw per step from the replica's
    substream: x flips with probability exp(-|theta|), then
    theta += gamma_i * (1/2 - x), and the Kesten count advances when
    successive increments oppose.  Rows (i, theta, x, flipped, gamma_i, s)
    up to the horizon or the first row with |theta| > THETA_MAX."""
    rng = substream(cfg.seed, replica)
    kesten = isinstance(cfg.schedule, KestenSchedule)
    theta, x, s, h_prev = float(cfg.theta0), int(cfg.x0), 0, None
    rows = [(0, theta, x, False, gamma_at(cfg.schedule, 1, 0 if kesten else None), 0)]
    for i in range(1, cfg.horizon + 1):
        gamma = gamma_at(cfg.schedule, i, s if kesten else None)
        flipped = rng.random() < math.exp(-abs(theta))
        if flipped:
            x = 1 - x
        h = 0.5 - x
        theta = theta + gamma * h
        if h_prev is not None and h_prev * h < 0.0:
            s += 1
        h_prev = h
        rows.append((i, theta, x, flipped, gamma, s))
        if not abs(theta) <= THETA_MAX:
            break
    return rows


def reference_record(cfg, rows, replica):
    """The per-replica record of ``reference_toy`` rows, counted directly."""
    w = [cfg.param_weight(row[1]) for row in rows]
    w_in = [wv <= cfg.recurrence_m for wv in w]
    inside = [wi and abs(row[2]) <= cfg.recurrence_r for wi, row in zip(w_in, rows)]
    entries = [rows[j][0] for j in range(len(rows)) if inside[j] and (j == 0 or not inside[j - 1])]
    exits = [rows[j][0] for j in range(1, len(rows)) if w_in[j - 1] and not w_in[j]]
    diverged = not abs(rows[-1][1]) <= THETA_MAX
    return {
        "replica": replica,
        "first_hit": entries[0] if entries else None,
        "n_hits": len(entries),
        "visit_count": sum(inside),
        "last_exit_time": exits[-1] if exits else None,
        "exit_count": len(exits),
        "max_abs_theta": max(abs(row[1]) for row in rows),
        "censored": not inside[-1],
        "diverged": diverged,
        "halt_index": rows[-1][0] if diverged else None,
        "acceptance_tail": None,
        "final_theta": [rows[-1][1]],
    }


TOY_CASES = {
    "polynomial": {"schedule": PolynomialSchedule(c0=100.0, c1=0.0, a=1.0)},
    "constant": {"schedule": ConstantSchedule(0.5)},
    "kesten": {"schedule": KestenSchedule(c0=3.0, a=0.6)},
    # w = exp|theta| by numpy's exp, which can differ from math.exp in the
    # last digit: the trajectory's w column is ParamLyapunov.of_thetas
    "polynomial-exp-weight": {"schedule": PolynomialSchedule(c0=2.0, c1=0.0, a=1.0), "m": 8.0, "weight": W_EXP_ABS},
    # every replica halts at step 4
    "polynomial-1e12": {"schedule": PolynomialSchedule(c0=1e12, c1=0.0, a=1.0), "theta0": 0.7},
    # |theta_2| = 1e12 + 0.7 or 1e12 - 0.7 by the first flip: halts at 2 or 3;
    # M above w at the halt row, so the rows of a halted replica would count
    # as visits if they were not cut at its halt
    "kesten-1e12": {"schedule": KestenSchedule(c0=1e12, a=0.6), "theta0": 0.7, "m": 1e30},
}


@pytest.mark.parametrize("block_elements", [None, 2], ids=["block-default", "block-2-steps"])
@pytest.mark.parametrize("case", sorted(TOY_CASES))
@pytest.mark.parametrize("n_rep", [1, 3, 7])
def test_toy_engine_matches_scalar_recursion(monkeypatch, n_rep, case, block_elements):
    if block_elements is not None:
        # two steps per block, so halts fall on both sides of block boundaries
        monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", block_elements * n_rep)
    cfg = toy_config(horizon=300, seed=23, stride=7, **TOY_CASES[case])
    summary = run_replicas(cfg, n_rep)
    records, first = kept_run(cfg, n_rep)
    paths = [reference_toy(cfg, k) for k in range(n_rep)]
    assert summary.per_replica == records
    assert records == [reference_record(cfg, rows, k) for k, rows in enumerate(paths)]
    if case == "kesten-1e12" and n_rep == 7:
        assert {r["halt_index"] for r in records} == {2, 3}

    kept = [row for row in paths[0] if row[0] % 7 == 0 or row is paths[0][-1]]
    assert first.index.tolist() == [row[0] for row in kept]
    assert first.theta[:, 0].tolist() == [row[1] for row in kept]
    assert first.x[:, 0].tolist() == [float(row[2]) for row in kept]
    assert first.y[:, 0].tolist() == [float(row[2]) for row in kept]
    assert first.accepted.tolist() == [row[3] for row in kept]
    assert first.gamma.tolist() == [row[4] for row in kept]
    w = cfg.param_weight.of_thetas([row[1] for row in kept]).tolist()
    assert w == pytest.approx([cfg.param_weight(row[1]) for row in kept], rel=1e-15)
    assert first.w.tolist() == w
    assert first.compound.tolist() == [1.0 + wv / row[4] for wv, row in zip(w, kept)]
    assert first.in_set.tolist() == [wv <= cfg.recurrence_m for wv in w]
    if isinstance(cfg.schedule, KestenSchedule):
        assert first.kesten_counts.tolist() == [row[5] for row in kept]
    else:
        assert first.kesten_counts is None
    # the trajectory ends at replica 0's halt row, or at the horizon
    rec = records[0]
    assert first.index[-1] == (rec["halt_index"] if rec["diverged"] else cfg.horizon)
    # one chain alone gives replica 0's trajectory
    solo, _ = first_run(cfg)
    assert solo.index.tolist() == first.index.tolist()
    assert solo.theta.tolist() == first.theta.tolist()


@pytest.mark.parametrize("case", sorted(TOY_CASES))
def test_recurrence_stats_of_first_trajectory_equal_streamed_record(case):
    cfg = toy_config(horizon=400, seed=31, **TOY_CASES[case])
    records, first = kept_run(cfg, 3)
    want = recount(first, cfg.recurrence_m, cfg.recurrence_r)
    rec = records[0]
    assert {key: rec[key] for key in want} == want
    assert first.index[-1] == (rec["halt_index"] if rec["diverged"] else cfg.horizon)


def test_am_negative_variance_halts_as_diverged():
    # gamma_1 = 5: only load_config rejects such a schedule, so a chain built
    # directly must flag the negative variance it produces.  Seed 1 rejects
    # the first proposal, so g_1 = 1 + 5 * (0 - 1) = -4.
    cfg = am_config(horizon=200, seed=1, schedule=PolynomialSchedule(c0=5.0, c1=0.0, a=1.0))
    summary = run_replicas(cfg, 1)
    traj, rec = first_run(cfg)
    assert summary.any_diverged
    assert summary.per_replica == [rec]
    assert rec["diverged"]
    assert rec["halt_index"] == 1
    assert traj.index.tolist() == [0, 1]
    assert traj.theta[-1, 1] == -4.0


# ---------------------------------------------------------------------------
# the multivariate path against its per-step composition


def mv_config(rule=RULE_AM, dim=2, schedule=None, family=FAMILY_GAUSSIAN, stride=1, compound=None, x0=2.0):
    """A correlated Gaussian target in ``dim`` dimensions under the
    running-moments or a coerced rule, started at ``(x0, ..., x0)``."""
    cov = 0.5 * np.eye(dim) + 0.5
    cov[0, 0] = 2.0
    t = gaussian_target(dim=dim, mean=np.linspace(-1.0, 1.0, dim), cov=cov)
    am = rule == RULE_AM
    return ChainConfig(
        kind="srwm",
        rule=AdaptationRule(kind=rule, alpha_star=None if am else 0.44),
        schedule=schedule or PolynomialSchedule(c0=0.5, c1=10.0, a=0.6),
        theta0=AMParam(mu=np.zeros(dim), cov=np.eye(dim)) if am else 0.0,
        x0=np.full(dim, x0),
        horizon=300,
        seed=13,
        recurrence_m=1000.0 if am else 20.0,
        recurrence_r=3.0,
        target=t,
        proposal=ProposalSpec(
            family=family, parametrization=PARAM_AM_COVARIANCE if am else PARAM_SCALAR_LOG_SCALE
        ),
        record_stride=stride,
        state_lyapunov=StateLyapunov(t, 0.5),
        param_weight=ParamLyapunov(W_AM_POLY if am else W_EXP_ABS),
        compound=compound or CompoundSpec(),
    )


class RowRecorder:
    """Rows of a one-step-at-a-time reference loop, written as CSV text by
    ``csv_text`` and read back by ``read_rows``."""

    def __init__(self, cfg, labels):
        self.kesten = isinstance(cfg.schedule, KestenSchedule)
        self.names = csv_names(labels, 1 if cfg.target is None else cfg.target.dim, self.kesten)
        self.rows = []

    def add(self, i, theta, x, y, accepted, alpha, gamma, v, w, comp, inside, s):
        row = [i, *theta, *x, *y, accepted, alpha, gamma, v, w, comp, inside]
        self.rows.append(row + [s] if self.kesten else row)

    def build(self):
        return read_rows(csv_text(self.names, self.rows))


def replica_record(cfg, traj, halt_index, replica):
    """The per-replica record of a stride-1 srwm trajectory of ``replica``
    that halts at ``halt_index`` (None: never), counted by ``recount``;
    acceptance_tail is the accept rate of the last min(10,000, steps // 10)
    steps."""
    tail = traj.accepted[-min(10_000, max((traj.index.shape[0] - 1) // 10, 1)):]
    rec = {
        "replica": replica,
        **recount(traj, cfg.recurrence_m, cfg.recurrence_r),
        "diverged": halt_index is not None,
        "halt_index": halt_index,
        "acceptance_tail": float(tail.mean()),
        "final_theta": [float(t) for t in traj.theta[-1]],
    }
    mean, cov = cfg.target.known_mean, cfg.target.known_cov
    if cfg.rule.kind == RULE_AM and mean is not None and halt_index is None:
        k = mean.shape[0]
        rec["final_err_mu"] = float(np.linalg.norm(traj.theta[-1][:k] - mean))
        rec["final_err_cov"] = float(np.linalg.norm(traj.theta[-1][k:].reshape(k, k) - cov))
    return rec


def reference_srwm_step(target, spec, param, x, draws):
    """One Metropolis step at a fixed kernel parameter, written out from the
    recursion, with log pi evaluated at both points, taking one step's
    values from each of the replica's split streams ``draws``: under running
    moments, ``standard_normal(d)`` times the ``kernels._root_rows`` root of
    (RW_SCALE**2 / d) * (cov + eps I), row by row over Python floats
    (divided by the root of a chi-square over its dof, from the mixing
    stream, for Student increments); under a log scale, exp(theta) times
    normal, Student or uniform (-1, 1) draws of shape (1, d).  Then the
    coin, from the coin stream.  Returns (state, proposal, accepted,
    alpha)."""
    d = target.dim
    inc, coin, *mixing = draws
    if isinstance(param, AMParam):
        cov_p = simulator.RW_SCALE**2 / d * (param.cov + spec.eps_ridge * np.eye(d))
        normal = inc.standard_normal(d).tolist()
        z = np.array([[sum(map(operator.mul, r, normal)) for r in _root_rows(cov_p.ravel().tolist(), d)]])
        if spec.family == FAMILY_STUDENT:
            z = z / math.sqrt(mixing[0].chisquare(spec.student_dof) / spec.student_dof)
    else:
        z = random_walk_increment(spec, param, d, inc)
    return metropolis_move(target, x, x + z[0], coin)


def random_walk_increment(spec, param, d, rng):
    """exp(theta) times normal, Student or uniform (-1, 1) draws of shape
    (1, d)."""
    if spec.family == FAMILY_UNIFORM:
        return param.sigma * (2.0 * rng.random((1, d)) - 1.0)
    if spec.family == FAMILY_STUDENT:
        return param.sigma * rng.standard_t(spec.student_dof, (1, d))
    return param.sigma * rng.standard_normal((1, d))


def metropolis_move(target, x, y, coin):
    """The accept/reject half of a step from ``x`` to the proposal ``y``,
    with log pi evaluated at both points and the coin drawn from ``coin``:
    (state, proposal, accepted, alpha)."""
    def logp(p):  # a 1-D target takes a float
        return float(target.log_density(p[0] if target.dim == 1 else p))

    ly, lx = logp(y), logp(x)
    alpha = 1.0 if ly >= lx else math.exp(ly - lx)
    accepted = coin.random() < alpha
    return (y if accepted else x), y, accepted, alpha


class IncrementDraws:
    """A replica's split streams as the one generator that
    ``kernels.draw_increments`` draws from: normal, Student and uniform
    draws from the increment stream, chi-square draws from the mixing
    stream."""

    def __init__(self, draws):
        inc, _, *mixing = draws
        self.standard_normal, self.standard_t, self.random = inc.standard_normal, inc.standard_t, inc.random
        if mixing:
            self.chisquare = mixing[0].chisquare


def composed_srwm_step(target, spec, param, x, draws):
    """One step composed from ``kernels.draw_increments`` (one increment,
    its matrix product in numpy) and the same accept/reject half."""
    z = draw_increments(spec, param, target.dim, IncrementDraws(draws), 1).reshape(1, -1)
    return metropolis_move(target, x, x + z[0], draws[1])


def reference_generic(cfg, replica=0, draws=None, step=reference_srwm_step):
    """One step at a time on the replica's split streams (or ``draws``), composed from
    ``step`` (``reference_srwm_step`` unless given), a fresh kernel parameter
    wherever one is needed, V and w from their Lyapunov objects, and the
    rule's update (``fixed`` keeps theta).  Rows every ``record_stride``
    steps, the final row, and the divergence halt row, as the simulator keeps
    them.  The Kesten count advances when successive increments have a
    negative inner product, a sum of float products, under running moments
    the mean's and the covariance's increments flattened into one vector.  Returns the trajectory and the halt index
    (None: no halt)."""
    draws = replica_draws(cfg, replica) if draws is None else draws
    rule = cfg.rule.kind
    kesten = isinstance(cfg.schedule, KestenSchedule)
    am = rule == RULE_AM
    dim = cfg.target.dim
    if am:
        mu, cov = cfg.theta0.mu.copy(), cfg.theta0.cov.copy()
    else:
        theta = float(cfg.theta0)
    x = np.atleast_1d(np.asarray(cfg.x0, dtype=float)).copy()
    s, h_prev = 0, None
    rec = RowRecorder(cfg, param_labels(cfg))

    def param():
        return AMParam(mu=mu, cov=cov) if am else ScalarParam(theta=theta)

    def row(i, y, accepted, alpha, gamma):
        v = float(cfg.state_lyapunov(x[0] if dim == 1 else x))
        w = float(cfg.param_weight(param()))
        comp = _compound_cells(cfg.compound, [v], [w], [gamma])[0]
        inside = w <= cfg.recurrence_m and float(np.linalg.norm(x)) <= cfg.recurrence_r
        theta_row = list(mu) + list(cov.ravel()) if am else [theta]
        rec.add(i, theta_row, list(x), list(np.atleast_1d(y)), accepted, alpha, gamma, v, w, comp, inside, s)

    row(0, x, False, math.nan, gamma_at(cfg.schedule, 1, 0 if kesten else None))
    for i in range(1, cfg.horizon + 1):
        gamma = gamma_at(cfg.schedule, i, s if kesten else None)
        x_new, y, accepted, alpha = step(cfg.target, cfg.proposal, param(), x, draws)
        if am:
            dev = x_new - mu
            h = np.concatenate([dev, (np.outer(dev, dev) - cov).ravel()])
            mu, cov = am_update(mu, cov, x_new, gamma)
        elif rule == RULE_FIXED:
            h = 0.0
        elif rule == RULE_COERCED:
            h = alpha - cfg.rule.alpha_star
            theta = scalar_update(RULE_COERCED, theta, alpha, gamma, cfg.rule.alpha_star)[0]
        else:
            h = (abs(theta) + 1.0) * (alpha - cfg.rule.alpha_star)
            theta = scalar_update(RULE_FAST_COERCED, theta, alpha, gamma, cfg.rule.alpha_star)[0]
        x = x_new
        if kesten:
            if h_prev is not None and (sum(map(operator.mul, h_prev.tolist(), h.tolist())) if am else h_prev * h) < 0.0:
                s += 1
            h_prev = h
        params = np.concatenate([mu, cov.ravel()]) if am else np.array([theta])
        halted = not (
            np.all(np.isfinite(params)) and np.max(np.abs(params)) <= THETA_MAX and np.all(np.isfinite(x))
        )
        if halted or i % cfg.record_stride == 0 or i == cfg.horizon:
            row(i, y, accepted, alpha, gamma)
        if halted:
            break
    return rec.build(), i if halted else None


MV_CASES = {
    "am-2d": {},
    "am-2d-constant": {"schedule": ConstantSchedule(0.05)},
    "fixed-2d": {"rule": RULE_FIXED},
    "am-3d": {"dim": 3},
    "coerced-2d": {"rule": RULE_COERCED},
    "fast-coerced-2d": {"rule": RULE_FAST_COERCED},
    "am-2d-kesten": {"schedule": KestenSchedule(c0=0.5, a=0.6)},
    "coerced-2d-kesten": {"rule": RULE_COERCED, "schedule": KestenSchedule(c0=0.5, a=0.6)},
    "am-2d-student": {"family": FAMILY_STUDENT},
    "coerced-2d-student": {"rule": RULE_COERCED, "family": FAMILY_STUDENT},
    "am-2d-stride-3": {"stride": 3},
    "coerced-2d-compound-u": {"rule": RULE_COERCED, "compound": CompoundSpec(upsilon_v=0.5, upsilon_w=0.7, mode="U")},
    # |theta_1| = 1e13 * |alpha - 0.44| > THETA_MAX: halts at step 1
    "coerced-2d-diverges": {"rule": RULE_COERCED, "schedule": PolynomialSchedule(c0=1e13, c1=0.0, a=1.0)},
    # cov_11 = 1 + gamma_1 * (1e14 - 1) > THETA_MAX while |mu| stays near
    # 1e6: halts at step 1 on the covariance alone
    "am-2d-diverges": {"x0": 1e7},
    # the covariance reaches 9.3e11 at step 1 and 1.09e12 at step 2: halts at
    # step 2, so the halt row can end block 1 or open block 2
    "am-2d-step-2-diverges": {"x0": 2.8e6},
    # gamma near 5: |theta| grows geometrically, passes 700 (an infinite
    # proposal scale, so proposals at infinity, which are rejected) and
    # halts on THETA_MAX at step 69
    "fast-coerced-2d-diverges": {"rule": RULE_FAST_COERCED, "schedule": PolynomialSchedule(c0=5.0, c1=0.0, a=0.001)},
}

# halt index of replica 0 in each case that diverges
MV_HALTS = {"am-2d-diverges": 1, "am-2d-step-2-diverges": 2, "coerced-2d-diverges": 1, "fast-coerced-2d-diverges": 69}


@pytest.mark.parametrize("case", sorted(MV_CASES))
def test_generic_path_matches_per_step_composition(case):
    cfg = mv_config(**MV_CASES[case])
    ref, halt = reference_generic(cfg)
    traj, rec = first_run(cfg)
    assert rec["diverged"] == (halt is not None) == case.endswith("-diverges")
    assert rec["halt_index"] == halt == MV_HALTS.get(case)
    if halt is not None:
        assert traj.index.tolist() == list(range(halt + 1))
    assert_same_trajectory(traj, ref)
    if ref.kesten_counts is not None:
        assert traj.kesten_counts[-1] > 0
    if halt is None:
        # the chain moved and visited the recurrence set
        assert traj.accepted.any() and traj.in_set.any()


# The loop takes its increments and its quadratic forms row by row over
# Python floats, kernels.draw_increments by numpy's matrix product; on
# MV_CASES the float columns of the two agree to 8e-12 relative (am-3d).
COMPOSED_RTOL = 1e-10


@pytest.mark.parametrize("case", sorted(MV_CASES))
def test_generic_path_agrees_with_draw_increments_and_am_update(case):
    # the same chain from kernels.draw_increments and adaptation.am_update:
    # the same draws, so the same decisions, and floats to rounding
    cfg = mv_config(**MV_CASES[case])
    ref, halt = reference_generic(cfg, step=composed_srwm_step)
    traj, rec = first_run(cfg)
    assert rec["halt_index"] == halt == MV_HALTS.get(case)
    assert traj.index.tolist() == ref.index.tolist()
    assert traj.accepted.tolist() == ref.accepted.tolist()
    assert traj.in_set.tolist() == ref.in_set.tolist()
    if ref.kesten_counts is not None:
        assert traj.kesten_counts.tolist() == ref.kesten_counts.tolist()
    for name in ("theta", "x", "y", "alpha", "gamma", "v", "w", "compound"):
        np.testing.assert_allclose(getattr(traj, name), getattr(ref, name), rtol=COMPOSED_RTOL, atol=0.0,
                                   err_msg=name)


@pytest.mark.parametrize("family", [FAMILY_GAUSSIAN, FAMILY_STUDENT])
def test_two_dimensional_am_runs_without_eigh(monkeypatch, family):
    # the 2-D proposal root is closed-form: no eigh on any step
    def refuse(*args, **kwargs):
        raise AssertionError("eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    traj, rec = first_run(mv_config(family=family))
    assert not rec["diverged"] and traj.index.shape[0] == 301
    assert traj.accepted.any()


# ---------------------------------------------------------------------------
# the CSV writer against a row-at-a-time loop


def synthetic_config(dim, n_theta, kesten):
    """A chain whose trajectory has ``dim`` state coordinates and
    ``n_theta`` parameter columns (1, or ``dim + dim**2`` under running
    moments), with an ``s`` column when ``kesten``."""
    schedule = KestenSchedule(c0=0.5, a=0.6) if kesten else None
    rule = RULE_AM if n_theta > 1 else RULE_COERCED
    if dim == 1:
        return srwm_1d_config(rule=rule, family=FAMILY_GAUSSIAN, schedule=schedule)
    return mv_config(rule=rule, dim=dim, schedule=schedule)


def synthetic_kept(cfg, rows, block=512, seed=0):
    """A ``_KeptPath`` of ``cfg`` holding ``rows`` rows in blocks of
    ``block``: random values on every scale, with nan, inf, -inf, -0.0 and
    0.0 sprinkled over the float columns.  Returns it and its whole columns,
    in header order."""
    rng = np.random.default_rng(seed)

    def floats():
        a = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.1])
        mask = rng.random(rows) < 0.1
        a[mask] = special[rng.integers(0, special.size, int(mask.sum()))]
        return a

    n_floats = len(param_labels(cfg)) + 2 * cfg.target.dim
    columns = [np.arange(rows, dtype=np.int64) * 3, *(floats() for _ in range(n_floats)), rng.random(rows) < 0.5,
               *(floats() for _ in range(5)), rng.random(rows) < 0.5]
    if isinstance(cfg.schedule, KestenSchedule):
        columns.append(rng.integers(0, 10**6, rows))
    kept = simulator._KeptPath(cfg)
    kept.blocks = [[c[lo:lo + block] for c in columns] for lo in range(0, rows, block)]
    return kept, columns


@pytest.mark.parametrize("chunk", [None, 7], ids=["chunk-default", "chunk-7"])
@pytest.mark.parametrize("rows", [1, 1024, 1025, 2049])
@pytest.mark.parametrize("dim, n_theta, kesten", [(1, 1, False), (2, 6, True), (3, 1, True)])
def test_to_csv_matches_row_loop(tmp_path, monkeypatch, chunk, rows, dim, n_theta, kesten):
    # ``chunk`` rows per kept block: 512, one process; 7, split over three
    # workers
    if chunk is not None:
        monkeypatch.setattr(simulator, "_usable_cores", lambda: 3)
        monkeypatch.setattr(simulator, "_MIN_WORKER_ROWS", 1)
    cfg = synthetic_config(dim, n_theta, kesten)
    kept, columns = synthetic_kept(cfg, rows, chunk or 512, seed=rows)
    got = tmp_path / "got.csv"
    kept.to_csv(got)
    names = csv_names(param_labels(cfg), dim, kesten)
    assert len(names) == len(columns) and names[1:1 + n_theta] == param_labels(cfg)
    assert got.read_bytes() == csv_text(names, zip(*columns))
    lines = got.read_text().split("\n")
    assert len(lines) == rows + 2 and lines[-1] == ""
    if rows > 1:
        cells = set(",".join(lines[1:]).split(","))
        assert {"nan", "inf", "-inf", "-0.0", "0.0"} <= cells


def test_to_csv_of_recorded_runs_matches_row_loop(tmp_path, monkeypatch):
    # the kept blocks as the runs leave them, split over three workers
    monkeypatch.setattr(simulator, "_usable_cores", lambda: 3)
    monkeypatch.setattr(simulator, "_MIN_WORKER_ROWS", 1)
    for cfg in (
        mv_config(schedule=KestenSchedule(c0=0.5, a=0.6)),
        mv_config(rule=RULE_COERCED),
        coerced_config(horizon=1500),
        toy_config(horizon=1100, schedule=KestenSchedule(c0=3.0, a=0.6)),
    ):
        _, kept = run_kept(cfg)
        kept.to_csv(tmp_path / "got.csv")
        lines = (tmp_path / "got.csv").read_text().splitlines()
        names = lines[0].split(",")
        assert names == csv_names(param_labels(cfg), 1 if cfg.target is None else cfg.target.dim,
                                  isinstance(cfg.schedule, KestenSchedule))
        # each cell as the row loop writes the value it reads back as
        assert (tmp_path / "got.csv").read_bytes() == csv_text(names, (line.split(",") for line in lines[1:]))
        assert len(lines) == cfg.horizon + 2


def float_of_bits(bits: int) -> float:
    """The float64 whose bit pattern is ``bits``."""
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def cell_by_cell(cols) -> bytes:
    """A block's CSV lines by the per-cell rule: ``repr`` of each float, the
    integer of each other cell."""
    cells = [[repr(v) if c.dtype.kind == "f" else str(int(v)) for v in c.tolist()] for c in cols]
    return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


_STEPS = np.arange(4, dtype=np.int64)
_FLAGS = np.array([True, False, True, False])
CSV_EDGE_BLOCKS = {
    "signed-zeros-in-a-column": [_STEPS, np.array([-0.0, 0.0, 0.0, -0.0]), _FLAGS],
    "signed-zeros-across-columns": [_STEPS, np.zeros(4), np.full(4, -0.0), _FLAGS, np.array([0.0, -0.0, 0.0, -0.0])],
    "nans-infinities-extremes": [
        _STEPS,
        # a quiet NaN, NaNs with payloads 1 and 2, and a NaN with its sign bit set
        np.array([float_of_bits(b) for b in (0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000002,
                                               0xFFF8000000000000)]),
        np.array([math.inf, -math.inf, 5e-324, -5e-324]),
        np.array([sys.float_info.max, -sys.float_info.max, math.inf, 5e-324]),
        _FLAGS,
    ],
    # x = y on every row, and each column repeating its value down rows
    "repeats-across-and-down": [_STEPS, np.full(4, 0.1), np.array([1.5, 1.5, 2.5, 2.5]),
                                np.array([1.5, 1.5, 2.5, 2.5]), np.ones(4), _FLAGS, np.full(4, 7, dtype=np.int64)],
    "one-row": [np.array([12], dtype=np.int64), np.array([-0.0]), np.array([0.0]), np.array([True]),
                np.array([1e300])],
}


@pytest.mark.parametrize("name", sorted(CSV_EDGE_BLOCKS))
def test_csv_rows_format_each_cell_as_the_per_cell_rule(name):
    cols = CSV_EDGE_BLOCKS[name]
    got = simulator._csv_rows(cols)
    assert got == cell_by_cell(cols)
    lines = got.decode().splitlines()
    assert len(lines) == len(cols[0])
    # every float but a NaN reads back to its own bits, -0.0 apart from 0.0
    for j, col in enumerate(cols):
        if col.dtype.kind == "f":
            back = np.array([float(line.split(",")[j]) for line in lines])
            finite_or_inf = ~np.isnan(col)
            assert (back.view(np.uint64)[finite_or_inf] == col.view(np.uint64)[finite_or_inf]).all()


def test_csv_rows_keep_signed_zeros_apart():
    assert simulator._csv_rows(CSV_EDGE_BLOCKS["signed-zeros-in-a-column"]) == b"0,-0.0,1\n1,0.0,0\n2,0.0,1\n3,-0.0,0\n"
    assert simulator._csv_rows(CSV_EDGE_BLOCKS["one-row"]) == b"12,-0.0,0.0,1,1e+300\n"


# ---------------------------------------------------------------------------
# the streamed 1-D srwm loops against per-step recording loops


def reference_scalar(cfg, draws):
    """The scalar log-scale rules on a 1-D target, one step at a time, with
    every recorded row built as it is reached (V, w, W and in_C included):
    a Metropolis step at sigma = exp(theta), then theta += gamma_i * h with
    h = alpha - alpha* (coerced), (|theta| + 1)(alpha - alpha*) (fast) or 0
    (fixed).  Each step draws one increment from the increment stream of
    ``draws`` and one coin from its coin stream, and the Kesten count
    advances when successive increments have a negative product.  Returns
    the trajectory and the halt index (None: no halt)."""
    inc, coin = draws
    spec, rule, schedule = cfg.proposal, cfg.rule, cfg.schedule
    kesten = isinstance(schedule, KestenSchedule)
    eta = cfg.state_lyapunov.eta if cfg.state_lyapunov is not None else 0.0
    alpha_star = rule.alpha_star if rule.alpha_star is not None else 0.0
    logp = cfg.target.log_density
    theta, x = float(cfg.theta0), float(cfg.x0)
    lx = float(logp(x))
    s, h_prev = 0, None
    rec = RowRecorder(cfg, ["theta_1"])

    def record(i, y, accepted, alpha, gamma):
        v = math.exp(-eta * lx) if -eta * lx < 700.0 else math.inf
        w = cfg.param_weight(theta)
        comp = _compound_cells(cfg.compound, [v], [w], [gamma])[0]
        rec.add(i, (theta,), (x,), (y,), accepted, alpha, gamma, v, w, comp,
                w <= cfg.recurrence_m and abs(x) <= cfg.recurrence_r, s)

    record(0, x, False, math.nan, gamma_at(schedule, 1, 0 if kesten else None))
    halted = False
    for i in range(1, cfg.horizon + 1):
        gamma = gamma_at(schedule, i, s if kesten else None)
        sigma = math.exp(theta) if theta < 700.0 else math.inf
        if spec.family == FAMILY_GAUSSIAN:
            z = sigma * inc.standard_normal()
        elif spec.family == FAMILY_UNIFORM:
            z = sigma * (2.0 * inc.random() - 1.0)
        else:
            z = sigma * inc.standard_t(spec.student_dof)
        y = x + z
        ly = float(logp(y))
        alpha = 1.0 if ly >= lx else math.exp(ly - lx)
        accepted = coin.random() < alpha
        if accepted:
            x, lx = y, ly
        if rule.kind == RULE_COERCED:
            h = alpha - alpha_star
        elif rule.kind == RULE_FAST_COERCED:
            h = (abs(theta) + 1.0) * (alpha - alpha_star)
        else:
            h = 0.0
        if rule.kind != RULE_FIXED:
            # gamma * h, the order of scalar_update: gamma * ((|theta| + 1) * (alpha - alpha*))
            theta = theta + gamma * h
        if kesten:
            # strict: a zero product (the fixed rule's h = 0) does not advance
            if h_prev is not None and h_prev * h < 0.0:
                s += 1
            h_prev = h
        halted = not (math.isfinite(theta) and abs(theta) <= THETA_MAX and math.isfinite(x))
        if halted or i % cfg.record_stride == 0 or i == cfg.horizon:
            record(i, y, accepted, alpha, gamma)
        if halted:
            break
    return rec.build(), i if halted else None


def reference_am_1d(cfg, draws):
    """The running-moments rule on a 1-D target, one step at a time, with
    every recorded row built as it is reached: a Metropolis step with
    variance RW_SCALE**2 * (g + eps), then mu += gamma_i * (x - mu) and
    g += gamma_i * ((x - mu)**2 - g), with the pre-update mu and g on the
    right.  Halts on a parameter past THETA_MAX, a non-finite one or a
    negative variance.  Stepsizes of 1 and above are allowed (am_update
    refuses them), so a run can be made to halt.  Each step draws one
    increment and one coin from the split streams ``draws``, as
    ``reference_scalar`` does.  Returns the trajectory and the halt index
    (None: no halt)."""
    inc, coin = draws
    spec, schedule = cfg.proposal, cfg.schedule
    kesten = isinstance(schedule, KestenSchedule)
    eta = cfg.state_lyapunov.eta if cfg.state_lyapunov is not None else 0.0
    logp = cfg.target.log_density
    m, g = float(cfg.theta0.mu[0]), float(cfg.theta0.cov[0, 0])
    x = float(cfg.x0)
    lx = float(logp(x))
    s, h_prev = 0, None
    rec = RowRecorder(cfg, ["mu_1", "cov_11"])

    def record(i, y, accepted, alpha, gamma):
        v = math.exp(-eta * lx) if -eta * lx < 700.0 else math.inf
        w = 1.0 + abs(m) ** (2.0 + cfg.param_weight.eps) + abs(g)
        comp = _compound_cells(cfg.compound, [v], [w], [gamma])[0]
        rec.add(i, (m, g), (x,), (y,), accepted, alpha, gamma, v, w, comp,
                w <= cfg.recurrence_m and abs(x) <= cfg.recurrence_r, s)

    record(0, x, False, math.nan, gamma_at(schedule, 1, 0 if kesten else None))
    halted = False
    for i in range(1, cfg.horizon + 1):
        gamma = gamma_at(schedule, i, s if kesten else None)
        var = simulator.RW_SCALE**2 * (g + spec.eps_ridge)
        sd = math.sqrt(var) if var > 0 else 0.0
        z = sd * (inc.standard_normal() if spec.family == FAMILY_GAUSSIAN else inc.standard_t(spec.student_dof))
        y = x + z
        ly = float(logp(y))
        alpha = 1.0 if ly >= lx else math.exp(ly - lx)
        accepted = coin.random() < alpha
        if accepted:
            x, lx = y, ly
        h = (x - m, (x - m) * (x - m) - g)
        m, g = m + gamma * h[0], g + gamma * h[1]
        if kesten:
            if h_prev is not None and h_prev[0] * h[0] + h_prev[1] * h[1] < 0.0:
                s += 1
            h_prev = h
        halted = not (math.isfinite(m) and 0.0 <= g <= THETA_MAX and abs(m) <= THETA_MAX and math.isfinite(x))
        if halted or i % cfg.record_stride == 0 or i == cfg.horizon:
            record(i, y, accepted, alpha, gamma)
        if halted:
            break
    return rec.build(), i if halted else None


def reference_1d(cfg, replica):
    """Replica ``replica`` of a 1-D chain by its per-step reference, on its
    split streams."""
    return (reference_am_1d if cfg.rule.kind == RULE_AM else reference_scalar)(cfg, replica_draws(cfg, replica))


def srwm_1d_config(rule=RULE_COERCED, family=FAMILY_UNIFORM, schedule=None, horizon=600, theta0=0.0, **kw):
    """A 1-D srwm chain on N(0.5, 2): uniform, Gaussian or Student
    increments under a scalar rule, or the running-moments rule."""
    t = gaussian_target(dim=1, mean=[0.5], cov=[[2.0]])
    am = rule == RULE_AM
    args = dict(
        kind="srwm",
        rule=AdaptationRule(kind=rule, alpha_star=0.44 if rule in (RULE_COERCED, RULE_FAST_COERCED) else None),
        schedule=schedule or PolynomialSchedule(c0=0.5, c1=10.0, a=0.6),
        theta0=AMParam(mu=np.zeros(1), cov=np.eye(1)) if am else theta0,
        x0=1.0,
        horizon=horizon,
        seed=29,
        recurrence_m=30.0 if am else 3.0,
        recurrence_r=2.0,
        target=t,
        proposal=ProposalSpec(
            family=family, parametrization=PARAM_AM_COVARIANCE if am else PARAM_SCALAR_LOG_SCALE
        ),
        state_lyapunov=StateLyapunov(t, 0.5),
        param_weight=ParamLyapunov(W_AM_POLY if am else W_EXP_ABS),
    )
    args.update(kw)
    return ChainConfig(**args)


SRWM_1D_CASES = {
    "coerced-uniform": {},
    "coerced-gaussian-constant": {"family": FAMILY_GAUSSIAN, "schedule": ConstantSchedule(0.05)},
    "coerced-student-kesten": {"family": FAMILY_STUDENT, "schedule": KestenSchedule(c0=0.5, a=0.6)},
    "coerced-uniform-kesten": {"schedule": KestenSchedule(c0=0.5, a=0.6)},
    "coerced-one-plus-square-compound-u": {
        "param_weight": ParamLyapunov(W_ONE_PLUS_SQUARE),
        "compound": CompoundSpec(upsilon_v=0.5, upsilon_w=0.7, mode="U"),
    },
    "coerced-no-state-lyapunov": {"state_lyapunov": None},
    "fast-coerced-uniform": {"rule": RULE_FAST_COERCED, "theta0": 5.0},
    "fast-coerced-gaussian-kesten": {"rule": RULE_FAST_COERCED, "family": FAMILY_GAUSSIAN,
                                     "schedule": KestenSchedule(c0=0.5, a=0.6)},
    "fixed-gaussian": {"rule": RULE_FIXED, "family": FAMILY_GAUSSIAN, "theta0": 0.3},
    "fixed-uniform-kesten": {"rule": RULE_FIXED, "schedule": KestenSchedule(c0=0.5, a=0.6)},
    "am-gaussian": {"rule": RULE_AM, "family": FAMILY_GAUSSIAN},
    "am-student-constant": {"rule": RULE_AM, "family": FAMILY_STUDENT, "schedule": ConstantSchedule(0.05)},
    "am-gaussian-kesten": {"rule": RULE_AM, "family": FAMILY_GAUSSIAN, "schedule": KestenSchedule(c0=0.5, a=0.6)},
    # gamma near 5 makes fast-coerced theta grow geometrically: every
    # replica halts on |theta| > THETA_MAX, tens of steps in
    "fast-coerced-diverges": {"rule": RULE_FAST_COERCED, "schedule": PolynomialSchedule(c0=5.0, c1=0.0, a=0.001)},
    # |theta_1| = 1e13 * |alpha - 0.44| > THETA_MAX: halts at step 1
    "coerced-diverges-at-1": {"schedule": PolynomialSchedule(c0=1e13, c1=0.0, a=1.0)},
    # gamma near 1.5: g' = -0.5 g + 1.5 dev**2 turns negative once dev**2 < g / 3;
    # on seed 11 replica 0 halts at step 5
    "am-diverges": {
        "rule": RULE_AM, "family": FAMILY_GAUSSIAN, "schedule": PolynomialSchedule(c0=1.5, c1=0.0, a=0.001),
        "seed": 11,
    },
    # x0 = 2e6, far out: g_1 = 1 + gamma_1 * (4e12 - 1), about 4.7e11, and the
    # variance passes THETA_MAX at step 4 on replicas 0 and 2 (1 runs on)
    "am-variance-diverges": {"rule": RULE_AM, "family": FAMILY_GAUSSIAN, "x0": 2e6},
}


def assert_same_trajectory(got, want):
    """The same CSV text, line by line: the simulator's rows as it formats
    them against a reference loop's rows as ``csv_text`` writes them."""
    assert got.csv.decode().splitlines() == want.csv.decode().splitlines()


# "default": every horizon here is shorter than one block; "64" and "1":
# several blocks, or one step per block; "halt-last" / "halt-first": replica
# 0's halt row ends block 1, or opens block 2 (for the cases that halt past
# their first steps)
BLOCK_SETTINGS = ["default", "64", "1"]
HALTING_LATE = ["fast-coerced-diverges", "am-diverges", "am-variance-diverges"]


@pytest.mark.parametrize(
    "case, block",
    [(case, block) for case in sorted(SRWM_1D_CASES) for block in BLOCK_SETTINGS]
    + [(case, block) for case in HALTING_LATE for block in ("halt-last", "halt-first")],
)
def test_streamed_1d_matches_per_step_loops(monkeypatch, case, block):
    cfg = srwm_1d_config(**SRWM_1D_CASES[case])
    n_rep = 3
    refs = [reference_1d(cfg, k) for k in range(n_rep)]
    halt = refs[0][1]
    assert (halt is not None) == ("-diverges" in case)
    if case in HALTING_LATE:
        assert halt > 2
    if block.startswith("halt"):
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", halt if block == "halt-last" else halt - 1)
    elif block != "default":
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", int(block))
    records, first = kept_run(cfg, n_rep)
    assert records == [replica_record(cfg, *ref, k) for k, ref in enumerate(refs)]
    assert_same_trajectory(first, refs[0][0])


@pytest.mark.parametrize("case", ["coerced-uniform", "am-gaussian-kesten", "fast-coerced-diverges"])
@pytest.mark.parametrize("block", [None, 5])
def test_run_chain_stride_matches_per_step_loop(monkeypatch, case, block):
    # one chain, replica 4's, kept at stride 7 by the loop that runs a slice
    # of replicas
    if block is not None:
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", block)
    cfg = srwm_1d_config(**SRWM_1D_CASES[case], record_stride=7)
    kept = simulator._KeptPath(cfg)
    records = simulator._run_srwm(cfg, [replica_draws(cfg, 4)], 4, kept.add)
    traj = kept_rows(kept)
    ref, halt = reference_1d(cfg, 4)
    assert_same_trajectory(traj, ref)
    assert traj.index[0] == 0 and all(i % 7 == 0 for i in traj.index[1:-1].tolist())
    assert [(r["replica"], r["halt_index"]) for r in records] == [(4, halt)]
    assert (halt is not None) == case.endswith("-diverges")


def test_fast_coerced_update_is_the_1d_recursion():
    # one rounding for the fast-coerced rule: replaying a streamed 1-D path
    # through scalar_update gives its parameter bit for bit
    cfg = srwm_1d_config(**SRWM_1D_CASES["fast-coerced-uniform"])
    traj, _ = first_run(cfg)
    theta = traj.theta[:, 0].tolist()
    steps = zip(theta[:-1], traj.alpha[1:].tolist(), traj.gamma[1:].tolist())
    assert [scalar_update(RULE_FAST_COERCED, t, alpha, gamma, 0.44)[0] for t, alpha, gamma in steps] == theta[1:]


def test_run_replicas_never_records_a_whole_1d_path(tmp_path, monkeypatch):
    # every srwm replica, 1-D or multivariate, is reduced block by block:
    # only replica 0's rows go to a kept path, which this process writes
    # after the run when it has no core to stream to
    paths = []

    class CountedPath(simulator._KeptPath):
        def __init__(self, *args):
            paths.append(self)
            super().__init__(*args)

    monkeypatch.setattr(simulator, "_KeptPath", CountedPath)
    monkeypatch.setattr(simulator, "_usable_cores", lambda: 1)
    path = tmp_path / "trajectory.csv"
    for cfg in (
        srwm_1d_config(**SRWM_1D_CASES["coerced-uniform"]),
        srwm_1d_config(**SRWM_1D_CASES["am-gaussian"]),
        mv_config(),
        mv_config(rule=RULE_COERCED),
    ):
        paths.clear()
        summary = run_replicas(cfg, 3, csv_path=path)
        assert summary.n_replicas == 3 and len(path.read_bytes().splitlines()) == cfg.horizon + 2  # and a header
        assert len(paths) == 1


def test_streamed_record_keeps_a_bounded_tail(monkeypatch):
    # 120,000 steps: acceptance_tail is over the last 10,000 flags, which span
    # about twenty blocks of 512 and, at 2,500 steps per block, more than four
    monkeypatch.setattr(simulator, "_BLOCK_STEPS", 2500)
    cfg = srwm_1d_config(horizon=120_000)
    summary = run_replicas(cfg, 1)
    ref, halt = reference_1d(cfg, 0)
    assert summary.per_replica == [replica_record(cfg, ref, halt, 0)]
    assert summary.per_replica[0]["acceptance_tail"] == float(ref.accepted[-10_000:].mean())


# ---------------------------------------------------------------------------
# streamed multivariate replicas against the per-step composition


@functools.lru_cache(maxsize=None)
def mv_reference(case, replica, stride_one=False):
    """``reference_generic`` of an MV_CASES entry, computed once per run:
    the trajectory and the halt index."""
    cfg = mv_config(**MV_CASES[case])
    if stride_one:
        cfg = dataclasses.replace(cfg, record_stride=1)
    return reference_generic(cfg, replica)


MV_HALTING_LATE = ["am-2d-step-2-diverges", "fast-coerced-2d-diverges"]


@pytest.mark.parametrize(
    "case, block",
    [(case, block) for case in sorted(MV_CASES) for block in BLOCK_SETTINGS]
    + [(case, block) for case in MV_HALTING_LATE for block in ("halt-last", "halt-first")],
)
def test_streamed_mv_matches_per_step_composition(monkeypatch, case, block):
    cfg = mv_config(**MV_CASES[case])
    n_rep = 3
    refs = [mv_reference(case, k, stride_one=True) for k in range(n_rep)]
    halt = refs[0][1]
    assert halt == MV_HALTS.get(case)
    if block.startswith("halt"):
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", halt if block == "halt-last" else halt - 1)
    elif block != "default":
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", int(block))
    with warnings.catch_warnings():
        if case.endswith("-diverges"):
            # the halt is the report: no numpy overflow warning on the way
            warnings.simplefilter("error", RuntimeWarning)
        records, first = kept_run(cfg, n_rep)
    assert records == [replica_record(cfg, *ref, k) for k, ref in enumerate(refs)]
    assert_same_trajectory(first, mv_reference(case, 0)[0])


# ---------------------------------------------------------------------------
# replica-summary quantiles


def test_quantile_matches_numpy_linear_rule():
    rng = np.random.default_rng(3)
    cases = [[5.0], [2.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0], [7.0, 1.0], [0.0, 1e300, -1e300]]
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.integers(-8, 9)
        if rng.random() < 0.4:
            cases.append(rng.integers(0, 6, n).astype(float).tolist())  # ties
        else:
            cases.append((rng.standard_normal(n) * scale).tolist())
    for values in cases:
        for q in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.random())):
            want = float(np.quantile(np.asarray(values), q))
            assert simulator._quantile(values, q) == want, (values, q)
            # non-finite values are dropped first
            assert simulator._quantile(values + [math.inf, -math.inf, math.nan], q) == want


def test_quantile_of_no_finite_value_is_nan():
    assert math.isnan(simulator._quantile([], 0.5))
    assert math.isnan(simulator._quantile([math.inf, -math.inf, math.nan], 0.25))
