"""Chain driver: reproducibility, recorded columns, recurrence bookkeeping."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import simulator
from driftlab.adaptation import (
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    MeanFieldAM,
    PolynomialSchedule,
    RULE_AM,
    RULE_COERCED,
    RULE_FAST_COERCED,
    RULE_FIXED,
    RULE_TOY_MEAN,
    am_increment,
    am_update,
    gamma_at,
    kesten_advance,
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
    srwm_step,
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
    Trajectory,
    _compound_cells,
    recurrence_stats,
    run_chain,
    run_replicas,
)
from driftlab.streams import substream
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
        moments=MeanFieldAM(mu_pi=np.array([3.0]), cov_pi=np.array([[4.0]])),
    )


def test_run_chain_reproducible_and_substream_equivalent():
    cfg = toy_config()
    t1 = run_chain(cfg)
    t2 = run_chain(cfg)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.x, t2.x)
    t3 = run_chain(cfg, rng=substream(cfg.seed, 0))
    assert np.array_equal(t1.theta, t3.theta)


def test_recorded_gamma_matches_schedule():
    for cfg in (toy_config(horizon=500), coerced_config(horizon=500)):
        traj = run_chain(cfg)
        for j in range(1, traj.index.shape[0]):
            i = int(traj.index[j])
            assert traj.gamma[j] == gamma_at(cfg.schedule, i)
    cfg = coerced_config(horizon=300, schedule=ConstantSchedule(0.02))
    traj = run_chain(cfg)
    assert np.all(traj.gamma[1:] == 0.02)


def test_recorded_columns_are_self_consistent():
    cfg = coerced_config(horizon=800)
    traj = run_chain(cfg)
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
    traj = run_chain(coerced_config(horizon=10))
    assert traj.column_names() == [
        "i", "theta_1", "x", "y", "accepted", "alpha", "gamma_i", "V", "w", "W", "in_C",
    ]
    am = run_chain(am_config(horizon=10))
    assert am.column_names() == [
        "i", "mu_1", "cov_11", "x", "y", "accepted", "alpha", "gamma_i", "V", "w", "W", "in_C",
    ]
    toy = run_chain(toy_config(horizon=10))
    assert toy.column_names()[:2] == ["i", "theta_1"]
    # toy rows carry no acceptance probability
    assert math.isnan(float(toy.alpha[1]))
    p = tmp_path / "t.csv"
    traj.to_csv(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == ",".join(traj.column_names())
    assert len(lines) == traj.index.shape[0] + 1
    # values round-trip through repr
    row1 = lines[2].split(",")
    assert float(row1[1]) == traj.theta[1, 0]


def test_kesten_column_and_count_consistency(tmp_path):
    sched = KestenSchedule(c0=0.5, a=0.6)
    cfg = coerced_config(horizon=400, schedule=sched)
    traj = run_chain(cfg)
    assert traj.kesten_counts is not None
    counts = traj.kesten_counts
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] == 0
    # the stepsize at row i uses the count as of the previous row
    for j in range(1, traj.index.shape[0]):
        assert traj.gamma[j] == sched.gamma_of_count(int(counts[j - 1]))
    assert traj.column_names()[-1] == "s"
    p = tmp_path / "k.csv"
    traj.to_csv(p)
    header = p.read_text().split("\n", 1)[0]
    assert header.endswith(",s")


def test_divergence_guard_halts():
    cfg = toy_config(c0=1e12, horizon=50)
    traj = run_chain(cfg)
    assert traj.diverged
    assert traj.halt_index is not None and traj.halt_index <= 50
    assert abs(traj.theta[-1, 0]) > THETA_MAX or not math.isfinite(traj.theta[-1, 0])
    stats = recurrence_stats(traj)
    assert stats.diverged


def test_record_stride_keeps_final_row():
    cfg = toy_config(horizon=100)
    cfg = ChainConfig(**{**cfg.__dict__, "record_stride": 7})
    traj = run_chain(cfg)
    idx = traj.index.tolist()
    assert idx[0] == 0
    assert idx[-1] == 100
    assert all(i % 7 == 0 or i == 100 for i in idx)
    with pytest.raises(ValueError):
        recurrence_stats(traj)  # stride > 1 has gaps


def test_recurrence_stats_match_direct_recount():
    traj = run_chain(coerced_config(horizon=600, seed=19))
    stats = recurrence_stats(traj)
    in_set = (traj.w <= traj.recurrence_m) & (np.abs(traj.x[:, 0]) <= traj.recurrence_r)
    entries = [
        int(traj.index[j])
        for j in range(len(in_set))
        if in_set[j] and (j == 0 or not in_set[j - 1])
    ]
    assert stats.visit_count == int(in_set.sum())
    assert stats.hitting_times == entries
    assert stats.first_hit == (entries[0] if entries else None)
    w_in = traj.w <= traj.recurrence_m
    exits = sum(1 for j in range(1, len(w_in)) if w_in[j - 1] and not w_in[j])
    assert stats.exit_count == exits
    assert stats.censored == (not bool(in_set[-1]))
    # overriding the levels recomputes
    loose = recurrence_stats(traj, m=math.inf, r=math.inf)
    assert loose.visit_count == traj.index.shape[0]


def test_run_replicas_matches_individual_runs():
    cfg = toy_config(horizon=300, seed=42)
    summary, first = run_replicas(cfg, 3, keep_first_trajectory=True)
    assert first is not None
    assert summary.n_replicas == 3
    assert [r["replica"] for r in summary.per_replica] == [0, 1, 2]
    solo = run_chain(cfg, rng=substream(42, 2), replica=2)
    assert summary.per_replica[2]["max_abs_theta"] == recurrence_stats(solo).max_abs_theta
    assert summary.per_replica[0]["max_abs_theta"] == recurrence_stats(first).max_abs_theta
    assert summary.aggregate["hit_count"] <= 3
    with pytest.raises(ValueError):
        run_replicas(cfg, 0)


def test_am_error_fields_present_and_plausible():
    summary, _ = run_replicas(am_config(horizon=4000), 2)
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
    traj = run_chain(cfg)
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
        if h_prev is not None:
            s = kesten_advance(s, [h_prev], [h])
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
    # w = exp|theta| is evaluated per element, not as a numpy expression
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
    summary, first = run_replicas(cfg, n_rep, keep_first_trajectory=True)
    paths = [reference_toy(cfg, k) for k in range(n_rep)]
    assert summary.per_replica == [reference_record(cfg, rows, k) for k, rows in enumerate(paths)]
    if case == "kesten-1e12" and n_rep == 7:
        assert {r["halt_index"] for r in summary.per_replica} == {2, 3}

    kept = [row for row in paths[0] if row[0] % 7 == 0 or row is paths[0][-1]]
    assert first.index.tolist() == [row[0] for row in kept]
    assert first.theta[:, 0].tolist() == [row[1] for row in kept]
    assert first.x[:, 0].tolist() == [float(row[2]) for row in kept]
    assert first.y[:, 0].tolist() == [float(row[2]) for row in kept]
    assert first.accepted.tolist() == [row[3] for row in kept]
    assert first.gamma.tolist() == [row[4] for row in kept]
    w = [cfg.param_weight(row[1]) for row in kept]
    assert first.w.tolist() == w
    assert first.compound.tolist() == [1.0 + wv / row[4] for wv, row in zip(w, kept)]
    assert first.in_set.tolist() == [wv <= cfg.recurrence_m for wv in w]
    if isinstance(cfg.schedule, KestenSchedule):
        assert first.kesten_counts.tolist() == [row[5] for row in kept]
    else:
        assert first.kesten_counts is None
    assert first.diverged == summary.per_replica[0]["diverged"]
    assert first.halt_index == summary.per_replica[0]["halt_index"]
    # one chain alone gives replica 0's trajectory
    solo = run_chain(cfg)
    assert solo.index.tolist() == first.index.tolist()
    assert solo.theta.tolist() == first.theta.tolist()


@pytest.mark.parametrize("case", sorted(TOY_CASES))
def test_recurrence_stats_of_first_trajectory_equal_streamed_record(case):
    cfg = toy_config(horizon=400, seed=31, **TOY_CASES[case])
    summary, first = run_replicas(cfg, 3, keep_first_trajectory=True)
    stats = recurrence_stats(first)
    rec = summary.per_replica[0]
    assert rec["first_hit"] == stats.first_hit
    assert rec["n_hits"] == len(stats.hitting_times)
    assert rec["visit_count"] == stats.visit_count
    assert rec["last_exit_time"] == stats.last_exit_time
    assert rec["exit_count"] == stats.exit_count
    assert rec["max_abs_theta"] == stats.max_abs_theta
    assert rec["censored"] == stats.censored
    assert rec["diverged"] == stats.diverged


def test_am_negative_variance_halts_as_diverged():
    # gamma_1 = 5: only load_config rejects such a schedule, so a chain built
    # directly must flag the negative variance it produces.  Seed 2 rejects
    # the first proposal, so g_1 = 1 + 5 * (0 - 1) = -4.
    cfg = am_config(horizon=200, seed=2, schedule=PolynomialSchedule(c0=5.0, c1=0.0, a=1.0))
    traj = run_chain(cfg)
    assert traj.diverged
    assert traj.halt_index == 1
    assert traj.index.tolist() == [0, 1]
    assert traj.theta[-1, 1] == -4.0
    summary, _ = run_replicas(cfg, 1)
    assert summary.any_diverged
    assert summary.per_replica[0]["halt_index"] == 1


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
    """Rows of a one-step-at-a-time reference loop, built into a Trajectory
    with the simulator's column layout."""

    def __init__(self, cfg, labels):
        self.cfg = cfg
        self.labels = labels
        self.rows = []

    def add(self, i, theta, x, y, accepted, alpha, gamma, v, w, comp, inside, s):
        self.rows.append((i, theta, x, y, accepted, alpha, gamma, v, w, comp, inside, s))

    def build(self, halted, halt_index, replica):
        cfg = self.cfg
        n = len(self.rows)
        i, theta, x, y, accepted, alpha, gamma, v, w, comp, inside, s = map(list, zip(*self.rows))
        return Trajectory(
            index=np.array(i, dtype=np.int64),
            theta=np.array(theta, dtype=float).reshape(n, -1),
            theta_labels=self.labels,
            x=np.array(x, dtype=float).reshape(n, -1),
            y=np.array(y, dtype=float).reshape(n, -1),
            accepted=np.array(accepted, dtype=bool),
            alpha=np.array(alpha, dtype=float),
            gamma=np.array(gamma, dtype=float),
            v=np.array(v, dtype=float),
            w=np.array(w, dtype=float),
            compound=np.array(comp, dtype=float),
            in_set=np.array(inside, dtype=bool),
            kesten_counts=np.array(s, dtype=np.int64) if isinstance(cfg.schedule, KestenSchedule) else None,
            record_stride=cfg.record_stride,
            horizon=cfg.horizon,
            diverged=halted,
            halt_index=halt_index,
            replica=replica,
            recurrence_m=cfg.recurrence_m,
            recurrence_r=cfg.recurrence_r,
        )


def replica_record(cfg, traj):
    """The per-replica record of a stride-1 srwm trajectory, reduced by
    ``recurrence_stats``; acceptance_tail is the accept rate of the last
    min(10,000, steps // 10) steps."""
    stats = recurrence_stats(traj)
    tail = traj.accepted[-min(10_000, max((traj.index.shape[0] - 1) // 10, 1)):]
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
        "acceptance_tail": float(tail.mean()),
        "final_theta": [float(t) for t in traj.theta[-1]],
    }
    if cfg.rule.kind == RULE_AM and cfg.moments is not None and not traj.diverged:
        k = cfg.moments.mu_pi.shape[0]
        rec["final_err_mu"] = float(np.linalg.norm(traj.theta[-1][:k] - cfg.moments.mu_pi))
        rec["final_err_cov"] = float(np.linalg.norm(traj.theta[-1][k:].reshape(k, k) - cfg.moments.cov_pi))
    return rec


def reference_generic(cfg, replica=0):
    """One step at a time on the replica's substream, composed from the
    public pieces: srwm_step evaluating log pi at both points, a fresh
    kernel parameter wherever one is needed, V and w from their Lyapunov
    objects, and the rule's update.  Rows every ``record_stride`` steps, the
    final row, and the divergence halt row, as the simulator keeps them."""
    rng = substream(cfg.seed, replica)
    rule = cfg.rule.kind
    kesten = isinstance(cfg.schedule, KestenSchedule)
    am = rule == RULE_AM
    dim = cfg.target.dim
    if am:
        mu, cov = cfg.theta0.mu.copy(), cfg.theta0.cov.copy()
        labels = [f"mu_{j+1}" for j in range(dim)] + [f"cov_{a+1}{b+1}" for a in range(dim) for b in range(dim)]
    else:
        theta = float(cfg.theta0)
        labels = ["theta_1"]
    x = np.atleast_1d(np.asarray(cfg.x0, dtype=float)).copy()
    s, h_prev = 0, None
    rec = RowRecorder(cfg, labels)

    def param():
        return AMParam(mu=mu, cov=cov) if am else ScalarParam(theta=theta)

    def row(i, y, accepted, alpha, gamma):
        v = float(cfg.state_lyapunov(x))
        w = float(cfg.param_weight(param()))
        comp = _compound_cells(cfg.compound, [v], [w], [gamma])[0]
        inside = w <= cfg.recurrence_m and float(np.linalg.norm(x)) <= cfg.recurrence_r
        theta_row = list(mu) + list(cov.ravel()) if am else [theta]
        rec.add(i, theta_row, list(x), list(np.atleast_1d(y)), accepted, alpha, gamma, v, w, comp, inside, s)

    row(0, x, False, math.nan, gamma_at(cfg.schedule, 1, 0 if kesten else None))
    for i in range(1, cfg.horizon + 1):
        gamma = gamma_at(cfg.schedule, i, s if kesten else None)
        step = srwm_step(cfg.target, cfg.proposal, param(), x, rng)
        x_new = np.atleast_1d(np.asarray(step.state, dtype=float))
        if am:
            h = am_increment(mu, cov, x_new)
            mu, cov = am_update(mu, cov, x_new, gamma)
        elif rule == RULE_COERCED:
            h = step.alpha - cfg.rule.alpha_star
            theta = scalar_update(RULE_COERCED, theta, step.alpha, gamma, cfg.rule.alpha_star)[0]
        else:
            h = (abs(theta) + 1.0) * (step.alpha - cfg.rule.alpha_star)
            theta = scalar_update(RULE_FAST_COERCED, theta, step.alpha, gamma, cfg.rule.alpha_star)[0]
        x = x_new
        if kesten:
            if h_prev is not None:
                s = kesten_advance(s, h_prev, h)
            h_prev = h
        params = np.concatenate([mu, cov.ravel()]) if am else np.array([theta])
        halted = not (
            np.all(np.isfinite(params)) and np.max(np.abs(params)) <= THETA_MAX and np.all(np.isfinite(x))
        )
        if halted or i % cfg.record_stride == 0 or i == cfg.horizon:
            row(i, step.proposed, step.accepted, step.alpha, gamma)
        if halted:
            break
    return rec.build(halted, i if halted else None, replica)


MV_CASES = {
    "am-2d": {},
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
    ref = reference_generic(cfg)
    traj = run_chain(cfg)
    assert traj.diverged == ref.diverged == case.endswith("-diverges")
    if ref.diverged:
        assert traj.index.tolist() == list(range(MV_HALTS[case] + 1))
    assert_same_trajectory(traj, ref)
    if ref.kesten_counts is not None:
        assert traj.kesten_counts[-1] > 0
    if not ref.diverged:
        # the chain moved and visited the recurrence set
        assert traj.accepted.any() and traj.in_set.any()


# ---------------------------------------------------------------------------
# the CSV writer against a row-at-a-time loop


def reference_csv(traj, path):
    """One row at a time: integers by ``str(int(.))``, floats by
    ``repr(float(.))``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(traj.column_names()) + "\n")
        for r in range(traj.index.shape[0]):
            cells = [str(int(traj.index[r]))]
            cells += [repr(float(t)) for t in traj.theta[r]]
            cells += [repr(float(u)) for u in traj.x[r]]
            cells += [repr(float(u)) for u in traj.y[r]]
            cells.append(str(int(traj.accepted[r])))
            for col in (traj.alpha, traj.gamma, traj.v, traj.w, traj.compound):
                cells.append(repr(float(col[r])))
            cells.append(str(int(traj.in_set[r])))
            if traj.kesten_counts is not None:
                cells.append(str(int(traj.kesten_counts[r])))
            fh.write(",".join(cells) + "\n")


def synthetic_trajectory(rows, dim, n_theta, kesten, seed=0):
    """Random values on every scale, with nan, inf, -inf, -0.0 and 0.0
    sprinkled over the float columns."""
    rng = np.random.default_rng(seed)

    def floats(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        special = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.1])
        mask = rng.random(shape) < 0.1
        a[mask] = special[rng.integers(0, special.size, int(mask.sum()))]
        return a

    return Trajectory(
        index=np.arange(rows, dtype=np.int64) * 3,
        theta=floats(rows, n_theta),
        theta_labels=[f"theta_{j+1}" for j in range(n_theta)],
        x=floats(rows, dim),
        y=floats(rows, dim),
        accepted=rng.random(rows) < 0.5,
        alpha=floats(rows),
        gamma=floats(rows),
        v=floats(rows),
        w=floats(rows),
        compound=floats(rows),
        in_set=rng.random(rows) < 0.5,
        kesten_counts=rng.integers(0, 10**6, rows) if kesten else None,
        record_stride=1,
        horizon=3 * rows,
        diverged=False,
        halt_index=None,
        replica=0,
        recurrence_m=1.0,
        recurrence_r=1.0,
    )


@pytest.mark.parametrize("chunk", [None, 7], ids=["chunk-default", "chunk-7"])
@pytest.mark.parametrize("rows", [1, 1024, 1025, 2049])
@pytest.mark.parametrize("dim, n_theta, kesten", [(1, 1, False), (2, 6, True), (3, 1, True)])
def test_to_csv_matches_row_loop(tmp_path, monkeypatch, chunk, rows, dim, n_theta, kesten):
    if chunk is not None:
        monkeypatch.setattr(simulator, "_CSV_CHUNK_ROWS", chunk)
    traj = synthetic_trajectory(rows, dim, n_theta, kesten, seed=rows)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    traj.to_csv(got)
    reference_csv(traj, want)
    assert got.read_bytes() == want.read_bytes()
    lines = got.read_text().split("\n")
    assert len(lines) == rows + 2 and lines[-1] == ""
    if rows > 1:
        cells = set(",".join(lines[1:]).split(","))
        assert {"nan", "inf", "-inf", "-0.0", "0.0"} <= cells


def test_to_csv_of_recorded_runs_matches_row_loop(tmp_path):
    for cfg in (
        mv_config(schedule=KestenSchedule(c0=0.5, a=0.6)),
        mv_config(rule=RULE_COERCED),
        coerced_config(horizon=1500),
        toy_config(horizon=1100, schedule=KestenSchedule(c0=3.0, a=0.6)),
    ):
        traj = run_chain(cfg)
        traj.to_csv(tmp_path / "got.csv")
        reference_csv(traj, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# the streamed 1-D srwm loops against per-step recording loops


def reference_scalar(cfg, rng, replica=0):
    """The scalar log-scale rules on a 1-D target, one step at a time, with
    every recorded row built as it is reached (V, w, W and in_C included):
    a Metropolis step at sigma = exp(theta), then theta += gamma_i * h with
    h = alpha - alpha* (coerced), (|theta| + 1)(alpha - alpha*) (fast) or 0
    (fixed).  Each step draws its increment and then its coin."""
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
            z = sigma * rng.standard_normal()
        elif spec.family == FAMILY_UNIFORM:
            z = sigma * (2.0 * rng.random() - 1.0)
        else:
            z = sigma * rng.standard_t(spec.student_dof)
        y = x + z
        ly = float(logp(y))
        alpha = 1.0 if ly >= lx else math.exp(ly - lx)
        accepted = rng.random() < alpha
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
            if h_prev is not None:
                s = kesten_advance(s, [h_prev], [h])
            h_prev = h
        halted = not (math.isfinite(theta) and abs(theta) <= THETA_MAX and math.isfinite(x))
        if halted or i % cfg.record_stride == 0 or i == cfg.horizon:
            record(i, y, accepted, alpha, gamma)
        if halted:
            break
    return rec.build(halted, i if halted else None, replica)


def reference_am_1d(cfg, rng, replica=0):
    """The running-moments rule on a 1-D target, one step at a time, with
    every recorded row built as it is reached: a Metropolis step with
    variance RW_SCALE**2 * (g + eps), then mu += gamma_i * (x - mu) and
    g += gamma_i * ((x - mu)**2 - g), with the pre-update mu and g on the
    right.  Halts on a parameter past THETA_MAX, a non-finite one or a
    negative variance.  Stepsizes of 1 and above are allowed (am_update
    refuses them), so a run can be made to halt."""
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
        z = sd * (rng.standard_normal() if spec.family == FAMILY_GAUSSIAN else rng.standard_t(spec.student_dof))
        y = x + z
        ly = float(logp(y))
        alpha = 1.0 if ly >= lx else math.exp(ly - lx)
        accepted = rng.random() < alpha
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
    return rec.build(halted, i if halted else None, replica)


def reference_1d(cfg, rng, replica=0):
    return (reference_am_1d if cfg.rule.kind == RULE_AM else reference_scalar)(cfg, rng, replica)


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
    # gamma near 1.5: g' = -0.5 g + 1.5 dev**2 turns negative once dev**2 < g / 3
    "am-diverges": {
        "rule": RULE_AM, "family": FAMILY_GAUSSIAN, "schedule": PolynomialSchedule(c0=1.5, c1=0.0, a=0.001)
    },
}


def assert_same_trajectory(got, want):
    assert got.index.tolist() == want.index.tolist()
    assert got.theta_labels == want.theta_labels
    for name in ("theta", "x", "y", "alpha", "gamma", "v", "w", "compound"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == np.float64 and getattr(got, name).shape == getattr(want, name).shape
    assert got.accepted.tolist() == want.accepted.tolist()
    assert got.in_set.tolist() == want.in_set.tolist()
    if want.kesten_counts is None:
        assert got.kesten_counts is None
    else:
        assert got.kesten_counts.tolist() == want.kesten_counts.tolist()
    for name in ("record_stride", "horizon", "diverged", "halt_index", "replica", "recurrence_m", "recurrence_r"):
        assert getattr(got, name) == getattr(want, name), name


# "default": every horizon here is shorter than one block; "64" and "1":
# several blocks, or one step per block; "halt-last" / "halt-first": replica
# 0's halt row ends block 1, or opens block 2 (for the cases that halt past
# their first steps)
BLOCK_SETTINGS = ["default", "64", "1"]
HALTING_LATE = ["fast-coerced-diverges", "am-diverges"]


@pytest.mark.parametrize(
    "case, block",
    [(case, block) for case in sorted(SRWM_1D_CASES) for block in BLOCK_SETTINGS]
    + [(case, block) for case in HALTING_LATE for block in ("halt-last", "halt-first")],
)
def test_streamed_1d_matches_per_step_loops(monkeypatch, case, block):
    cfg = srwm_1d_config(**SRWM_1D_CASES[case])
    n_rep = 3
    refs = [reference_1d(cfg, substream(cfg.seed, k), k) for k in range(n_rep)]
    halt = refs[0].halt_index
    assert (halt is not None) == ("-diverges" in case)
    if case in HALTING_LATE:
        assert halt > 2
    if block.startswith("halt"):
        monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", halt if block == "halt-last" else halt - 1)
    elif block != "default":
        monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", int(block))
    summary, first = run_replicas(cfg, n_rep, keep_first_trajectory=True)
    assert summary.per_replica == [replica_record(cfg, ref) for ref in refs]
    assert_same_trajectory(first, refs[0])


@pytest.mark.parametrize("case", ["coerced-uniform", "am-gaussian-kesten", "fast-coerced-diverges"])
@pytest.mark.parametrize("block", [None, 5])
def test_run_chain_stride_matches_per_step_loop(monkeypatch, case, block):
    if block is not None:
        monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", block)
    cfg = srwm_1d_config(**SRWM_1D_CASES[case], record_stride=7)
    traj = run_chain(cfg, replica=4)
    assert_same_trajectory(traj, reference_1d(cfg, substream(cfg.seed, 4), 4))
    assert traj.index[0] == 0 and all(i % 7 == 0 for i in traj.index[1:-1].tolist())
    # a caller's generator is used as given
    again = run_chain(cfg, rng=substream(cfg.seed, 4), replica=4)
    assert again.index.tolist() == traj.index.tolist() and again.theta.tolist() == traj.theta.tolist()


def test_fast_coerced_update_is_the_1d_recursion():
    # one rounding for the fast-coerced rule: replaying a streamed 1-D path
    # through scalar_update gives its parameter bit for bit
    cfg = srwm_1d_config(**SRWM_1D_CASES["fast-coerced-uniform"])
    traj = run_chain(cfg)
    theta = traj.theta[:, 0].tolist()
    steps = zip(theta[:-1], traj.alpha[1:].tolist(), traj.gamma[1:].tolist())
    assert [scalar_update(RULE_FAST_COERCED, t, alpha, gamma, 0.44)[0] for t, alpha, gamma in steps] == theta[1:]


def test_run_replicas_never_records_a_whole_1d_path(monkeypatch):
    # every srwm replica, 1-D or multivariate, is reduced block by block:
    # none runs a whole trajectory through run_chain
    def refuse(*args, **kwargs):
        raise AssertionError("a replica went through run_chain")

    monkeypatch.setattr(simulator, "run_chain", refuse)
    for cfg in (
        srwm_1d_config(**SRWM_1D_CASES["coerced-uniform"]),
        srwm_1d_config(**SRWM_1D_CASES["am-gaussian"]),
        mv_config(),
        mv_config(rule=RULE_COERCED),
    ):
        summary, first = run_replicas(cfg, 3, keep_first_trajectory=True)
        assert summary.n_replicas == 3 and first.index.shape[0] == cfg.horizon + 1


def test_streamed_record_keeps_a_bounded_tail(monkeypatch):
    # 120,000 steps: acceptance_tail is over the last 10,000 flags, which span
    # several blocks of 4,096 and, at 2,500 steps per block, more than four
    monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", 2500)
    cfg = srwm_1d_config(horizon=120_000)
    summary, _ = run_replicas(cfg, 1)
    ref = reference_1d(cfg, substream(cfg.seed, 0))
    assert summary.per_replica == [replica_record(cfg, ref)]
    assert summary.per_replica[0]["acceptance_tail"] == float(ref.accepted[-10_000:].mean())


# ---------------------------------------------------------------------------
# streamed multivariate replicas against the per-step composition


@functools.lru_cache(maxsize=None)
def mv_reference(case, replica, stride_one=False):
    """``reference_generic`` of an MV_CASES entry, computed once per run."""
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
    halt = refs[0].halt_index
    assert halt == MV_HALTS.get(case)
    if block.startswith("halt"):
        monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", halt if block == "halt-last" else halt - 1)
    elif block != "default":
        monkeypatch.setattr(simulator, "_SRWM_BLOCK_STEPS", int(block))
    with warnings.catch_warnings():
        if case.endswith("-diverges"):
            # the halt is the report: no numpy overflow warning on the way
            warnings.simplefilter("error", RuntimeWarning)
        summary, first = run_replicas(cfg, n_rep, keep_first_trajectory=True)
    assert summary.per_replica == [replica_record(cfg, ref) for ref in refs]
    assert_same_trajectory(first, mv_reference(case, 0))


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
