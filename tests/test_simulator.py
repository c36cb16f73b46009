"""Chain driver: reproducibility, recorded columns, recurrence bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import simulator
from driftlab import (
    AdaptationRule,
    AMParam,
    ChainConfig,
    CompoundSpec,
    ConstantSchedule,
    FAMILY_GAUSSIAN,
    FAMILY_UNIFORM,
    KestenSchedule,
    MeanFieldAM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    ParamLyapunov,
    PolynomialSchedule,
    ProposalSpec,
    RULE_AM,
    RULE_COERCED,
    RULE_TOY_MEAN,
    StateLyapunov,
    THETA_MAX,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    gamma_at,
    gaussian_target,
    kesten_advance,
    recurrence_stats,
    run_chain,
    run_replicas,
    substream,
)

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
    with pytest.raises(ValueError):
        ChainConfig(**{**c2.__dict__, "horizon": 0})


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
