"""The thirteen acceptance criteria, one test and one verdict line each.

These run the shipped presets at full scale, so the module takes a few
minutes; module-level unit tests cover the same code paths at toy sizes.
Every test records its verdict through the ``criterion`` fixture before
asserting, so the summary table prints even on failure.
"""
import copy
import math

import numpy as np
from scipy import stats

from driftlab.cli import list_presets, resolve_config_path, run_check, run_experiment
from driftlab.config import build_chain_config, load_config
from driftlab.lyapunov import StateLyapunov, check_det_inequality
from driftlab.simulator import run_replicas
from driftlab.streams import substream
from driftlab.targets import make_target
from driftlab.verifiers import (
    deficit_loglog_slope,
    verify_acceptance_bounds,
    verify_decomposition,
    verify_toy,
)

SIGMA_GRID = (1e-3, 1e-2, 1e-1, 0.5, 1.0, 10.0, 100.0, 400.0, 1000.0)
TAIL_X_GRID = (20.0, 40.0, 80.0, 160.0)


def preset_doc(name: str) -> dict:
    return load_config(resolve_config_path(name))


def test_criterion_01_toy_exactness(criterion):
    report = verify_toy(tuple(float(t) for t in range(-3, 4)))
    eig_err = max(abs(r.lhs - r.rhs) for r in report.rows)
    inv_err = report.notes["conditions"]["invariance_residual"]["value"]
    ok = report.passed and eig_err <= 1e-12 and inv_err <= 1e-14
    criterion(1, ok, f"eigenvalue err {eig_err:.1e} (tol 1e-12), invariance err {inv_err:.1e} (tol 1e-14)")
    assert ok


def test_criterion_02_coerced_convergence(criterion):
    doc = preset_doc("coerced")
    summary = run_replicas(build_chain_config(doc), 20)
    tails = [r["acceptance_tail"] for r in summary.per_replica]
    in_band = sum(1 for t in tails if abs(t - 0.44) <= 0.03)
    max_theta = summary.aggregate["max_abs_theta"]
    ok = in_band >= 18 and max_theta < 10.0 and not summary.any_diverged
    criterion(2, ok, f"{in_band}/20 replicas with tail acceptance in 0.44+-0.03; max|theta| {max_theta:.2f} < 10")
    assert ok


def test_criterion_03_am_mean_field_root(criterion):
    doc = preset_doc("am-gaussian-1d")
    summary = run_replicas(build_chain_config(doc), 20)
    good = sum(
        1
        for r in summary.per_replica
        if r["final_err_mu"] < 0.2 and r["final_err_cov"] < 0.4
    )
    ok = good >= 15 and not summary.any_diverged
    criterion(3, ok, f"{good}/20 replicas with |mu-3|<0.2 and |cov-4|<0.4 at N=2e5 (need 15)")
    assert ok


def test_criterion_04_constant_stepsize_stability(criterion):
    doc = preset_doc("coerced")
    doc["schedule"] = {"kind": "constant", "gamma0": 0.02}
    doc["run"]["horizon"] = 100_000
    coerced_summary = run_replicas(build_chain_config(doc), 20)
    coerced_max = coerced_summary.aggregate["max_abs_theta"]

    am = preset_doc("am-gaussian-1d")
    am["schedule"] = {"kind": "constant", "gamma0": 0.02}
    am["run"]["horizon"] = 100_000
    am["run"]["recurrence"] = {"m": 1000.0, "r": 1e9}
    config = build_chain_config(am)
    assert config.param_weight(config.theta0) <= 1000.0  # starts inside the w level
    am_summary = run_replicas(config, 20)
    w_exits = sum(r["exit_count"] for r in am_summary.per_replica)

    ok = (
        coerced_max < 10.0
        and w_exits == 0
        and not coerced_summary.any_diverged
        and not am_summary.any_diverged
    )
    criterion(4, ok, f"constant 0.02: coerced max|theta| {coerced_max:.2f} < 10; AM exits above w=1e3: {w_exits}")
    assert ok


def test_criterion_05_regime_structure(criterion):
    # Large-sigma leg fits over a log-even grid spanning [x, 10x].  Known
    # red at desk scale: the 1/sigma law needs the state far enough out
    # (threshold radius ~40-80 for this target), so x=20 has a deficit
    # sign change inside the window (slope nan) and x=40 still straddles
    # the regime crossover (slope ~ -1.4).  Kept as stated; see the
    # decomposition check for the same threshold fitted from the term
    # bounds.
    t = make_target("subexp", alpha=0.5)
    parts = []
    ok = True
    for x in (20.0, 40.0, 80.0):
        small, _ = deficit_loglog_slope(t, 0.5, x, (0.25, 0.5, 1.0))
        window = tuple(x * 10 ** (k / 4) for k in range(5))
        large, _ = deficit_loglog_slope(t, 0.5, x, window)
        ok = ok and abs(small - 2.0) <= 0.3 and abs(large + 1.0) <= 0.3
        parts.append(f"x={x:g}: {small:.2f}/{large:.2f}")
    criterion(5, ok, "deficit slopes small/large sigma " + "; ".join(parts) + " (want 2/-1 +-0.3)")
    assert ok


def test_criterion_06_compound_certificate(criterion):
    report = run_check("compound_drift", preset_doc("coerced"))
    f = report.fitted
    ok = report.passed and f["found"] and f["delta"] > 0.0
    criterion(
        6,
        ok,
        f"lam*={f['lam_star']:g} M*={f['m_star']:g} delta={f['delta']:.3g}; all margins > 3 SE at N=1e4",
    )
    assert ok


def test_criterion_07_acceptance_rate_envelopes(criterion):
    t = make_target("subexp", alpha=0.5)
    report = verify_acceptance_bounds(t, SIGMA_GRID, TAIL_X_GRID)
    f = report.fitted
    stabilized = report.notes["conditions"]
    ok = (
        report.passed
        and math.isfinite(f["c_minus"])
        and math.isfinite(f["c_plus"])
        and stabilized["stabilized_small_sigma"]["pass"]
        and stabilized["stabilized_large_sigma"]["pass"]
    )
    criterion(7, ok, f"C-={f['c_minus']:.3g}, C+={f['c_plus']:.3g}; both bounds hold at every grid point")
    assert ok


def test_criterion_08_decomposition_identity(criterion):
    t = make_target("subexp", alpha=0.5)
    report = verify_decomposition(t, StateLyapunov(t, 0.5), SIGMA_GRID, TAIL_X_GRID)
    residual = max(abs(r.lhs - r.rhs) for r in report.rows)
    f = {name: c["value"] for name, c in report.notes["conditions"].items()}
    ok = (
        report.passed
        and residual <= 1e-6
        and f["profile_max"] <= 1e-9
        and f["cross_accept_max"] <= 1e-9
    )
    criterion(
        8,
        ok,
        f"residual {residual:.1e} <= 1e-6; psi max {f['profile_max']:.1e} <= 1e-9; "
        f"inward crossing max {f['cross_accept_max']:.1e} <= 1e-9",
    )
    assert ok


def test_criterion_09_determinant_inequality(criterion):
    rng = substream(20260816, 9)
    violations = total = 0
    for n, count in ((2, 334), (3, 333), (5, 333)):
        for _ in range(count):
            a = rng.standard_normal((n, n))
            if not check_det_inequality(a @ a.T).holds:
                violations += 1
            total += 1
    eq_err = max(
        abs(check_det_inequality(c * np.eye(n)).lhs - check_det_inequality(c * np.eye(n)).rhs)
        for c in (0.5, 1.0, 2.0)
        for n in (2, 3, 5)
    )
    ok = violations == 0 and total == 1000 and eq_err <= 1e-12
    criterion(9, ok, f"{violations}/{total} violations over n in (2,3,5); c*I equality err {eq_err:.1e} <= 1e-12")
    assert ok


def test_criterion_10_concavity_and_mean_inequalities(criterion):
    rng = substream(20260816, 10)
    n = 100_000
    x = rng.uniform(-1.0, 1e3, n)
    u = rng.uniform(1e-9, 1.0, n)
    concave_worst = float((1.0 + u * x - (1.0 + x) ** u).min())
    lam = rng.uniform(1e-9, 1.0, n)
    a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    b = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    mean_worst = float((lam * a + (1.0 - lam) * b - a**lam * b ** (1.0 - lam)).min())
    ok = concave_worst >= -1e-12 and mean_worst >= -1e-12
    criterion(
        10,
        ok,
        f"worst gaps over 1e5 samples each: concavity {concave_worst:.1e}, weighted means {mean_worst:.1e} (tol -1e-12)",
    )
    assert ok


def test_criterion_11_fast_rule_hits_sooner(criterion):
    horizon = 30_000
    base = preset_doc("coerced")
    base["run"].update(
        {
            "theta0": 25.0,
            "horizon": horizon,
            "replicas": 50,
            "recurrence": {"m": math.exp(5.0), "r": 1e9},
        }
    )
    base["lyapunov"]["weight"] = "exp_abs"  # makes {w <= e^5} the window {|theta| <= 5}
    base["run"]["seed"] = 515151  # shared streams pair the replicas
    fast = copy.deepcopy(base)
    fast["adaptation"]["rule"] = "fast_coerced"
    fast["lyapunov"]["scenario"] = "fast_coerced"

    std_summary = run_replicas(build_chain_config(base), 50)
    fast_summary = run_replicas(build_chain_config(fast), 50)
    censor = horizon + 1
    std_hits = [r["first_hit"] if r["first_hit"] is not None else censor for r in std_summary.per_replica]
    fast_hits = [r["first_hit"] if r["first_hit"] is not None else censor for r in fast_summary.per_replica]
    wins = sum(1 for f, s in zip(fast_hits, std_hits) if f < s)
    ties = sum(1 for f, s in zip(fast_hits, std_hits) if f == s)
    p_value = float(stats.binomtest(wins, 50 - ties, 0.5, alternative="greater").pvalue)
    med_fast = float(np.median(fast_hits))
    med_std = float(np.median(std_hits))
    ok = med_fast < med_std and p_value < 0.01
    criterion(
        11,
        ok,
        f"median first hit of |theta|<=5: fast {med_fast:g} vs standard {med_std:g}; "
        f"fast sooner in {wins}/{50 - ties} pairs, sign test p={p_value:.1e} < 0.01",
    )
    assert ok


def test_criterion_12_toy_gain_separates_divergence(criterion):
    fractions = {}
    for gain in (100.0, 0.1):
        doc = {
            "adaptation": {"rule": "toy_mean"},
            "schedule": {"kind": "polynomial", "c0": gain, "c1": 0.0, "a": 1.0},
            "run": {
                "kind": "toy",
                "horizon": 100_000,
                "replicas": 200,
                "seed": 20260815,
                "theta0": 0.0,
                "x0": 0,
                "recurrence": {"m": 2501.0, "r": 1.5},
            },
        }
        summary = run_replicas(build_chain_config(doc), 200)
        fractions[gain] = sum(1 for r in summary.per_replica if r["max_abs_theta"] > 50.0) / 200.0
    ok = fractions[100.0] > fractions[0.1]
    criterion(
        12,
        ok,
        f"fraction of 200 replicas with max|theta|>50 by N=1e5: gain 100 -> {fractions[100.0]:.3f}, "
        f"gain 0.1 -> {fractions[0.1]:.3f}",
    )
    assert ok


def test_criterion_13_preset_determinism(criterion, tmp_path):
    mismatches = []
    codes = {}
    for name in list_presets():
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        code_a = run_experiment(name, out=str(out_a))
        code_b = run_experiment(name, out=str(out_b))
        codes[name] = (code_a, code_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        if code_a != code_b or code_a != 0 or files_a != files_b or not files_a:
            mismatches.append(f"{name} (codes {code_a}/{code_b})")
            continue
        for rel in files_a:
            if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
                mismatches.append(f"{name}:{rel}")
    ok = not mismatches
    detail = (
        "all 5 presets rerun byte-identical, exit 0"
        if ok
        else "differences: " + ", ".join(str(m) for m in mismatches)
    )
    criterion(13, ok, detail)
    assert ok
