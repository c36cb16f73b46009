"""Drift certificates: report structure, fitted constants, frozen examples."""

import json
import math
import warnings

import numpy as np
import pytest

import driftlab.verifiers as verifiers
from driftlab.adaptation import (
    AdaptationRule,
    RULE_COERCED,
    RULE_FAST_COERCED,
    am_update,
    scalar_update,
)
from driftlab.cli import resolve_config_path, run_check
from driftlab.config import (
    build_grid,
    build_rule,
    build_state_lyapunov,
    build_target,
    build_weight,
    load_config,
    validate_document,
)
from driftlab.kernels import (
    AMParam,
    FAMILY_GAUSSIAN,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    ProposalSpec,
    ScalarParam,
    apply_kernel_to_function,
    draw_increments,
    mean_acceptance,
)
from driftlab.lyapunov import (
    ParamLyapunov,
    SCENARIO_COERCED,
    SCENARIO_FAST_COERCED,
    StateLyapunov,
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    scenario_coefficients,
)
from driftlab.streams import substream
from driftlab.targets import gaussian_target, make_target, smoothed_subexp_target
from driftlab.verifiers import (
    GridSpec,
    METHOD_MONTE_CARLO,
    METHOD_QUADRATURE,
    accept_reject_profile,
    decomposition_terms,
    deficit_loglog_slope,
    normalized_kernel_gain,
    verify_acceptance_bounds,
    verify_compound_drift,
    verify_decomposition,
    verify_fixed_theta_drift,
    verify_toy,
    verify_w_drift,
)

UNIFORM_1D = ProposalSpec(family=FAMILY_UNIFORM, parametrization=PARAM_SCALAR_LOG_SCALE)


def coerced_coef(**kw):
    kw.setdefault("iota", 1.0)
    return scenario_coefficients(SCENARIO_COERCED, alpha_star=0.44, gamma_max=0.05, **kw)


# -- two-state chain ---------------------------------------------------------


def test_verify_toy_passes_with_exact_values():
    report = verify_toy(range(-3, 4))
    assert report.passed
    assert len(report.rows) == 7
    by_theta = {row.point["theta"]: row for row in report.rows}
    assert by_theta[0.0].lhs == -1.0
    assert by_theta[-3.0].lhs == pytest.approx(0.9004258632642721, abs=1e-15)
    for row in report.rows:
        assert abs(row.lhs - row.rhs) <= 1e-12
        assert row.se <= 1e-14  # invariance residual rides in the se slot


def test_report_json_contract():
    report = verify_toy([0.0, 1.0])
    doc = report.to_json_dict()
    for key in ("check", "grid", "fitted_constants", "rows", "pass"):
        assert key in doc
    for row in doc["rows"]:
        for key in ("point", "lhs", "rhs", "margin", "se", "pass"):
            assert key in row
    json.dumps(doc)  # serializable end to end


# -- fixed-parameter state drift ---------------------------------------------


def test_gaussian_tail_contracts_pointwise():
    # eta = 0.5, unit proposal radius: the kernel must strictly shrink V in
    # the tail at x in {6, 10, 20}
    t = gaussian_target(dim=1)
    lyap = StateLyapunov(t, 0.5)
    for x in (6.0, 10.0, 20.0):
        pv = apply_kernel_to_function(t, UNIFORM_1D, ScalarParam(theta=0.0), lyap.log, x)
        assert pv - float(lyap(x)) < 0.0


def test_fixed_theta_drift_gaussian_report():
    t = gaussian_target(dim=1)
    coef = coerced_coef()
    grid = GridSpec(
        x_grid=(0.0, 3.0, 6.0, 10.0, 20.0),
        theta_grid=(0.0,),
        gamma_grid=(0.05,),
        method=METHOD_QUADRATURE,
    )
    report = verify_fixed_theta_drift(t, UNIFORM_1D, StateLyapunov(t, 0.5), coef, grid)
    assert report.passed
    assert report.fitted["a0"] > 0.0
    assert math.isfinite(report.fitted["b"])
    assert all(r.passed for r in report.rows)


def test_fixed_theta_drift_degenerate_lyapunov():
    # eta = 0 collapses V to 1: the inequality survives with a huge rate
    # divisor and unit excursion bound
    t = gaussian_target(dim=1)
    coef = coerced_coef()
    grid = GridSpec(x_grid=(0.0, 6.0), theta_grid=(0.0,), method=METHOD_QUADRATURE)
    report = verify_fixed_theta_drift(t, UNIFORM_1D, StateLyapunov(t, 0.0), coef, grid)
    assert report.passed
    assert report.fitted["b"] == pytest.approx(1.0, abs=1e-8)


def test_fixed_theta_drift_refined_grid_keeps_verdict():
    t = smoothed_subexp_target(0.5)
    coef = coerced_coef(iota=0.9)
    lyap = StateLyapunov(t, 0.5)
    coarse = GridSpec(x_grid=(6.0, 12.0, 24.0), theta_grid=(0.0,), method=METHOD_QUADRATURE)
    fine = GridSpec(
        x_grid=(6.0, 9.0, 12.0, 18.0, 24.0), theta_grid=(0.0, 0.3), method=METHOD_QUADRATURE
    )
    r1 = verify_fixed_theta_drift(t, UNIFORM_1D, lyap, coef, coarse)
    r2 = verify_fixed_theta_drift(t, UNIFORM_1D, lyap, coef, fine)
    assert r1.passed and r2.passed


def test_deficit_slope_small_radius_quadratic():
    # small radii: the deficit grows like sigma^2 (log-log slope 2 +- 0.3)
    t = smoothed_subexp_target(0.5)
    slope, deficits = deficit_loglog_slope(t, 0.5, 40.0, (0.25, 0.5, 1.0, 2.0))
    assert all(d > 0 for d in deficits)
    assert slope == pytest.approx(2.0, abs=0.3)


# -- parameter drift ----------------------------------------------------------


def test_w_drift_vanishing_stepsize_is_tight():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_EXP_ABS)
    coef = coerced_coef()
    grid = GridSpec(
        x_grid=(0.0,), theta_grid=(5.0, -5.0), gamma_grid=(1e-12,), method=METHOD_QUADRATURE
    )
    report = verify_w_drift(t, UNIFORM_1D, rule, weight, coef, grid)
    for row in report.rows:
        theta = row.point["theta"]
        assert abs(row.lhs - math.exp(abs(theta))) <= 1e-9 * math.exp(abs(theta))


def test_w_drift_coerced_contracts_both_directions():
    # sigma far too large (theta=5): proposals are rejected, alpha < alpha*
    # drives theta down; sigma tiny (theta=-5): alpha near 1 drives theta up.
    # Both moves shrink exp(|theta|).
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_EXP_ABS)
    coef = coerced_coef()
    grid = GridSpec(
        x_grid=(0.0,), theta_grid=(5.0, -5.0), gamma_grid=(0.05,), method=METHOD_QUADRATURE
    )
    report = verify_w_drift(t, UNIFORM_1D, rule, weight, coef, grid)
    assert report.passed
    assert report.fitted["slope_c"] is not None
    assert report.fitted["delta0"] > 0.0
    for row in report.rows:
        theta = row.point["theta"]
        assert row.lhs < math.exp(abs(theta))


def test_w_drift_monte_carlo_agrees():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_EXP_ABS)
    coef = coerced_coef()
    gq = GridSpec(x_grid=(0.0,), theta_grid=(2.0,), gamma_grid=(0.05,), method=METHOD_QUADRATURE)
    gm = GridSpec(
        x_grid=(0.0,), theta_grid=(2.0,), gamma_grid=(0.05,),
        method=METHOD_MONTE_CARLO, mc_n=200_000, seed=4,
    )
    rq = verify_w_drift(t, UNIFORM_1D, rule, weight, coef, gq)
    rm = verify_w_drift(t, UNIFORM_1D, rule, weight, coef, gm)
    assert abs(rq.rows[0].lhs - rm.rows[0].lhs) <= 4.0 * rm.rows[0].se


def _preset_check_doc(preset: str, check: str, method: str, **verify) -> dict:
    doc = load_config(resolve_config_path(preset))
    doc["verify"].update(checks=[check], method=method, **verify)
    return doc


# The coerced grid stops at theta = 3: from theta = 5 on, a uniform window
# puts only about 1/sigma of the draws in the target's bulk, and the
# standard error understates the Monte Carlo error there.
@pytest.mark.parametrize(
    "preset, check, verify",
    [
        ("coerced", "fixed_theta_drift", {"theta_grid": [-8.0, -5.0, -3.0, 3.0]}),
        ("coerced", "w_drift", {"theta_grid": [-8.0, -5.0, -3.0, 3.0]}),
        ("am-subexp-1d", "w_drift", {}),
    ],
)
def test_monte_carlo_agrees_with_quadrature_per_row(preset, check, verify):
    quad = run_check(check, _preset_check_doc(preset, check, "quadrature", **verify))
    mc = run_check(check, _preset_check_doc(preset, check, "monte_carlo", **verify))
    assert len(quad.rows) == len(mc.rows)
    for q_row, mc_row in zip(quad.rows, mc.rows):
        assert q_row.point == mc_row.point
        assert abs(q_row.lhs - mc_row.lhs) <= 4.0 * mc_row.se + 1e-9


def _am_reference_means(doc: dict, idx: int, param: AMParam, x: float, gamma: float):
    """(mean V, mean w) one AM step on from (param, x), draw by draw with
    ``am_update``: the estimator's antithetic pairs with the coin
    integrated out."""
    target = make_target(doc["target"]["name"], **doc["target"]["params"])
    proposal = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE, eps_ridge=0.1)
    lyap = StateLyapunov(target, 0.5)
    weight = ParamLyapunov(W_AM_POLY, eps=0.5)
    m = doc["verify"]["mc_n"] // 2
    z = draw_increments(proposal, param, 1, substream(doc["verify"]["seed"], idx), size=m)
    lx = float(target.log_density(x))
    w_reject = weight(AMParam(*am_update(param.mu, param.cov, [x], gamma)))
    v_sum = np.zeros(m)
    w_sum = np.zeros(m)
    for ys in (x + z, x - z):
        for j, y in enumerate(ys.tolist()):
            ly = float(target.log_density(y))
            alpha = min(1.0, math.exp(ly - lx))
            w_accept = weight(AMParam(*am_update(param.mu, param.cov, [y], gamma)))
            v_sum[j] += alpha * float(lyap(y)) + (1.0 - alpha) * float(lyap(x))
            w_sum[j] += alpha * w_accept + (1.0 - alpha) * w_reject
    return float((0.5 * v_sum).mean()), float((0.5 * w_sum).mean())


@pytest.mark.parametrize("check", ["w_drift", "compound_drift"])
def test_am_monte_carlo_checks_match_a_per_draw_reference(check):
    doc = _preset_check_doc("am-subexp-1d", check, "monte_carlo", mc_n=2000)
    report = run_check(check, doc)
    grid = build_grid(doc)
    rows = {json.dumps(row.point, sort_keys=True): row for row in report.rows}
    compared = 0
    idx = 0
    for param in grid.theta_grid:
        for x in grid.x_grid:
            for gamma in grid.gamma_grid:
                mean_v, mean_w = _am_reference_means(doc, idx, param, x, gamma)
                idx += 1
                label = {"mu": param.mu.tolist(), "cov": param.cov.tolist(), "x": x, "gamma": gamma}
                if check == "w_drift":
                    label["region"] = "center" if abs(x) <= 5.0 else "tail"
                    want = mean_w
                else:
                    label["gamma_bar"] = gamma
                    want = report.fitted["lam_star"] * mean_v + mean_w / gamma
                row = rows.get(json.dumps(label, sort_keys=True))
                if row is None:  # a compound point inside the joint center
                    continue
                assert row.lhs == pytest.approx(want, rel=1e-12)
                compared += 1
    assert compared == len(report.rows) > 0


# -- compound drift ------------------------------------------------------------


def test_compound_drift_single_far_point_one_row():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_EXP_ABS)
    coef = coerced_coef()
    grid = GridSpec(
        x_grid=(20.0,), theta_grid=(8.0,), gamma_grid=(0.05,),
        method=METHOD_MONTE_CARLO, mc_n=4000, seed=11,
    )
    report = verify_compound_drift(
        t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), weight, grid, coef
    )
    assert len(report.rows) == 1
    assert report.passed
    assert report.fitted["delta"] > 0.0


def test_compound_drift_excludes_joint_center():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_EXP_ABS)
    coef = coerced_coef()
    grid = GridSpec(
        x_grid=(0.0, 10.0), theta_grid=(0.0, 8.0), gamma_grid=(0.05,),
        method=METHOD_MONTE_CARLO, mc_n=4000, seed=12,
    )
    report = verify_compound_drift(
        t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), weight, grid, coef
    )
    assert report.passed
    labels = {(row.point["theta"], row.point["x"]) for row in report.rows}
    # theta=0 (weight at the floor) and x=0 (inside the center ball) is the
    # excluded joint-center combination
    assert (0.0, 0.0) not in labels
    assert len(report.rows) == 3
    # the searched ladder is the dyadic one
    assert report.notes["searched_lam"][:3] == [1.0, 2.0, 4.0]
    assert report.notes["searched_lam"][-1] == 1024.0


def test_compound_drift_fast_coerced_uses_the_chain_update(monkeypatch):
    # the parameter weights behind every row must be those of the chain's
    # own fast-coerced step, draw by draw and bit for bit; at these points
    # rounding the step as (gamma * (|theta| + 1)) * (alpha - alpha*) moves
    # some of them
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_FAST_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_ONE_PLUS_SQUARE)
    coef = scenario_coefficients(SCENARIO_FAST_COERCED, iota=1.0, alpha_star=0.44, gamma_max=0.05)
    grid = GridSpec(
        x_grid=(0.0, 10.0), theta_grid=(0.3, -2.7), gamma_grid=(0.05, 0.013),
        method=METHOD_MONTE_CARLO, mc_n=4000, seed=5,
    )
    captured = []
    vectorized = verifiers._weight_vectorized

    def recording(w):
        f = vectorized(w)

        def g(theta_new):
            vals = f(theta_new)
            captured.append(vals)
            return vals
        return g

    monkeypatch.setattr(verifiers, "_weight_vectorized", recording)
    report = verify_compound_drift(t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), weight, grid, coef)
    assert report.rows

    m = grid.mc_n // 2
    expected = []
    idx = 0
    for theta in grid.theta_grid:
        for x in grid.x_grid:
            for gamma in grid.gamma_grid:
                z = draw_increments(UNIFORM_1D, ScalarParam(theta), 1, substream(grid.seed, idx), size=m)
                lx = float(t.log_density(x))
                for y in (x + z, x - z):
                    alpha = np.exp(np.minimum(np.asarray(t.log_density(y)) - lx, 0.0))
                    expected.append(
                        [weight(scalar_update(RULE_FAST_COERCED, theta, a, gamma, 0.44)[0]) for a in alpha.tolist()]
                    )
                idx += 1
    assert len(captured) == len(expected)
    for got, want in zip(captured, expected):
        assert got.tolist() == want
    # so each point's w-mean is the reference's as well
    for k in range(0, len(expected), 2):
        pair = 0.5 * (captured[k] + captured[k + 1])
        assert float(pair.mean()) == float((0.5 * (np.array(expected[k]) + np.array(expected[k + 1]))).mean())


@pytest.mark.parametrize("check", ["w_drift", "compound_drift"])
def test_weight_past_the_float_range_gives_no_nan_pair(monkeypatch, check):
    # w_eps = 999 puts the am_poly weight of the updated moments past the
    # float range; a proposal accepted with probability 1 never keeps the
    # old moments, whose weight is inf, so 0 * inf must not enter its pair
    doc = load_config(resolve_config_path("am-subexp-1d"))
    doc["lyapunov"]["w_eps"] = 999
    doc["verify"].update(checks=[check], method="monte_carlo")
    validate_document(doc)
    pairs = []
    one_step_pairs = verifiers._one_step_pairs

    def recording(*args, **kwargs):
        pairs.append(one_step_pairs(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(verifiers, "_one_step_pairs", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_check(check, doc)
    assert pairs and not any(np.isnan(w_pairs).any() for _, w_pairs in pairs)
    assert any(np.isinf(w_pairs).any() for _, w_pairs in pairs)
    inf_rows = [r for r in report.rows if r.lhs == math.inf]
    assert inf_rows and not any(r.passed for r in inf_rows)
    assert not any(math.isnan(r.lhs) for r in report.rows)
    assert not report.passed


def test_compound_drift_failed_search_names_the_blocking_rows():
    # on am-subexp-1d no (lam, M) pair gives delta > 0; the rows of the best
    # candidate are judged at delta = 0, so the rows that block it fail
    doc = _preset_check_doc("am-subexp-1d", "compound_drift", "monte_carlo")
    report = run_check("compound_drift", doc)
    assert not report.passed
    assert report.fitted["found"] is False
    assert report.fitted["delta"] < 0.0
    assert any(not r.passed for r in report.rows)
    target = build_target(doc)
    lyap = build_state_lyapunov(doc, target)
    weight = build_weight(doc, build_rule(doc))
    for row in report.rows:
        param = AMParam(mu=np.array(row.point["mu"]), cov=np.array(row.point["cov"]))
        at_zero = report.fitted["lam_star"] * float(lyap(row.point["x"])) + weight(param) / row.point["gamma"]
        assert row.rhs == pytest.approx(at_zero, rel=1e-15)
        assert row.passed == (row.margin > 3.0 * row.se)
    worst = min(report.rows, key=lambda r: r.margin)
    assert not worst.passed
    assert report.worst_point == {"point": worst.point, "margin": worst.margin}


# -- acceptance-rate envelopes -------------------------------------------------


def test_acceptance_bounds_subexp_pass_and_scaling():
    t = smoothed_subexp_target(0.5)
    report = verify_acceptance_bounds(
        t, sigma_grid=(1e-3, 1e-2, 0.1, 0.5, 1.0, 10.0, 100.0, 400.0, 1000.0),
        x_grid=(20.0, 40.0, 80.0),
    )
    assert report.passed
    assert math.isfinite(report.fitted["c_plus"])
    assert math.isfinite(report.fitted["c_minus"])
    assert report.fitted["stabilized_small_sigma"]
    assert report.fitted["stabilized_large_sigma"]
    # 1/sigma law at the mode: a tenfold radius cuts acceptance by 5x-20x
    for s in (1e2, 1e3):
        ratio = mean_acceptance(t, 10.0 * s, 0.0) / mean_acceptance(t, s, 0.0)
        assert 0.05 <= ratio <= 0.2


def test_acceptance_bounds_fail_when_the_large_radius_level_grows():
    # from x = 20 a window of radius 20 covers half of {|y| <= 20} and one of
    # radius 40 all of it, so alpha * sigma doubles: no 1/sigma law yet
    t = smoothed_subexp_target(0.5)
    report = verify_acceptance_bounds(t, sigma_grid=(0.5, 1.0, 20.0, 40.0), x_grid=(20.0,))
    ratio = 2.0 * mean_acceptance(t, 40.0, 20.0) / mean_acceptance(t, 20.0, 20.0)
    assert ratio > 1.25
    assert report.fitted["stabilized_large_sigma"] is False
    assert report.fitted["stabilized_small_sigma"] is True
    assert all(r.passed for r in report.rows)
    assert not report.passed


def test_acceptance_near_half_at_vanishing_radius():
    t = smoothed_subexp_target(0.5)
    for x in (20.0, 40.0):
        assert mean_acceptance(t, 1e-6, x) >= 0.5 - 1e-4


def test_acceptance_laplace_profile_closed_form():
    # exact-tail exponent 1 has log-density -|x|: at the mode with unit
    # radius the acceptance integrates to 1 - 1/e
    from driftlab.targets import exact_tail_subexp_target

    t = exact_tail_subexp_target(1.0)
    assert mean_acceptance(t, 1.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)


# -- kernel-gain decomposition --------------------------------------------------


def test_decomposition_report_passes():
    t = smoothed_subexp_target(0.5)
    report = verify_decomposition(
        t, StateLyapunov(t, 0.5),
        sigma_grid=(1.0, 10.0, 100.0, 400.0, 1000.0),
        x_grid=(20.0, 40.0, 80.0, 160.0),
    )
    assert report.passed
    assert report.fitted["profile_max"] <= 1e-9
    assert report.fitted["cross_accept_max"] <= 1e-9
    assert report.fitted["eps_t"] > 0.0
    assert report.fitted["r_t"] is not None and report.fitted["r_t"] <= 80.0
    assert all(r.passed for r in report.rows)


def test_decomposition_without_a_threshold_reports_the_worst_rate():
    # at x = 20 the outward mass still beats the inward deficit at sigma = 20,
    # so no level qualifies and eps_t is the worst rate on the grid
    t = smoothed_subexp_target(0.5)
    sigmas = (20.0, 100.0)
    report = verify_decomposition(t, StateLyapunov(t, 0.5), sigma_grid=sigmas, x_grid=(20.0,))
    rates = []
    for s in sigmas:
        terms = decomposition_terms(t, 0.5, s, 20.0)
        rates.append(-(terms["local"] + terms["outward"]) * s / 20.0)
    assert min(rates) <= 0.0
    assert report.fitted["r_t"] is None
    assert report.fitted["eps_t"] == min(rates)
    assert all(r.passed for r in report.rows)
    assert not report.passed


def test_decomposition_residual_at_reference_point():
    t = smoothed_subexp_target(0.5)
    lhs = normalized_kernel_gain(t, 0.5, 1.0, 50.0)
    terms = decomposition_terms(t, 0.5, 1.0, 50.0)
    rhs = terms["local"] + terms["outward"] + terms["cross_accept"] + terms["cross_reject"]
    assert abs(lhs - rhs) <= 1e-6


def test_decomposition_degenerate_eta_vanishes():
    t = smoothed_subexp_target(0.5)
    terms = decomposition_terms(t, 0.0, 2.0, 30.0)
    for key in ("local", "outward", "cross_accept", "cross_reject"):
        assert abs(terms[key]) <= 1e-10
    assert abs(normalized_kernel_gain(t, 0.0, 2.0, 30.0)) <= 1e-10


def test_profile_zero_at_origin():
    t = smoothed_subexp_target(0.5)
    for x in (5.0, 20.0, 80.0):
        assert accept_reject_profile(t, 0.5, x, 0.0) == 0.0
