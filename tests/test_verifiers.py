"""Drift certificates: report structure, fitted constants, frozen examples."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import driftlab.verifiers as verifiers
from driftlab.adaptation import (
    AdaptationRule,
    RULE_AM,
    RULE_COERCED,
    RULE_FAST_COERCED,
    am_update,
    scalar_update,
)
from driftlab.cli import main, resolve_config_path, run_check
from driftlab.config import (
    build_coefficients,
    build_grid,
    build_state_lyapunov,
    build_target,
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
    draw_increments,
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
from test_config_cli import mv_run_doc
from driftlab.verifiers import (
    GridSpec,
    METHOD_MONTE_CARLO,
    METHOD_QUADRATURE,
    accept_reject_profile,
    apply_kernel_to_function,
    decomposition_terms,
    deficit_loglog_slope,
    mean_acceptance,
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
    kw.setdefault("gamma_max", 0.05)
    return scenario_coefficients(SCENARIO_COERCED, alpha_star=0.44, **kw)


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
        assert row.se == 0.0
    assert report.notes["conditions"]["invariance_residual"]["value"] <= 1e-14


def test_report_json_contract():
    report = verify_toy([0.0, 1.0])
    doc = report.to_json_dict()
    for key in ("check", "grid", "fitted_constants", "rows", "pass"):
        assert key in doc
    for row in doc["rows"]:
        for key in ("point", "lhs", "rhs", "margin", "se", "pass"):
            assert key in row
    json.dumps(doc)  # serializable end to end


# -- the one verdict rule -------------------------------------------------------


def _hand_report(rows=(True,), constants=None, conditions=None) -> verifiers.DriftReport:
    """A report with one row per entry of ``rows`` (its pass), each of
    ``constants`` binding, and ``conditions`` name -> (value, bound)."""
    constants = constants or {}
    return verifiers.DriftReport(
        "hand", {}, dict(constants),
        [verifiers.DriftRow({"i": i}, 0.0, 1.0, 1.0, 0.0, ok) for i, ok in enumerate(rows)],
        {"binding_rows": dict.fromkeys(constants),
         "conditions": {name: verifiers._condition(*c) for name, c in (conditions or {}).items()}})


@pytest.mark.parametrize("kw, passes", [
    ({}, True),
    ({"rows": ()}, False),
    ({"rows": (True, False)}, False),
    ({"constants": {"k": math.inf}}, False),
    ({"constants": {"k": math.nan}}, False),
    ({"constants": {"k": 0.0}}, False),
    ({"constants": {"k": -1.0}}, False),
    ({"conditions": {"c": (2.0, 1.0)}}, False),
    ({"conditions": {"c": (math.nan, 1.0)}}, False),
    ({"constants": {"k": 2.0}, "conditions": {"c": (1.0, 1.0)}}, True),
    # a constant set by no row, or a condition with nothing to test, holds
    ({"constants": {"k": None}}, True),
    ({"rows": (False,), "constants": {"k": None}}, False),
    ({"conditions": {"c": (None, 0.0)}}, True),
], ids=["all-hold", "no-rows", "failing-row", "inf", "nan", "zero", "negative", "failing-condition",
        "nan-condition", "at-the-bounds", "none-constant", "none-constant-failing-row", "none-condition"])
def test_one_verdict_rule(kw, passes):
    report = _hand_report(**kw)
    assert report.passed is passes
    assert report.to_json_dict()["pass"] is passes


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
        method=METHOD_QUADRATURE,
    )
    report = verify_fixed_theta_drift(t, UNIFORM_1D, StateLyapunov(t, 0.5), coef, grid, 5.0)
    assert report.passed
    assert report.fitted["a0"] > 0.0
    assert math.isfinite(report.fitted["b"])
    assert all(r.passed for r in report.rows)


def test_fixed_theta_drift_degenerate_lyapunov():
    # eta = 0 collapses V to 1, so P V = V everywhere: outside the center no
    # a > 0 gives P V <= V - V**iota / a, since the deficit V - P V is 0.
    # The tail row caps a0 at -QUAD_TOL * base, below 0, and the check
    # fails; the center bound b still fits P V = 1 plus its slack.
    t = gaussian_target(dim=1)
    coef = coerced_coef()
    grid = GridSpec(x_grid=(0.0, 6.0), theta_grid=(0.0,), method=METHOD_QUADRATURE)
    report = verify_fixed_theta_drift(t, UNIFORM_1D, StateLyapunov(t, 0.0), coef, grid, 5.0)
    assert not report.passed
    assert report.fitted["a0"] < 0.0
    assert report.fitted["b"] == pytest.approx(1.0, abs=1e-8)


def test_fixed_theta_drift_refined_grid_keeps_verdict():
    t = smoothed_subexp_target(0.5)
    coef = coerced_coef(iota=0.9)
    lyap = StateLyapunov(t, 0.5)
    coarse = GridSpec(x_grid=(6.0, 12.0, 24.0), theta_grid=(0.0,), method=METHOD_QUADRATURE)
    fine = GridSpec(
        x_grid=(6.0, 9.0, 12.0, 18.0, 24.0), theta_grid=(0.0, 0.3), method=METHOD_QUADRATURE
    )
    r1 = verify_fixed_theta_drift(t, UNIFORM_1D, lyap, coef, coarse, 5.0)
    r2 = verify_fixed_theta_drift(t, UNIFORM_1D, lyap, coef, fine, 5.0)
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
    coef = coerced_coef(gamma_max=1e-12)
    grid = GridSpec(x_grid=(0.0,), theta_grid=(5.0, -5.0), method=METHOD_QUADRATURE)
    report = verify_w_drift(t, UNIFORM_1D, rule, coef, grid, StateLyapunov(t, 0.5), 5.0)
    for row in report.rows:
        theta = row.point["theta"]
        assert abs(row.lhs - math.exp(abs(theta))) <= 1e-9 * math.exp(abs(theta))


def test_w_drift_coerced_contracts_both_directions():
    # sigma far too large (theta=5): proposals are rejected, alpha < alpha*
    # drives theta down; sigma tiny (theta=-5): alpha near 1 drives theta up.
    # Both moves shrink exp(|theta|).
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    coef = coerced_coef()
    grid = GridSpec(x_grid=(0.0,), theta_grid=(5.0, -5.0), method=METHOD_QUADRATURE)
    report = verify_w_drift(t, UNIFORM_1D, rule, coef, grid, StateLyapunov(t, 0.5), 5.0)
    assert report.passed
    assert report.fitted["slope_c"] is not None
    assert report.fitted["delta0"] > 0.0
    for row in report.rows:
        theta = row.point["theta"]
        assert row.lhs < math.exp(abs(theta))


def test_w_drift_monte_carlo_agrees():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    coef = coerced_coef()
    lyap = StateLyapunov(t, 0.5)
    gq = GridSpec(x_grid=(0.0,), theta_grid=(2.0,), method=METHOD_QUADRATURE)
    gm = GridSpec(x_grid=(0.0,), theta_grid=(2.0,), method=METHOD_MONTE_CARLO, mc_n=200_000, seed=4)
    rq = verify_w_drift(t, UNIFORM_1D, rule, coef, gq, lyap, 5.0)
    rm = verify_w_drift(t, UNIFORM_1D, rule, coef, gm, lyap, 5.0)
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


def _am_reference_means(doc: dict, idx: int, param: AMParam, x, gamma: float):
    """(mean V, mean w) one AM step on from (param, x), draw by draw with
    ``am_update``: the estimator's antithetic pairs with the coin
    integrated out.  ``x`` is a number on a 1-D target, else a point."""
    target = make_target(doc["target"]["name"], **doc["target"]["params"])
    proposal = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE, eps_ridge=0.1)
    lyap = StateLyapunov(target, 0.5)
    weight = ParamLyapunov(W_AM_POLY, eps=0.5)
    m = doc["verify"]["mc_n"] // 2
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    z = draw_increments(proposal, param, xv.size, substream(doc["verify"]["seed"], idx), size=m).reshape(m, -1)
    lx = float(target.log_density(x))
    w_reject = weight(AMParam(*am_update(param.mu, param.cov, xv, gamma)))
    v_sum = np.zeros(m)
    w_sum = np.zeros(m)
    for ys in (xv + z, xv - z):
        for j, y in enumerate(ys):
            point = float(y[0]) if xv.size == 1 else y
            ly = float(target.log_density(point))
            alpha = min(1.0, math.exp(ly - lx))
            w_accept = weight(AMParam(*am_update(param.mu, param.cov, y, gamma)))
            v_sum[j] += alpha * float(lyap(point)) + (1.0 - alpha) * float(lyap(x))
            w_sum[j] += alpha * w_accept + (1.0 - alpha) * w_reject
    return float((0.5 * v_sum).mean()), float((0.5 * w_sum).mean())


@pytest.mark.parametrize("check", ["w_drift", "compound_drift"])
def test_am_monte_carlo_checks_match_a_per_draw_reference(check):
    doc = _preset_check_doc("am-subexp-1d", check, "monte_carlo", mc_n=2000)
    report = run_check(check, doc)
    grid = build_grid(doc)
    gamma = 0.05  # the preset sets no lyapunov.gamma_max, so the default
    assert report.fitted["gamma_max"] == gamma
    rows = {json.dumps(row.point, sort_keys=True): row for row in report.rows}
    compared = 0
    for idx, (param, x) in enumerate((param, x) for param in grid.theta_grid for x in grid.x_grid):
        mean_v, mean_w = _am_reference_means(doc, idx, param, x, gamma)
        label = {"mu": param.mu.tolist(), "cov": param.cov.tolist(), "x": x, "gamma": gamma}
        if check == "w_drift":
            label["region"] = "center" if abs(x) <= 5.0 else "tail"
            want = mean_w
        else:
            want = report.fitted["lam_star"] * mean_v + mean_w / gamma
        row = rows.get(json.dumps(label, sort_keys=True))
        if row is None:  # a compound point inside the joint center
            continue
        assert row.lhs == pytest.approx(want, rel=1e-12)
        compared += 1
    assert compared == len(report.rows) > 0


def test_two_dimensional_compound_drift_evaluates_the_point_it_labels():
    # a number x of verify.x_grid on a 2-D target is the point (x, x), not
    # the one-coordinate point [x]: log pi([10]) = -59.56 against
    # log pi((10, 10)) = -45.81
    doc = mv_run_doc("am")
    doc["lyapunov"]["scenario"] = "am_superexp"
    doc["verify"] = {"checks": ["compound_drift"], "method": "monte_carlo", "mc_n": 2000, "seed": 3,
                     "x_grid": [10.0], "theta_grid": [{"mu": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}]}
    validate_document(doc)
    report = run_check("compound_drift", doc)
    (row,) = report.rows
    assert row.point["x"] == [10.0, 10.0]
    param = build_grid(doc).theta_grid[0]
    mean_v, mean_w = _am_reference_means(doc, 0, param, np.array([10.0, 10.0]), report.fitted["gamma_max"])
    assert row.lhs == pytest.approx(report.fitted["lam_star"] * mean_v + mean_w / report.fitted["gamma_max"],
                                    rel=1e-12)


# -- one stepsize row --------------------------------------------------------------


@pytest.mark.parametrize("rule_kind", [RULE_COERCED, RULE_FAST_COERCED, RULE_AM])
def test_one_step_quotient_is_nondecreasing_in_the_stepsize(rule_kind):
    # w_drift and compound_drift judge only gamma_max: their stepsize enters
    # through (w_pair(gamma) - w(theta)) / gamma, with the update direction
    # free of gamma and every weight convex, so on common draws each pair's
    # quotient is nondecreasing in gamma and the gamma_max row covers
    # (0, gamma_max]
    t = gaussian_target(dim=1)
    lyap = StateLyapunov(t, 0.5)
    rule = AdaptationRule(kind=rule_kind, alpha_star=0.44)
    if rule_kind == RULE_AM:
        proposal = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE, eps_ridge=0.1)
        weight = ParamLyapunov(W_AM_POLY, eps=0.5)
        params = [AMParam(mu=np.array([m]), cov=np.array([[c]])) for m in (-8.0, 0.0, 3.0) for c in (0.01, 1.0, 25.0)]
    else:
        proposal = UNIFORM_1D
        weight = ParamLyapunov(W_EXP_ABS if rule_kind == RULE_COERCED else W_ONE_PLUS_SQUARE)
        params = [ScalarParam(theta=float(theta)) for theta in range(-8, 9, 2)]
    gamma_max = coerced_coef().gamma_max
    gammas = (gamma_max / 100, gamma_max / 10, gamma_max)
    for i, (param, x) in enumerate(itertools.product(params, (-10.0, 0.0, 3.0, 10.0))):
        samples = [verifiers._one_step_pairs(t, proposal, lyap, param, x, 2000, substream(7, i), rule, weight, gamma)
                   for gamma in gammas]
        assert all(np.array_equal(v_pair, samples[0][0]) for v_pair, _ in samples)
        quotients = [(w_pair - weight(param)) / gamma for (_, w_pair), gamma in zip(samples, gammas)]
        for lo, hi in zip(quotients, quotients[1:]):
            assert np.all(hi >= lo - 1e-9 * np.maximum(np.abs(lo), np.abs(hi)))


# -- compound drift ------------------------------------------------------------


def test_compound_drift_single_far_point_one_row():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    coef = coerced_coef()
    grid = GridSpec(x_grid=(20.0,), theta_grid=(8.0,), method=METHOD_MONTE_CARLO, mc_n=4000, seed=11)
    report = verify_compound_drift(t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), grid, coef, 5.0)
    assert len(report.rows) == 1
    assert report.passed
    assert report.fitted["delta"] > 0.0


def test_compound_drift_excludes_joint_center():
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_COERCED, alpha_star=0.44)
    coef = coerced_coef()
    grid = GridSpec(x_grid=(0.0, 10.0), theta_grid=(0.0, 8.0), method=METHOD_MONTE_CARLO, mc_n=4000, seed=12)
    report = verify_compound_drift(t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), grid, coef, 5.0)
    assert report.passed
    labels = {(row.point["theta"], row.point["x"]) for row in report.rows}
    # theta=0 (weight at the floor) and x=0 (inside the center ball) is the
    # excluded joint-center combination
    assert (0.0, 0.0) not in labels
    assert len(report.rows) == 3
    # the searched ladder is the dyadic one
    assert report.notes["searched_lam"][:3] == [1.0, 2.0, 4.0]
    assert report.notes["searched_lam"][-1] == 1024.0


@pytest.mark.parametrize("gamma_max", [0.05, 0.013])
def test_compound_drift_fast_coerced_uses_the_chain_update(monkeypatch, gamma_max):
    # the parameter weights behind every row must be those of the chain's
    # own fast-coerced step, draw by draw and bit for bit; at these points
    # rounding the step as (gamma * (|theta| + 1)) * (alpha - alpha*) moves
    # some of them
    t = gaussian_target(dim=1)
    rule = AdaptationRule(kind=RULE_FAST_COERCED, alpha_star=0.44)
    weight = ParamLyapunov(W_ONE_PLUS_SQUARE)
    coef = scenario_coefficients(SCENARIO_FAST_COERCED, iota=1.0, alpha_star=0.44, gamma_max=gamma_max)
    grid = GridSpec(x_grid=(0.0, 10.0), theta_grid=(0.3, -2.7), method=METHOD_MONTE_CARLO, mc_n=4000, seed=5)
    captured = []
    of_thetas = ParamLyapunov.of_thetas

    def recording(w, theta_new):
        captured.append(of_thetas(w, theta_new))
        return captured[-1]

    monkeypatch.setattr(ParamLyapunov, "of_thetas", recording)
    report = verify_compound_drift(t, UNIFORM_1D, rule, StateLyapunov(t, 0.5), grid, coef, 5.0)
    assert report.rows

    m = grid.mc_n // 2
    expected = []
    idx = 0
    for theta in grid.theta_grid:
        for x in grid.x_grid:
            z = draw_increments(UNIFORM_1D, ScalarParam(theta), 1, substream(grid.seed, idx), size=m)
            lx = float(t.log_density(x))
            for y in (x + z, x - z):
                alpha = np.exp(np.minimum(np.asarray(t.log_density(y)) - lx, 0.0))
                expected.append(
                    [weight(scalar_update(RULE_FAST_COERCED, theta, a, gamma_max, 0.44)[0]) for a in alpha.tolist()]
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
    weight = build_coefficients(doc, target, None).weight()
    for row in report.rows:
        param = AMParam(mu=np.array(row.point["mu"]), cov=np.array(row.point["cov"]))
        at_zero = report.fitted["lam_star"] * float(lyap(row.point["x"])) + weight(param) / row.point["gamma"]
        assert row.rhs == pytest.approx(at_zero, rel=1e-15)
        assert row.passed == (row.margin > 3.0 * row.se)
    worst = min(report.rows, key=lambda r: r.margin)
    assert not worst.passed
    assert report.worst_point == {"point": worst.point, "margin": worst.margin}


# -- the drift skeleton ----------------------------------------------------------


_COERCED_GRID = {"theta_grid": [-8.0, -5.0, -3.0, 3.0]}


# the drift checks the presets declare, then the other drift checks on the
# preset configs (coerced on the grid of the agreement test above), by both
# methods where both apply
@pytest.mark.parametrize(
    "preset, check, method, verify",
    [
        ("am-subexp-1d", "fixed_theta_drift", "quadrature", {}),
        ("coerced", "compound_drift", "monte_carlo", {}),
        ("am-subexp-1d", "fixed_theta_drift", "monte_carlo", {}),
        ("am-subexp-1d", "w_drift", "quadrature", {}),
        ("am-subexp-1d", "w_drift", "monte_carlo", {}),
        ("coerced", "fixed_theta_drift", "quadrature", _COERCED_GRID),
        ("coerced", "fixed_theta_drift", "monte_carlo", _COERCED_GRID),
        ("coerced", "w_drift", "quadrature", _COERCED_GRID),
        ("coerced", "w_drift", "monte_carlo", _COERCED_GRID),
    ],
)
def test_binding_rows_are_the_tightest_and_pass_at_the_frozen_constants(preset, check, method, verify):
    report = run_check(check, _preset_check_doc(preset, check, method, **verify))
    assert report.passed
    mc = method == METHOD_MONTE_CARLO
    # how far each row's margin clears the slack its fit measured it against
    excess = [row.margin - verifiers._slack(row.se, mc) for row in report.rows]
    binding = report.notes["binding_rows"]
    assert set(binding) == {"fixed_theta_drift": {"a0", "b"}, "w_drift": {"slope_c"},
                            "compound_drift": {"delta"}}[check]
    assert report.to_json_dict()["notes"]["binding_rows"] == binding
    for name, i in binding.items():
        # a0 is set by the tail rows, b by the center rows, the others by every row
        region = {"a0": "tail", "b": "center"}.get(name)
        rivals = [e for e, row in zip(excess, report.rows) if region in (None, row.point.get("region"))]
        assert excess[i] == min(rivals)
        assert excess[i] >= 0.0 and report.rows[i].passed


@pytest.mark.parametrize("method", [METHOD_QUADRATURE, METHOD_MONTE_CARLO])
def test_fixed_theta_drift_fails_where_no_proposal_moves(method):
    # At theta = 650 the uniform window is e**650 wide, so every proposal
    # lands where pi is 0 and is rejected: P V = V, and the tail rows have no
    # deficit V - P V > 0.  Drift toward a small set needs a strictly
    # positive deficit outside it (Meyn and Tweedie 2009), so no a0 > 0
    # certifies this grid, by either method.
    doc = _preset_check_doc("coerced", "fixed_theta_drift", method, theta_grid=[650.0])
    report = run_check("fixed_theta_drift", doc)
    lyap = build_state_lyapunov(doc, build_target(doc))
    tail = [row for row in report.rows if row.point["region"] == "tail"]
    assert tail and all(row.lhs == pytest.approx(float(lyap(row.point["x"])), rel=1e-12) for row in tail)
    assert not report.fitted["a0"] > 0.0
    assert not report.passed
    # the tail row that set a0 is the row the report fails on
    assert not report.rows[report.notes["binding_rows"]["a0"]].passed


@pytest.mark.parametrize("check, method", [("w_drift", METHOD_QUADRATURE), ("w_drift", METHOD_MONTE_CARLO),
                                           ("compound_drift", METHOD_MONTE_CARLO)])
def test_parameter_drift_holds_where_no_proposal_moves(check, method):
    # At theta = 650 every proposal is rejected, so the coerced update lowers
    # theta by gamma * alpha* and w = e**|theta|, about 1e282, shrinks each
    # step.  The Monte Carlo error terms square samples past 1e154; formed
    # on samples scaled by a power of two, they stay finite, and both
    # methods pass.
    report = run_check(check, _preset_check_doc("coerced", check, method, theta_grid=[650.0]))
    assert report.passed
    assert report.rows and all(math.isfinite(row.se) for row in report.rows)
    if check == "w_drift":
        assert report.fitted["slope_c"] == pytest.approx(1e-6, rel=1e-6)


def test_scaled_moments_equal_the_plain_ones():
    # a power-of-two scale is exact, so in the float range the mean and the
    # standard error are numpy's to the bit; past it they stay finite
    rng = np.random.default_rng(8)
    for _ in range(500):
        samples = rng.standard_normal(int(rng.integers(2, 300))) * 10.0 ** rng.uniform(-100.0, 100.0)
        assert verifiers._mean_se(samples) == (float(samples.mean()),
                                               float(samples.std(ddof=1) / math.sqrt(samples.size)))
    mean, se = verifiers._mean_se(math.exp(650.0) * (1.0 + 1e-3 * rng.standard_normal(1000)))
    assert mean == pytest.approx(math.exp(650.0), rel=1e-3)
    assert se == pytest.approx(math.exp(650.0) * 1e-3 / math.sqrt(1000), rel=0.1)
    assert verifiers._mean_se(np.array([1.0, math.inf]))[0] == math.inf


# -- the certificates' parameter weight ---------------------------------------------


def _weight_doc(preset: str, rule, weight) -> dict:
    """``preset`` on the coerced preset's verify grid, with the adaptation
    rule ``rule`` (None keeps the preset's) and ``lyapunov.weight``
    ``weight`` (None leaves it unset)."""
    doc = load_config(resolve_config_path(preset))
    doc["verify"] = load_config(resolve_config_path("coerced"))["verify"]
    if rule is not None:
        doc["adaptation"]["rule"] = rule
    doc["lyapunov"].pop("weight", None)
    if weight is not None:
        doc["lyapunov"]["weight"] = weight
    return doc


# lyapunov.weight picks the run's recurrence weight only: a certificate
# states its inequalities in its scenario's weight (coerced: exp_abs,
# fast_coerced: one_plus_square), whatever the document sets
@pytest.mark.parametrize(
    "preset, rule, weight, own",
    [
        ("coerced", None, "one_plus_square", "exp_abs"),
        ("fast-coerced", None, "exp_abs", "one_plus_square"),
        ("coerced", "fixed", None, "exp_abs"),  # the fixed rule's run weight is one_plus_square
    ],
    ids=["coerced-one_plus_square", "fast_coerced-exp_abs", "fixed-coerced"],
)
def test_certificates_use_their_scenarios_weight(preset, rule, weight, own):
    checks = [("w_drift", METHOD_QUADRATURE)]
    if rule != "fixed":
        checks.append(("compound_drift", METHOD_MONTE_CARLO))
    for check, method in checks:
        reports = []
        for w in (weight, own):
            doc = _weight_doc(preset, rule, w)
            doc["verify"].update(checks=[check], method=method)
            validate_document(doc)
            reports.append(run_check(check, doc).to_json_dict())
        assert reports[0] == reports[1], check


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
    assert report.notes["conditions"]["stabilized_small_sigma"]["pass"]
    assert report.notes["conditions"]["stabilized_large_sigma"]["pass"]
    # 1/sigma law at the mode: a tenfold radius cuts acceptance by 5x-20x
    for s in (1e2, 1e3):
        ratio = mean_acceptance(t, 10.0 * s, 0.0) / mean_acceptance(t, s, 0.0)
        assert 0.05 <= ratio <= 0.2


def _growing_level_report() -> verifiers.DriftReport:
    # from x = 20 a window of radius 20 covers half of {|y| <= 20} and one of
    # radius 40 all of it, so alpha * sigma doubles: no 1/sigma law yet
    return verify_acceptance_bounds(smoothed_subexp_target(0.5), sigma_grid=(0.5, 1.0, 20.0, 40.0), x_grid=(20.0,))


def test_acceptance_bounds_fail_when_the_large_radius_level_grows():
    t = smoothed_subexp_target(0.5)
    report = _growing_level_report()
    ratio = 2.0 * mean_acceptance(t, 40.0, 20.0) / mean_acceptance(t, 20.0, 20.0)
    assert ratio > 1.25
    assert report.notes["conditions"]["stabilized_large_sigma"]["pass"] is False
    assert report.notes["conditions"]["stabilized_small_sigma"]["pass"] is True
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
    assert report.notes["conditions"]["profile_max"]["value"] <= 1e-9
    assert report.notes["conditions"]["cross_accept_max"]["value"] <= 1e-9
    assert report.fitted["eps_t"] > 0.0
    assert report.fitted["r_t"] is not None and report.fitted["r_t"] <= 80.0
    assert all(r.passed for r in report.rows)


# at x = 20 the outward mass still beats the inward deficit at sigma = 20,
# so no level qualifies and eps_t is the worst rate on the grid
_NO_THRESHOLD_SIGMAS = (20.0, 100.0)


def _no_threshold_report() -> verifiers.DriftReport:
    t = smoothed_subexp_target(0.5)
    return verify_decomposition(t, StateLyapunov(t, 0.5), sigma_grid=_NO_THRESHOLD_SIGMAS, x_grid=(20.0,))


def test_decomposition_without_a_threshold_reports_the_worst_rate():
    t = smoothed_subexp_target(0.5)
    report = _no_threshold_report()
    rates = []
    for s in _NO_THRESHOLD_SIGMAS:
        terms = decomposition_terms(t, 0.5, s, 20.0)
        rates.append(-(terms["local"] + terms["outward"]) * s / 20.0)
    assert min(rates) <= 0.0
    assert report.fitted["r_t"] is None
    assert report.fitted["eps_t"] == min(rates)
    assert report.notes["binding_rows"] == {"eps_t": rates.index(min(rates)), "r_t": None}
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


# -- every written report, judged again from its JSON ---------------------------


def _json_float(v):
    """A report's number as a float, None for null: ``_jsonable`` writes the
    non-finite floats as the strings "inf", "-inf" and "nan"."""
    return None if v is None else float(v)


def judge(report: dict) -> bool:
    """The README's PASS rule, from a written report alone: there are rows,
    every row passes, every constant named in ``notes.binding_rows`` is null
    or finite and positive, and every condition holds.  Each binding row
    must name a row of the report, and each condition's pass must be
    value <= bound, or a null value."""
    rows, notes = report["rows"], report["notes"]
    assert all(i is None or 0 <= i < len(rows) for i in notes["binding_rows"].values())
    for name, c in notes["conditions"].items():
        value = _json_float(c["value"])
        assert c["pass"] == (value is None or value <= _json_float(c["bound"])), name
    constants = [_json_float(report["fitted_constants"][name]) for name in notes["binding_rows"]]
    return (bool(rows) and all(row["pass"] for row in rows)
            and all(k is None or (math.isfinite(k) and k > 0.0) for k in constants)
            and all(c["pass"] for c in notes["conditions"].values()))


def test_every_report_is_judged_again_from_its_json(tmp_path, capsys):
    # the reports verify writes for every preset that declares checks, then
    # the two negative controls above
    written = []
    for preset in ("toy", "coerced", "am-subexp-1d"):
        assert main(["verify", preset, "--out", str(tmp_path / preset)]) == 0
        written += sorted((tmp_path / preset).glob("report-*.json"))
    reports = [json.loads(path.read_text()) for path in written]
    reports += [json.loads(json.dumps(r.to_json_dict())) for r in (_growing_level_report(), _no_threshold_report())]
    assert [r["check"] for r in reports] == ["toy", "compound_drift", "acceptance_bounds", "decomposition",
                                             "fixed_theta_drift", "acceptance_bounds", "decomposition"]
    assert [judge(r) for r in reports] == [r["pass"] for r in reports] == [True] * 5 + [False] * 2
