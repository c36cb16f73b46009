"""Lyapunov functions, scenario coefficients, matrix inequality checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlab.kernels import AMParam
from driftlab.lyapunov import (
    CompoundSpec,
    ParamLyapunov,
    SCENARIO_AM_SUBEXP_1D,
    SCENARIO_AM_SUPEREXP,
    SCENARIO_COERCED,
    SCENARIO_FAST_COERCED,
    StateLyapunov,
    W_AM_POLY,
    W_EXP_ABS,
    W_ONE_PLUS_SQUARE,
    check_det_inequality,
    default_beta,
    scenario_coefficients,
)
from driftlab.simulator import _compound_cells
from driftlab.streams import substream
from driftlab.targets import gaussian_target, smoothed_subexp_target


def test_state_lyapunov_gaussian_values():
    t = gaussian_target(dim=1)
    v = StateLyapunov(t, 0.5)
    # l(2) = -2, so V(2) = exp(1)
    assert v(2.0) == pytest.approx(math.e, rel=1e-15)
    assert v(0.0) == 1.0
    # eta = 0 degenerates to the constant 1
    assert StateLyapunov(t, 0.0)(17.3) == 1.0


def test_state_lyapunov_at_least_one_for_calibrated_targets():
    t = smoothed_subexp_target(0.5)
    v = StateLyapunov(t, 0.7)
    xs = np.linspace(-50, 50, 101)
    assert all(v(x) >= 1.0 for x in xs.tolist())


def test_state_lyapunov_arrays_cap_without_warning():
    # V = pi**(-1/2) on the standard Gaussian overflows past |x| = 53; V
    # reads inf there and stays quiet, and its log takes arrays
    t = gaussian_target(dim=1)
    v = StateLyapunov(t, 0.5)
    xs = np.array([0.0, 2.0, 52.0, 53.0, 60.0, 1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = [v(x) for x in xs.tolist()]
    assert math.isinf(out[-1]) and math.isfinite(out[2])
    assert v.log(xs, t.log_density(xs)).tolist() == (-0.5 * t.log_density(xs)).tolist()


def test_param_weights_frozen_values():
    assert ParamLyapunov(W_EXP_ABS)(math.log(10.0)) == pytest.approx(10.0, rel=1e-15)
    assert ParamLyapunov(W_ONE_PLUS_SQUARE)(3.0) == 10.0
    w = ParamLyapunov(W_AM_POLY, eps=0.5)
    p = AMParam(mu=np.array([2.0]), cov=np.array([[3.0]]))
    # 1 + |mu|^2.5 + |cov|_F = 1 + 2^2.5 + 3
    assert w(p) == pytest.approx(1.0 + 2.0**2.5 + 3.0, rel=1e-15)
    assert math.isinf(ParamLyapunov(W_EXP_ABS)(701.0))
    with pytest.raises(ValueError):
        ParamLyapunov(W_AM_POLY)(0.0)
    # a stack of moments gives one weight per entry
    mus = np.array([[2.0, 0.0], [0.0, 1.0]])
    covs = np.array([np.eye(2), 2.0 * np.eye(2)])
    stacked = w.of_moments(mus, covs)
    assert stacked.tolist() == pytest.approx([w.of_moments(m, c) for m, c in zip(mus, covs)], rel=1e-15)


def test_am_poly_weight_past_the_float_range_is_inf_without_a_warning():
    # 3 ** 1001 overflows: one pair raised OverflowError, a stack warned
    w = ParamLyapunov(W_AM_POLY, eps=999.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert w.of_moments(np.array([3.0]), np.eye(1)) == math.inf
        assert w.of_moments(np.array([[3.0], [0.0]]), np.array([np.eye(1), np.eye(1)])).tolist() == [math.inf, 2.0]
        # squares past the float range: one pair's sums of float products
        # read inf where numpy's dot product warned
        assert ParamLyapunov(W_AM_POLY).of_moments(np.array([1e200, 0.0]), np.eye(2)) == math.inf
        assert ParamLyapunov(W_AM_POLY).of_moments(np.zeros(2), 1e200 * np.eye(2)) == math.inf
    assert w.of_moments(np.array([1.0]), np.eye(1)) == 3.0
    # one pair as arrays and as the flat float lists the simulator keeps
    w = ParamLyapunov(W_AM_POLY)
    mu, cov = [0.3, -1.2], [2.0, 0.4, 0.4, 0.7]
    assert w.of_moments(np.array(mu), np.array(cov).reshape(2, 2)) == w.of_floats(mu, cov)


_EDGE_THETAS = [0.0, 1.0, -1.0, 699.9, -699.9, 700.0, -700.0, 701.0, -701.0, 1e300, -1e300]


@pytest.mark.parametrize("variant", [W_EXP_ABS, W_ONE_PLUS_SQUARE])
def test_numpy_and_block_weight_forms_equal_the_float_form(variant):
    # exp_abs is inf from |theta| = 700 on in every form, one_plus_square
    # past the float range; none warns
    w = ParamLyapunov(variant)
    want = [w(theta) for theta in _EDGE_THETAS]
    assert want[5:7] == ([math.inf] * 2 if variant == W_EXP_ABS else [490001.0] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w.of_thetas(np.array(_EDGE_THETAS)).tolist() == want
        assert w.of_thetas(np.array(_EDGE_THETAS).reshape(1, -1)).tolist() == [want]
        assert w.of_columns((list(_EDGE_THETAS),), 1) == want


def test_block_form_of_running_moments():
    # 1x1 pairs: |mu| and |cov| as the norms, with the overflow of one row
    # taking the block again row by row; d > 1: of_floats row by row
    w = ParamLyapunov(W_AM_POLY, eps=0.5)
    assert w.of_columns(([2.0, -1.0], [3.0, 0.5]), 1) == [w.of_floats([2.0], [3.0]), w.of_floats([-1.0], [0.5])]
    assert w.of_columns(([1e200, 1.0], [1.0, 1.0]), 1) == [math.inf, 3.0]
    rows = [([0.3, -1.2], [2.0, 0.4, 0.4, 0.7]), ([0.0, 1.0], [1.0, 0.0, 0.0, 1.0])]
    cols = tuple(map(list, zip(*(mu + cov for mu, cov in rows))))
    assert w.of_columns(cols, 2) == [w.of_floats(mu, cov) for mu, cov in rows]
    with pytest.raises(ValueError):
        w.of_thetas(np.zeros(2))


def test_compound_value_modes():
    spec = CompoundSpec(upsilon_v=1.0, upsilon_w=1.0, mode="W")
    assert _compound_cells(spec, [8.0], [4.0], [0.5]) == [16.0]
    spec_u = CompoundSpec(upsilon_v=1.0, upsilon_w=1.0, mode="U")
    assert _compound_cells(spec_u, [8.0], [4.0], [0.5]) == [8.0]
    # a row whose V or w is past the float range is inf in both modes
    for s in (spec, spec_u):
        assert _compound_cells(s, [math.inf, 8.0], [4.0, math.inf], [0.5, 0.5]) == [math.inf, math.inf]


@settings(max_examples=60, deadline=None)
@given(
    v=st.floats(min_value=1.0, max_value=1e8),
    w=st.floats(min_value=1.0, max_value=1e8),
    g1=st.floats(min_value=1e-6, max_value=0.99),
    g2=st.floats(min_value=1e-6, max_value=0.99),
)
def test_compound_monotone_decreasing_in_gamma(v, w, g1, g2):
    spec = CompoundSpec(upsilon_v=1.0, upsilon_w=0.7, mode="W")
    lo, hi = sorted((g1, g2))
    assert _compound_cells(spec, [v], [w], [lo]) >= _compound_cells(spec, [v], [w], [hi])


def test_scenario_coefficient_values_coerced():
    coef = scenario_coefficients(
        SCENARIO_COERCED, iota=1.0, alpha_star=0.44, gamma_max=0.05, slope_c=1.0
    )
    # a(theta) = max(e^theta, e^{-2 theta}) / a0
    assert coef.a(-1.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    assert coef.a(1.0) == pytest.approx(math.e, rel=1e-15)
    # accept margin m = min(0.44, 0.06) = 0.06; delta(0) = m - gamma_max
    assert coef.accept_margin == pytest.approx(0.06, rel=1e-12)
    assert coef.delta0() == pytest.approx(0.01, rel=1e-10)
    assert coef.delta0() > 0.0
    # slope function is decreasing
    assert coef.delta(0.5) < coef.delta0()
    with pytest.raises(ValueError):
        coef.delta(-0.1)
    # c vanishes outside the small-parameter window
    assert coef.c(0.04) > 0.0
    assert coef.c(0.06) == 0.0
    assert coef.weight().variant == W_EXP_ABS


def test_scenario_coefficient_values_fast_coerced():
    coef = scenario_coefficients(
        SCENARIO_FAST_COERCED, iota=1.0, alpha_star=0.44, gamma_max=0.05, slope_c=1.0
    )
    # doubled slope function
    assert coef.delta0() == pytest.approx(0.02, rel=1e-10)
    assert coef.weight().variant == W_ONE_PLUS_SQUARE
    # normalizer stays exponential even though the weight is polynomial
    assert coef.e(2.0) == pytest.approx(math.exp(2.0), rel=1e-15)
    # beta must sit strictly below iota/2
    with pytest.raises(ValueError):
        scenario_coefficients(SCENARIO_FAST_COERCED, iota=1.0, beta=0.5)


def test_fast_coerced_offsets_closed_form():
    coef = scenario_coefficients(
        SCENARIO_FAST_COERCED, iota=1.0, alpha_star=0.44, gamma_max=0.05, slope_c=2.0, sup_c_vbeta=3.0
    )
    # c = m / slope_c on the window |theta| <= 1 (m = min(0.44, 0.06)), else 0
    for theta in (0.0, 0.5, -1.0, 1.0):
        assert coef.c(theta) == pytest.approx(0.03, rel=1e-12)
    for theta in (1.5, -3.0):
        assert coef.c(theta) == 0.0
    # d = 2 sup_C V**beta / e^|theta| + c, with e^|theta| = inf from |theta| = 700 on
    assert coef.d(0.5) == pytest.approx(6.0 * math.exp(-0.5) + 0.03, rel=1e-12)
    assert coef.d(-2.0) == pytest.approx(6.0 * math.exp(-2.0), rel=1e-12)
    assert coef.d(800.0) == 0.0


def test_scenario_coefficient_values_am():
    coef = scenario_coefficients(SCENARIO_AM_SUPEREXP, dim=1, iota=1.0, w_eps=0.5, a0=1.0)
    p = AMParam(mu=np.array([0.0]), cov=np.array([[1.0]]))
    w = coef.weight()(p)  # 1 + 0 + 1 = 2
    assert w == 2.0
    # a = (|eps I|_F^{1/2} + w^{1/2}) / a0 in dimension 1
    assert coef.a(p) == pytest.approx(math.sqrt(0.1) + math.sqrt(2.0), rel=1e-12)
    # c = w^{-eps/(2+eps)}
    assert coef.c(p) == pytest.approx(2.0 ** (-0.5 / 2.5), rel=1e-12)
    # d = c + b^beta / w
    assert coef.d(p) == pytest.approx(coef.c(p) + coef.b_const ** coef.beta / 2.0, rel=1e-12)
    # slope function decreasing from 1
    assert coef.delta0() == 1.0
    assert coef.delta(0.3) < 1.0


def test_scenario_beta_ceilings():
    assert default_beta(SCENARIO_AM_SUPEREXP, 1.0, dim=2) == pytest.approx(0.5)
    assert default_beta(SCENARIO_AM_SUBEXP_1D, 0.9) == pytest.approx(0.45)
    assert default_beta(SCENARIO_COERCED, 0.9) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        scenario_coefficients(SCENARIO_AM_SUBEXP_1D, iota=0.8, beta=0.5)


@pytest.mark.parametrize("scenario, kw, message", [
    (SCENARIO_AM_SUPEREXP, {"a0": 0.0}, "fitted constants must be positive"),
    (SCENARIO_AM_SUBEXP_1D, {"slope_c": -1.0}, "fitted constants must be positive"),
    (SCENARIO_COERCED, {}, "needs alpha_star"),
    (SCENARIO_FAST_COERCED, {"alpha_star": 0.44, "gamma_max": 0.06}, "gamma_max must lie in"),
    (SCENARIO_COERCED, {"alpha_star": 0.44, "gamma_max": 0.0}, "gamma_max must lie in"),
])
def test_the_builder_rejects_a_record_its_scenario_cannot_use(scenario, kw, message):
    with pytest.raises(ValueError, match=message):
        scenario_coefficients(scenario, **kw)


def test_det_inequality_frozen_case_and_identity_equality():
    r = check_det_inequality(np.diag([1.0, 4.0]))
    assert r.lhs == pytest.approx(2.0, rel=1e-14)
    assert r.rhs == pytest.approx(math.sqrt(17.0 / 2.0), rel=1e-14)
    assert r.holds
    # equality at scalar multiples of the identity, to machine precision
    for c, n in ((3.0, 4), (0.2, 2), (7.5, 5)):
        r = check_det_inequality(c * np.eye(n))
        assert abs(r.lhs - r.rhs) <= 1e-12 * max(1.0, r.rhs)
    with pytest.raises(ValueError):
        check_det_inequality(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        check_det_inequality(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_det_inequality_symmetry_check_is_absolute():
    with pytest.raises(ValueError, match="symmetric"):
        check_det_inequality(np.array([[4e6, 1e6 + 1.0], [1e6, 4e6]]))
    assert check_det_inequality(np.array([[4e6, 1e6], [1e6, 4e6]])).holds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    a=arrays(np.float64, (3, 3), elements=st.floats(min_value=-2.0, max_value=2.0)),
)
def test_det_inequality_holds_for_random_psd(a):
    cov = a @ a.T + 1e-9 * np.eye(3)
    r = check_det_inequality(cov)
    assert r.holds


# ---------------------------------------------------------------------------
# scalar inequalities the drift algebra leans on


def test_concavity_identity_below_linearization():
    rng = substream(515, 0)
    x = rng.uniform(-1.0, 1e3, size=20_000)
    u = rng.uniform(1e-9, 1.0, size=20_000)
    gap = 1.0 + u * x - (1.0 + x) ** u
    assert float(gap.min()) >= -1e-12


def test_weighted_arithmetic_geometric_means():
    rng = substream(515, 1)
    lam = rng.uniform(1e-9, 1.0, size=20_000)
    a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=20_000))
    b = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=20_000))
    gap = lam * a + (1.0 - lam) * b - a**lam * b ** (1.0 - lam)
    assert float(gap.min()) >= -1e-12


def test_coerced_weighted_rate_bounded_where_slope_engaged():
    # with beta at its ceiling iota/3, the combination a*w/e stays below
    # eps**-2/a0 on every (theta, x) where V**beta/e(theta) >= eps
    eps = 0.5
    coef = scenario_coefficients(SCENARIO_COERCED, iota=0.9, alpha_star=0.44, gamma_max=0.05)
    assert coef.beta == pytest.approx(coef.iota / 3.0)
    lyap = StateLyapunov(gaussian_target(1), 0.5)
    weight = ParamLyapunov(W_EXP_ABS)
    rng = substream(515, 2)
    checked = 0
    for theta, x in zip(rng.uniform(-6, 6, 400), rng.uniform(0, 30, 400)):
        param = float(theta)
        v = float(lyap(float(x)))
        if v**coef.beta / coef.e(param) < eps:
            continue
        # the slope function is linear: its power is 1
        q = coef.a(param) * weight(param) / coef.e(param) / v ** (coef.iota - coef.beta)
        assert q <= eps**-2 / coef.a0 * (1.0 + 1e-9)
        checked += 1
    assert checked > 50


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    v1=st.floats(min_value=1.0, max_value=1e6),
    v2=st.floats(min_value=1.0, max_value=1e6),
    w1=st.floats(min_value=1.0, max_value=1e6),
    w2=st.floats(min_value=1.0, max_value=1e6),
    g=st.floats(min_value=1e-6, max_value=0.99),
)
def test_compound_value_monotone_in_v_and_w(v1, v2, w1, w2, g):
    spec = CompoundSpec(upsilon_v=1.0, upsilon_w=1.0)
    lo_v, hi_v = sorted((v1, v2))
    lo_w, hi_w = sorted((w1, w2))
    assert _compound_cells(spec, [hi_v], [lo_w], [g]) >= _compound_cells(spec, [lo_v], [lo_w], [g])
    assert _compound_cells(spec, [lo_v], [hi_w], [g]) >= _compound_cells(spec, [lo_v], [lo_w], [g])
