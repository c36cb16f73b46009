"""Target families: normalization, ratios, matched points.

Closed-form expected values are computed independently in each test (or
frozen from a hand derivation stated inline) rather than read back from the
library.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (
    TailKind,
    exact_tail_subexp_target,
    gaussian_target,
    make_target,
    matched_density_point,
    smoothed_subexp_target,
    two_scale_gaussian_target,
)


def test_gaussian_sup_calibration_and_ratio():
    t = gaussian_target(dim=1)
    assert float(t.log_density(0.0)) == 0.0
    # standard normal: pi(1)/pi(0) = exp(-1/2)
    ratio = math.exp(float(t.log_density(1.0)) - float(t.log_density(0.0)))
    assert ratio == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert t.tail.kind is TailKind.GAUSSIAN


def test_gaussian_nd_log_density_matches_quadratic_form():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    t = gaussian_target(dim=2, mean=mean, cov=cov)
    x = np.array([0.5, 0.5])
    d = x - mean
    expected = -0.5 * d @ np.linalg.solve(cov, d)
    assert float(t.log_density(x)) == pytest.approx(expected, abs=1e-12)


def test_gaussian_cov_symmetry_check_is_absolute():
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_target(dim=2, cov=[[4e6, 1e6 + 1.0], [1e6, 4e6]])
    gaussian_target(dim=2, cov=[[4e6, 1e6], [1e6, 4e6]])


def test_smoothed_subexp_profile_and_ratio():
    t = smoothed_subexp_target(0.5)
    # l(x) = 1 - (1 + x^2)^(1/4); ratio pi(0)/pi(3) = exp(10^(1/4) - 1)
    assert float(t.log_density(0.0)) == 0.0
    ratio = math.exp(float(t.log_density(0.0)) - float(t.log_density(3.0)))
    assert ratio == pytest.approx(math.exp(10 ** 0.25 - 1.0), rel=1e-12)
    assert t.tail.kind is TailKind.SUBEXPONENTIAL
    assert t.tail.exponent == 0.5


def test_exact_tail_subexp_is_exact_power_of_abs():
    t = exact_tail_subexp_target(0.5)
    for x in (0.25, 1.0, 9.0):
        assert float(t.log_density(x)) == pytest.approx(-(x ** 0.5), rel=1e-14)
        assert float(t.log_density(-x)) == float(t.log_density(x))


def test_invalid_subexp_exponent_rejected():
    with pytest.raises(ValueError):
        smoothed_subexp_target(0.0)
    with pytest.raises(ValueError):
        smoothed_subexp_target(2.5)


def test_make_target_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="gaussian"):
        make_target("nope")


def test_matched_density_point_two_scale():
    # variance 4 on the left, 1 on the right: the matched point of x = 1
    # solves y^2/4 = 1, i.e. y = -2
    t = two_scale_gaussian_target(var_right=1.0, var_left=4.0)
    y = matched_density_point(t, 1.0)
    assert y == pytest.approx(-2.0, abs=1e-9)
    assert float(t.log_density(y)) == pytest.approx(float(t.log_density(1.0)), abs=1e-9)
    # symmetric target: the matched point is the mirror image
    g = gaussian_target(dim=1)
    assert matched_density_point(g, 2.5) == pytest.approx(-2.5, abs=1e-9)
    assert matched_density_point(g, 0.0) == 0.0


def test_level_point_far_from_the_mode_stops_at_adjacent_floats():
    # past |t| = 2**19 the spacing of floats exceeds the bisection tolerance,
    # so the bracket can stop shrinking before it is tol wide
    g = gaussian_target(dim=1, cov=[[1e10]])
    assert matched_density_point(g, 1e6) == pytest.approx(-1e6, rel=1e-12)
    assert g.bulk_edge(1.0) == pytest.approx(1e6, rel=1e-12)  # 50 nats = 10 sd


def test_gaussian_log_density_at_infinity_is_minus_inf():
    # inf - inf inside the quadratic form would give NaN
    t = gaussian_target(dim=2, mean=[1.0, -1.0], cov=[[1.0, 0.8], [0.8, 2.0]])
    for y in ([np.inf, np.inf], [-np.inf, np.inf], [np.inf, 0.0], [1e200, -1e200]):
        assert float(t.log_density(np.array(y))) == -math.inf
    assert math.isnan(float(t.log_density(np.array([np.nan, 0.0]))))
    batch = np.array([[np.inf, np.inf], [np.nan, 0.0], [1.0, -1.0], [1e200, -1e200]])
    lp = np.asarray(t.log_density(batch))
    assert lp[0] == -math.inf and math.isnan(lp[1]) and lp[2] == 0.0 and lp[3] == -math.inf


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_subexp_log_density_is_even_and_nonpositive(x):
    t = smoothed_subexp_target(0.5)
    lx = float(t.log_density(x))
    assert lx <= 0.0
    assert lx == pytest.approx(float(t.log_density(-x)), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.5, max_value=20.0),
    alpha=st.floats(min_value=0.2, max_value=0.9),
)
def test_matched_point_lands_on_the_level_set(x, alpha):
    t = smoothed_subexp_target(alpha)
    y = matched_density_point(t, x)
    assert y <= 0.0
    assert float(t.log_density(y)) == pytest.approx(float(t.log_density(x)), abs=1e-8)
