"""Update rules and stepsize schedules, the sign-change schedule included."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.adaptation import (
    AdaptationRule,
    ConstantSchedule,
    KestenSchedule,
    PolynomialSchedule,
    RULE_COERCED,
    RULE_FAST_COERCED,
    RULE_FIXED,
    am_update,
    gamma_at,
    scalar_update,
)


def test_polynomial_schedule_values():
    s = PolynomialSchedule(c0=1.0, c1=0.0, a=0.6)
    assert gamma_at(s, 100) == pytest.approx(0.06309573444801933, rel=1e-15)
    assert gamma_at(s, 1) == 1.0
    big = PolynomialSchedule(c0=100.0, c1=0.0, a=1.0)
    assert gamma_at(big, 1) == 100.0
    assert gamma_at(big, 4) == 25.0
    with pytest.raises(ValueError):
        gamma_at(s, 0)


def test_constant_schedule_values():
    s = ConstantSchedule(0.02)
    assert gamma_at(s, 1) == 0.02
    assert gamma_at(s, 10**6) == 0.02


def test_kesten_schedule_needs_count():
    s = KestenSchedule(c0=0.5, a=0.6)
    assert gamma_at(s, 7, kesten_count=0) == 0.5
    assert gamma_at(s, 7, kesten_count=3) == pytest.approx(0.5 / 4**0.6, rel=1e-15)
    with pytest.raises(ValueError):
        gamma_at(s, 7)


def test_am_update_frozen_values():
    mu2, cov2 = am_update(0.0, 1.0, 2.0, 0.1)
    assert mu2 == pytest.approx(np.array([0.2]), abs=0.0)
    assert cov2 == pytest.approx(np.array([[1.3]]), rel=1e-15)
    # gamma = 1 is the convex combination's endpoint: mu' = x, cov' = (x - mu)(x - mu)^T
    mu1, cov1 = am_update(0.0, 1.0, 2.0, 1.0)
    assert mu1.tolist() == [2.0] and cov1.tolist() == [[4.0]]
    with pytest.raises(ValueError):
        am_update(0.0, 1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        am_update(0.0, 1.0, 2.0, 0.0)


def test_am_update_preserves_psd():
    rng = np.random.default_rng(3)
    cov = np.eye(2)
    mu = np.zeros(2)
    for _ in range(200):
        x = rng.normal(size=2) * 3.0
        mu, cov = am_update(mu, cov, x, 0.05)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_coerced_updates_frozen_values():
    assert scalar_update(RULE_COERCED, 2.0, 1.0, 0.1, 0.44)[0] == pytest.approx(2.056, rel=1e-15)
    assert scalar_update(RULE_COERCED, -1.2, 0.24, 0.1, 0.44)[0] == pytest.approx(-1.22, rel=1e-14)
    assert scalar_update(RULE_FAST_COERCED, 2.0, 1.0, 0.1, 0.44)[0] == pytest.approx(2.168, rel=1e-15)
    assert scalar_update(RULE_FIXED, 2.0, 1.0, 0.1, 0.44) == (2.0, 0.0)
    with pytest.raises(ValueError):
        scalar_update("am", 0.0, 0.5, 0.1, 0.44)


@settings(max_examples=100, deadline=None)
@given(
    theta=st.floats(min_value=-50.0, max_value=50.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    gamma=st.floats(min_value=1e-6, max_value=0.9),
)
def test_coerced_step_size_envelopes(theta, alpha, gamma):
    # the step itself is bounded exactly (rounding is monotone); the only
    # extra error is the rounding of theta + step, one ulp of the result
    a_star = 0.44
    new1 = scalar_update(RULE_COERCED, theta, alpha, gamma, a_star)[0]
    assert abs(new1 - theta) <= gamma * max(a_star, 1.0 - a_star) + math.ulp(new1)
    new2 = scalar_update(RULE_FAST_COERCED, theta, alpha, gamma, a_star)[0]
    assert abs(new2 - theta) <= gamma * ((abs(theta) + 1.0) * max(a_star, 1.0 - a_star)) + math.ulp(new2)


@pytest.mark.parametrize("kind", [RULE_COERCED, RULE_FAST_COERCED, RULE_FIXED])
def test_scalar_update_arrays_match_scalars_bitwise(kind):
    # the certificates feed whole draw batches through the same map the
    # chain applies one float at a time
    rng = np.random.default_rng(21)
    thetas = np.concatenate([rng.uniform(-40.0, 40.0, 200), [0.0, -0.0, 1e-300, 700.5]])
    alphas = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0, 0.44, 1e-17]])
    a_star = 0.44
    for gamma in (0.05, 0.3172, 1e-9):
        t_arr, h_arr = scalar_update(kind, thetas, alphas, gamma, a_star)
        pairs = [scalar_update(kind, t, a, gamma, a_star) for t, a in zip(thetas.tolist(), alphas.tolist())]
        assert np.broadcast_to(t_arr, thetas.shape).tolist() == [t for t, _ in pairs]
        assert np.broadcast_to(h_arr, thetas.shape).tolist() == [h for _, h in pairs]
        # one parameter against a batch of acceptance probabilities
        t_batch, _ = scalar_update(kind, 2.5, alphas, gamma, a_star)
        singles = [scalar_update(kind, 2.5, a, gamma, a_star)[0] for a in alphas.tolist()]
        assert np.broadcast_to(t_batch, alphas.shape).tolist() == singles
    with pytest.raises(ValueError):
        scalar_update("am", 0.0, 0.5, 0.1, a_star)


def test_rule_validation():
    with pytest.raises(ValueError):
        AdaptationRule(kind=RULE_COERCED)  # missing alpha_star
    with pytest.raises(ValueError):
        AdaptationRule(kind=RULE_COERCED, alpha_star=0.5)
    AdaptationRule(kind=RULE_FIXED)  # no extra arguments needed
