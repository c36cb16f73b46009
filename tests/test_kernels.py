"""Proposal kernels: increments, acceptance, quadrature/MC kernel averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from driftlab.kernels import (
    AMParam,
    FAMILY_GAUSSIAN,
    FAMILY_STUDENT,
    FAMILY_UNIFORM,
    PARAM_AM_COVARIANCE,
    PARAM_SCALAR_LOG_SCALE,
    ProposalSpec,
    RW_SCALE,
    ScalarParam,
    acceptance,
    apply_kernel_to_function,
    draw_increments,
    mean_acceptance,
    proposal_covariance,
    srwm_step,
    toy_second_eigenvalue,
    toy_transition_matrix,
)
from driftlab.lyapunov import StateLyapunov
from driftlab.streams import substream
from driftlab.targets import exact_tail_subexp_target, gaussian_target, smoothed_subexp_target
from driftlab.verifiers import _mean_se, _one_step_pairs

UNIFORM_1D = ProposalSpec(family=FAMILY_UNIFORM, parametrization=PARAM_SCALAR_LOG_SCALE)
GAUSS_1D = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_SCALAR_LOG_SCALE)


def test_proposal_covariance_scaling_and_ridge():
    spec = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE, eps_ridge=0.1)
    param = AMParam(mu=np.zeros(1), cov=np.eye(1))
    got = proposal_covariance(spec, param)
    assert got[0, 0] == pytest.approx(RW_SCALE**2 * 1.1, rel=1e-15)
    # dim 2 divides by the dimension
    param2 = AMParam(mu=np.zeros(2), cov=np.eye(2))
    got2 = proposal_covariance(spec, param2)
    assert got2[0, 0] == pytest.approx(RW_SCALE**2 / 2 * 1.1, rel=1e-15)
    assert got2[0, 1] == 0.0


# asymmetric by 1 absolutely but by 1e-6 relatively, which a check with the
# default relative tolerance of np.allclose would pass
SKEWED_BY_ONE = np.array([[4e6, 1e6 + 1.0], [1e6, 4e6]])


def test_am_param_symmetry_check_is_absolute():
    with pytest.raises(ValueError, match="symmetric"):
        AMParam(mu=np.zeros(2), cov=SKEWED_BY_ONE)
    AMParam(mu=np.zeros(2), cov=np.array([[1.0, 1e-13], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        AMParam(mu=np.zeros(2), cov=np.array([[1.0, 1e-11], [0.0, 1.0]]))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            AMParam(mu=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            AMParam(mu=np.array([0.0, bad]), cov=np.eye(2))


def test_scalar_param_sigma_is_exp_theta():
    assert ScalarParam(theta=0.0).sigma == 1.0
    assert ScalarParam(theta=2.0).sigma == pytest.approx(math.exp(2.0), rel=1e-15)
    assert math.isinf(ScalarParam(theta=800.0).sigma)


def test_uniform_increments_stay_in_box():
    rng = substream(5, 0)
    z = draw_increments(UNIFORM_1D, ScalarParam(theta=math.log(3.0)), 1, rng, size=4000)
    assert np.max(np.abs(z)) <= 3.0
    # a single draw is a plain float
    one = draw_increments(UNIFORM_1D, ScalarParam(theta=0.0), 1, rng)
    assert isinstance(one, float)


def test_parametrization_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        draw_increments(UNIFORM_1D, AMParam(mu=np.zeros(1), cov=np.eye(1)), 1, substream(1, 0))
    spec = ProposalSpec(family=FAMILY_GAUSSIAN, parametrization=PARAM_AM_COVARIANCE)
    with pytest.raises(ValueError, match="mismatch"):
        proposal_covariance(spec, ScalarParam(theta=0.0))  # type: ignore[arg-type]


def test_student_increments_match_requested_scale_family():
    spec = ProposalSpec(
        family=FAMILY_STUDENT, parametrization=PARAM_AM_COVARIANCE, student_dof=4.0
    )
    rng = substream(6, 0)
    z = draw_increments(spec, AMParam(mu=np.zeros(2), cov=np.eye(2)), 2, rng, size=2000)
    assert z.shape == (2000, 2)
    assert np.all(np.isfinite(z))


def test_acceptance_matches_ratio():
    t = gaussian_target(dim=1)
    assert acceptance(t.log_density(0.0), t.log_density(1.0)) == 1.0  # uphill move
    assert acceptance(t.log_density(1.0), t.log_density(0.0)) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_mean_acceptance_frozen_values():
    # Laplace-like tail (p = 1 is outside the subexp range, so build the
    # profile by hand): exact subexp with p = 1/2 at the mode with sigma 1
    # integrates to 2 - 4/e; derivation: int_0^1 exp(-sqrt(z)) dz by parts.
    t_half = exact_tail_subexp_target(0.5)
    assert mean_acceptance(t_half, 1.0, 0.0) == pytest.approx(2.0 - 4.0 / math.e, abs=1e-9)
    # standard gaussian at the mode: alpha(1) = int_0^1 exp(-z^2/2) dz
    t_g = gaussian_target(dim=1)
    ref, _ = integrate.quad(lambda z: math.exp(-0.5 * z * z), 0.0, 1.0)
    assert mean_acceptance(t_g, 1.0, 0.0) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("theta", [5.0, 8.0, 12.0])
def test_wide_window_on_the_gaussian_matches_closed_forms(theta):
    # radius e**theta around the standard Gaussian's mode: the whole bulk
    # lies between the window's breakpoint at 0 and QAG-21's outermost node
    # unless the bulk edges (log pi 50 nats down, |y| = 10) split the window
    t = gaussian_target(dim=1)
    sigma = math.exp(theta)
    mass = math.sqrt(2.0 * math.pi) / (2.0 * sigma) * math.erf(sigma / math.sqrt(2.0))
    assert mean_acceptance(t, sigma, 0.0) == pytest.approx(mass, rel=1e-9)
    # V = pi**(-1/2): alpha * V(y) = exp(-y**2 / 4) from x = 0
    moved = math.sqrt(math.pi) / sigma * math.erf(sigma / 2.0)
    lyap = StateLyapunov(t, 0.5)
    pv = apply_kernel_to_function(t, UNIFORM_1D, ScalarParam(theta=theta), lyap.log, 0.0)
    assert pv == pytest.approx(moved + 1.0 - mass, abs=1e-9)


def test_wide_target_breakpoints_far_from_the_mode():
    # sd 1e5: the bulk edges (10 sd) lie past 2**19 from the mode, where the
    # bisection's bracket meets adjacent floats before the absolute tolerance
    s = 1e5
    t = gaussian_target(dim=1, cov=[[s * s]])
    theta = 14.0
    sigma = math.exp(theta)
    mass = math.sqrt(2.0 * math.pi) * s / (2.0 * sigma) * math.erf(sigma / (math.sqrt(2.0) * s))
    assert mean_acceptance(t, sigma, 0.0) == pytest.approx(mass, rel=1e-9)
    moved = math.sqrt(math.pi) * s / sigma * math.erf(sigma / (2.0 * s))
    lyap = StateLyapunov(t, 0.5)
    pv = apply_kernel_to_function(t, UNIFORM_1D, ScalarParam(theta=theta), lyap.log, 0.0)
    assert pv == pytest.approx(moved + 1.0 - mass, abs=1e-9)
    # a slowly decaying tail: 50 nats down lies near |y| = 50**4
    heavy = smoothed_subexp_target(0.25)
    assert 0.0 < mean_acceptance(heavy, 1e7, 3.0) < 1.0


def test_mean_acceptance_laplace_profile_value():
    # a target with exact exp(-|x|) profile: alpha at the mode with sigma 1
    # is 1 - 1/e; built from the smoothed family is not exact, so check the
    # exact-tail family at a point deep in the tail where l(y) - l(x) is
    # exactly -(sqrt(y) - sqrt(x)) and compare against direct quadrature
    t = exact_tail_subexp_target(0.5)
    x, sigma = 25.0, 2.0
    lx = float(t.log_density(x))

    def integrand(z):
        d = float(t.log_density(x + z)) - lx
        return min(1.0, math.exp(d)) / (2.0 * sigma)

    ref, _ = integrate.quad(integrand, -sigma, sigma, points=[0.0])
    assert mean_acceptance(t, sigma, x) == pytest.approx(ref, abs=1e-9)


def test_apply_kernel_uniform_matches_direct_integral():
    t = smoothed_subexp_target(0.5)
    lyap = StateLyapunov(t, 0.5)
    x, sigma = 7.0, 1.5
    got = apply_kernel_to_function(t, UNIFORM_1D, ScalarParam(theta=math.log(sigma)), lyap.log, x)
    lx = float(t.log_density(x))

    def integrand(z):
        y = x + z
        a = min(1.0, math.exp(float(t.log_density(y)) - lx))
        return (a * float(lyap(y)) + (1.0 - a) * float(lyap(x))) / (2.0 * sigma)

    ref, _ = integrate.quad(integrand, -sigma, sigma, points=[0.0])
    assert got == pytest.approx(ref, abs=1e-8)


def test_apply_kernel_gaussian_matches_direct_integral():
    t = gaussian_target(dim=1)
    lyap = StateLyapunov(t, 0.5)
    x, sigma = 2.0, 0.7
    got = apply_kernel_to_function(t, GAUSS_1D, ScalarParam(theta=math.log(sigma)), lyap.log, x)
    lx = float(t.log_density(x))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def integrand(z):
        y = x + z
        a = min(1.0, math.exp(float(t.log_density(y)) - lx))
        val = a * float(lyap(y)) + (1.0 - a) * float(lyap(x))
        return val * norm * math.exp(-0.5 * (z / sigma) ** 2)

    # kinks where the move crosses the mode's density level: z = 0 and the
    # mirror point z = -2x for the symmetric target
    ref, _ = integrate.quad(
        integrand, -60.0 * sigma, 60.0 * sigma, points=[-2.0 * x, 0.0], limit=200
    )
    assert got == pytest.approx(ref, rel=1e-7)


def test_apply_kernel_student_requires_monte_carlo():
    t = gaussian_target(dim=1)
    lyap = StateLyapunov(t, 0.5)
    spec = ProposalSpec(family=FAMILY_STUDENT, parametrization=PARAM_SCALAR_LOG_SCALE)
    with pytest.raises(ValueError, match="monte_carlo"):
        apply_kernel_to_function(t, spec, ScalarParam(theta=0.0), lyap.log, 1.0)
    v_pairs, _ = _one_step_pairs(t, spec, lyap, ScalarParam(theta=0.0), 1.0, 20_000, substream(9, 0))
    got, se = _mean_se(v_pairs)
    assert se > 0.0
    assert math.isfinite(got)


def _gaussian_points(n=20):
    """(theta, x) points on the standard Gaussian target: theta ~ U(-1, 1)
    and x ~ U(-10, 10), drawn in turn from substream(77, 0); point j checks
    its Monte Carlo estimate on substream(77, j + 1)."""
    rng = substream(77, 0)
    return [(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-10.0, 10.0))) for _ in range(n)]


@pytest.mark.parametrize(
    "target, theta, x, n, stream",
    [pytest.param("subexp", 0.3, 4.0, 200_000, (3, 1), id="subexp")]
    + [
        pytest.param("gaussian", theta, x, 100_000, (77, j + 1), id=f"gaussian-{j}")
        for j, (theta, x) in enumerate(_gaussian_points())
    ],
)
def test_apply_kernel_mc_agrees_with_quadrature(target, theta, x, n, stream):
    t = smoothed_subexp_target(0.5) if target == "subexp" else gaussian_target(dim=1)
    lyap = StateLyapunov(t, 0.5)
    param = ScalarParam(theta=theta)
    quad = apply_kernel_to_function(t, UNIFORM_1D, param, lyap.log, x)
    mc, se = _mean_se(_one_step_pairs(t, UNIFORM_1D, lyap, param, x, n, substream(*stream))[0])
    assert abs(mc - quad) <= 4.0 * se


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    theta=st.floats(min_value=-1.5, max_value=1.5),
    x=st.floats(min_value=-8.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_step_acceptance_frequency_tracks_mean_acceptance(theta, x, seed):
    t = smoothed_subexp_target(0.5)
    param = ScalarParam(theta=theta)
    rng = substream(seed, 0)
    n = 4000
    hits = sum(srwm_step(t, UNIFORM_1D, param, x, rng).accepted for _ in range(n))
    a_bar = mean_acceptance(t, param.sigma, x)
    se = math.sqrt(max(a_bar * (1.0 - a_bar), 1e-12) / n)
    assert abs(hits / n - a_bar) <= 5.0 * se + 1e-3


def test_srwm_step_rejection_keeps_state():
    t = gaussian_target(dim=1)
    rng = substream(12, 0)
    for _ in range(200):
        r = srwm_step(t, UNIFORM_1D, ScalarParam(theta=1.0), 0.5, rng)
        if not r.accepted:
            assert r.state == 0.5
        else:
            assert r.state == r.proposed
        assert 0.0 <= r.alpha <= 1.0


@pytest.mark.parametrize(
    "target, spec, param, x0",
    [
        (gaussian_target(dim=1), UNIFORM_1D, ScalarParam(theta=1.0), 0.5),
        (smoothed_subexp_target(0.5), GAUSS_1D, ScalarParam(theta=0.3), 2.0),
        (
            gaussian_target(dim=2, mean=[1.0, -1.0], cov=[[1.0, 0.8], [0.8, 2.0]]),
            ProposalSpec(family=FAMILY_STUDENT, parametrization=PARAM_AM_COVARIANCE),
            AMParam(mu=np.zeros(2), cov=np.array([[1.0, 0.3], [0.3, 0.5]])),
            np.array([2.0, 2.0]),
        ),
        (gaussian_target(dim=3), GAUSS_1D, ScalarParam(theta=-0.2), np.array([1.0, 0.0, -1.0])),
    ],
)
def test_srwm_step_with_known_log_density_is_the_same_step(target, spec, param, x0):
    with_lx, without = substream(21, 0), substream(21, 0)
    x = x0
    lx = float(target.log_density(x))
    moves = 0
    for _ in range(300):
        a = srwm_step(target, spec, param, x, without)
        b = srwm_step(target, spec, param, x, with_lx, lx)
        assert np.array_equal(a.state, b.state) and np.array_equal(a.proposed, b.proposed)
        assert (a.accepted, a.alpha, a.log_density) == (b.accepted, b.alpha, b.log_density)
        assert b.log_density == float(target.log_density(b.state))
        moves += b.accepted
        x, lx = b.state, b.log_density
    assert 0 < moves < 300
    # both consumed the same draws
    assert without.random() == with_lx.random()


def test_toy_transition_matrix_structure():
    theta = -3.0
    p = toy_transition_matrix(theta)
    e = math.exp(-abs(theta))
    assert p == pytest.approx(np.array([[1 - e, e], [e, 1 - e]]), abs=0.0)
    assert np.all(p.sum(axis=1) == 1.0)
    assert toy_second_eigenvalue(theta) == pytest.approx(0.9004258632642721, abs=1e-15)
    assert toy_second_eigenvalue(0.0) == -1.0
    assert toy_second_eigenvalue(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
