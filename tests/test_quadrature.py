"""Adaptive Gauss-Kronrod quadrature, checked against scipy's QUADPACK."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import driftlab.kernels as kernels
import driftlab.verifiers as verifiers
from driftlab.cli import resolve_config_path, run_check
from driftlab.config import build_target, load_config
from driftlab.kernels import mean_acceptance
from driftlab.quadrature import (
    DEFAULT_ABS_TOL,
    MAX_SUBDIVISIONS,
    QuadratureError,
    _kronrod21,
    integrate_interval,
)


def scipy_quad_reference(
    f, a, b, *, tol=DEFAULT_ABS_TOL, points=None, limit=MAX_SUBDIVISIONS
):
    """The integrator as it was, on ``scipy.integrate.quad``: same signature,
    same stopping tolerances and the same acceptance rule at the limit."""
    if not (a < b):
        if a == b:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    brk = None
    if points is not None:
        brk = sorted(p for p in points if a < p < b) or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            f, a, b, epsabs=tol, epsrel=1e-11, limit=limit, points=brk
        )
    if err > max(tol, 1e-10 * abs(value)) * 50:
        raise QuadratureError(f"reference did not converge on [{a}, {b}]", partial=value)
    return value


def counted(f):
    """``f`` with a call counter in ``.calls``."""

    def g(z):
        g.calls += 1
        return f(z)

    g.calls = 0
    return g


def assert_matches_reference(f, a, b, points=None, tol=DEFAULT_ABS_TOL):
    got = integrate_interval(f, a, b, tol=tol, points=points)
    ref = scipy_quad_reference(f, a, b, tol=tol, points=points)
    assert abs(got - ref) <= tol, (got, ref)
    return got


# ---------------------------------------------------------------------------
# agreement with QUADPACK


@pytest.mark.parametrize(
    "f, a, b",
    [
        (math.exp, 0.0, 1.0),  # error at the 50-epsilon floor
        (math.sqrt, 0.0, 2.0),  # error from the (200 err / resasc)^1.5 scaling
        (lambda z: math.sin(20.0 * z), 0.0, 1.0),
        (lambda z: 1e6 * math.cos(z), -1.0, 3.0),
    ],
)
def test_one_rule_application_is_quadpack_dqk21(f, a, b):
    # a loose tolerance makes QUADPACK stop after one 21-point application,
    # so its estimate and error bound are dqk21's on [a, b]
    value, err, info = integrate.quad(f, a, b, epsabs=10.0, epsrel=0.0, full_output=1)
    assert info["neval"] == 21
    ours, ours_err = _kronrod21(f, a, b)
    assert ours == pytest.approx(value, rel=1e-14)
    assert ours_err == pytest.approx(err, rel=1e-9)


@pytest.mark.parametrize("degree", range(21))
def test_polynomials_up_to_degree_20(degree):
    rng = np.random.default_rng(degree)
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
    antiderivative = poly.integ()
    exact = float(antiderivative(1.5) - antiderivative(-1.25))
    got = assert_matches_reference(lambda z: float(poly(z)), -1.25, 1.5)
    assert got == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("sd", [1e-3, 1.0, 1e3])
def test_gaussian_density_on_a_40_sd_window(sd):
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def density(z):
        return norm * math.exp(-0.5 * (z / sd) ** 2)

    got = assert_matches_reference(density, -40.0 * sd, 40.0 * sd)
    assert got == pytest.approx(1.0, abs=DEFAULT_ABS_TOL)


@pytest.fixture(scope="module")
def subexp_target():
    return build_target(load_config(resolve_config_path("am-subexp-1d")))


@pytest.mark.parametrize("x", [0.0, 1.0, 20.0, 80.0])
@pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0, 100.0])
def test_subexp_acceptance_integrand_with_its_breakpoints(monkeypatch, subexp_target, x, sigma):
    calls = []

    def capture(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return integrate_interval(f, a, b, **kwargs)

    monkeypatch.setattr(kernels, "integrate_interval", capture)
    mean_acceptance(subexp_target, sigma, x)
    ((f, a, b, kwargs),) = calls
    assert kwargs["points"], "the subexp integrand has kinks"
    got = assert_matches_reference(f, a, b, points=kwargs["points"], tol=kwargs["tol"])
    assert 0.0 < got <= 1.0 + kwargs["tol"]


def test_kink_with_and_without_its_breakpoint():
    def kink(z):
        return abs(z - 0.3)

    assert assert_matches_reference(kink, 0.0, 1.0, points=[0.3]) == pytest.approx(0.29, abs=1e-15)
    assert assert_matches_reference(kink, 0.0, 1.0) == pytest.approx(0.29, abs=DEFAULT_ABS_TOL)
    # the breakpoint starts the partition, and the rule is exact on each linear piece
    f = counted(kink)
    integrate_interval(f, 0.0, 1.0, points=[0.3])
    assert f.calls == 2 * 21


def test_inverse_square_root_endpoint_singularity():
    got = assert_matches_reference(lambda z: 1.0 / math.sqrt(z), 0.0, 1.0)
    assert got == pytest.approx(2.0, abs=DEFAULT_ABS_TOL)


# ---------------------------------------------------------------------------
# edge cases and loud failures


def test_oscillating_singularity_raises_with_a_finite_partial():
    with pytest.raises(QuadratureError, match="did not converge") as exc:
        integrate_interval(lambda z: math.sin(1.0 / z) / z, 0.0, 1.0)
    assert math.isfinite(exc.value.partial)


def test_breakpoints_outside_the_interval_are_dropped():
    f, g = counted(math.exp), counted(math.exp)
    with_outside = integrate_interval(f, 0.0, 1.0, points=[-1.0, 0.0, 1.0, 2.5])
    plain = integrate_interval(g, 0.0, 1.0)
    assert with_outside == plain == pytest.approx(math.e - 1.0, abs=1e-15)
    assert f.calls == g.calls == 21


def test_empty_interval_is_zero_without_evaluating():
    f = counted(math.exp)
    assert integrate_interval(f, 2.0, 2.0) == 0.0
    assert f.calls == 0


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError, match="a <= b"):
        integrate_interval(math.exp, 1.0, 0.0)


def test_infinite_integrand_raises():
    f = counted(lambda z: math.inf if z > 0.5 else 1.0)
    with pytest.raises(QuadratureError, match="not finite") as exc:
        integrate_interval(f, 0.0, 1.0)
    assert exc.value.partial == math.inf
    assert f.calls == 21


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError, match="not finite") as exc:
        integrate_interval(lambda z: math.nan, 0.0, 1.0)
    assert math.isnan(exc.value.partial)


# ---------------------------------------------------------------------------
# report-level oracle: the am-subexp-1d certificates under both integrators

AM_SUBEXP_CHECKS = ("fixed_theta_drift", "acceptance_bounds", "decomposition")


def am_subexp_reports():
    doc = load_config(resolve_config_path("am-subexp-1d"))
    return {name: run_check(name, doc).to_json_dict() for name in AM_SUBEXP_CHECKS}


def assert_close_tree(got, ref, path="", abs_tol=1e-9):
    if isinstance(ref, dict):
        assert got.keys() == ref.keys(), path
        for key in ref:
            assert_close_tree(got[key], ref[key], f"{path}/{key}", abs_tol)
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (u, v) in enumerate(zip(got, ref)):
            assert_close_tree(u, v, f"{path}[{i}]", abs_tol)
    elif isinstance(ref, float):
        assert isinstance(got, float), path
        assert abs(got - ref) <= abs_tol, (path, got, ref)
    else:
        assert got == ref, path


def test_am_subexp_reports_match_the_scipy_reference(monkeypatch):
    ours = am_subexp_reports()
    for module in (kernels, verifiers):
        monkeypatch.setattr(module, "integrate_interval", scipy_quad_reference)
    reference = am_subexp_reports()
    for name in AM_SUBEXP_CHECKS:
        got, ref = ours[name], reference[name]
        assert got["pass"] is ref["pass"] is True, name
        assert [r["pass"] for r in got["rows"]] == [r["pass"] for r in ref["rows"]], name
        # constants picked from the grid or fitted from margins are equal;
        # those that are themselves integrals agree to rounding
        fitted, fitted_ref = got["fitted_constants"], ref["fitted_constants"]
        assert fitted.keys() == fitted_ref.keys()
        for key, value in fitted_ref.items():
            if isinstance(value, float):
                assert fitted[key] == pytest.approx(value, rel=1e-12, abs=0.0), (name, key)
            else:
                assert fitted[key] == value, (name, key)
        assert_close_tree(got, ref, name)
