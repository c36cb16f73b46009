"""Lyapunov functions and drift-inequality coefficient records.

Two layers of Lyapunov structure appear in the drift checks:

* a state function ``V(x) = density(x)**(-eta)``, bounded below by 1 thanks
  to the sup-calibrated targets;
* a parameter weight ``w`` over kernel parameters, with one variant per
  adaptation scheme (polynomial in the running moments, ``exp|theta|``, or
  ``1 + theta**2``).

A ``CompoundSpec`` holds the exponents and mode of the compound function
that combines the two with a stepsize, ``W = V**uv + w**uw / gamma`` or its
stepsize-scaled form ``U = gamma * W``; the simulator evaluates it on each
recorded row.  A ``DriftCoefficients``
record freezes one named scenario's coefficient functions (rate ``a``,
level-set bound ``b``, offsets ``c`` and ``d``, normalizer ``e``, slope
function ``delta``) so verifiers can evaluate both sides of each inequality.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .kernels import AMParam, ScalarParam
from .targets import TargetModel, is_symmetric

SCENARIO_AM_SUPEREXP = "am_superexp"
SCENARIO_AM_SUBEXP_1D = "am_subexp_1d"
SCENARIO_COERCED = "coerced"
SCENARIO_FAST_COERCED = "fast_coerced"
SCENARIOS = (
    SCENARIO_AM_SUPEREXP,
    SCENARIO_AM_SUBEXP_1D,
    SCENARIO_COERCED,
    SCENARIO_FAST_COERCED,
)

W_AM_POLY = "am_poly"
W_EXP_ABS = "exp_abs"
W_ONE_PLUS_SQUARE = "one_plus_square"
W_VARIANTS = (W_AM_POLY, W_EXP_ABS, W_ONE_PLUS_SQUARE)


def _theta_of(param) -> float:
    if isinstance(param, ScalarParam):
        return param.theta
    if isinstance(param, (int, float, np.floating)):
        return float(param)
    raise ValueError("expected a scalar kernel parameter")


class StateLyapunov(NamedTuple):
    """V(x) = density(x)**(-eta); always >= 1 for sup-calibrated targets.

    ``eta`` in [0, 1): zero gives the degenerate constant function used in
    sanity checks.
    """

    target: TargetModel
    eta: float

    def __call__(self, x):
        l = self.target.log_density(x)
        if np.ndim(l) == 0:
            return self.of_log_density(float(l))
        arg = self.log(x, np.asarray(l, dtype=float))
        return np.where(arg < 700.0, np.exp(np.minimum(arg, 700.0)), math.inf)

    def log(self, x, l):
        """log V(x) = -eta * l from the log-density ``l`` at ``x`` (``x`` is
        not read); floats or arrays.  The ``log_f(y, ly)`` form that
        :func:`~driftlab.kernels.apply_kernel_to_function` integrates."""
        return -self.eta * l

    def of_log_density(self, l: float) -> float:
        """V at a point whose log-density ``l`` is already known."""
        arg = -self.eta * l
        return math.exp(arg) if arg < 700.0 else math.inf


class ParamLyapunov(NamedTuple):
    """Parameter-space weight w; always >= 1.

    Variants: ``am_poly`` is ``1 + |mu|**(2+eps) + |cov|_F`` over running
    moments; ``exp_abs`` is ``exp(|theta|)``; ``one_plus_square`` is
    ``1 + theta**2``.
    """

    variant: str
    eps: float = 0.5

    def __call__(self, param) -> float:
        if self.variant == W_AM_POLY:
            if not isinstance(param, AMParam):
                raise ValueError("am_poly weight requires an AMParam")
            return self.of_moments(param.mu, param.cov)
        theta = _theta_of(param)
        if self.variant == W_EXP_ABS:
            a = abs(theta)
            return math.exp(a) if a < 700.0 else math.inf
        return 1.0 + theta * theta

    def of_moments(self, mu: np.ndarray, cov: np.ndarray):
        """The am_poly weight of running moments given as arrays, which need
        not make a valid kernel parameter (a diverged run's halt row).

        A stack of moments, ``mu`` of shape (n, d) and ``cov`` (n, d, d),
        gives the array of n weights; one pair gives a float.  A weight
        past the float range is inf, without a warning.
        """
        if np.ndim(mu) > 1:
            with np.errstate(over="ignore"):
                return 1.0 + np.linalg.norm(mu, axis=-1) ** (2.0 + self.eps) + np.linalg.norm(cov, axis=(-2, -1))
        return 1.0 + pow_or_inf(float(np.linalg.norm(mu)), 2.0 + self.eps) + float(np.linalg.norm(cov))


def pow_or_inf(base: float, expo: float) -> float:
    """``base ** expo`` for floats base >= 0 and expo > 0, inf on overflow."""
    try:
        return base**expo
    except OverflowError:
        return math.inf


class CompoundSpec(NamedTuple):
    """Exponents and mode for the compound parameter-state functions."""

    upsilon_v: float = 1.0
    upsilon_w: float = 1.0
    mode: str = "W"


class DriftCoefficients:
    """Coefficient functions of one drift scenario.

    Free constants (``a0``, ``slope_c``, ``b_const``, ``sup_c_vbeta``) are
    fitted by the verifiers on a grid and then frozen; everything else is
    structural.  ``iota`` is the state-drift exponent, ``beta`` the
    parameter-drift exponent.
    """

    __slots__ = ("scenario", "iota", "beta", "a0", "slope_c", "b_const", "sup_c_vbeta", "eps_ridge", "w_eps",
                 "alpha_star", "gamma_max", "dim")

    def __init__(
        self,
        scenario: str,
        iota: float,
        beta: float,
        a0: float = 1.0,
        slope_c: float = 1.0,
        b_const: float = 1.0,
        sup_c_vbeta: float = 1.0,
        eps_ridge: float = 0.1,
        w_eps: float = 0.5,
        alpha_star: float = 0.44,
        gamma_max: float = 0.05,
        dim: int = 1,
    ):
        self.scenario = scenario
        self.iota = iota
        self.beta = beta
        self.a0 = a0
        self.slope_c = slope_c
        self.b_const = b_const
        self.sup_c_vbeta = sup_c_vbeta
        self.eps_ridge = eps_ridge
        self.w_eps = w_eps
        self.alpha_star = alpha_star
        self.gamma_max = gamma_max
        self.dim = dim
        if a0 <= 0 or slope_c <= 0:
            raise ValueError("fitted constants must be positive")
        if scenario in (SCENARIO_COERCED, SCENARIO_FAST_COERCED) and not (0.0 < gamma_max < self.accept_margin):
            raise ValueError("gamma_max must lie in (0, min(alpha_star, 1/2 - alpha_star))")

    # -- scenario pieces ----------------------------------------------------

    @property
    def accept_margin(self) -> float:
        return min(self.alpha_star, 0.5 - self.alpha_star)

    def weight(self) -> ParamLyapunov:
        """The parameter weight this scenario's inequalities are stated in."""
        if self.scenario in (SCENARIO_AM_SUPEREXP, SCENARIO_AM_SUBEXP_1D):
            return ParamLyapunov(W_AM_POLY, eps=self.w_eps)
        if self.scenario == SCENARIO_COERCED:
            return ParamLyapunov(W_EXP_ABS)
        return ParamLyapunov(W_ONE_PLUS_SQUARE)

    def a(self, param) -> float:
        """State-drift rate divisor: drift deficit is at least V**iota / a."""
        if self.scenario == SCENARIO_AM_SUPEREXP:
            w = self.weight()(param)
            n = self.dim
            ridge_fro = self.eps_ridge * math.sqrt(n)
            return (ridge_fro ** (n / 2.0) + w ** (n / 2.0)) / self.a0
        if self.scenario == SCENARIO_AM_SUBEXP_1D:
            if not isinstance(param, AMParam):
                raise ValueError("am_subexp_1d scenario requires an AMParam")
            if param.mu.shape[0] != 1:
                raise ValueError("am_subexp_1d scenario is one-dimensional")
            sigma = math.sqrt(param.cov[0, 0] + self.eps_ridge)
            return max(sigma, sigma**-2.0) / self.a0
        theta = _theta_of(param)
        lo = math.exp(theta) if theta < 700.0 else math.inf
        hi = math.exp(-2.0 * theta) if theta > -350.0 else math.inf
        return max(lo, hi) / self.a0

    def b(self, param) -> float:
        return self.b_const

    def c(self, param) -> float:
        if self.scenario in (SCENARIO_AM_SUPEREXP, SCENARIO_AM_SUBEXP_1D):
            w = self.weight()(param)
            return w ** (-self.w_eps / (2.0 + self.w_eps))
        theta = _theta_of(param)
        if self.scenario == SCENARIO_COERCED:
            if abs(theta) <= self.gamma_max:
                return (2.0 + self.accept_margin) / self.slope_c
            return 0.0
        if abs(theta) <= 1.0:
            return self.accept_margin / self.slope_c
        return 0.0

    def d(self, param) -> float:
        if self.scenario in (SCENARIO_AM_SUPEREXP, SCENARIO_AM_SUBEXP_1D):
            w = self.weight()(param)
            return self.c(param) + self.b_const**self.beta / w
        theta = _theta_of(param)
        if self.scenario == SCENARIO_COERCED:
            w = self.weight()(param)
            return self.sup_c_vbeta / w + self.c(param)
        e_theta = math.exp(abs(theta)) if abs(theta) < 700.0 else math.inf
        return 2.0 * self.sup_c_vbeta / e_theta + self.c(param)

    def e(self, param) -> float:
        """Normalizer of V**beta inside the slope argument."""
        if self.scenario == SCENARIO_FAST_COERCED:
            theta = _theta_of(param)
            a = abs(theta)
            return math.exp(a) if a < 700.0 else math.inf
        return self.weight()(param)

    def delta(self, z: float) -> float:
        """Slope function of the parameter drift; decreasing, delta(0) > 0."""
        if z < 0:
            raise ValueError("slope argument must be non-negative")
        if self.scenario in (SCENARIO_AM_SUPEREXP, SCENARIO_AM_SUBEXP_1D):
            return 1.0 - self.slope_c * (z + z ** (1.0 / (2.0 + self.w_eps)))
        if self.scenario == SCENARIO_COERCED:
            return self.accept_margin - self.gamma_max - self.slope_c * z
        return 2.0 * (self.accept_margin - self.gamma_max - self.slope_c * z)

    def delta0(self) -> float:
        return self.delta(0.0)

    def with_constants(self, **kw) -> "DriftCoefficients":
        return DriftCoefficients(**{**{name: getattr(self, name) for name in self.__slots__}, **kw})


def default_beta(scenario: str, iota: float, dim: int = 1) -> float:
    """Largest admissible parameter-drift exponent for each scenario."""
    if scenario == SCENARIO_AM_SUPEREXP:
        return iota / (1.0 + dim / 2.0)
    if scenario == SCENARIO_AM_SUBEXP_1D:
        return iota / 2.0
    if scenario == SCENARIO_COERCED:
        return iota / 3.0
    if scenario == SCENARIO_FAST_COERCED:
        return 0.49 * iota
    raise ValueError(f"unknown scenario {scenario!r}")


def scenario_coefficients(
    scenario: str,
    dim: int = 1,
    iota: Optional[float] = None,
    beta: Optional[float] = None,
    **kw,
) -> DriftCoefficients:
    """Build a coefficient record with scenario-appropriate exponents.

    The exponent ceilings are enforced: ``beta`` above the scenario rule is
    rejected rather than silently clipped.
    """
    if iota is None:
        iota = 1.0 if scenario == SCENARIO_AM_SUPEREXP else 0.9
    if beta is None:
        beta = default_beta(scenario, iota, dim)
    cap = default_beta(scenario, iota, dim)
    if scenario == SCENARIO_FAST_COERCED:
        if not (beta < iota / 2.0):
            raise ValueError("fast_coerced requires beta < iota/2")
    elif beta > cap + 1e-12:
        raise ValueError(f"beta={beta} exceeds the scenario ceiling {cap}")
    return DriftCoefficients(scenario=scenario, iota=iota, beta=beta, dim=dim, **kw)


class DetCheckResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def check_det_inequality(cov: np.ndarray) -> DetCheckResult:
    """sqrt(det(cov)) <= dim**(-dim/4) * |cov|_F**(dim/2) for PSD matrices,
    up to an absolute slack of 1e-12.

    Equality holds exactly at scalar multiples of the identity.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    if not is_symmetric(cov):
        raise ValueError("cov must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.min() < -1e-10:
        raise ValueError("cov must be positive semidefinite")
    n = cov.shape[0]
    det = float(np.prod(np.clip(eigvals, 0.0, None)))
    lhs = math.sqrt(max(det, 0.0))
    fro = float(np.linalg.norm(cov))
    rhs = n ** (-n / 4.0) * fro ** (n / 2.0)
    return DetCheckResult(lhs=lhs, rhs=rhs, holds=lhs <= rhs + 1e-12)
