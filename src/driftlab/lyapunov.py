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
from operator import mul
from typing import NamedTuple, Optional

import numpy as np

from .kernels import EPS_RIDGE, EXP_CUTOFF, AMParam, exp_or_inf
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

# The am_poly weight's exponent eps when a document sets no
# ``lyapunov.w_eps``: the weight, and a scenario's inequalities in it.
AM_POLY_EPS = 0.5


def _theta_of(param) -> float:
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

    def __call__(self, x) -> float:
        return self.of_log_density(float(self.target.log_density(x)))

    def log(self, x, l):
        """log V(x) = -eta * l from the log-density ``l`` at ``x`` (``x`` is
        not read); floats or arrays.  The ``log_f(y, ly)`` form that
        :func:`~driftlab.verifiers.apply_kernel_to_function` integrates."""
        return -self.eta * l

    def of_log_density(self, l: float) -> float:
        """V at a point whose log-density ``l`` is already known."""
        return exp_or_inf(-self.eta * l)


class ParamLyapunov(NamedTuple):
    """Parameter-space weight w; always >= 1.

    Variants: ``am_poly`` is ``1 + |mu|**(2+eps) + |cov|_F`` over running
    moments; ``exp_abs`` is ``exp(|theta|)``; ``one_plus_square`` is
    ``1 + theta**2``.
    """

    variant: str
    eps: float = AM_POLY_EPS

    def __call__(self, param) -> float:
        if self.variant == W_AM_POLY:
            if not isinstance(param, AMParam):
                raise ValueError("am_poly weight requires an AMParam")
            return self.of_moments(param.mu, param.cov)
        theta = _theta_of(param)
        if self.variant == W_EXP_ABS:
            return exp_or_inf(abs(theta))
        return 1.0 + theta * theta

    def of_moments(self, mu: np.ndarray, cov: np.ndarray):
        """The am_poly weight of running moments given as arrays, which need
        not make a valid kernel parameter (a diverged run's halt row).

        A stack of moments, ``mu`` of shape (n, d) and ``cov`` (n, d, d),
        gives the array of n weights, inf past the float range, without a
        warning.  One pair gives a float, by ``of_floats``.
        """
        if np.ndim(mu) > 1:
            with np.errstate(over="ignore"):
                return 1.0 + np.linalg.norm(mu, axis=-1) ** (2.0 + self.eps) + np.linalg.norm(cov, axis=(-2, -1))
        return self.of_floats(np.ravel(mu).tolist(), np.ravel(cov).tolist())

    def of_floats(self, mu: list, cov: list) -> float:
        """The am_poly weight of one pair of running moments given as flat
        lists of floats (``cov`` row by row), over Python floats: each norm
        is the square root of ``sum`` of the squares, and a weight past the
        float range is inf, without a warning."""
        return 1.0 + pow_or_inf(math.sqrt(sum(map(mul, mu, mu))), 2.0 + self.eps) + math.sqrt(sum(map(mul, cov, cov)))

    def of_columns(self, cols: tuple, dim: int) -> list:
        """w of every row of parameter columns given as lists of floats (a
        block of an srwm chain): one theta column, or running moments as the
        ``dim`` mean columns and then the covariance columns row by row.
        Over Python floats, as ``__call__``; a 1x1 pair's norms are |mu| and
        |cov|, and a weight past the float range is inf."""
        if self.variant == W_AM_POLY and dim > 1:
            of_floats = self.of_floats
            return [of_floats(r[:dim], r[dim:]) for r in zip(*cols)]
        if self.variant == W_AM_POLY:
            expo = 2.0 + self.eps
            try:
                return [1.0 + abs(m) ** expo + abs(g) for m, g in zip(*cols)]
            except OverflowError:  # a block with an overflowing weight, taken again row by row
                return [1.0 + pow_or_inf(abs(m), expo) + abs(g) for m, g in zip(*cols)]
        if self.variant == W_EXP_ABS:
            exp, inf, cutoff = math.exp, math.inf, EXP_CUTOFF
            return [exp(t) if t < cutoff else inf for t in map(abs, cols[0])]
        return [1.0 + t * t for t in cols[0]]

    def of_thetas(self, theta) -> np.ndarray:
        """w of an array of scalar parameters, elementwise: inf from |theta|
        = EXP_CUTOFF on and past the float range, as ``__call__``, without a
        warning.  numpy's exp may differ from math.exp in the last digit."""
        theta = np.asarray(theta, dtype=float)
        if self.variant == W_EXP_ABS:
            a = np.abs(theta)
            return np.where(a < EXP_CUTOFF, np.exp(np.minimum(a, EXP_CUTOFF)), math.inf)
        if self.variant == W_AM_POLY:
            raise ValueError("am_poly weights take running moments")
        with np.errstate(over="ignore"):
            return 1.0 + theta * theta


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


class DriftCoefficients(NamedTuple):
    """Coefficient functions of one drift scenario, built by
    :func:`scenario_coefficients`.

    Free constants (``a0``, ``slope_c``, ``b_const``, ``sup_c_vbeta``) are
    fitted by the verifiers on a grid and then frozen with ``_replace``;
    everything else is structural.  ``iota`` is the state-drift exponent,
    ``beta`` the parameter-drift exponent.  ``alpha_star`` is the coerced
    acceptance level, the document's ``adaptation.alpha_star``.  The coerced
    scenarios reject None, so their margin min(alpha_star, 1/2 - alpha_star)
    rests on no number a document leaves unstated; the am scenarios take no
    margin from it.
    """

    scenario: str
    iota: float
    beta: float
    a0: float = 1.0
    slope_c: float = 1.0
    b_const: float = 1.0
    sup_c_vbeta: float = 1.0
    eps_ridge: float = EPS_RIDGE
    w_eps: float = AM_POLY_EPS
    alpha_star: Optional[float] = None
    gamma_max: float = 0.05
    dim: int = 1

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
        return max(exp_or_inf(theta), exp_or_inf(-2.0 * theta)) / self.a0

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
        if self.scenario == SCENARIO_COERCED:
            return self.sup_c_vbeta / self.weight()(param) + self.c(param)
        return 2.0 * self.sup_c_vbeta / self.e(param) + self.c(param)

    def e(self, param) -> float:
        """Normalizer of V**beta inside the slope argument."""
        if self.scenario == SCENARIO_FAST_COERCED:
            return ParamLyapunov(W_EXP_ABS)(param)
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
    rejected rather than silently clipped.  So are the record's own rules:
    fitted constants positive and, in a coerced scenario, an ``alpha_star``
    and a ``gamma_max`` in (0, min(alpha_star, 1/2 - alpha_star)).
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
    coef = DriftCoefficients(scenario, iota, beta, dim=dim, **kw)
    if coef.a0 <= 0 or coef.slope_c <= 0:
        raise ValueError("fitted constants must be positive")
    if scenario in (SCENARIO_COERCED, SCENARIO_FAST_COERCED):
        if coef.alpha_star is None:
            raise ValueError(f"the {scenario} scenario's margin min(alpha_star, 1/2 - alpha_star) needs alpha_star")
        if not (0.0 < coef.gamma_max < coef.accept_margin):
            raise ValueError("gamma_max must lie in (0, min(alpha_star, 1/2 - alpha_star))")
    return coef


class DetCheckResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def check_det_inequality(cov: np.ndarray) -> DetCheckResult:
    """sqrt(det(cov)) <= dim**(-dim/4) * |cov|_F**(dim/2) for PSD matrices,
    up to an absolute slack of 1e-12.

    Equality holds exactly at scalar multiples of the identity.  This is the
    paper's determinant bound for running-moment covariances (the AM-GM
    inequality on the eigenvalues), which acceptance criterion 9 tests; no
    command reaches it.
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
