"""Target densities with explicit tail control.

A target is carried around as an unnormalized log-density calibrated so the
supremum is 0 (density 1 at the mode).  That calibration makes the state
Lyapunov function ``density**(-eta)`` bounded below by 1 with constant 1,
so no normalizing constants appear anywhere downstream.

Built-in families:

* ``gaussian`` -- any dimension, known mean/covariance.
* ``subexp`` -- smoothed one-dimensional family ``l(x) = 1 - (1+x^2)^(a/2)``,
  twice continuously differentiable, tail-equivalent to ``-|x|^a``.
* ``subexp_exact`` -- exact power tails ``l(x) = -|x|^a`` (closed forms for
  test oracles; not differentiable at the mode).
* ``two_scale_gaussian`` -- Gaussian with different variances on each side of
  the mode; useful for exercising the matched-density reflection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import QuadratureError, integrate_interval

INTEGRAND_FLOOR = 1e-14
BISECTION_TOL = 1e-10
# Absolute tolerance of every covariance symmetry check.
SYMMETRY_TOL = 1e-12


def is_symmetric(mat: np.ndarray) -> bool:
    """max |mat - mat.T| <= SYMMETRY_TOL, with no slack relative to the size
    of the entries; false when any entry is not finite."""
    return bool(np.abs(mat - mat.T).max() <= SYMMETRY_TOL)


class TailKind(Enum):
    SUPEREXPONENTIAL = "superexponential"
    SUBEXPONENTIAL = "subexponential"
    GAUSSIAN = "gaussian"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TailClass:
    """Tail behavior tag.

    ``exponent`` holds the polynomial decay rate of the log-density: the
    power ``p`` in (0, 1) for subexponential tails, or the growth order for
    superexponential ones.
    """

    kind: TailKind
    exponent: Optional[float] = None

    def __post_init__(self):
        if self.kind is TailKind.SUBEXPONENTIAL:
            if self.exponent is None or not (0.0 < self.exponent < 1.0):
                raise ValueError(
                    "subexponential tail requires exponent p in (0, 1)"
                )
        if self.exponent is not None and self.exponent <= 0:
            raise ValueError("tail exponent must be positive")


@dataclass(frozen=True)
class TargetModel:
    """Unnormalized target with sup log-density = 0.

    ``log_density`` and ``grad_log_density`` accept floats (dim 1) or arrays;
    batch evaluation follows numpy broadcasting.  ``hess_log_density`` is
    optional and one-dimensional only.
    """

    name: str
    dim: int
    log_density: Callable
    grad_log_density: Callable
    tail: TailClass
    hess_log_density: Optional[Callable] = None
    known_mean: Optional[np.ndarray] = None
    known_cov: Optional[np.ndarray] = None
    unimodal_1d: bool = False
    mode: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.unimodal_1d and self.dim != 1:
            raise ValueError("unimodal_1d flag requires dim == 1")


class TailIntegrals(NamedTuple):
    """Outward/inward tail functionals of a one-dimensional target.

    ``outward``: integral over z >= 0 of (pi(x + sgn(x) z) / pi(x))**gamma.
    ``inward``: integral over 0 <= z <= |x| of (pi(x) / pi(x - sgn(x) z))**gamma.
    """

    outward: float
    inward: float


# ---------------------------------------------------------------------------
# built-in families


def gaussian_target(dim: int = 1, mean=None, cov=None) -> TargetModel:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if mean is None:
        mean = np.zeros(dim)
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if mean.shape != (dim,):
        raise ValueError("mean has wrong shape")
    if cov is None:
        cov = np.eye(dim)
    cov = np.asarray(cov, dtype=float)
    if cov.shape == () and dim == 1:
        cov = cov.reshape(1, 1)
    if cov.shape != (dim, dim):
        raise ValueError("cov has wrong shape")
    if not is_symmetric(cov):
        raise ValueError("cov must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals.min() <= 0:
        raise ValueError("cov must be positive definite")

    if dim == 1:
        m = float(mean[0])
        half_prec = 0.5 / float(cov[0, 0])
        prec = 1.0 / float(cov[0, 0])

        def logp(x):
            d = x - m
            return -(d * d) * half_prec

        def grad(x):
            return -(x - m) * prec

        def hess(x):
            return -prec * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else -prec

        return TargetModel(
            name="gaussian",
            dim=1,
            log_density=logp,
            grad_log_density=grad,
            hess_log_density=hess,
            tail=TailClass(TailKind.GAUSSIAN, 2.0),
            known_mean=mean,
            known_cov=cov,
            unimodal_1d=True,
            mode=m,
        )

    prec_mat = np.linalg.inv(cov)

    def logp_nd(x):
        d = np.asarray(x, dtype=float) - mean
        if d.ndim == 1:
            return -0.5 * float(d @ prec_mat @ d)
        return -0.5 * np.einsum("...i,ij,...j->...", d, prec_mat, d)

    def grad_nd(x):
        d = np.asarray(x, dtype=float) - mean
        return -d @ prec_mat

    return TargetModel(
        name="gaussian",
        dim=dim,
        log_density=logp_nd,
        grad_log_density=grad_nd,
        tail=TailClass(TailKind.GAUSSIAN, 2.0),
        known_mean=mean,
        known_cov=cov,
        mode=mean.copy(),
    )


def _subexp_tail(alpha: float) -> TailClass:
    if alpha < 1.0:
        return TailClass(TailKind.SUBEXPONENTIAL, alpha)
    if alpha > 1.0:
        return TailClass(TailKind.SUPEREXPONENTIAL, alpha)
    return TailClass(TailKind.CUSTOM, 1.0)


def smoothed_subexp_target(alpha: float) -> TargetModel:
    """Smooth unimodal target with log-density ``1 - (1 + x^2)^(alpha/2)``."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    half = 0.5 * alpha

    def logp(x):
        return 1.0 - (1.0 + x * x) ** half

    def grad(x):
        return -alpha * x * (1.0 + x * x) ** (half - 1.0)

    def hess(x):
        return -alpha * (1.0 + x * x) ** (half - 2.0) * (1.0 + (alpha - 1.0) * x * x)

    return TargetModel(
        name="subexp",
        dim=1,
        log_density=logp,
        grad_log_density=grad,
        hess_log_density=hess,
        tail=_subexp_tail(alpha),
        unimodal_1d=True,
        mode=0.0,
    )


def exact_tail_subexp_target(alpha: float) -> TargetModel:
    """Target with exact power-law log-density ``-|x|^alpha``.

    The gradient is undefined at 0; the implementation returns 0 there.
    Closed forms for acceptance and tail integrals make this family the
    reference for oracle tests.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")

    def logp(x):
        return -abs(x) ** alpha

    def grad(x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = -alpha * np.sign(xa) * np.abs(xa) ** (alpha - 1.0)
        g = np.where(xa == 0.0, 0.0, g)
        return float(g) if np.ndim(x) == 0 else g

    return TargetModel(
        name="subexp_exact",
        dim=1,
        log_density=logp,
        grad_log_density=grad,
        tail=_subexp_tail(alpha),
        unimodal_1d=True,
        mode=0.0,
    )


def two_scale_gaussian_target(var_right: float = 1.0, var_left: float = 4.0) -> TargetModel:
    """Gaussian profile with different variances on either side of 0."""
    if var_right <= 0 or var_left <= 0:
        raise ValueError("variances must be positive")
    hr = 0.5 / var_right
    hl = 0.5 / var_left

    def logp(x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, -(xa * xa) * hr, -(xa * xa) * hl)
        return float(out) if np.ndim(x) == 0 else out

    def grad(x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, -2.0 * hr * xa, -2.0 * hl * xa)
        return float(out) if np.ndim(x) == 0 else out

    def hess(x):
        xa = np.asarray(x, dtype=float)
        out = np.where(xa >= 0.0, -2.0 * hr, -2.0 * hl) * np.ones_like(xa)
        return float(out) if np.ndim(x) == 0 else out

    return TargetModel(
        name="two_scale_gaussian",
        dim=1,
        log_density=logp,
        grad_log_density=grad,
        hess_log_density=hess,
        tail=TailClass(TailKind.GAUSSIAN, 2.0),
        unimodal_1d=True,
        mode=0.0,
    )


BUILTIN_TARGETS = {
    "gaussian": gaussian_target,
    "subexp": smoothed_subexp_target,
    "subexp_exact": exact_tail_subexp_target,
    "two_scale_gaussian": two_scale_gaussian_target,
}


def make_target(name: str, **params) -> TargetModel:
    try:
        factory = BUILTIN_TARGETS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TARGETS))
        raise ValueError(f"unknown target {name!r}; available: {known}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# operations


def density_ratio(target: TargetModel, y, x) -> float:
    """pi(y) / pi(x).  May overflow to inf for extreme separations."""
    ly = float(np.asarray(target.log_density(y), dtype=float))
    lx = float(np.asarray(target.log_density(x), dtype=float))
    if not (math.isfinite(ly) and math.isfinite(lx)):
        raise ValueError(f"invalid point: log-density not finite at y={y!r}, x={x!r}")
    return float(np.exp(ly - lx))


def matched_density_point(target: TargetModel, x: float, tol: float = BISECTION_TOL) -> float:
    """Point on the opposite side of the mode with the same density as ``x``.

    Bracket by geometric expansion from the mode, then plain bisection down
    to absolute tolerance ``tol``.  ``x`` at the mode returns ``x`` itself.
    """
    if target.dim != 1:
        raise ValueError("matched_density_point requires a one-dimensional target")
    if not target.unimodal_1d:
        raise ValueError("matched_density_point requires a unimodal target")
    m = float(target.mode)
    x = float(x)
    if x == m:
        return x
    level = float(target.log_density(x))
    if not math.isfinite(level):
        raise ValueError(f"invalid point: log-density not finite at x={x!r}")
    s = 1.0 if x > m else -1.0
    logp = target.log_density

    t_lo = 0.0
    t_hi = max(abs(x - m), 1.0)
    expansions = 0
    while float(logp(m - s * t_hi)) > level:
        t_lo = t_hi
        t_hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise ValueError("density never falls to the matching level on the opposite side")
    while t_hi - t_lo > tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if float(logp(m - s * t_mid)) > level:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return m - s * 0.5 * (t_lo + t_hi)


def tail_integrals(target: TargetModel, x: float, gamma: float) -> TailIntegrals:
    """Outward and inward tail integrals at ``x`` with power ``gamma``.

    The outward integral's improper upper limit is truncated where the
    integrand falls below 1e-14; both integrals are evaluated by adaptive
    quadrature to absolute tolerance 1e-8.
    """
    if target.dim != 1:
        raise ValueError("tail_integrals requires a one-dimensional target")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = float(x)
    if x == 0.0:
        raise ValueError("tail_integrals requires |x| > 0")
    s = 1.0 if x > 0 else -1.0
    logp = target.log_density
    lx = float(logp(x))
    if not math.isfinite(lx):
        raise ValueError(f"invalid point: log-density not finite at x={x!r}")

    def outward_integrand(z: float) -> float:
        d = gamma * (float(logp(x + s * z)) - lx)
        return math.exp(d) if d < 700.0 else math.inf

    cutoff = max(1.0, 2.0 * abs(x))
    doublings = 0
    while outward_integrand(cutoff) > INTEGRAND_FLOOR:
        cutoff *= 2.0
        doublings += 1
        if doublings > 60:
            raise QuadratureError(
                "outward tail integrand does not decay; target tails too heavy"
            )
    outward = integrate_interval(outward_integrand, 0.0, cutoff, tol=1e-8)

    def inward_integrand(z: float) -> float:
        d = gamma * (lx - float(logp(x - s * z)))
        return math.exp(d) if d < 700.0 else math.inf

    inward = integrate_interval(inward_integrand, 0.0, abs(x), tol=1e-8)
    return TailIntegrals(outward=outward, inward=inward)
