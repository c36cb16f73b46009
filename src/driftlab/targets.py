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
from operator import mul, sub
from typing import Callable, Optional

import numpy as np

BISECTION_TOL = 1e-10
# How far below its mode, in nats, a unimodal target's bulk ends.
BULK_NATS = 50.0
# density_level_point doubles its bracket at most this many times, so it
# finds no level farther than 2**LEVEL_SEARCH_DOUBLINGS from the mode.
LEVEL_SEARCH_DOUBLINGS = 200
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


class TailClass:
    """Tail behavior tag.

    ``exponent`` holds the polynomial decay rate of the log-density: the
    power ``p`` in (0, 1) for subexponential tails, or the growth order for
    superexponential ones.
    """

    __slots__ = ("kind", "exponent")

    def __init__(self, kind: TailKind, exponent: Optional[float] = None):
        if kind is TailKind.SUBEXPONENTIAL:
            if exponent is None or not (0.0 < exponent < 1.0):
                raise ValueError(
                    "subexponential tail requires exponent p in (0, 1)"
                )
        if exponent is not None and exponent <= 0:
            raise ValueError("tail exponent must be positive")
        self.kind = kind
        self.exponent = exponent


# Stays a dataclass: bench/spans.py copies it with dataclasses.replace.
@dataclass(frozen=True)
class TargetModel:
    """Unnormalized target with sup log-density = 0.

    ``log_density`` accepts floats (dim 1) or arrays; batch evaluation
    follows numpy broadcasting.
    """

    name: str
    dim: int
    log_density: Callable
    tail: TailClass
    known_mean: Optional[np.ndarray] = None
    known_cov: Optional[np.ndarray] = None
    unimodal_1d: bool = False
    mode: float | np.ndarray = 0.0
    # bulk_edge's results, per side, filled on first use
    _bulk_edges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.unimodal_1d and self.dim != 1:
            raise ValueError("unimodal_1d flag requires dim == 1")

    def bulk_edge(self, side: float) -> float:
        """The point on ``side`` (+1 or -1) of the mode of a unimodal
        one-dimensional target where log pi falls ``BULK_NATS`` below its
        value at the mode; searched for once per side."""
        if side not in self._bulk_edges:
            level = float(self.log_density(float(self.mode))) - BULK_NATS
            self._bulk_edges[side] = density_level_point(self, level, side)
        return self._bulk_edges[side]


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

        def logp(x):
            d = x - m
            return -(d * d) * half_prec

        return TargetModel(
            name="gaussian",
            dim=1,
            log_density=logp,
            tail=TailClass(TailKind.GAUSSIAN, 2.0),
            known_mean=mean,
            known_cov=cov,
            unimodal_1d=True,
            mode=m,
        )

    prec_mat = np.linalg.inv(cov)
    mean_floats = mean.tolist()
    prec_rows = prec_mat.tolist()
    inf = math.inf

    # The quadratic form is positive definite, so where it evaluates to NaN
    # at a NaN-free point (inf - inf, from infinite or overflowing
    # coordinates) its value is +inf and the log-density -inf.  One point
    # (a tuple or list of floats, or a 1-D array) is taken over Python
    # floats, row by row of the precision matrix, which is several times
    # faster than numpy on so few numbers and never warns; a stack goes
    # through einsum.
    def logp_nd(x):
        if not isinstance(x, (tuple, list)):
            x = np.asarray(x, dtype=float)
            if x.ndim > 1:
                d = x - mean
                with np.errstate(over="ignore", invalid="ignore"):
                    q = np.einsum("...i,ij,...j->...", d, prec_mat, d)
                return -0.5 * np.where(np.isnan(q) & ~np.isnan(d).any(axis=-1), inf, q)
            x = x.tolist()
        d = list(map(sub, x, mean_floats))
        q = sum(map(mul, d, [sum(map(mul, r, d)) for r in prec_rows]))
        if q != q and not any(map(math.isnan, d)):
            q = inf
        return -0.5 * q

    return TargetModel(
        name="gaussian",
        dim=dim,
        log_density=logp_nd,
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


# The alpha of each power-tailed family whose bulk edges
# (``TargetModel.bulk_edge``) lie at x = 2**LEVEL_SEARCH_DOUBLINGS, the
# farthest point density_level_point reaches: the root of
# 1 - (1 + x**2)**(alpha/2) = -BULK_NATS for ``subexp``, and of
# -x**alpha = -BULK_NATS for ``subexp_exact`` (both have log pi = 0 at the
# mode).  The search finds the edges of every larger alpha; at the root
# itself log pi at x rounds to just above the level.
_FARTHEST = 2.0**LEVEL_SEARCH_DOUBLINGS
BULK_ALPHA_MIN = {
    "subexp": 2.0 * math.log1p(BULK_NATS) / math.log1p(_FARTHEST * _FARTHEST),
    "subexp_exact": math.log(BULK_NATS) / math.log(_FARTHEST),
}


def smoothed_subexp_target(alpha: float) -> TargetModel:
    """Smooth unimodal target with log-density ``1 - (1 + x^2)^(alpha/2)``."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")
    half = 0.5 * alpha

    def logp(x):
        return 1.0 - (1.0 + x * x) ** half

    return TargetModel(
        name="subexp",
        dim=1,
        log_density=logp,
        tail=_subexp_tail(alpha),
        unimodal_1d=True,
        mode=0.0,
    )


def exact_tail_subexp_target(alpha: float) -> TargetModel:
    """Target with exact power-law log-density ``-|x|^alpha``.

    Closed forms for acceptance and tail integrals make this family the
    reference for oracle tests.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2)")

    def logp(x):
        return -abs(x) ** alpha

    return TargetModel(
        name="subexp_exact",
        dim=1,
        log_density=logp,
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

    return TargetModel(
        name="two_scale_gaussian",
        dim=1,
        log_density=logp,
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


def matched_density_point(target: TargetModel, x: float) -> float:
    """Point on the opposite side of the mode with the same density as ``x``.

    Bracket by geometric expansion from the mode, then plain bisection down
    to absolute tolerance BISECTION_TOL (or to adjacent floats, far from the
    mode).  ``x`` at the mode returns ``x`` itself.
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
    side = -1.0 if x > m else 1.0
    return density_level_point(target, level, side, max(abs(x - m), 1.0))


def density_level_point(target: TargetModel, level: float, side: float, t_hi: float = 1.0) -> float:
    """``mode + side * t`` (``side`` +1 or -1) where the log-density of a
    unimodal one-dimensional target falls to ``level``: the bracket
    [0, t_hi] doubles until it holds the crossing, then bisection halves it
    down to BISECTION_TOL or to two adjacent floats, whichever comes first."""
    m = float(target.mode)
    logp = target.log_density
    t_lo = 0.0
    expansions = 0
    while float(logp(m + side * t_hi)) > level:
        t_lo = t_hi
        t_hi *= 2.0
        expansions += 1
        if expansions > LEVEL_SEARCH_DOUBLINGS:
            raise ValueError(f"density never falls to log-density {level!r} on side {side:+g} of the mode")
    while t_hi - t_lo > BISECTION_TOL:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break  # adjacent floats: far from the mode, ulp(t) exceeds tol
        if float(logp(m + side * t_mid)) > level:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return m + side * 0.5 * (t_lo + t_hi)
