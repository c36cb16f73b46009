"""Shared adaptive quadrature.

All integral evaluations in the package go through :func:`integrate_interval`
so quadrature behavior (tolerances, subdivision limits, failure reporting)
stays uniform.  The scheme is QUADPACK's QAG with the 21-point rule
(Piessens et al., 1983, routines ``dqage`` / ``dqk21``): each subinterval is
integrated by the 10-point Gauss rule and its 21-point Kronrod extension, the
difference of the two gives the error estimate, and the subinterval with the
largest estimate is bisected until the total error meets the tolerance or the
subdivision limit is reached.  Breakpoints start the partition.  There is no
epsilon-algorithm extrapolation (QAGS), so integrable endpoint singularities
are resolved by bisection alone.  The module needs only the standard library.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, Optional, Sequence

DEFAULT_ABS_TOL = 1e-8
MAX_SUBDIVISIONS = 200

# Relative tolerance of the stopping rule, and the relative error still
# accepted once the subdivision limit is reached (times the 50x slack).
_REL_TOL = 1e-11
_REL_TOL_AT_LIMIT = 1e-10
_LIMIT_SLACK = 50.0

_EPMACH = 2.0 ** -52
_UFLOW = 2.2250738585072014e-308

# dqk21: Kronrod abscissae in (0, 1) in decreasing order; the odd-indexed ones
# (0-based) are the 10-point Gauss abscissae.  The centre node is 0.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208916294825,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
# 10-point Gauss weights for the abscissae _XGK[1], _XGK[3], ..., _XGK[9].
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to converge or the estimate is
    not finite.

    Carries the partial estimate so callers can report it.
    """

    def __init__(self, message: str, partial: Optional[float] = None):
        super().__init__(message)
        self.partial = partial


def _kronrod21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """21-point Kronrod estimate of the integral over [a, b] and its error
    estimate, as QUADPACK's ``dqk21`` computes them."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(centre)
    left = [f(centre - half * x) for x in _XGK]
    right = [f(centre + half * x) for x in _XGK]
    pairs = [u + v for u, v in zip(left, right)]
    resk = _WGK_CENTRE * fc + sum(w * s for w, s in zip(_WGK, pairs))
    resg = sum(w * s for w, s in zip(_WG, pairs[1::2]))
    resabs = _WGK_CENTRE * abs(fc) + sum(
        w * (abs(u) + abs(v)) for w, u, v in zip(_WGK, left, right)
    )
    mean = 0.5 * resk
    resasc = _WGK_CENTRE * abs(fc - mean) + sum(
        w * (abs(u - mean) + abs(v - mean)) for w, u, v in zip(_WGK, left, right)
    )
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        err = max(50.0 * _EPMACH * resabs, err)
    return resk * half, err


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = DEFAULT_ABS_TOL,
    points: Optional[Sequence[float]] = None,
) -> float:
    """Integrate ``f`` over the finite interval [a, b] to absolute tolerance.

    ``points`` lists interior breakpoints (kinks of the integrand); points
    outside (a, b) are dropped.  Bisection stops once the summed error
    estimate is at most ``max(tol, 1e-11 * |value|)`` or the partition has
    MAX_SUBDIVISIONS subintervals.  A result at that limit is still
    accepted when its error is at most ``50 * max(tol, 1e-10 * |value|)``;
    otherwise, and whenever the estimate or its error is not finite,
    QuadratureError is raised with the partial estimate attached.
    """
    if not (a < b):
        if a == b:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    edges = [a, *sorted({p for p in points or () if a < p < b}), b]
    # max-heap on the error estimate: (-err, lo, hi, value)
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        part, part_err = _kronrod21(f, lo, hi)
        heap.append((-part_err, lo, hi, part))
    heapq.heapify(heap)
    value = sum(item[3] for item in heap)
    err = -sum(item[0] for item in heap)
    while True:
        if not (math.isfinite(value) and math.isfinite(err)):
            raise QuadratureError(
                f"quadrature on [{a}, {b}] is not finite: "
                f"estimate {value!r} with error bound {err!r}",
                partial=value,
            )
        if err <= max(tol, _REL_TOL * abs(value)) or len(heap) >= MAX_SUBDIVISIONS:
            break
        neg_err, lo, hi, part = heap[0]
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod21(f, lo, mid)
        v2, e2 = _kronrod21(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        value += v1 + v2 - part
        err += e1 + e2 + neg_err
    value = math.fsum(item[3] for item in heap)
    err = -math.fsum(item[0] for item in heap)
    if err > _LIMIT_SLACK * max(tol, _REL_TOL_AT_LIMIT * abs(value)):
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: "
            f"estimate {value!r} with error bound {err!r}",
            partial=value,
        )
    return value
