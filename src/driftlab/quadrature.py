"""Shared adaptive-quadrature wrapper.

All integral evaluations in the package go through :func:`integrate_interval`
so quadrature behavior (tolerances, subdivision limits, failure reporting)
stays uniform.  The backend is QUADPACK via ``scipy.integrate.quad``: an
adaptive subdivision scheme with an embedded Gauss-Kronrod error estimate.
scipy is imported on the first call, not with this module, so processes that
never evaluate an integral (simulation runs, Monte Carlo checks) skip its
import cost.
"""
from __future__ import annotations

import warnings
from typing import Callable, Optional, Sequence

DEFAULT_ABS_TOL = 1e-8
MAX_SUBDIVISIONS = 200


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to converge.

    Carries the partial estimate so callers can report it.
    """

    def __init__(self, message: str, partial: Optional[float] = None):
        super().__init__(message)
        self.partial = partial


def integrate_interval(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    tol: float = DEFAULT_ABS_TOL,
    points: Optional[Sequence[float]] = None,
    limit: int = MAX_SUBDIVISIONS,
) -> float:
    """Integrate ``f`` over the finite interval [a, b] to absolute tolerance.

    ``points`` lists interior breakpoints (kinks of the integrand); points
    outside (a, b) are dropped.  Non-convergence raises QuadratureError with
    the partial estimate attached.
    """
    if not (a < b):
        if a == b:
            return 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    brk = None
    if points is not None:
        brk = sorted(p for p in points if a < p < b)
        if not brk:
            brk = None
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _err = integrate.quad(
                f, a, b, epsabs=tol, epsrel=1e-11, limit=limit, points=brk
            )
            return value
        except integrate.IntegrationWarning:
            pass
    # Retry once without escalation to recover the partial estimate.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            f, a, b, epsabs=tol, epsrel=1e-11, limit=limit, points=brk
        )
    if err > max(tol, 1e-10 * abs(value)) * 50:
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: "
            f"estimate {value!r} with error bound {err!r}",
            partial=value,
        )
    return value
