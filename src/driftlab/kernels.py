"""Symmetric random-walk Metropolis kernels and the two-state toy chain.

A kernel is (proposal spec, kernel parameter): scalar log-scale proposals
draw increments scaled by ``exp(theta)``, covariance-based proposals draw
from the running-moments covariance inflated by a ridge.  Acceptance is the
usual density ratio clipped at 1.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import integrate_interval
from .targets import SYMMETRY_TOL, TargetModel, is_symmetric, matched_density_point

FAMILY_GAUSSIAN = "gaussian"
FAMILY_STUDENT = "student"
FAMILY_UNIFORM = "uniform"
PARAM_AM_COVARIANCE = "am_covariance"
PARAM_SCALAR_LOG_SCALE = "scalar_log_scale"

# Absolute tolerance of the kernel integrals (acceptance rate, P f).
QUAD_TOL = 1e-9

# Classical random-walk scaling constant for covariance-based proposals:
# proposal covariance = (RW_SCALE**2 / dim) * (cov + eps_ridge * I).
RW_SCALE = 2.38


class ProposalSpec:
    """Increment distribution family plus its parametrization.

    ``eps_ridge`` is the ridge added to the running covariance before
    scaling; ``student_dof`` the degrees of freedom for Student increments.
    Compact-uniform increments are one-dimensional and scalar-parametrized.
    """

    __slots__ = ("family", "parametrization", "eps_ridge", "student_dof")

    def __init__(self, family: str, parametrization: str, eps_ridge: float = 0.1, student_dof: float = 4.0):
        if family == FAMILY_UNIFORM and parametrization != PARAM_SCALAR_LOG_SCALE:
            raise ValueError("uniform increments require the scalar log-scale parametrization")
        self.family = family
        self.parametrization = parametrization
        self.eps_ridge = eps_ridge
        self.student_dof = student_dof


class AMParam:
    """Running-moments kernel parameter: mean vector plus covariance."""

    __slots__ = ("mu", "cov")

    def __init__(self, mu: np.ndarray, cov: np.ndarray):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        cov = np.asarray(cov, dtype=float)
        if cov.shape == ():
            cov = cov.reshape(1, 1)
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        n = mu.shape[0]
        if cov.shape != (n, n):
            raise ValueError("cov shape must match mu")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("kernel parameter must be finite")
        if not is_symmetric(cov):
            raise ValueError(f"cov must be symmetric to {SYMMETRY_TOL}")
        self.mu = mu
        self.cov = cov


class ScalarParam:
    """Scalar log-scale kernel parameter; increment scale is exp(theta)."""

    __slots__ = ("theta",)

    def __init__(self, theta: float):
        if not math.isfinite(theta):
            raise ValueError("kernel parameter must be finite")
        self.theta = theta

    @property
    def sigma(self) -> float:
        return math.exp(self.theta) if self.theta < 700.0 else math.inf


KernelParam = AMParam | ScalarParam


class StepResult(NamedTuple):
    state: float | np.ndarray
    proposed: float | np.ndarray
    accepted: bool
    alpha: float
    log_density: float  # log pi(state)


def proposal_covariance(spec: ProposalSpec, param: AMParam) -> np.ndarray:
    """Scaled, ridge-inflated proposal covariance for covariance proposals."""
    if spec.parametrization != PARAM_AM_COVARIANCE:
        raise ValueError("parametrization mismatch: covariance requested for scalar proposal")
    if not isinstance(param, AMParam):
        raise ValueError("parametrization mismatch: covariance proposal needs an AMParam")
    n = param.mu.shape[0]
    return (RW_SCALE**2 / n) * (param.cov + spec.eps_ridge * np.eye(n))


def _symmetric_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= 0:
        raise ValueError("proposal covariance not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def draw_increments(
    spec: ProposalSpec,
    param: KernelParam,
    dim: int,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Draw proposal increments; ``size=None`` gives a single increment.

    Single draws from one-dimensional proposals come back as floats.
    """
    if spec.parametrization == PARAM_SCALAR_LOG_SCALE:
        if not isinstance(param, ScalarParam):
            raise ValueError("parametrization mismatch: scalar proposal needs a ScalarParam")
        if spec.family == FAMILY_UNIFORM and dim != 1:
            raise ValueError("uniform increments are one-dimensional")
        sigma = param.sigma
        n = 1 if size is None else size
        shape = n if dim == 1 else (n, dim)
        if spec.family == FAMILY_GAUSSIAN:
            raw = rng.standard_normal(shape)
        elif spec.family == FAMILY_STUDENT:
            raw = rng.standard_t(spec.student_dof, shape)
        else:
            raw = 2.0 * rng.random(shape) - 1.0
        z = sigma * raw
        if size is None:
            return float(z[0]) if dim == 1 else z[0]
        return z

    if not isinstance(param, AMParam):
        raise ValueError("parametrization mismatch: covariance proposal needs an AMParam")
    n_dim = param.mu.shape[0]
    if dim != n_dim:
        raise ValueError("kernel parameter dimension does not match target dimension")
    cov_p = proposal_covariance(spec, param)
    root = _symmetric_sqrt(cov_p)
    n = 1 if size is None else size
    normals = rng.standard_normal((n, n_dim))
    z = normals @ root.T
    if spec.family == FAMILY_STUDENT:
        chi = rng.chisquare(spec.student_dof, n) / spec.student_dof
        z = z / np.sqrt(chi)[:, None]
    elif spec.family == FAMILY_UNIFORM:
        raise ValueError("uniform increments require the scalar log-scale parametrization")
    if size is None:
        return float(z[0, 0]) if n_dim == 1 else z[0]
    return z[:, 0] if n_dim == 1 else z


def _log_density(target: TargetModel, x) -> float:
    return float(np.asarray(target.log_density(x), dtype=float))


def acceptance(ly: float, lx: float) -> float:
    """min(1, exp(ly - lx)) for log pi(y) = ly and log pi(x) = lx."""
    d = ly - lx
    return 1.0 if d >= 0.0 else math.exp(d)


def acceptance_vec(ly: np.ndarray, lx) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, log alpha) with alpha = min(1, exp(ly - lx)), elementwise over
    an array of log pi(y)."""
    log_alpha = np.minimum(ly - lx, 0.0)
    return np.exp(log_alpha), log_alpha


def _accept_from_logs(ly: float, lx: float, x, y) -> float:
    """:func:`acceptance`, refusing a NaN log-density or a current state
    outside the support."""
    if math.isnan(ly) or math.isnan(lx) or lx == -math.inf:
        raise ValueError(f"invalid point: log-density not finite at y={y!r}, x={x!r}")
    return acceptance(ly, lx)


def srwm_step(
    target: TargetModel,
    spec: ProposalSpec,
    param: KernelParam,
    x,
    rng: np.random.Generator,
    lx: Optional[float] = None,
) -> StepResult:
    """One Metropolis step at fixed kernel parameter.

    ``lx`` is log pi(x) when the caller already has it; the target is then
    evaluated once, at the proposal.  The proposal and its acceptance
    probability are returned even on rejection, since adaptation rules keyed
    to the proposed move need both, and so is log pi of the new state.
    """
    z = draw_increments(spec, param, target.dim, rng)
    y = x + z
    ly = _log_density(target, y)
    if lx is None:
        lx = _log_density(target, x)
    alpha = _accept_from_logs(ly, lx, x, y)
    accepted = rng.random() < alpha
    if accepted:
        return StepResult(state=y, proposed=y, accepted=True, alpha=alpha, log_density=ly)
    return StepResult(state=x, proposed=y, accepted=False, alpha=alpha, log_density=lx)


def acceptance_breakpoints(target: TargetModel, x: float, half: float) -> list[float]:
    """Breakpoints, as increments from ``x``, of a one-step integrand over
    the window (-half, half): 0, the moves to the mode and to the
    matched-density point (kinks of the acceptance probability), and the
    target's bulk edges (``TargetModel.bulk_edge``) inside the window.  A
    window much wider than the bulk can hold all of it between a breakpoint
    and QAG-21's nearest node (0.22% of the subinterval's width away), so
    the bulk edges are breakpoints too.  The integrator drops points
    outside the window."""
    pts = [0.0]
    if target.unimodal_1d:
        m = float(target.mode)
        if x != m:
            pts.append(m - x)
            y_star = matched_density_point(target, x)
            z_star = y_star - x
            if -half < z_star < half:
                pts.append(z_star)
        for side in (-1.0, 1.0):
            z_edge = target.bulk_edge(side) - x
            if -half < z_edge < half:
                pts.append(z_edge)
    return pts


def mean_acceptance(target: TargetModel, sigma: float, x: float) -> float:
    """Average acceptance probability from ``x`` under compact-uniform
    increments of half-width ``sigma``, by adaptive quadrature.

    Only the compact-uniform family admits this finite-interval quadrature;
    for unbounded increment families the verifiers' one-step Monte Carlo
    estimator integrates the acceptance coin out instead.
    """
    if target.dim != 1:
        raise ValueError("mean_acceptance requires a one-dimensional target")
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    x = float(x)
    lx = float(target.log_density(x))
    if not math.isfinite(lx):
        raise ValueError(f"invalid point: log-density not finite at x={x!r}")
    logp = target.log_density
    q = 0.5 / sigma

    def integrand(z: float) -> float:
        return q * acceptance(float(logp(x + z)), lx)

    pts = acceptance_breakpoints(target, x, sigma)
    return integrate_interval(integrand, -sigma, sigma, tol=QUAD_TOL, points=pts)


def apply_kernel_to_function(
    target: TargetModel,
    spec: ProposalSpec,
    param: KernelParam,
    log_f: Callable[[float, float], float],
    x,
) -> float:
    """(P f)(x), the one-step kernel average of a positive function ``f``
    from ``x``, by adaptive quadrature.

    ``log_f(y, ly)`` is log f(y) at a state ``y`` whose log-density ``ly``
    the integrand already has (``StateLyapunov.log`` fits), so log pi is
    evaluated once per node.  Each proposal contributes
    ``alpha * f(y) + (1 - alpha) * f(x)``, with the product formed as
    ``exp(min(0, ly - lx) + log f(y))``: it stays finite where a state
    Lyapunov function's f(y) alone overflows.

    One-dimensional targets with compact-uniform or gaussian increments
    only; other families go through the verifiers' Monte Carlo estimator.
    Gaussian increments are integrated over a 40-standard-deviation window.
    The tail left out is below any realistic tolerance for the functions
    used here (state Lyapunov functions, where ``alpha * f(y) <= f(x)``
    caps the integrand, and polynomially growing parameter weights).
    ``OverflowError`` is raised when ``f`` or ``alpha * f`` at a node is
    past the float range.
    """
    if target.dim != 1:
        raise ValueError("quadrature requires a one-dimensional target")
    if spec.family == FAMILY_UNIFORM:
        if not isinstance(param, ScalarParam):
            raise ValueError("parametrization mismatch: scalar proposal needs a ScalarParam")
        sigma = param.sigma
        half = sigma

        def q_of(z: float) -> float:
            return 0.5 / sigma

    elif spec.family == FAMILY_GAUSSIAN:
        if isinstance(param, AMParam):
            if param.mu.shape[0] != 1:
                raise ValueError("quadrature requires a one-dimensional target")
            sd = math.sqrt(float(proposal_covariance(spec, param)[0, 0]))
        elif isinstance(param, ScalarParam):
            sd = param.sigma
        else:
            raise ValueError(f"cannot interpret {param!r} as a kernel parameter")
        if not (0.0 < sd < math.inf):
            raise ValueError("gaussian quadrature needs a finite positive scale")
        half = 40.0 * sd
        norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))
        inv2 = 0.5 / (sd * sd)

        def q_of(z: float) -> float:
            return norm * math.exp(-z * z * inv2)

    else:
        raise ValueError(
            "quadrature supports compact-uniform and gaussian increments; "
            "use monte_carlo for heavy-tailed families"
        )
    x = float(x)
    lx = float(target.log_density(x))
    logp = target.log_density
    log_fx = log_f(x, lx)
    if not log_fx < 700.0:
        raise OverflowError("non-integrable test function: non-finite value at the current state")
    fx = math.exp(log_fx)

    def accepted_part(z: float) -> float:
        y = x + z
        ly = float(logp(y))
        arg = min(0.0, ly - lx) + log_f(y, ly)
        if not arg < 700.0:
            raise OverflowError(f"non-integrable test function: alpha * f is not finite at y={y!r}")
        return q_of(z) * math.exp(arg)

    def acceptance_mass(z: float) -> float:
        return q_of(z) * acceptance(float(logp(x + z)), lx)

    pts = acceptance_breakpoints(target, x, half)
    moved = integrate_interval(accepted_part, -half, half, tol=QUAD_TOL, points=pts)
    mass = integrate_interval(acceptance_mass, -half, half, tol=QUAD_TOL, points=pts)
    return moved + fx * (1.0 - mass)


# ---------------------------------------------------------------------------
# two-state toy chain


def toy_transition_matrix(theta: float) -> np.ndarray:
    """2x2 transition matrix with off-diagonal mass exp(-|theta|)."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    e = math.exp(-abs(theta))
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


def toy_second_eigenvalue(theta: float) -> float:
    """Second eigenvalue 1 - 2 exp(-|theta|) of the toy transition matrix."""
    return 1.0 - 2.0 * math.exp(-abs(theta))
