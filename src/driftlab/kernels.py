"""Symmetric random-walk Metropolis kernels and the two-state toy chain.

A kernel is (proposal spec, kernel parameter): scalar log-scale proposals
draw increments scaled by ``exp(theta)``, covariance-based proposals draw
from the running-moments covariance inflated by a ridge.  Acceptance is the
usual density ratio clipped at 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quadrature import integrate_interval
from .targets import SYMMETRY_TOL, TargetModel, is_symmetric, matched_density_point

FAMILY_GAUSSIAN = "gaussian"
FAMILY_STUDENT = "student"
FAMILY_UNIFORM = "uniform"
PARAM_AM_COVARIANCE = "am_covariance"
PARAM_SCALAR_LOG_SCALE = "scalar_log_scale"

# Classical random-walk scaling constant for covariance-based proposals:
# proposal covariance = (RW_SCALE**2 / dim) * (cov + eps_ridge * I).
RW_SCALE = 2.38

_FAMILIES = (FAMILY_GAUSSIAN, FAMILY_STUDENT, FAMILY_UNIFORM)
_PARAMETRIZATIONS = (PARAM_AM_COVARIANCE, PARAM_SCALAR_LOG_SCALE)


@dataclass(frozen=True)
class ProposalSpec:
    """Increment distribution family plus its parametrization.

    ``eps_ridge`` is the ridge added to the running covariance before
    scaling; ``student_dof`` the degrees of freedom for Student increments.
    Compact-uniform increments are one-dimensional and scalar-parametrized.
    """

    family: str
    parametrization: str
    eps_ridge: float = 0.1
    student_dof: float = 4.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown proposal family {self.family!r}")
        if self.parametrization not in _PARAMETRIZATIONS:
            raise ValueError(f"unknown parametrization {self.parametrization!r}")
        if self.family == FAMILY_UNIFORM and self.parametrization != PARAM_SCALAR_LOG_SCALE:
            raise ValueError("uniform increments require the scalar log-scale parametrization")
        if not (self.eps_ridge > 0):
            raise ValueError("eps_ridge must be positive")
        if not (self.student_dof > 0):
            raise ValueError("student_dof must be positive")


@dataclass(frozen=True)
class AMParam:
    """Running-moments kernel parameter: mean vector plus covariance."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape == ():
            cov = cov.reshape(1, 1)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        n = mu.shape[0]
        if cov.shape != (n, n):
            raise ValueError("cov shape must match mu")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise ValueError("kernel parameter must be finite")
        if not is_symmetric(cov):
            raise ValueError(f"cov must be symmetric to {SYMMETRY_TOL}")


@dataclass(frozen=True)
class ScalarParam:
    """Scalar log-scale kernel parameter; increment scale is exp(theta)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("kernel parameter must be finite")

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


def _accept_from_logs(ly: float, lx: float, x, y) -> float:
    """min(1, exp(ly - lx)) for log pi(y) = ly and log pi(x) = lx."""
    if math.isnan(ly) or math.isnan(lx) or lx == -math.inf:
        raise ValueError(f"invalid point: log-density not finite at y={y!r}, x={x!r}")
    d = ly - lx
    return 1.0 if d >= 0.0 else math.exp(d)


def accept_prob(target: TargetModel, x, y) -> float:
    """min(1, pi(y)/pi(x)), computed from log-densities."""
    return _accept_from_logs(_log_density(target, y), _log_density(target, x), x, y)


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


def _acceptance_breakpoints(target: TargetModel, x: float, sigma: float) -> list[float]:
    pts = [0.0]
    if target.unimodal_1d:
        m = float(target.mode)
        if x != m:
            pts.append(m - x)
            y_star = matched_density_point(target, x)
            z_star = y_star - x
            if -sigma < z_star < sigma:
                pts.append(z_star)
    return pts


def mean_acceptance(target: TargetModel, sigma: float, x: float, tol: float = 1e-9) -> float:
    """Average acceptance probability from ``x`` under compact-uniform
    increments of half-width ``sigma``, by adaptive quadrature.

    Only the compact-uniform family admits this finite-interval quadrature;
    use Monte Carlo through :func:`apply_kernel_to_function` for unbounded
    increment families.
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
        d = float(logp(x + z)) - lx
        return q if d >= 0.0 else q * math.exp(d)

    pts = _acceptance_breakpoints(target, x, sigma)
    return integrate_interval(integrand, -sigma, sigma, tol=tol, points=pts)


def apply_kernel_to_function(
    target: TargetModel,
    spec: ProposalSpec,
    param: KernelParam,
    f: Callable,
    x,
    method: str = "quadrature",
    n: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Estimate (P f)(x), the one-step kernel average of ``f`` from ``x``.

    Quadrature (one-dimensional; compact-uniform or gaussian increments)
    returns (estimate, 0.0); Monte Carlo over ``n`` proposal draws returns
    (estimate, standard error).  The rejection atom is handled exactly in
    both modes: each proposal contributes
    ``alpha * f(y) + (1 - alpha) * f(x)``.

    Gaussian increments are integrated over a 40-standard-deviation window.
    The tail left out is below any realistic tolerance for the functions
    used here (state Lyapunov functions, where ``alpha * f(y) <= f(x)``
    caps the integrand, and polynomially growing parameter weights).
    """
    if method == "quadrature":
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
        fx = float(f(x))
        if not math.isfinite(fx):
            raise ValueError("non-integrable test function: non-finite value at the current state")

        def accepted_part(z: float) -> float:
            y = x + z
            d = float(logp(y)) - lx
            a = 1.0 if d >= 0.0 else math.exp(d)
            fy = float(f(y))
            if not math.isfinite(fy):
                raise ValueError(f"non-integrable test function: non-finite value at y={y!r}")
            return q_of(z) * a * fy

        def acceptance_mass(z: float) -> float:
            d = float(logp(x + z)) - lx
            a = 1.0 if d >= 0.0 else math.exp(d)
            return q_of(z) * a

        pts = _acceptance_breakpoints(target, x, half)
        moved = integrate_interval(accepted_part, -half, half, tol=tol, points=pts)
        mass = integrate_interval(acceptance_mass, -half, half, tol=tol, points=pts)
        return moved + fx * (1.0 - mass), 0.0

    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}; use 'quadrature' or 'monte_carlo'")
    if n < 1:
        raise ValueError("monte_carlo requires n >= 1")
    if rng is None:
        raise ValueError("monte_carlo requires an explicit rng")
    zs = draw_increments(spec, param, target.dim, rng, size=n)
    ys = x + zs
    ly = np.asarray(target.log_density(ys), dtype=float)
    lx = float(np.asarray(target.log_density(x), dtype=float))
    alphas = np.exp(np.minimum(0.0, ly - lx))
    try:
        fy = np.asarray(f(ys), dtype=float)
        if fy.shape != (n,):
            raise TypeError
    except Exception:
        if target.dim == 1:
            fy = np.array([float(f(float(y))) for y in ys])
        else:
            fy = np.array([float(f(y)) for y in ys])
    fx = float(f(x if target.dim > 1 else float(x)))
    vals = fy * alphas + fx * (1.0 - alphas)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-integrable test function: non-finite sample values")
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, se


# ---------------------------------------------------------------------------
# two-state toy chain


def toy_transition_matrix(theta: float) -> np.ndarray:
    """2x2 transition matrix with off-diagonal mass exp(-|theta|)."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    e = math.exp(-abs(theta))
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


def toy_step(theta: float, x: int, rng: np.random.Generator) -> int:
    """One transition of the toy chain from state ``x`` in {0, 1}."""
    if x not in (0, 1):
        raise ValueError("toy state must be 0 or 1")
    e = math.exp(-abs(theta))
    return 1 - x if rng.random() < e else x


def toy_second_eigenvalue(theta: float) -> float:
    """Second eigenvalue 1 - 2 exp(-|theta|) of the toy transition matrix.

    Cross-checked against a direct 2x2 eigendecomposition on every call.
    """
    e = math.exp(-abs(theta))
    lam = 1.0 - 2.0 * e
    eigs = np.linalg.eigvalsh(toy_transition_matrix(theta))
    if abs(eigs[0] - lam) > 1e-12:
        raise RuntimeError("toy eigenvalue formula disagrees with eigendecomposition")
    return lam
