"""Symmetric random-walk Metropolis kernels and the two-state toy chain.

A kernel is (proposal spec, kernel parameter).  The parameter of a scalar
log-scale proposal is a float theta, and its increments are unit draws of
the proposal's family scaled by ``exp(theta)``; the parameter of a
covariance-based proposal is an ``AMParam``, whose running covariance,
inflated by a ridge, shapes its draws.  Acceptance is the usual density
ratio clipped at 1.

The module holds what a chain step uses, and the two pieces that the
simulator's step loops and the certificates both follow: the increment law
of a scalar rule (``_unit_draws``), which the loops and ``draw_increments``
draw from, and e**a with its overflow cut-off (``exp_or_inf``), which the
loops inline and the Lyapunov functions and certificates call.  The kernel
integrals that only the certificates take (the mean acceptance rate
and P f, by quadrature) are in ``verifiers``, so a run that certifies
nothing never loads ``quadrature``.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .targets import SYMMETRY_TOL, is_symmetric

FAMILY_GAUSSIAN = "gaussian"
FAMILY_STUDENT = "student"
FAMILY_UNIFORM = "uniform"
PARAM_AM_COVARIANCE = "am_covariance"
PARAM_SCALAR_LOG_SCALE = "scalar_log_scale"

# Classical random-walk scaling constant for covariance-based proposals:
# proposal covariance = (RW_SCALE**2 / dim) * (cov + eps_ridge * I).
RW_SCALE = 2.38
# Default ridge eps_ridge of the running covariance (proposal.eps_ridge).
EPS_RIDGE = 0.1
# The overflow cut-off of every exponential the package forms: e**a is taken
# as inf from a = EXP_CUTOFF on (math.exp itself overflows past about
# 709.78).  It bounds |theta| at load, and makes the proposal scale e**theta,
# V = pi**-eta, the weight e**|theta| and the drift rates inf.
EXP_CUTOFF = 700.0


def exp_or_inf(a: float) -> float:
    """e**a, or inf from a = EXP_CUTOFF on (and for a NaN)."""
    return math.exp(a) if a < EXP_CUTOFF else math.inf


class ProposalSpec:
    """Increment distribution family plus its parametrization.

    ``eps_ridge`` is the ridge added to the running covariance before
    scaling; ``student_dof`` the degrees of freedom for Student increments.
    Compact-uniform increments are one-dimensional and scalar-parametrized.
    """

    __slots__ = ("family", "parametrization", "eps_ridge", "student_dof")

    def __init__(self, family: str, parametrization: str, eps_ridge: float = EPS_RIDGE, student_dof: float = 4.0):
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


def proposal_covariance(spec: ProposalSpec, param: AMParam) -> np.ndarray:
    """Scaled, ridge-inflated proposal covariance for covariance proposals."""
    if spec.parametrization != PARAM_AM_COVARIANCE:
        raise ValueError("parametrization mismatch: covariance requested for scalar proposal")
    if not isinstance(param, AMParam):
        raise ValueError("parametrization mismatch: covariance proposal needs an AMParam")
    n = param.mu.shape[0]
    return (RW_SCALE**2 / n) * (param.cov + spec.eps_ridge * np.eye(n))


def _root_rows(cov: list, dim: int) -> list[list[float]]:
    """Symmetric square root of a ``dim`` x ``dim`` covariance given as a
    flat row-major list of floats, returned as rows of floats.  Only the
    lower triangle is read, as ``np.linalg.eigh`` reads it, and an
    eigenvalue below 0 (a singular covariance whose ridge rounds away) is
    clamped at 0, as a 1-D variance <= 0 gives sd 0.

    At dim = 2 the root is closed-form: with eigenvalues hi >= lo of
    [[a, b], [b, c]], it is (A + sqrt(hi * lo) I) / (sqrt(hi) + sqrt(lo)),
    hi and lo from ``math.hypot`` so that no product of entries can
    overflow; a diagonal matrix gives the roots of its entries.  Other
    dimensions take the root from ``eigh``.
    """
    if dim == 2:
        a, b, c = cov[0], cov[2], cov[3]
        if b == 0.0:
            return [[math.sqrt(a) if a > 0.0 else 0.0, 0.0], [0.0, math.sqrt(c) if c > 0.0 else 0.0]]
        mid = 0.5 * a + 0.5 * c
        rad = math.hypot(0.5 * a - 0.5 * c, b)
        hi, lo = mid + rad, mid - rad
        if hi <= 0.0:
            return [[0.0, 0.0], [0.0, 0.0]]
        s_hi = math.sqrt(hi)
        s_lo = math.sqrt(lo) if lo > 0.0 else 0.0
        s, t = s_hi * s_lo, s_hi + s_lo
        return [[(a + s) / t, b / t], [b / t, (c + s) / t]]
    vals, vecs = np.linalg.eigh(np.array(cov, dtype=float).reshape(dim, dim))
    # eigh sorts the eigenvalues in ascending order
    if vals[0] < 0:
        vals = np.maximum(vals, 0.0)
    return ((vecs * np.sqrt(vals)) @ vecs.T).tolist()


def _symmetric_sqrt(mat: np.ndarray) -> np.ndarray:
    """``_root_rows`` of a covariance array, as an array."""
    return np.array(_root_rows(mat.ravel().tolist(), mat.shape[0]))


def _unit_draws(spec: ProposalSpec, inc: np.random.Generator) -> Callable:
    """``draw(shape)``: a block of unscaled scalar-rule increments from the
    increment stream ``inc``, uniform on (-1, 1), standard normal or
    standard Student as ``spec.family`` says.  A block draw returns the
    values that as many scalar draws would, in the same order."""
    if spec.family == FAMILY_UNIFORM:
        return lambda shape: 2.0 * inc.random(shape) - 1.0
    if spec.family == FAMILY_GAUSSIAN:
        return inc.standard_normal
    return lambda shape: inc.standard_t(spec.student_dof, shape)


def draw_increments(
    spec: ProposalSpec,
    param: float | AMParam,
    dim: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw ``size`` proposal increments: shape (size,) in one dimension,
    (size, dim) otherwise.  ``param`` is a float theta under the scalar
    log-scale parametrization and an ``AMParam`` under running moments."""
    if spec.parametrization == PARAM_SCALAR_LOG_SCALE:
        if isinstance(param, AMParam):
            raise ValueError("parametrization mismatch: scalar proposal needs a float theta")
        if spec.family == FAMILY_UNIFORM and dim != 1:
            raise ValueError("uniform increments are one-dimensional")
        return exp_or_inf(param) * _unit_draws(spec, rng)(size if dim == 1 else (size, dim))

    if not isinstance(param, AMParam):
        raise ValueError("parametrization mismatch: covariance proposal needs an AMParam")
    n_dim = param.mu.shape[0]
    if dim != n_dim:
        raise ValueError("kernel parameter dimension does not match target dimension")
    cov_p = proposal_covariance(spec, param)
    root = _symmetric_sqrt(cov_p)
    normals = rng.standard_normal((size, n_dim))
    z = normals @ root.T
    if spec.family == FAMILY_STUDENT:
        chi = rng.chisquare(spec.student_dof, size) / spec.student_dof
        z = z / np.sqrt(chi)[:, None]
    return z[:, 0] if n_dim == 1 else z


def acceptance(ly: float, lx: float) -> float:
    """min(1, exp(ly - lx)) for log pi(y) = ly and log pi(x) = lx."""
    d = ly - lx
    return 1.0 if d >= 0.0 else math.exp(d)


def acceptance_vec(ly: np.ndarray, lx) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, log alpha) with alpha = min(1, exp(ly - lx)), elementwise over
    an array of log pi(y)."""
    log_alpha = np.minimum(ly - lx, 0.0)
    return np.exp(log_alpha), log_alpha


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
