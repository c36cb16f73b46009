"""Adaptation rules and stepsize schedules.

Parameter updates implemented here:

* running-moments update (mean and covariance driven by the new state);
* acceptance-coercion update ``theta += gamma * (alpha - alpha_star)`` keyed
  to the proposed move's acceptance probability, with a fast variant scaled
  by ``|theta| + 1``;
* the toy mean-tracking update ``theta += gamma * (1/2 - x)``.

Stepsizes come from polynomial or constant schedules, or from the
sign-change counting rule: the stepsize index advances only when successive
update increments point in opposing directions (strict negative inner
product).
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

RULE_AM = "am"
RULE_COERCED = "coerced"
RULE_FAST_COERCED = "fast_coerced"
RULE_TOY_MEAN = "toy_mean"
RULE_FIXED = "fixed"
RULES = (RULE_AM, RULE_COERCED, RULE_FAST_COERCED, RULE_TOY_MEAN, RULE_FIXED)


class AdaptationRule:
    """Which update map drives the kernel parameter.

    ``alpha_star`` is the coerced acceptance level; it must lie in (0, 1/2)
    and is ignored by the other kinds.  ``fixed`` freezes the parameter
    (useful for fixed-kernel diagnostics).
    """

    __slots__ = ("kind", "alpha_star")

    def __init__(self, kind: str, alpha_star: Optional[float] = None):
        if kind in (RULE_COERCED, RULE_FAST_COERCED):
            if alpha_star is None or not (0.0 < alpha_star < 0.5):
                raise ValueError("coerced rules require alpha_star in (0, 1/2)")
        self.kind = kind
        self.alpha_star = alpha_star


class PolynomialSchedule(NamedTuple):
    """gamma_i = c0 / (c1 + i)**a for step index i >= 1."""

    c0: float
    c1: float = 0.0
    a: float = 1.0


class ConstantSchedule(NamedTuple):
    """gamma_i = gamma0 for every step."""

    gamma0: float


class KestenSchedule(NamedTuple):
    """Stepsize gamma(s) = c0 / (1 + s)**a indexed by the sign-change count.

    The count ``s`` lives in the chain state, not here; the schedule object
    is only the non-increasing map from counts to stepsizes.
    """

    c0: float
    a: float = 0.6

    def gamma_of_count(self, s: int) -> float:
        if s < 0:
            raise ValueError("sign-change count must be non-negative")
        return self.c0 / (1.0 + s) ** self.a


Schedule = PolynomialSchedule | ConstantSchedule | KestenSchedule


def gamma_at(schedule: Schedule, i: int, kesten_count: Optional[int] = None) -> float:
    """Stepsize at step index ``i`` (1-based).

    For the sign-change schedule the count must be supplied, since the
    stepsize is a function of the realized trajectory, not of ``i``.
    """
    if i < 1:
        raise ValueError("step index must be >= 1")
    if isinstance(schedule, PolynomialSchedule):
        return schedule.c0 / (schedule.c1 + i) ** schedule.a
    if isinstance(schedule, ConstantSchedule):
        return schedule.gamma0
    if isinstance(schedule, KestenSchedule):
        if kesten_count is None:
            raise ValueError("sign-change schedule requires the current count")
        return schedule.gamma_of_count(kesten_count)
    raise ValueError(f"unknown schedule {schedule!r}")


# ---------------------------------------------------------------------------
# update maps


def am_update(mu, cov, x_new, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Running-moments update driven by the new state.

    ``gamma`` must lie in (0, 1]: the covariance update is a convex
    combination plus a rank-one term, and stepsizes beyond 1 lose positive
    semidefiniteness.  At 1 the update is the combination's endpoint,
    mu' = x and cov' = (x - mu)(x - mu)^T.  A stack of states ``x_new`` of
    shape (n, d) gives the n updated moments stacked, shapes (n, d) and
    (n, d, d).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.shape == ():
        cov = cov.reshape(1, 1)
    x_new = np.atleast_1d(np.asarray(x_new, dtype=float))
    d = x_new - mu
    mu2 = mu + gamma * d
    cov2 = cov + gamma * (d[..., :, None] * d[..., None, :] - cov)
    return mu2, cov2


def am_increment(mu, cov, x_new) -> np.ndarray:
    """Flattened update direction of the running-moments rule.

    Used for sign-change detection: the inner product of successive
    increments decides whether the stepsize index advances.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.shape == ():
        cov = cov.reshape(1, 1)
    d = np.atleast_1d(np.asarray(x_new, dtype=float)) - mu
    return np.concatenate([d, (np.outer(d, d) - cov).ravel()])


def scalar_update(kind: str, theta, alpha, gamma, alpha_star):
    """(theta', h) for a scalar log-scale rule: theta' = theta + gamma * h with
    h = alpha - alpha_star (coerced) or (|theta| + 1) * (alpha - alpha_star)
    (fast_coerced); the fixed rule gives (theta, 0.0).

    The one copy of this arithmetic outside the 1-D simulator loop: the
    multivariate chain and every certificate call it, so both see the same
    update map.  Takes Python floats or numpy arrays, elementwise with the
    same rounding; no argument checks.
    """
    if kind == RULE_FIXED:
        return theta, 0.0
    if kind == RULE_COERCED:
        h = alpha - alpha_star
    elif kind == RULE_FAST_COERCED:
        h = (abs(theta) + 1.0) * (alpha - alpha_star)
    else:
        raise ValueError(f"{kind!r} is not a scalar log-scale rule")
    return theta + gamma * h, h


def kesten_advance(s: int, h_prev, h_cur) -> int:
    """Advance the sign-change count iff successive increments oppose.

    The comparison is strict: a zero inner product does not advance the
    count.
    """
    if s < 0:
        raise ValueError("sign-change count must be non-negative")
    hp = np.ravel(np.asarray(h_prev, dtype=float))
    hc = np.ravel(np.asarray(h_cur, dtype=float))
    if hp.shape != hc.shape:
        raise ValueError("increment shapes differ")
    return s + 1 if float(hp @ hc) < 0.0 else s


class MeanFieldAM:
    """True first and second central moments of the target."""

    __slots__ = ("mu_pi", "cov_pi")

    def __init__(self, mu_pi: np.ndarray, cov_pi: np.ndarray):
        mu = np.atleast_1d(np.asarray(mu_pi, dtype=float))
        cov = np.asarray(cov_pi, dtype=float)
        if cov.shape == ():
            cov = cov.reshape(1, 1)
        if cov.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("cov_pi shape must match mu_pi")
        self.mu_pi = mu
        self.cov_pi = cov
