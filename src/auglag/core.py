"""Lagrangian and augmented Lagrangian evaluation, plus the update rules.

The augmented Lagrangian is evaluated through two algebraically equivalent
formulas: a branch form (per-constraint case split on c_i(x) < lambda_i/sigma)
and a shifted-square form with a negative-part clamp.  Every evaluation runs
both and raises if they disagree beyond rounding, which turns any future
formula edit that breaks one side into an immediate hard error.
``Penalty`` holds P for one (lambda, sigma); its methods take x or the values
f, c, grad f and J a caller already holds.  Each gradient completes a joint,
cross-checked evaluation of P and grad P from one c(x), formed in one place,
``Penalty.evaluation``, and kept as an ``Evaluation``, so the outer loop reads
an inner solve's last iterate without evaluating it again.

Branch tie rule: at c_i(x) == lambda_i/sigma exactly, the inequality term
takes the constant branch, so its gradient contribution is zero.  P is
continuous there; the gradient convention is one-sided by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .problems import ConstraintSet, ProblemSpec, ValidationError

if TYPE_CHECKING:
    from .outer import SolverConfig

class ImplementationError(RuntimeError):
    """A guaranteed invariant failed: an implementation bug, not bad input; each subclass names it as ``what``."""


class FormDisagreementError(ImplementationError):
    """The two augmented-Lagrangian formulas disagreed: implementation bug."""

    what = "P form disagreement"


class UnsupportedSpecializationError(ValidationError):
    """A linear-constraint-only operation was called on an unsuitable problem: a usage error."""


@dataclass
class ThetaStat:
    """Feasibility statistic: max of three parts (absent parts are -inf)."""

    value: float
    parts: tuple[float, float, float]  # (mult_over_sigma, eq_shifted, ineq_violation)


def lagrangian_grad(g: np.ndarray, J: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """grad f(x) - sum_i lambda_i * grad c_i(x), from g = grad f(x) and J = jac c(x)."""
    return g - J.T.dot(lam)


class Evaluation(NamedTuple):
    """The oracle values at one point x and P, grad P there under one ``Penalty``."""

    key: bytes  # x.tobytes()
    f: float
    c: np.ndarray
    g: np.ndarray  # grad f(x)
    J: np.ndarray  # jac c(x)
    p: float
    grad_p: np.ndarray


class Penalty:
    """P(., lambda, sigma) for one fixed (lambda, sigma): what one inner solve minimizes.

    The (lambda, sigma)-only terms are computed once.  ``value`` keeps f(x),
    c(x), the mask and P(x), keyed on the bytes of x, and ``grad`` completes
    that record with grad f(x) and J(x), calling ``value`` first at a point
    without those bytes; ``from_values`` and ``evaluation`` take oracle values
    a caller already holds.  ``evaluation`` is where grad P is formed, for
    ``grad`` as for the outer loop's warm start; its last result is
    ``last_evaluation()``.
    """

    def __init__(self, problem: ProblemSpec, lam: np.ndarray, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.problem, self.lam, self.sigma = problem, lam, sigma
        self._cons, self._obj = problem.constraints, problem.objective
        self._neg_lam, self._half_sigma = -lam, 0.5 * sigma
        self._shift = lam / sigma
        self._const = -0.5 * lam * lam / sigma
        self._shift_sq = self._shift.dot(self._shift)
        # with no inequality rows the mask is all False and the inactive-row
        # steps below would change nothing, so they are skipped
        self._has_ineq = self._cons.m_e < self._cons.m
        self._at = None  # (x.tobytes(), f(x), c(x), (P(x), mask)) at the last point valued
        self._last: Optional[Evaluation] = None

    def _inactive(self, c: np.ndarray) -> np.ndarray:
        """The mask of inequality rows on the constant branch at c = c(x), as a new array."""
        if not self._has_ineq:
            return np.zeros(self._cons.m, bool)
        # tie rule: c_i == lambda_i/sigma is inactive; a NaN row stays active, so
        # the NaN reaches both P and its gradient
        inactive = c >= self._shift
        inactive[: self._cons.m_e] = False
        return inactive

    def _sums(self, c: np.ndarray):
        """The inactive-row mask and both penalty sums at c = c(x)."""
        inactive = self._inactive(c)

        # branch form, built in place: the operands and the pairwise sum of
        # np.where(inactive, const, -lam*c + 0.5*sigma*c*c).sum()
        quad = self._neg_lam * c
        quad += self._half_sigma * c * c
        if self._has_ineq:
            np.copyto(quad, self._const, where=inactive)
        branch_sum = float(np.add.reduce(quad))

        # shifted-square form, from the shared residual d = c - lambda/sigma
        d = c - self._shift
        if self._has_ineq:
            tail = d[self._cons.m_e:]
            np.minimum(tail, 0.0, out=tail)
        shifted_sum = self._half_sigma * float(d.dot(d) - self._shift_sq)
        return inactive, branch_sum, shifted_sum

    def _term_scale(self, c: np.ndarray) -> float:
        """|lambda|.|c| + (sigma/2)||c||^2 + ||lambda||^2/(2 sigma): the size of the terms P sums."""
        lam = self.lam
        return float(np.abs(lam).dot(np.abs(c)) + self._half_sigma * c.dot(c) + 0.5 * lam.dot(lam) / self.sigma)

    def from_values(self, f: float, c: np.ndarray) -> tuple[float, np.ndarray]:
        """P (branch form) from f = f(x) and c = c(x), after the two-formula cross-check, and the mask.

        The forms disagree when |P_branch - P_shifted| exceeds both the relative
        bound 1e-10*max(1, |P_branch|, |P_shifted|) and the absolute bound
        1e-12*(|f| + term scale); the scale is computed only once the relative
        bound has failed.  A NaN difference passes; a NaN scale leaves the
        relative bound alone in force.
        """
        inactive, branch_sum, shifted_sum = self._sums(c)
        p_branch = f + branch_sum
        p_shifted = f + shifted_sum
        diff = abs(p_branch - p_shifted)
        if diff > 1e-10 * max(1.0, abs(p_branch), abs(p_shifted)) and not (
            diff <= 1e-12 * (abs(f) + self._term_scale(c))
        ):
            raise FormDisagreementError(
                f"augmented Lagrangian forms disagree: {p_branch!r} vs {p_shifted!r}"
            )
        return p_branch, inactive

    def evaluation(
        self, x: np.ndarray, f: float, c: np.ndarray, g: np.ndarray, J: np.ndarray, p_mask
    ) -> Evaluation:
        """P and grad P at x from its oracle values f, c, g = grad f and J = jac c, kept as the last evaluation.

        ``p_mask`` is ``from_values(f, c)``, the cross-checked P and the mask;
        inactive rows add zero to grad P.
        """
        p, inactive = p_mask
        coeff = self.sigma * c
        coeff -= self.lam
        if self._has_ineq:
            coeff[inactive] = 0.0
        self._last = Evaluation(x.tobytes(), f, c, g, J, p, g + J.T.dot(coeff))
        return self._last

    def last_evaluation(self) -> Optional[Evaluation]:
        """The last joint evaluation of P and grad P, or None before the first."""
        return self._last

    def value(self, x: np.ndarray) -> float:
        """P(x), cross-checked over both forms."""
        c = self._cons.c(x)
        f = self._obj.value(x)
        p_mask = self.from_values(f, c)
        self._at = (x.tobytes(), f, c, p_mask)
        return p_mask[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        """grad P(x), kept with P(x) as the last evaluation; calls ``value`` first unless x was valued last."""
        at = self._at
        if at is None or at[0] != x.tobytes():  # a NaN matches itself here, as c(x) would repeat
            self.value(x)
            at = self._at
        _, f, c, p_mask = at
        return self.evaluation(x, f, c, self._obj.gradient(x), self._cons.jac(x), p_mask).grad_p

    def hess(self, x: np.ndarray) -> np.ndarray:
        """Hessian of P for equality-only linear constraints: hess f + sigma*A^T A."""
        if not (self._cons.is_linear and self._cons.m_e == self._cons.m):
            raise UnsupportedSpecializationError(
                "Hessian of P is only available for equality-only linear constraints"
            )
        return self._obj.hessian(x) + self._sigma_AtA

    @cached_property
    def _sigma_AtA(self) -> np.ndarray:
        """sigma * A^T A, the constant part of hess P, formed on the first ``hess`` call."""
        return self.sigma * self._cons.AtA


def theta(cons: ConstraintSet, c: np.ndarray, lam: np.ndarray, sigma: float) -> ThetaStat:
    """Feasibility statistic driving the penalty update, from c = c(x_{k+1}).

    max of ||lambda/sigma||_inf, the shifted equality residual, and the
    inequality violation (each in the sup norm); parts without constraints of
    that type are -inf.
    """
    me = cons.m_e
    mult_part = float(np.abs(lam / sigma).max()) if cons.m > 0 else 0.0
    eq_part = float(np.abs(c[:me] - lam[:me] / sigma).max()) if me > 0 else float("-inf")
    ineq_part = cons.ineq_violation(c) if me < cons.m else float("-inf")
    return ThetaStat(value=max(mult_part, eq_part, ineq_part), parts=(mult_part, eq_part, ineq_part))


def update_penalty(
    k: int, theta_next: float, theta_prev: float | None, sigma: float, config: SolverConfig
) -> float:
    """The next sigma: kept at k=0 or on sufficient theta decrease, else grown to
    max((k+1)^alpha, sigma), so never lowered; ``config`` validated alpha and gamma.
    A (k+1)^alpha past the largest double gives inf, which the outer loop's cap ends.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 or (theta_prev is not None and theta_next <= config.gamma * theta_prev):
        return sigma
    try:
        return max(float(k + 1) ** config.alpha, sigma)
    except OverflowError:  # raised by ** where the power would round to inf
        return math.inf


def update_multipliers(cons: ConstraintSet, c: np.ndarray, lam: np.ndarray, sigma: float) -> np.ndarray:
    """lambda - sigma*c, clamped at zero on inequality rows, as a new array; c = c(x_{k+1})."""
    me = cons.m_e
    lam_next = lam - sigma * c
    lam_next[me:] = np.maximum(lam_next[me:], 0.0)
    return lam_next


def mu_norm(lam: np.ndarray, sigma: float) -> float:
    """||lambda||_2 / sqrt(sigma), the scaled-multiplier norm."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(np.linalg.norm(lam)) / math.sqrt(sigma)


def lipschitz_bound_for(problem: ProblemSpec, sigma: float) -> float:
    """Global 2-norm Lipschitz constant of grad P for linear constraints and a declared L1.

    For c(x) = A x - b, grad P = grad f + A^T phi(A x - b), and each phi_i is
    sigma-Lipschitz whatever the sign of row i: sigma*t - lambda_i on equality
    rows, min(sigma*t - lambda_i, 0) on inequality rows (the tie rule takes
    the zero branch).  So L1 + sigma*||A||_2^2 = L1 + sigma*lambda_max(A^T A)
    is a Lipschitz constant, and the value returned, with lambda_max rounded
    up by ``ConstraintSet.AtA_max_eig``, is at least as large.  With f linear
    and every row an equality row it is attained along the top eigenvector of
    A^T A.  The constraint set caches lambda_max, so a new sigma costs no
    eigendecomposition.
    """
    cons = problem.constraints
    if not cons.is_linear:
        raise UnsupportedSpecializationError("Lipschitz bound requires linear constraints")
    if problem.objective.L1 is None:
        raise UnsupportedSpecializationError("objective must declare a gradient Lipschitz constant")
    return problem.objective.L1 + sigma * cons.AtA_max_eig
