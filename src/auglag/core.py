"""Lagrangian and augmented Lagrangian evaluation, plus the update rules.

The augmented Lagrangian is evaluated through two algebraically equivalent
formulas: a branch form (per-constraint case split on c_i(x) < lambda_i/sigma)
and a shifted-square form with a negative-part clamp.  Every evaluation runs
both and raises if they disagree beyond rounding, which turns any future
formula edit that breaks one side into an immediate hard error.
``Penalty`` holds P for one (lambda, sigma); its methods take x or the values
f, c, grad f and J a caller already holds, and evaluate c(x) once per point.

Branch tie rule: at c_i(x) == lambda_i/sigma exactly, the inequality term
takes the constant branch, so its gradient contribution is zero.  P is
continuous there; the gradient convention is one-sided by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .problems import ConstraintSet, ProblemSpec, gram_max_eig

if TYPE_CHECKING:
    from .outer import SolverConfig

POLYNOMIAL_GROWTH = "polynomial"
GEOMETRIC_GROWTH = "geometric"
PENALTY_POLICIES = (POLYNOMIAL_GROWTH, GEOMETRIC_GROWTH)


class FormDisagreementError(RuntimeError):
    """The two augmented-Lagrangian formulas disagreed: implementation bug."""


class UnsupportedSpecializationError(RuntimeError):
    """A linear-constraint-only operation was called on an unsuitable problem."""


@dataclass
class ThetaStat:
    """Feasibility statistic: max of three parts (absent parts are -inf)."""

    value: float
    parts: tuple[float, float, float]  # (mult_over_sigma, eq_shifted, ineq_violation)


def lagrangian_grad(g: np.ndarray, J: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """grad f(x) - sum_i lambda_i * grad c_i(x), from g = grad f(x) and J = jac c(x)."""
    return g - J.T @ lam


class Penalty:
    """P(., lambda, sigma) for one fixed (lambda, sigma): what one inner solve minimizes.

    The (lambda, sigma)-only terms are computed once.  ``value`` keeps x, c(x)
    and the mask, which ``grad`` reuses at an equal x; ``from_values`` and
    ``grad_from`` take oracle values a caller already holds.
    """

    def __init__(self, problem: ProblemSpec, lam: np.ndarray, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.problem, self.lam, self.sigma = problem, lam, sigma
        self._cons, self._obj = problem.constraints, problem.objective
        self._neg_lam, self._half_sigma = -lam, 0.5 * sigma
        self._shift = lam / sigma
        self._const = -0.5 * lam * lam / sigma
        self._shift_sq = self._shift @ self._shift
        self._abs_lam = np.abs(lam)
        self._lam_term = 0.5 * (lam @ lam) / sigma
        self._at = None  # (x, c(x), mask) at the last point evaluated

    def _inactive(self, c: np.ndarray) -> np.ndarray:
        """The mask of inequality rows on the constant branch at c = c(x)."""
        # tie rule: c_i == lambda_i/sigma is inactive; a NaN row stays active, so
        # the NaN reaches both P and its gradient
        inactive = c >= self._shift
        inactive[: self._cons.m_e] = False
        return inactive

    def _sums(self, c: np.ndarray):
        """The inactive-row mask, both penalty sums and the tolerance scale at c = c(x)."""
        inactive = self._inactive(c)

        # branch form, built in place: the operands and the pairwise sum of
        # np.where(inactive, const, -lam*c + 0.5*sigma*c*c).sum()
        quad = self._neg_lam * c
        quad += self._half_sigma * c * c
        np.copyto(quad, self._const, where=inactive)
        branch_sum = float(np.add.reduce(quad))

        # shifted-square form, from the shared residual d = c - lambda/sigma
        d = c - self._shift
        tail = d[self._cons.m_e:]
        np.minimum(tail, 0.0, out=tail)
        shifted_sum = self._half_sigma * float(d @ d - self._shift_sq)

        term_scale = float(self._abs_lam @ np.abs(c) + self._half_sigma * (c @ c) + self._lam_term)
        return inactive, branch_sum, shifted_sum, term_scale

    def from_values(self, f: float, c: np.ndarray) -> tuple[float, np.ndarray]:
        """P (branch form) from f = f(x) and c = c(x), after the two-formula cross-check, and the mask."""
        inactive, branch_sum, shifted_sum, term_scale = self._sums(c)
        p_branch = f + branch_sum
        p_shifted = f + shifted_sum
        tol = max(1e-10 * max(1.0, abs(p_branch), abs(p_shifted)), 1e-12 * (abs(f) + term_scale))
        if abs(p_branch - p_shifted) > tol:
            raise FormDisagreementError(
                f"augmented Lagrangian forms disagree: {p_branch!r} vs {p_shifted!r}"
            )
        return p_branch, inactive

    def grad_from(self, g: np.ndarray, J: np.ndarray, c: np.ndarray, inactive: np.ndarray) -> np.ndarray:
        """grad P from g = grad f(x), J = jac c(x), c = c(x) and its mask; inactive rows add zero."""
        coeff = self.sigma * c
        coeff -= self.lam
        coeff[inactive] = 0.0
        return g + J.T @ coeff

    def value(self, x: np.ndarray) -> float:
        """P(x), cross-checked over both forms."""
        c = self._cons.c(x)
        p, inactive = self.from_values(self._obj.value(x), c)
        self._at = (x.copy(), c, inactive)
        return p

    def grad(self, x: np.ndarray) -> np.ndarray:
        """grad P(x); reuses c(x) from the last point evaluated when x is equal."""
        at = self._at
        # np.array_equal without its wrapper: NaN still compares unequal
        if at is None or at[0].shape != x.shape or not (at[0] == x).all():
            c = self._cons.c(x)
            at = self._at = (x.copy(), c, self._inactive(c))
        _, c, inactive = at
        return self.grad_from(self._obj.gradient(x), self._cons.jac(x), c, inactive)

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(P(x), grad P(x)) from one evaluation of c(x); P is cross-checked."""
        c = self._cons.c(x)
        p, inactive = self.from_values(self._obj.value(x), c)
        return p, self.grad_from(self._obj.gradient(x), self._cons.jac(x), c, inactive)

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
    mult_part = float(np.max(np.abs(lam / sigma))) if cons.m > 0 else 0.0
    eq_part = (
        float(np.max(np.abs(c[:me] - lam[:me] / sigma))) if me > 0 else float("-inf")
    )
    ineq_part = (
        float(np.max(np.abs(np.minimum(c[me:], 0.0)))) if me < cons.m else float("-inf")
    )
    return ThetaStat(value=max(mult_part, eq_part, ineq_part), parts=(mult_part, eq_part, ineq_part))


def update_penalty(
    k: int, theta_next: float, theta_prev: float | None, sigma: float, config: SolverConfig
) -> float:
    """The next sigma: kept at k=0 or on sufficient theta decrease, else grown by
    ``config.penalty_policy`` and never lowered; ``config`` validated alpha, gamma and the policy.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 or (theta_prev is not None and theta_next <= config.gamma * theta_prev):
        return sigma
    if config.penalty_policy == POLYNOMIAL_GROWTH:
        candidate = float(k + 1) ** config.alpha
    else:
        candidate = 4.0 ** (k + 1)
    return max(candidate, sigma)


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


def lipschitz_bound_linear(L1: float, sigma: float, A: np.ndarray) -> float:
    """Global 2-norm Lipschitz constant of grad P for linear constraints.

    For c(x) = A x - b, grad P = grad f + A^T phi(A x - b), and each phi_i is
    sigma-Lipschitz whatever the sign of row i: sigma*t - lambda_i on equality
    rows, min(sigma*t - lambda_i, 0) on inequality rows (the tie rule takes
    the zero branch).  So L1 + sigma*||A||_2^2 = L1 + sigma*lambda_max(A^T A)
    is a Lipschitz constant, and the value returned, with lambda_max rounded
    up by ``problems.gram_max_eig``, is at least as large.  With f linear and
    every row an equality row it is attained along the top eigenvector of
    A^T A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _lipschitz_bound(L1, sigma, gram_max_eig(A.T @ A))


def _lipschitz_bound(L1: float, sigma: float, gram_top: float) -> float:
    return L1 + sigma * gram_top


def lipschitz_bound_for(problem: ProblemSpec, sigma: float) -> float:
    """``lipschitz_bound_linear`` for a problem with linear constraints and a declared L1.

    It reads the top eigenvalue of A^T A that the constraint set caches, so a
    new sigma costs no eigendecomposition; the value has the same bits.
    """
    cons = problem.constraints
    if not cons.is_linear:
        raise UnsupportedSpecializationError("Lipschitz bound requires linear constraints")
    if problem.objective.L1 is None:
        raise UnsupportedSpecializationError("objective must declare a gradient Lipschitz constant")
    return _lipschitz_bound(problem.objective.L1, sigma, cons.AtA_max_eig)
