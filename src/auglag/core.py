"""Lagrangian and augmented Lagrangian evaluation, plus the update rules.

The augmented Lagrangian is evaluated through two algebraically equivalent
formulas: a branch form (per-constraint case split on c_i(x) < lambda_i/sigma)
and a shifted-square form with a negative-part clamp.  Every evaluation runs
both and raises if they disagree beyond rounding, which turns any future
formula edit that breaks one side into an immediate hard error.
``penalty_value_grad`` returns P and its gradient from one evaluation of c(x)
and runs the same check; its helpers take f, c, grad f and J, not x.

Branch tie rule: at c_i(x) == lambda_i/sigma exactly, the inequality term
takes the constant branch, so its gradient contribution is zero.  P is
continuous there; the gradient convention is one-sided by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problems import ConstraintSet, ProblemSpec

POLYNOMIAL_GROWTH = "polynomial"
GEOMETRIC_GROWTH = "geometric"


class FormDisagreementError(RuntimeError):
    """The two augmented-Lagrangian formulas disagreed: implementation bug."""


class UnsupportedSpecializationError(RuntimeError):
    """A linear-constraint-only operation was called on an unsuitable problem."""


@dataclass
class MultiplierState:
    """Multiplier vector; inequality components are kept nonnegative."""

    lam: np.ndarray

    def __post_init__(self) -> None:
        self.lam = np.asarray(self.lam, dtype=float).ravel()

    def check_signs(self, m_e: int) -> bool:
        return bool(np.all(self.lam[m_e:] >= 0.0))


@dataclass
class PenaltyState:
    sigma: float
    alpha: float = 3.0
    gamma: float = 0.5
    policy: str = POLYNOMIAL_GROWTH

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0,1)")
        if self.policy not in (POLYNOMIAL_GROWTH, GEOMETRIC_GROWTH):
            raise ValueError(f"unknown penalty policy {self.policy!r}")


@dataclass
class ThetaStat:
    """Feasibility statistic: max of three parts (absent parts are -inf)."""

    value: float
    parts: tuple[float, float, float]  # (mult_over_sigma, eq_shifted, ineq_violation)


def lagrangian_grad(g: np.ndarray, J: np.ndarray, mult: MultiplierState) -> np.ndarray:
    """grad f(x) - sum_i lambda_i * grad c_i(x), from g = grad f(x) and J = jac c(x)."""
    return g - J.T @ mult.lam


def _inactive_rows(cons: ConstraintSet, c: np.ndarray, lam: np.ndarray, sigma: float):
    """The shift lambda/sigma and the mask of rows on the constant branch."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    shift = lam / sigma
    # tie rule: c_i == lambda_i/sigma is inactive; a NaN row stays active, so
    # the NaN reaches both P and its gradient
    inactive = c >= shift
    inactive[: cons.m_e] = False
    return shift, inactive


def _penalty_terms(cons: ConstraintSet, c: np.ndarray, lam: np.ndarray, sigma: float):
    """The inactive-row mask, both penalty sums and the tolerance scale at c = c(x)."""
    shift, inactive = _inactive_rows(cons, c, lam, sigma)

    # branch form
    quad = -lam * c + 0.5 * sigma * c * c
    const = -0.5 * lam * lam / sigma
    branch_sum = float(np.where(inactive, const, quad).sum())

    # shifted-square form, from the shared residual d = c - lambda/sigma
    d = c - shift
    me = cons.m_e
    d[me:] = np.minimum(d[me:], 0.0)
    shifted_sum = 0.5 * sigma * float(d @ d - shift @ shift)

    term_scale = float(np.abs(lam) @ np.abs(c) + 0.5 * sigma * (c @ c) + 0.5 * (lam @ lam) / sigma)
    return inactive, branch_sum, shifted_sum, term_scale


def _checked_P(cons: ConstraintSet, f: float, c: np.ndarray, lam: np.ndarray, sigma: float):
    """P (branch form) from f = f(x) and c = c(x), after the two-formula cross-check, and the mask."""
    inactive, branch_sum, shifted_sum, term_scale = _penalty_terms(cons, c, lam, sigma)
    p_branch = f + branch_sum
    p_shifted = f + shifted_sum
    tol = max(1e-10 * max(1.0, abs(p_branch), abs(p_shifted)), 1e-12 * (abs(f) + term_scale))
    if abs(p_branch - p_shifted) > tol:
        raise FormDisagreementError(
            f"augmented Lagrangian forms disagree: {p_branch!r} vs {p_shifted!r}"
        )
    return p_branch, inactive


def _grad_from(g: np.ndarray, J: np.ndarray, lam: np.ndarray, sigma: float, c, inactive):
    coeff = sigma * c - lam
    coeff[inactive] = 0.0
    return g + J.T @ coeff


def eval_P(problem: ProblemSpec, x: np.ndarray, mult: MultiplierState, sigma: float) -> float:
    """Augmented Lagrangian P(x, lambda, sigma), cross-checked over both forms."""
    c = problem.constraints.c(x)
    return _checked_P(problem.constraints, problem.objective.value(x), c, mult.lam, sigma)[0]


def grad_P(problem: ProblemSpec, x: np.ndarray, mult: MultiplierState, sigma: float) -> np.ndarray:
    """Gradient of P in x; inactive inequality terms contribute zero."""
    cons = problem.constraints
    c = cons.c(x)
    _, inactive = _inactive_rows(cons, c, mult.lam, sigma)
    return _grad_from(problem.objective.gradient(x), cons.jac(x), mult.lam, sigma, c, inactive)


def penalty_value_grad(
    problem: ProblemSpec, x: np.ndarray, mult: MultiplierState, sigma: float
) -> tuple[float, np.ndarray]:
    """(P, grad P) from one evaluation of c(x); P is cross-checked as in eval_P."""
    cons = problem.constraints
    c = cons.c(x)
    p, inactive = _checked_P(cons, problem.objective.value(x), c, mult.lam, sigma)
    return p, _grad_from(problem.objective.gradient(x), cons.jac(x), mult.lam, sigma, c, inactive)


def hess_P(problem: ProblemSpec, x: np.ndarray, sigma: float) -> np.ndarray:
    """Hessian of P for equality-only linear constraints: hess f + sigma*A^T A."""
    cons = problem.constraints
    if not (cons.is_linear and cons.m_e == cons.m):
        raise UnsupportedSpecializationError(
            "Hessian of P is only available for equality-only linear constraints"
        )
    return problem.objective.hessian(x) + sigma * cons.AtA


def theta(cons: ConstraintSet, c: np.ndarray, mult: MultiplierState, sigma: float) -> ThetaStat:
    """Feasibility statistic driving the penalty update, from c = c(x_{k+1}).

    max of ||lambda/sigma||_inf, the shifted equality residual, and the
    inequality violation (each in the sup norm); parts without constraints of
    that type are -inf.
    """
    lam = mult.lam
    me = cons.m_e
    mult_part = float(np.max(np.abs(lam / sigma))) if cons.m > 0 else 0.0
    eq_part = (
        float(np.max(np.abs(c[:me] - lam[:me] / sigma))) if me > 0 else float("-inf")
    )
    ineq_part = (
        float(np.max(np.abs(np.minimum(c[me:], 0.0)))) if me < cons.m else float("-inf")
    )
    return ThetaStat(value=max(mult_part, eq_part, ineq_part), parts=(mult_part, eq_part, ineq_part))


def update_penalty(k: int, theta_next: float, theta_prev: float | None, state: PenaltyState) -> PenaltyState:
    """Penalty update: keep sigma at k=0 or on sufficient theta decrease."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return replace(state)
    if theta_prev is not None and theta_next <= state.gamma * theta_prev:
        return replace(state)
    if state.policy == POLYNOMIAL_GROWTH:
        candidate = float(k + 1) ** state.alpha
    else:
        candidate = 4.0 ** (k + 1)
    return replace(state, sigma=max(candidate, state.sigma))


def update_multipliers(
    cons: ConstraintSet, c: np.ndarray, mult: MultiplierState, sigma: float
) -> MultiplierState:
    """lambda <- lambda - sigma*c, clamped at zero on inequality rows; c = c(x_{k+1})."""
    me = cons.m_e
    lam = mult.lam - sigma * c
    lam[me:] = np.maximum(lam[me:], 0.0)
    return MultiplierState(lam=lam)


def mu_norm(mult: MultiplierState, sigma: float) -> float:
    """||lambda||_2 / sqrt(sigma), the scaled-multiplier norm."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(np.linalg.norm(mult.lam)) / math.sqrt(sigma)


def _lipschitz_linear(n: int, L1: float, sigma: float, norm_A_fro_sq: float) -> float:
    return math.sqrt(n) * (L1 + sigma * norm_A_fro_sq)


def lipschitz_bound_linear(L1: float, sigma: float, A: np.ndarray) -> float:
    """Global 2-norm Lipschitz constant of grad P for linear constraints.

    Valid only when every inequality-row coefficient is nonnegative; the
    caller is responsible for checking that precondition.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return _lipschitz_linear(A.shape[1], L1, sigma, float(np.sum(A * A)))


def lipschitz_bound_for(problem: ProblemSpec, sigma: float) -> float:
    """Problem-level wrapper for the linear Lipschitz bound, with checks."""
    cons = problem.constraints
    if not cons.is_linear:
        raise UnsupportedSpecializationError("Lipschitz bound requires linear constraints")
    if not cons.nonneg_ineq_rows:
        raise UnsupportedSpecializationError(
            "Lipschitz bound requires nonnegative inequality-row coefficients"
        )
    if problem.objective.L1 is None:
        raise UnsupportedSpecializationError("objective must declare a gradient Lipschitz constant")
    return _lipschitz_linear(problem.n, problem.objective.L1, sigma, cons.norm_A_fro_sq)
