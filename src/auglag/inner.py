"""Monotone unconstrained inner solvers with certified iteration counts.

Two families are provided:

* gradient descent, either with the fixed step 1/L (requires a certified
  Lipschitz constant) or with Armijo backtracking, for the first-order
  iteration budget C * L * (g(start) - g_low) / eps^2;
* adaptive cubic-regularized Newton for the second-order budget
  C * sqrt(L) * (g(start) - g_low) / eps^(3/2), with the cubic subproblem
  solved exactly through an eigendecomposition and a one-dimensional root
  find on the secular equation in r = ||s||.

All three run one loop, ``_descend``: it evaluates the start, takes the
iteration cap from g(start), counts iterations and oracle calls, and keeps
the monotone value min(f, f_new) and its trace until ||grad g||_2 <= eps.
Each iteration calls a step rule on (x, f, grad g, ||grad g||^2), which
returns ``(point | None, calls)``: the next point in that form, or None when
it rejected its trial.  Only cubic Newton rejects; it forms the Hessian with
its eigendecomposition at each point where it solves a model, and keeps both
across rejected trials.

One oracle call is one joint evaluation of value + gradient (+ Hessian where
requested); line-search trial points count as one call each.  A task may
supply that joint evaluation as ``value_grad``, which the solvers use wherever
they need both at one point (every start and every fixed step); Armijo trial
points and cubic trial steps need only the value and call ``objective``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

FIXED_STEP = "fixed"
BACKTRACKING = "backtracking"

_BACKTRACK_CAP = 10_000_000
_CUBIC_CAP = 1_000_000
_ARMIJO_C1 = 1e-4
_STEP_FLOOR = 1e-16
_M_MIN = 1e-8
_SECULAR_TOL = 1e-12


class IterationCapExceeded(RuntimeError):
    """The inner solver exhausted its iteration budget (bad L or assumptions)."""


class NonFiniteValue(RuntimeError):
    """An oracle returned NaN or infinity."""


class EigendecompositionFailure(RuntimeError):
    """The Hessian could not be factorized (non-finite entries)."""


@dataclass
class InnerTask:
    """One unconstrained minimization of g from ``start`` to ||grad g||_2 <= eps.

    ``value_grad(x)`` returns ``(g(x), grad g(x))`` and must agree with
    ``objective`` and ``gradient``; a caller that can share work between the
    two (such as one evaluation of c(x) for P and its gradient) passes it, and
    otherwise it defaults to calling ``objective`` then ``gradient``.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    eps: float
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_L: Optional[float] = None
    g_low: float = float("-inf")
    value_grad: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None

    def __post_init__(self) -> None:
        if self.value_grad is None:
            self.value_grad = lambda x: (self.objective(x), self.gradient(x))
        self.start = np.asarray(self.start, dtype=float).ravel()
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")
        if not np.all(np.isfinite(self.start)):
            raise ValueError("start must be finite")


@dataclass
class InnerResult:
    x_final: np.ndarray
    grad_norm2: float
    iterations: int
    oracle_calls: int
    accepted_steps: int = 0
    objective_trace: list[float] = field(default_factory=list)


def _finite_scalar(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteValue(f"oracle returned {v!r}")
    return v


def _grad_sq(g: np.ndarray) -> tuple[np.ndarray, float]:
    """(g, ||g||_2^2) from one g @ g, raising NonFiniteValue if g is not finite.

    A finite sum of squares implies finite entries, so the entry-wise test
    runs only when the sum is not finite (which a finite g can also give, by
    overflow).  sqrt of the sum is np.linalg.norm(g), bit for bit.
    """
    g = np.asarray(g, dtype=float)
    gn2 = float(g @ g)
    if not math.isfinite(gn2) and not np.isfinite(g).all():
        raise NonFiniteValue("oracle returned a non-finite vector")
    return g, gn2


def _value_grad(task: InnerTask, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    f, g = task.value_grad(x)
    return (_finite_scalar(f), *_grad_sq(g))


def _descend(task: InnerTask, step, budget, what: str) -> InnerResult:
    """Run ``step`` from ``task.start`` to ||grad g||_2 <= eps, within ``budget(g(start))`` steps.

    ``what`` names the solver in the ``IterationCapExceeded`` message.
    """
    x = task.start.copy()
    f, g, gn2 = _value_grad(task, x)
    cap = budget(f)
    calls, iters, trace = 1, 0, [f]
    while math.sqrt(gn2) > task.eps:
        if iters >= cap:
            raise IterationCapExceeded(f"{what} exceeded its budget of {cap} iterations")
        moved, used = step(x, f, g, gn2)
        calls += used
        iters += 1
        if moved is not None:
            x, f_new, g, gn2 = moved
            f = min(f, f_new)
            trace.append(f)
    return InnerResult(x_final=x, grad_norm2=math.sqrt(gn2), iterations=iters, oracle_calls=calls,
                       accepted_steps=len(trace) - 1, objective_trace=trace)


def gd_solve(task: InnerTask, variant: str = FIXED_STEP) -> InnerResult:
    """Monotone gradient descent to ||grad g||_2 <= eps."""
    if variant not in (FIXED_STEP, BACKTRACKING):
        raise ValueError(f"unknown variant {variant!r}")
    L = task.known_L
    if variant == FIXED_STEP and not (L is not None and 0.0 < L < math.inf):
        raise ValueError(f"fixed-step descent requires a finite positive known_L, got {L!r}")

    def fixed_budget(f0: float) -> float:
        decrease_bound = f0 - task.g_low if math.isfinite(task.g_low) else 1.0
        bound = 4.0 * L * max(decrease_bound, 1.0) * task.eps ** -2
        return math.ceil(bound) + 1000 if bound < math.inf else math.inf

    def fixed_step(x, f, g, gn2):
        x_new = x - g / L
        f_new, g_new, gn2_new = _value_grad(task, x_new)
        if f_new > f + 1e-14 * max(1.0, abs(f)):
            raise IterationCapExceeded(
                f"descent step increased the objective ({f} -> {f_new}); L is too small"
            )
        if f_new == f and (x_new == x).all():  # every later step would repeat this one
            raise IterationCapExceeded(f"the step g/L no longer moves x; L = {L!r} is too large")
        return (x_new, f_new, g_new, gn2_new), 1

    t_prev = 1.0

    def armijo_step(x, f, g, gn2):
        nonlocal t_prev
        t = 2.0 * t_prev
        trials = 0
        while True:
            x_new = x - t * g
            f_new = _finite_scalar(task.objective(x_new))
            trials += 1
            if f_new <= f - _ARMIJO_C1 * t * gn2:
                break
            t *= 0.5
            if t < _STEP_FLOOR:
                raise IterationCapExceeded("line search collapsed below the step floor")
        t_prev = t
        return (x_new, f_new, *_grad_sq(task.gradient(x_new))), trials

    if variant == FIXED_STEP:
        return _descend(task, fixed_step, fixed_budget, "gradient descent")
    return _descend(task, armijo_step, lambda f0: _BACKTRACK_CAP, "gradient descent")


def cubic_model_value(g: np.ndarray, H: np.ndarray, M: float, s: np.ndarray):
    """<g,s> + 0.5<Hs,s> + (M/6)||s||^3."""
    return float(g @ s) + 0.5 * float(s @ (H @ s)) + (M / 6.0) * math.sqrt(s @ s) ** 3


def _model_eig(g: np.ndarray, H: np.ndarray):
    """(w, Q, Q^T g) for the symmetric part of H = Q diag(w) Q^T."""
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(g))):
        raise EigendecompositionFailure("non-finite Hessian or gradient")
    w, Q = np.linalg.eigh(0.5 * (H + H.T))
    return w, Q, Q.T @ g


def _off_min_part(ghat: np.ndarray, denom: np.ndarray, skip: np.ndarray):
    """(p, ||p||) with p = ghat/denom off the ``skip`` components and 0 on them."""
    p = np.where(skip, 0.0, ghat / np.where(skip, 1.0, denom))
    return p, float(np.linalg.norm(p))


def _hard_case_step(Q: np.ndarray, p: np.ndarray, pnorm: float, r: float, sign: float) -> np.ndarray:
    """Q (-p + sign*tau*e_0), with tau giving length r where ||p|| <= r."""
    tau = math.sqrt(max(0.0, r * r - pnorm * pnorm))
    e = np.zeros_like(p)
    e[0] = sign
    return Q @ (-p + tau * e)


def _rounded_root_step(Q: np.ndarray, ghat: np.ndarray, denom: np.ndarray, r: float) -> np.ndarray:
    """The step at a secular root r where denom = w + (M/2) r is not positive.

    Such an r lies within float spacing of r_lb, where denom[0] rounds to
    zero or below; -ghat/denom would be inf, NaN or a step far shorter than
    r there, so the step is the hard-case step of length r that
    drops the non-positive components, its minimal-eigenvector part signed
    against ghat_0 (the sign that lowers the model).
    """
    p, pnorm = _off_min_part(ghat, denom, denom <= 0.0)
    return _hard_case_step(Q, p, pnorm, r, -1.0 if ghat[0] > 0.0 else 1.0)


def solve_cubic_model(g: np.ndarray, H: np.ndarray, M: float, eig=None) -> np.ndarray:
    """Exact global minimizer of the cubic-regularized quadratic model.

    Eigendecompose H, then find r = ||s|| from the secular equation
    ||(H + (M/2) r I)^{-1} g||_2 = r by safeguarded Newton with bisection
    fallback, to residual tolerance 1e-12.  The degenerate case where the
    gradient has no component on the minimal eigenspace is handled by adding
    an eigenvector component of the right length.  So is a root within float
    spacing of r_lb = -2 w_min/M, where w + (M/2) r rounds to zero or below
    on the minimal eigenvalue (see ``_rounded_root_step``).

    ``eig`` is ``_model_eig(g, H)`` from an earlier call with the same g and
    H; passing it skips the eigendecomposition when only M has changed.
    """
    w, Q, ghat = _model_eig(g, H) if eig is None else eig
    gnorm = float(np.linalg.norm(ghat))
    if gnorm == 0.0 and w[0] >= 0.0:
        return np.zeros_like(g)

    w_min = float(w[0])
    half_M = 0.5 * M
    r_lb = max(0.0, -2.0 * w_min / M)

    min_mask = (w - w_min) <= 1e-12 * max(1.0, abs(w_min))
    hard_candidate = r_lb > 0.0 and float(np.max(np.abs(ghat[min_mask]), initial=0.0)) <= 1e-13 * max(1.0, gnorm)
    if hard_candidate:
        p, pnorm = _off_min_part(ghat, w + half_M * r_lb, min_mask)
        if pnorm <= r_lb:
            return _hard_case_step(Q, p, pnorm, r_lb, 1.0)

    def residual(r: float) -> float:
        v = ghat / (w + half_M * r)
        return math.sqrt(v @ v) - r

    # bracket the root of the (decreasing) residual
    lo = r_lb
    hi = max(1.0, 2.0 * (r_lb + 1.0))
    for _ in range(200):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise EigendecompositionFailure("failed to bracket the secular-equation root")

    # One shifted spectrum, quotient and norm per iteration serve F and F'.  A
    # root within rounding of r_lb can make w_min + (M/2) r round to 0 or
    # below; F is then inf, NaN or far off, which moves the bracket like any
    # other value, and _rounded_root_step handles such a final r.
    gg = ghat * ghat
    r = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(500):
            denom = w + half_M * r
            v = ghat / denom
            n2 = math.sqrt(v @ v)
            F = n2 - r
            if abs(F) <= _SECULAR_TOL:
                break
            if F > 0.0:
                lo = r
            else:
                hi = r
            dn2 = -half_M * float(np.add.reduce(gg / denom ** 3)) / n2 if n2 > 0 else 0.0
            dF = dn2 - 1.0
            r_newton = r - F / dF if dF != 0.0 else r
            r_next = r_newton if lo < r_newton < hi else 0.5 * (lo + hi)
            if r_next == r:
                break  # a fixed point: every later iteration would repeat this one
            r = r_next
            if hi - lo <= 1e-17 * max(1.0, r):
                break
    denom = w + half_M * r
    # w is ascending, so denom[0] is the smallest shifted eigenvalue
    if denom[0] > 0.0:
        return Q @ (-ghat / denom)
    return _rounded_root_step(Q, ghat, denom, r)


def cubic_newton_solve(task: InnerTask) -> InnerResult:
    """Adaptive cubic-regularized Newton to ||grad g||_2 <= eps.

    Steps are accepted when the actual decrease reaches a quarter of the
    model decrease; the regularization weight doubles on rejection and halves
    (down to a floor) on acceptance.  Only accepted steps move the iterate, so
    a rejected step reuses the Hessian and its eigendecomposition at the same
    point; both are formed only where a model is solved.
    """
    if task.hessian is None:
        raise ValueError("cubic Newton requires a Hessian oracle")
    M = max(task.known_L, _M_MIN) if task.known_L is not None else 1.0
    model = None  # (H, eigendecomposition) at the current x, kept across rejected steps

    def step(x, f, g, gn2):
        nonlocal M, model
        if model is None:
            H = np.asarray(task.hessian(x), dtype=float)
            model = H, _model_eig(g, H)
        H, eig = model
        s = solve_cubic_model(g, H, M, eig)
        model_dec = -cubic_model_value(g, H, M, s)
        x_trial = x + s
        if (x_trial == x).all():  # M only grows from here, and s only shrinks
            raise IterationCapExceeded(f"the cubic step no longer moves x; M = {M!r} is too large")
        f_trial = _finite_scalar(task.objective(x_trial))
        if model_dec > 0.0 and f - f_trial >= 0.25 * model_dec:
            model = None
            M = max(0.5 * M, _M_MIN)
            return (x_trial, f_trial, *_grad_sq(task.gradient(x_trial))), 1
        M *= 2.0
        return None, 1

    return _descend(task, step, lambda f0: _CUBIC_CAP, "cubic Newton")
