"""Monotone unconstrained inner solvers with certified iteration counts.

Two families are provided:

* gradient descent, either with the fixed step 1/L (requires a certified
  Lipschitz constant) or with monotone Armijo backtracking, whose searches
  start at an adaptive Barzilai-Borwein step of the last two iterates, for the
  first-order iteration budget C * L * (g(start) - g_low) / eps^2;
* adaptive cubic-regularized Newton for the second-order budget
  C * sqrt(L) * (g(start) - g_low) / eps^(3/2), with the cubic subproblem
  solved exactly through an eigendecomposition and a one-dimensional root
  find on the secular equation in r = ||s||.

All three run one loop, ``_descend``: it evaluates the start (unless the
task supplies its values), counts iterations and oracle calls, and keeps
the monotone value min(f, f_new) and its trace until ||grad g||_2 <= eps,
within an iteration cap taken from g(start) and eps and within the task's
oracle budget ``max_calls``.  On the way it passes the task's larger
``stops``, whose results ride on the last one, so an eps-sweep can share the
descent that its rows repeat.
Each iteration calls a step rule on (x, f, grad g, ||grad g||^2) and the
oracle calls left, which returns ``(point | None, calls)``: the next point in
that form, or None when it rejected its trial.  Only cubic Newton rejects; it
forms the Hessian with its eigendecomposition at each point where it solves a
model, and keeps both across rejected trials.

One oracle call is one joint evaluation of value + gradient (+ Hessian where
requested); line-search trial points count as one call each.  Where the
solvers need both at one point (every start and every fixed step) they call
``objective`` then ``gradient`` there, and an accepted trial point, already
valued, calls ``gradient`` alone; a task can share work between the two calls
at one point (such as one evaluation of c(x) for P and its gradient).  A
task whose caller already holds g and grad g at the start passes them as
``start_pair``, and the solve then makes no call there.  A
trial whose value is not finite (an overflowing f or c) is rejected like any
other failed trial; a non-finite value at the start or at a fixed step, or a
non-finite gradient anywhere, raises ``NonFiniteValue``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

FIXED_STEP = "fixed"
BACKTRACKING = "backtracking"

_BACKTRACK_CAP = 10_000_000
_CUBIC_CAP = 1_000_000
_ARMIJO_C1 = 1e-4
_STEP_FLOOR = 1e-16
# an Armijo search's first trial is at least _BB_LO and at most _BB_GROWTH times the last accepted t
_BB_LO, _BB_GROWTH = 1e-12, 256.0
# and is the short BB step s'y / y'y where that is below _BB_KAPPA times s's / s'y, but not below _BB_DELTA times it
_BB_KAPPA, _BB_DELTA = 0.2, 0.1
_M_MIN = 1e-8
_SECULAR_TOL = 1e-12


class IterationCapExceeded(RuntimeError):
    """The inner solver exhausted its iteration budget (bad L or assumptions)."""


class OracleBudgetExceeded(RuntimeError):
    """The next oracle call would pass the task's ``max_calls``."""


class NonFiniteValue(RuntimeError):
    """An oracle returned NaN or infinity."""


class EigendecompositionFailure(RuntimeError):
    """The Hessian could not be factorized (non-finite entries)."""


@dataclass
class InnerTask:
    """One unconstrained minimization of g from ``start`` to ||grad g||_2 <= eps.

    The solvers call ``gradient`` at x only right after ``objective`` at x, so
    the two may share work.  ``start_pair`` is ``(g(start), grad g(start))``
    when the caller holds them, and ``last_evaluation()`` the caller's record
    of its last joint evaluation of g and grad g, which each result keeps as
    ``evaluation``.  The solve passes ``stops``, descending tolerances above eps, on the way,
    and raises ``OracleBudgetExceeded`` rather than make more than ``max_calls`` oracle calls.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    eps: float
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_L: Optional[float] = None
    g_low: float = float("-inf")
    start_pair: Optional[tuple[float, np.ndarray]] = None
    last_evaluation: Optional[Callable[[], object]] = None
    stops: Sequence[float] = ()
    max_calls: float = math.inf  # the most oracle calls the solve may make, counted as oracle_calls

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=float).ravel()
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")
        if not np.isfinite(self.start).all():
            raise ValueError("start must be finite")


@dataclass
class InnerResult:
    x_final: np.ndarray
    grad_norm2: float
    iterations: int
    oracle_calls: int
    accepted_steps: int = 0
    objective_trace: list[float] = field(default_factory=list)
    # task.last_evaluation() when the result was taken: the record at x_final
    evaluation: object = field(default=None, compare=False, repr=False)
    # the results at the task's stops, each equal to a solve to that stop alone
    earlier: list[InnerResult] = field(default_factory=list, compare=False, repr=False)


def _finite_scalar(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteValue(f"oracle returned {v!r}")
    return v


def _grad_sq(g: np.ndarray) -> tuple[np.ndarray, float]:
    """(g, ||g||_2^2) from one g.dot(g), raising NonFiniteValue if g is not finite.

    A finite sum of squares implies finite entries, so the entry-wise test
    runs only when the sum is not finite (which a finite g can also give, by
    overflow).  sqrt of the sum is np.linalg.norm(g), bit for bit.
    """
    g = np.asarray(g, dtype=float)
    gn2 = float(g.dot(g))
    if not math.isfinite(gn2) and not np.isfinite(g).all():
        raise NonFiniteValue("oracle returned a non-finite vector")
    return g, gn2


def _checked(f: float, g: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(f, g, ||g||_2^2), raising NonFiniteValue if f or g is not finite."""
    return (_finite_scalar(f), *_grad_sq(g))


def _value_grad(task: InnerTask, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    return _checked(task.objective(x), task.gradient(x))


def _trial_value(task: InnerTask, x: np.ndarray) -> float:
    """g(x) at a trial point, or inf where g (or c inside it) is not finite, which rejects the trial."""
    try:
        return _finite_scalar(task.objective(x))
    except NonFiniteValue:
        return math.inf


def _descend(task: InnerTask, step, budget, what: str) -> InnerResult:
    """Run ``step`` from ``task.start`` through each of ``task.stops``, then to ``task.eps``.

    The result at a tolerance is taken at the first iterate with ||grad g||_2
    at or below it, and equals what a run to that tolerance alone returns: the
    step rule keeps its state from one tolerance to the next, and the cap
    while working toward eps is ``budget(g(start), eps)`` iterations from the
    start.  The result at ``task.eps`` is returned, with those at the stops as
    its ``earlier``; each of them holds copies of x and of the trace.
    ``what`` names the solver in the ``IterationCapExceeded`` message.  A
    ``task.start_pair`` replaces the evaluation at the start, which is then
    not counted.  ``step`` is passed the calls left under ``task.max_calls``,
    at least 1; a step that would need more raises ``OracleBudgetExceeded``.
    """
    x, limit = task.start.copy(), task.max_calls
    if task.start_pair is None:
        if limit < 1:
            raise OracleBudgetExceeded(f"{what} has no oracle call left for its start")
        f, g, gn2 = _value_grad(task, x)
        calls = 1
    else:
        f, g, gn2 = _checked(*task.start_pair)
        calls = 0
    f_start, iters, trace = f, 0, [f]
    last_evaluation = task.last_evaluation or (lambda: None)
    results, last = [], len(task.stops)
    for i, eps in enumerate((*task.stops, task.eps)):
        cap = budget(f_start, eps)
        while math.sqrt(gn2) > eps:
            if iters >= cap:
                raise IterationCapExceeded(f"{what} exceeded its budget of {cap} iterations")
            if calls >= limit:
                raise OracleBudgetExceeded(f"{what} used its budget of {limit} oracle calls")
            moved, used = step(x, f, g, gn2, limit - calls)
            calls += used
            iters += 1
            if moved is not None:
                x, f_new, g, gn2 = moved
                f = min(f, f_new)
                trace.append(f)
        results.append(InnerResult(
            x_final=x if i == last else x.copy(), grad_norm2=math.sqrt(gn2), iterations=iters,
            oracle_calls=calls, accepted_steps=len(trace) - 1,
            objective_trace=trace if i == last else trace.copy(), evaluation=last_evaluation(),
        ))
    results[-1].earlier = results[:-1]
    return results[-1]


def gd_solve(task: InnerTask, variant: str = FIXED_STEP) -> InnerResult:
    """Monotone gradient descent to ||grad g||_2 <= eps.

    ``FIXED_STEP`` steps by grad g / known_L.  ``BACKTRACKING`` halves an
    Armijo trial step until g(x - t grad g) <= g(x) - 1e-4 t ||grad g||^2;
    each search starts at the Barzilai-Borwein step s's / s'y of the last
    step s and gradient change y, or at the short step s'y / y'y where that
    is below a fifth of it, but at no less than a tenth of it; where there
    is no last step or s'y <= 0, it starts at the last accepted t, doubled
    only when the last search accepted its first trial.  The start is at
    least 1e-12 and at most 256 times the last accepted t.  Both raise
    ``IterationCapExceeded`` where a step no longer moves x and every later
    step would repeat it, and ``BACKTRACKING`` also where its steps, with g
    unchanged, return to a state they were in and would repeat the cycle
    between.
    """
    return _descend(task, *_gd_rule(task, variant))


def _gd_rule(task: InnerTask, variant: str):
    """(step, budget, name) of ``gd_solve`` on ``task``, for ``_descend``."""
    if variant not in (FIXED_STEP, BACKTRACKING):
        raise ValueError(f"unknown variant {variant!r}")
    L = task.known_L
    if variant == FIXED_STEP and not (L is not None and 0.0 < L < math.inf):
        raise ValueError(f"fixed-step descent requires a finite positive known_L, got {L!r}")

    def fixed_budget(f0: float, eps: float) -> float:
        decrease_bound = f0 - task.g_low if math.isfinite(task.g_low) else 1.0
        bound = 4.0 * L * max(decrease_bound, 1.0) * eps ** -2
        return math.ceil(bound) + 1000 if bound < math.inf else math.inf

    def fixed_step(x, f, g, gn2, room):
        x_new = x - g / L
        f_new, g_new, gn2_new = _value_grad(task, x_new)
        if f_new > f + 1e-14 * max(1.0, abs(f)):
            raise IterationCapExceeded(
                f"descent step increased the objective ({f} -> {f_new}); L is too small"
            )
        if f_new == f and (x_new == x).all():  # every later step would repeat this one
            raise IterationCapExceeded(f"the step g/L no longer moves x; L = {L!r} is too large")
        return (x_new, f_new, g_new, gn2_new), 1

    # The first trial of a search is the Barzilai-Borwein step t = s's / s'y,
    # from s = x - x_prev and y = grad - grad_prev (Barzilai & Borwein, IMA J.
    # Numer. Anal. 8, 1988), or the short step s'y / y'y where that is below
    # _BB_KAPPA = 0.2 times it, as s and y point far apart, but not below
    # _BB_DELTA = 0.1 times it (the adaptive rule of Zhou, Gao & Dai, Comput.
    # Optim. Appl. 35, 2006, with a floor).  Without a previous pair, or where
    # s'y <= 0 or is not finite, it is the last accepted t, doubled after a
    # first-trial acceptance, with 2 for the first search (Nocedal & Wright,
    # Numerical Optimization, 2nd ed., 3.5).  The start is raised to _BB_LO =
    # 1e-12, a guard against rounding, and then cut to _BB_GROWTH = 256 times
    # the last accepted t.  Acceptance stays the monotone Armijo test with halving.
    # If grad g is L-Lipschitz, every t <= 2(1 - c1)/L passes the test, since
    # g(x - t grad) <= g(x) - t (1 - L t / 2) ||grad||^2.  An accepted t is
    # its search's first trial or half of a rejected trial, which is more than
    # (1 - c1)/L.  A first trial is at least min(delta/L, t_prev), as s's / s'y
    # is at least 1/L (s'y <= L s's), the short step is taken only down to
    # delta times it, and the cut lies above t_prev; by induction t >= t_min =
    # min(2, delta/L), as delta < 1 - c1: (1 - c1)/delta, about 10, times
    # below the min(2, (1 - c1)/L) of the plain BB start, so the bounds below
    # are that much looser.  The floor is what keeps them: the short step
    # alone has no lower bound where g is not convex.
    # Each accepted step with ||grad|| > eps lowers g by at least
    # c1 t_min eps^2, so a solve makes O(eps^-2) steps, at most
    # (g(start) - g_low) / (c1 t_min eps^2) + 1.  A search whose first
    # trial is t1 and accepted step t makes 1 + log2(t1 / t) trials, and
    # t1 <= 256 t_prev, with 2 for the first search; the sum telescopes, so
    # N searches make at most 9 N + log2(2 / t_min) trials.  On the corpus
    # and on backtracking-sweep a cut at 256, or at 128, takes the same steps
    # as no cut.
    t_prev, grow = 1.0, True
    x_prev = g_prev = None  # the last accepted point and its gradient
    seen, power, count = None, 1, 0  # Brent's cycle check over the steps that leave g unchanged

    def armijo_step(x, f, g, gn2, room):
        nonlocal t_prev, grow, x_prev, g_prev, seen, power, count
        t = 2.0 * t_prev if grow else t_prev
        if x_prev is not None:
            s, y = x - x_prev, g - g_prev
            sy = float(s.dot(y))
            if 0.0 < sy < math.inf:  # false for NaN too
                t, yy = float(s.dot(s)) / sy, float(y.dot(y))
                if sy < _BB_KAPPA * t * yy:  # s'y / y'y < kappa t, with no division by y'y = 0
                    t = max(sy / yy, _BB_DELTA * t)
        t = min(max(t, _BB_LO), _BB_GROWTH * t_prev)
        trials = 0
        while True:
            if trials == room:
                raise OracleBudgetExceeded(f"a line search used the last {room} oracle calls of its budget")
            x_new = x - t * g
            # below the floor the search gives up only once the trial no longer
            # moves x, so a steep g whose decreasing steps are all tiny still descends
            if t < _STEP_FLOOR and (x_new == x).all():
                raise IterationCapExceeded("line search collapsed below the step floor: x no longer moves")
            f_new = _trial_value(task, x_new)
            trials += 1
            if f_new <= f - _ARMIJO_C1 * t * gn2:
                break
            t *= 0.5
        if f_new < f:
            seen, power, count = None, 1, 0
        else:
            # An accepted trial equal to x after a rejected 2t at this same x: the
            # next search accepts t as its first trial, the one after rejects 2t
            # again, and so on, without end.
            if trials > 1 and (x_new == x).all():
                raise IterationCapExceeded(f"the accepted Armijo step t = {t!r} no longer moves x")
            # The next step is a function of this state, as g and grad g are of
            # their points: once a state recurs, the steps between its two visits
            # repeat without end (Brent, BIT 20, 1980, finds the recurrence).
            state = (x_new.tobytes(), x.tobytes(), t, trials == 1)
            if state == seen:
                raise IterationCapExceeded(f"the Armijo steps repeat a cycle of {count + 1} steps at g = {f!r}")
            count += 1
            if count == power:
                seen, power, count = state, 2 * power, 0
        t_prev, grow, x_prev, g_prev = t, trials == 1, x, g
        return (x_new, f_new, *_grad_sq(task.gradient(x_new))), trials

    if variant == FIXED_STEP:
        return fixed_step, fixed_budget, "gradient descent"
    return armijo_step, lambda f0, eps: _BACKTRACK_CAP, "gradient descent"


def cubic_model_value(g: np.ndarray, H: np.ndarray, M: float, s: np.ndarray):
    """<g,s> + 0.5<Hs,s> + (M/6)||s||^3."""
    return float(g.dot(s)) + 0.5 * float(s.dot(H.dot(s))) + (M / 6.0) * math.sqrt(s.dot(s)) ** 3


def _model_eig(g: np.ndarray, H: np.ndarray):
    """(w, Q, Q^T g) for the symmetric part of H = Q diag(w) Q^T."""
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise EigendecompositionFailure("non-finite Hessian or gradient")
    w, Q = np.linalg.eigh(0.5 * (H + H.T))
    return w, Q, Q.T.dot(g)


def _off_min_part(ghat: np.ndarray, denom: np.ndarray, skip: np.ndarray):
    """(p, ||p||) with p = ghat/denom off the ``skip`` components and 0 on them."""
    p = np.where(skip, 0.0, ghat / np.where(skip, 1.0, denom))
    return p, float(np.linalg.norm(p))


def _hard_case_step(Q: np.ndarray, p: np.ndarray, pnorm: float, r: float, sign: float) -> np.ndarray:
    """Q (-p + sign*tau*e_0), with tau giving length r where ||p|| <= r."""
    tau = math.sqrt(max(0.0, r * r - pnorm * pnorm))
    e = np.zeros_like(p)
    e[0] = sign
    return Q.dot(-p + tau * e)


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
    hard_candidate = r_lb > 0.0 and float(np.abs(ghat[min_mask]).max(initial=0.0)) <= 1e-13 * max(1.0, gnorm)
    if hard_candidate:
        p, pnorm = _off_min_part(ghat, w + half_M * r_lb, min_mask)
        if pnorm <= r_lb:
            return _hard_case_step(Q, p, pnorm, r_lb, 1.0)

    def residual(r: float) -> float:
        v = ghat / (w + half_M * r)
        return math.sqrt(v.dot(v)) - r

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
            n2 = math.sqrt(v.dot(v))
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
        return Q.dot(-ghat / denom)
    return _rounded_root_step(Q, ghat, denom, r)


def cubic_newton_solve(task: InnerTask) -> InnerResult:
    """Adaptive cubic-regularized Newton to ||grad g||_2 <= eps.

    Steps are accepted when the actual decrease reaches a quarter of the
    model decrease; the regularization weight doubles on rejection and halves
    (down to a floor) on acceptance.  Only accepted steps move the iterate, so
    a rejected step reuses the Hessian and its eigendecomposition at the same
    point; both are formed only where a model is solved.
    """
    return _descend(task, *_cubic_rule(task))


def _cubic_rule(task: InnerTask):
    """(step, budget, name) of ``cubic_newton_solve`` on ``task``, for ``_descend``."""
    if task.hessian is None:
        raise ValueError("cubic Newton requires a Hessian oracle")
    M = max(task.known_L, _M_MIN) if task.known_L is not None else 1.0
    model = None  # (H, eigendecomposition) at the current x, kept across rejected steps

    def step(x, f, g, gn2, room):
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
        f_trial = _trial_value(task, x_trial)
        if model_dec > 0.0 and f - f_trial >= 0.25 * model_dec:
            model = None
            M = max(0.5 * M, _M_MIN)
            return (x_trial, f_trial, *_grad_sq(task.gradient(x_trial))), 1
        M *= 2.0
        return None, 1

    return step, lambda f0, eps: _CUBIC_CAP, "cubic Newton"
