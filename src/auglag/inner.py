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
task supplies its values), counts iterations, accepted steps and oracle
calls, and keeps the monotone value min(f, f_new) until ||grad g|| <= eps,
within the task's oracle budget ``max_calls``, by default ``ORACLE_BUDGET``
calls.  That budget is the loop's one limit, checked by the one counted
oracle that each step rule is given; a step rule that sees no later step
can make progress raises ``IterationCapExceeded`` itself.  On the way the
loop passes the task's larger ``stops``, whose results ride on the last
one, so an eps-sweep can share the descent that its rows repeat.  Each
iteration calls the step rule on (x, f, grad g, ||grad g||^2, last), last the
record (x, grad g(x), t) of the last accepted step; the rule proposes (x_new,
g(x_new), t), t its Armijo step or None, or None for a rejected trial.  Only cubic
Newton rejects; it forms the Hessian with its eigendecomposition at each
point where it solves a model, and keeps both across rejected trials.

One oracle call is one joint evaluation of value + gradient (+ Hessian where
requested); line-search trial points count as one call each.  The solvers
call ``gradient`` only at the start and at each accepted point, right after
``objective`` there, so a task can share work between the two calls at one
point (such as one evaluation of c(x) for P and its gradient).  A task whose
caller already holds g and grad g at the start passes them as
``start_pair``, and the solve then makes no call there.  A trial whose value
is not finite (an overflowing f or c) is rejected like any other failed
trial; a non-finite value at the start or at a fixed step, or a non-finite
gradient or Hessian anywhere, raises ``NonFiniteValue``, naming the oracle.
These are the only finiteness checks a solve makes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

FIXED_STEP = "fixed"
BACKTRACKING = "backtracking"

ORACLE_BUDGET = 1_000_000  # oracle calls: an inner solve's unless its task sets one, a run's in outer.solve
_ARMIJO_C1 = 1e-4
_STEP_FLOOR = 1e-16
# an Armijo search's first trial is at least _BB_LO and at most _BB_GROWTH times the last accepted t
_BB_LO, _BB_GROWTH = 1e-12, 256.0
# and is the short BB step s'y / y'y where that is below _BB_KAPPA times s's / s'y, but not below _BB_DELTA times it
_BB_KAPPA, _BB_DELTA = 0.2, 0.1
_M_MIN = 1e-8
_SECULAR_TOL = 1e-12


class IterationCapExceeded(RuntimeError):
    """The inner solver cannot reach eps: a step shows that no later one makes
    progress, or that an assumption fails (a fixed step that misses the descent
    lemma, as L is too small, or a cubic model whose secular root cannot be
    bracketed)."""


class OracleBudgetExceeded(RuntimeError):
    """The next oracle call would pass the task's ``max_calls``."""


class NonFiniteValue(RuntimeError):
    """An oracle returned NaN or infinity."""


@dataclass
class InnerTask:
    """One unconstrained minimization of g from ``start`` to ||grad g||_2 <= eps.

    The solvers call ``gradient`` at x only right after ``objective`` at x, so
    the two may share work.  ``start_pair`` is ``(g(start), grad g(start))``
    when the caller holds them, and ``last_evaluation()`` the caller's record
    of its last joint evaluation of g and grad g, which each result keeps as
    ``evaluation``.  The solve passes ``stops``, descending tolerances above eps, on the way,
    and raises ``OracleBudgetExceeded`` rather than make more than ``max_calls`` oracle calls,
    which is ``ORACLE_BUDGET`` when the task is built without it.  gd-backtracking's first
    Armijo search tries ``first_step`` first; the other solvers ignore it.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    eps: float
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_L: Optional[float] = None
    start_pair: Optional[tuple[float, np.ndarray]] = None
    last_evaluation: Optional[Callable[[], object]] = None
    stops: Sequence[float] = ()
    first_step: float = 2.0
    # the most oracle calls the solve may make, counted as oracle_calls
    max_calls: int = field(default_factory=lambda: ORACLE_BUDGET)

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=float).ravel()
        if not (self.eps > 0.0):
            raise ValueError("eps must be positive")
        if not np.isfinite(self.start).all():
            raise ValueError("start must be finite")


@dataclass
class InnerResult:
    """Where a solve ended, and its counts: iterations, accepted steps and oracle calls.

    ``last_step`` is the last Armijo step t that gd-backtracking accepted, and
    None for the other solvers and for a solve that took no step.
    """

    x_final: np.ndarray
    grad_norm2: float
    iterations: int
    oracle_calls: int
    accepted_steps: int
    # g(start): from task.start_pair, or the solve's first oracle call
    start_value: float
    last_step: Optional[float] = None
    # task.last_evaluation() when the result was taken: the record at x_final
    evaluation: object = field(default=None, compare=False, repr=False)
    # the results at the task's stops, each equal to a solve to that stop alone
    earlier: list[InnerResult] = field(default_factory=list, compare=False, repr=False)


def _finite_scalar(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteValue(f"objective oracle returned {v!r}")
    return v


def _slack(f: float) -> float:
    """The rounding a step's test forgives at g = f: 1e-14 max(1, |f|)."""
    return 1e-14 * max(1.0, abs(f))


def _grad_sq(g: np.ndarray) -> tuple[np.ndarray, float]:
    """(g, ||g||_2^2) from one g.dot(g), raising NonFiniteValue if g is not finite.

    A finite sum of squares implies finite entries, so the entry-wise test
    runs only when the sum is not finite (which a finite g can also give, by
    overflow).  sqrt of the sum is np.linalg.norm(g), bit for bit.  A float
    ``ndarray``, the common case, is used as it is, as ``np.asarray`` would.
    """
    if type(g) is not np.ndarray or g.dtype != float:
        g = np.asarray(g, dtype=float)
    gn2 = float(g.dot(g))
    if not math.isfinite(gn2) and not np.isfinite(g).all():
        raise NonFiniteValue("gradient oracle returned a non-finite vector")
    return g, gn2


def _norm(g: np.ndarray, gn2: float) -> float:
    """||g||_2 from gn2 = g.dot(g), also where the squares underflowed.

    It is sqrt(gn2) unless gn2 is below the smallest normal double, where the
    square of an entry below about 2e-162 rounds to 0; there the sum is taken
    again over g / max |g_i|.
    """
    if gn2 >= sys.float_info.min:
        return math.sqrt(gn2)
    top = float(np.abs(g).max(initial=0.0))
    if top == 0.0:
        return 0.0
    h = g / top
    return top * math.sqrt(float(h.dot(h)))


def _trial_value(value: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    """g(x) at a trial point, or inf where g (or c inside it) is not finite, which rejects the trial."""
    try:
        return _finite_scalar(value(x))
    except NonFiniteValue:
        return math.inf


def _descend(task: InnerTask, rule, *args) -> InnerResult:
    """Run the step ``rule(task, value, *args)`` from ``task.start`` through ``task.stops`` to ``task.eps``.

    ``value`` is ``task.objective`` counted, the solve's one oracle call: it
    raises ``OracleBudgetExceeded`` rather than make call ``max_calls + 1``,
    and the rules make no budget check.  So a step that raises its own error
    before its first call (a non-finite Hessian or a cubic step that no longer
    moves x, an Armijo search that starts below the step floor) raises it also
    where no call is left.  A ``task.start_pair`` replaces the evaluation at
    the start, which then makes no call.  Each ``step(x, f, g, gn2, last)``
    proposes ``(x_new, f_new, t)``, f_new = g(x_new) and t its Armijo step or
    None, or returns None for a rejected trial; ``last`` is the record (x,
    grad g(x), t) of the last accepted step, or None.  Only the loop accepts:
    it calls ``task.gradient`` at x_new, counts the step, keeps its record and
    sets f to min(f, f_new), the running value.

    The result at a tolerance is taken at the first iterate with ||grad g||_2
    at or below it, and equals what a run to that tolerance alone returns: the
    step rule keeps its state from one tolerance to the next, and the loop has
    no limit but the oracle budget.  The result at ``task.eps`` is returned,
    with those at the stops as its ``earlier``, each holding a copy of x.
    """
    calls = 0

    def value(x):
        nonlocal calls
        if calls >= task.max_calls:
            raise OracleBudgetExceeded(f"the inner solve used its budget of {task.max_calls} oracle calls")
        calls += 1
        return task.objective(x)

    step = rule(task, value, *args)
    x = task.start.copy()
    f, g = (value(x), task.gradient(x)) if task.start_pair is None else task.start_pair
    f, (g, gn2) = _finite_scalar(f), _grad_sq(g)
    start_value, iters, accepted, last = f, 0, 0, None
    last_evaluation = task.last_evaluation or (lambda: None)
    results, final = [], len(task.stops)
    for i, eps in enumerate((*task.stops, task.eps)):
        while _norm(g, gn2) > eps:
            moved = step(x, f, g, gn2, last)
            iters += 1
            if moved is not None:
                x_new, f_new, t = moved
                last = x, g, t
                x, f = x_new, min(f, f_new)
                g, gn2 = _grad_sq(task.gradient(x))
                accepted += 1
        results.append(InnerResult(
            x_final=x if i == final else x.copy(), grad_norm2=_norm(g, gn2), iterations=iters,
            oracle_calls=calls, accepted_steps=accepted, start_value=start_value,
            last_step=None if last is None else last[2], evaluation=last_evaluation(),
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
    is no last step or s'y <= 0, it starts at twice the last accepted t, at
    ``task.first_step`` for the first search.  The start is at least 1e-12
    and at most 256 times the last accepted t.  Where t ||grad g||^2 is
    within 64 ulps of g(x), below the rounding of the test, a trial also
    passes where g rises by no more than 1e-14 max(1, |g(x)|).  Both raise
    ``IterationCapExceeded`` where no later step can make progress: at a fixed
    step that lowers g by less than ||grad g||^2 / (2L), at a fixed step or a
    trial below the step floor 1e-16 that no longer moves x, and at Armijo
    steps that, with g unchanged, return to a state (Brent's check).
    """
    return _descend(task, _gd_rule, variant)


def _gd_rule(task: InnerTask, value, variant: str):
    """The step of ``gd_solve`` on ``task``, for ``_descend``, valuing g by ``value``."""
    if variant not in (FIXED_STEP, BACKTRACKING):
        raise ValueError(f"unknown variant {variant!r}")
    L = task.known_L
    if variant == FIXED_STEP and not (L is not None and 0.0 < L < math.inf):
        raise ValueError(f"fixed-step descent requires a finite positive known_L, got {L!r}")

    # The descent lemma (Nesterov, Introductory Lectures on Convex Optimization,
    # 2004, Lemma 1.2.3): where grad g is L-Lipschitz, the step 1/L lowers g by
    # ||grad g||^2 / (2L) or more; missing that by over _slack(f) shows L too small.
    # f is the loop's running min: g(x), or below it by a rise within the slack.
    # So each step with ||grad|| > eps lowers f by eps^2 / (2L) - _slack(f) or more.
    # Where 4 L max(g(start) - g_low, 1) / eps^2 (g_low a lower bound of g) is
    # below the oracle budget and |g| < 1e8, the slack is below eps^2 / (4L), and
    # the solve takes at most that many steps; elsewhere the budget bounds it.
    def fixed_step(x, f, g, gn2, last):
        x_new = x - g / L
        f_new = _finite_scalar(value(x_new))
        if f_new == f and (x_new == x).all():  # every later step would repeat this one
            raise IterationCapExceeded(f"the step g/L no longer moves x; L = {L!r} is too large")
        if f_new > f - 0.5 * gn2 / L + _slack(f):
            raise IterationCapExceeded(
                f"the step g/L lowered the objective by less than ||grad||^2/(2L) ({f} -> {f_new}); "
                f"L is too small (L = {L!r})"
            )
        return x_new, f_new, None

    # The first trial of a search is the Barzilai-Borwein step t = s's / s'y,
    # from s = x - x_prev and y = grad - grad_prev (Barzilai & Borwein, IMA J.
    # Numer. Anal. 8, 1988), or the short step s'y / y'y where that is below
    # _BB_KAPPA = 0.2 times it, as s and y point far apart, but not below
    # _BB_DELTA = 0.1 times it (the adaptive rule of Zhou, Gao & Dai, Comput.
    # Optim. Appl. 35, 2006, with a floor).  Without a previous pair, or where
    # s'y <= 0 or is not finite, it is twice the last accepted t; the first
    # search starts at t1 = task.first_step, which the outer loop sets to twice
    # the last t its previous solve accepted, capped at 2 (Nocedal & Wright,
    # Numerical Optimization, 2nd ed., 3.5).  The start is raised to _BB_LO =
    # 1e-12, a guard against rounding, and then cut to _BB_GROWTH = 256 times
    # the last accepted t.  Acceptance stays the monotone Armijo test with
    # halving, but where t ||grad||^2 is within 64 ulps of g(x) the test
    # compares rounding errors, and a trial that raises g by no more than
    # _slack(g(x)) passes too (after Hager & Zhang's approximate Armijo test,
    # SIAM J. Optim. 16, 2005): without it the search halves t until the step
    # no longer moves x.  Every trial is
    # at least t_min (below), and ||grad||^2 > eps^2 while the solve runs, so
    # this acceptance fires only where eps^2 < 64 ulp(g) L / delta; above
    # that the bounds below hold as stated.
    # If grad g is L-Lipschitz, every t <= 2(1 - c1)/L passes the test, since
    # g(x - t grad) <= g(x) - t (1 - L t / 2) ||grad||^2.  An accepted t is
    # its search's first trial or half of a rejected trial, which is more than
    # (1 - c1)/L.  A first trial is at least min(delta/L, t_prev), as s's / s'y
    # is at least 1/L (s'y <= L s's), the short step is taken only down to
    # delta times it, and the cut lies above t_prev; by induction t >=
    # min(t1, delta/L), as delta < 1 - c1.  That is t_min = min(2, delta/L),
    # for t1 = 2 and for a t1 = min(2, 2 t') carried from the outer loop's
    # last solve: its accepted t' is at least its own t_min, which is at least
    # this one, as sigma never falls and so neither does the certified L.
    # t_min is (1 - c1)/delta, about 10, times below the min(2, (1 - c1)/L)
    # of the plain BB start, so the bounds below are that much looser.  The
    # floor is what keeps them: the short step alone has no lower bound where
    # g is not convex.
    # Each accepted step with ||grad|| > eps lowers g by at least
    # c1 t_min eps^2, so a solve makes O(eps^-2) steps, at most
    # (g(start) - g_low) / (c1 t_min eps^2) + 1.  A search whose first
    # trial is t1 and accepted step t makes 1 + log2(t1 / t) trials, and
    # t1 <= 256 t_prev, with t1 <= 2 for the first search; the sum telescopes,
    # so N searches make at most 9 N + log2(2 / t_min) trials.  On the corpus
    # and on backtracking-sweep a cut at 256, or at 128, takes the same steps
    # as no cut.
    seen, power, count = None, 1, 0  # Brent's cycle check over the steps that leave g unchanged

    def armijo_step(x, f, g, gn2, last):
        nonlocal seen, power, count
        x_prev, g_prev, t_prev = last or (None, None, 0.5 * task.first_step)  # the first search starts at first_step
        t = 2.0 * t_prev
        if x_prev is not None:
            s, y = x - x_prev, g - g_prev
            sy = float(s.dot(y))
            if 0.0 < sy < math.inf:  # false for NaN too
                t, yy = float(s.dot(s)) / sy, float(y.dot(y))
                if sy < _BB_KAPPA * t * yy:  # s'y / y'y < kappa t, with no division by y'y = 0
                    t = max(sy / yy, _BB_DELTA * t)
        t = min(max(t, _BB_LO), _BB_GROWTH * t_prev)
        while True:
            x_new = x - t * g
            # below the floor the search gives up only once the trial no longer
            # moves x, so a steep g whose decreasing steps are all tiny still descends.
            # Brent's check sees accepted steps only, so this floor ends a search
            # that accepts none: with gn2 = inf no trial passes, not even t = 0, and
            # halving from t = 2 reaches t = 0 only after about 1 075 trials.
            if t < _STEP_FLOOR and (x_new == x).all():
                raise IterationCapExceeded("line search collapsed below the step floor: x no longer moves")
            f_new = _trial_value(value, x_new)
            if f_new <= f - _ARMIJO_C1 * t * gn2:
                break
            if t * gn2 <= 64.0 * math.ulp(f) and f_new <= f + _slack(f):
                break
            t *= 0.5
        if f_new < f:
            seen, power, count = None, 1, 0
        else:
            # The next step is a function of this state, as g and grad g are of
            # their points: once a state recurs, the steps between its two visits
            # repeat without end (Brent, BIT 20, 1980, finds the recurrence).  An
            # accepted step t that leaves x where it is, after a rejected 2t, is such a
            # cycle, of 1 step: with s = 0 the next search starts at 2t again.
            state = (x_new.tobytes(), x.tobytes(), t)
            if state == seen:
                steps = f"{count + 1} step" + ("s" if count else "")
                raise IterationCapExceeded(f"the Armijo steps repeat a cycle of {steps} at g = {f!r}")
            count += 1
            if count == power:
                seen, power, count = state, 2 * power, 0
        return x_new, f_new, t

    return fixed_step if variant == FIXED_STEP else armijo_step


def cubic_model_value(g: np.ndarray, H: np.ndarray, M: float, s: np.ndarray):
    """<g,s> + 0.5<Hs,s> + (M/6)||s||^3."""
    return float(g.dot(s)) + 0.5 * float(s.dot(H.dot(s))) + (M / 6.0) * math.sqrt(s.dot(s)) ** 3


def _model_eig(g: np.ndarray, H: np.ndarray):
    """(w, Q, Q^T g) for the symmetric part of H = Q diag(w) Q^T, raising NonFiniteValue if H or g is not finite.

    The symmetric part is H itself where H equals its transpose, else
    0.5*H + 0.5*H^T, which no finite H overflows, as H + H^T can past 9e307.
    """
    if not np.isfinite(H).all():
        raise NonFiniteValue("Hessian oracle returned a non-finite matrix")
    _grad_sq(g)  # a caller of solve_cubic_model supplies g unchecked
    w, Q = np.linalg.eigh(H if (H == H.T).all() else 0.5 * H + 0.5 * H.T)
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
        raise IterationCapExceeded("failed to bracket the secular-equation root")

    # One shifted spectrum, quotient and norm per iteration serve F and F'.  A
    # root within rounding of r_lb can make w_min + (M/2) r round to 0 or
    # below; F is then inf, NaN or far off, which moves the bracket like any
    # other value, and _rounded_root_step handles such a final r.
    gg = ghat * ghat
    r = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an overflowed denom**3 adds 0
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
    model decrease, or, where the model decrease is within 16 ulps of g(x),
    when g rises by no more than 1e-14 max(1, |g(x)|), the rounding
    gd-backtracking forgives.  The regularization weight M starts at
    max(known_L / 2, 1e-8) where the task declares the Hessian's Lipschitz
    constant L (1 where it does not): every trial at M >= L passes, so a
    start at L would take the shortest step, and one rejection at L/2 lifts M
    to L or above.  M halves (down to a floor) on acceptance; on rejection it
    becomes the larger of 2M and the weight at which the model meets g at
    the trial, or 2M where that misfit is not finite or is rounding.  So M
    stays at most max(M0, 2L), and a solve rejects at most accepted + 2
    trials where L is declared.  Only accepted steps move the iterate, so
    a rejected step reuses the Hessian and its eigendecomposition at the same
    point; both are formed only where a model is solved.
    """
    return _descend(task, _cubic_rule)


def _cubic_rule(task: InnerTask, value):
    """The step of ``cubic_newton_solve`` on ``task``, for ``_descend``, valuing g by ``value``."""
    if task.hessian is None:
        raise ValueError("cubic Newton requires a Hessian oracle")
    # not L: a trial at M >= L always passes (see below) but takes the shortest step
    M = max(0.5 * task.known_L, _M_MIN) if task.known_L is not None else 1.0
    model = None  # (H, eigendecomposition) at the current x, kept across rejected steps

    def step(x, f, g, gn2, last):
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
        f_trial = _trial_value(value, x_trial)
        # a model decrease within a few ulps of f is below the rounding of f - f_trial,
        # so the ratio test would only compare rounding errors: a step that raises g by
        # no more than _slack(f) passes, as in gd-backtracking's search (Hager & Zhang)
        rounding = 16.0 * math.ulp(f)
        if f - f_trial >= 0.25 * model_dec if model_dec > rounding else f_trial <= f + _slack(f):
            model = None
            M = max(0.5 * M, _M_MIN)
            return x_trial, f_trial, None
        # The misfit e = g(x + s) - m_M(s), where m_M(s) = f + g's + s'Hs / 2 +
        # (M / 6) ||s||^3 = f - model_dec, gives the weight M + 6 e / ||s||^3 at
        # which the model meets g at the trial (the interpolation update of
        # Cartis, Gould & Toint, Math. Program. 130, 2011, and Gould, Porcelli
        # & Toint, Comput. Optim. Appl. 53, 2012); M takes it where it beats
        # doubling.  A misfit that is not finite (a non-finite trial) or within
        # the rounding of f, or a model decrease within it, tells nothing of
        # the weight, nor does an ||s||^3 that underflows, and M doubles.
        # If the Hessian of g is L-Lipschitz, g(x + s) <= m_L(s) (Nesterov &
        # Polyak, Math. Program. 108, 2006, Lemma 1), so e <= (L - M) ||s||^3 / 6:
        # the new weight is at most L, and a trial with M >= L has e <= 0, so
        # f - f_trial >= model_dec >= 0 (s minimizes the model, which is 0 at
        # s = 0) and it passes.  So M rises only from below L, to under 2L, and
        # M <= max(M0, 2L) as under doubling alone (_M_MIN <= M0).  A rejection
        # at least doubles M and an acceptance at most halves it, so a solve
        # rejects at most accepted + log2(max(M0, 2L) / M0) trials, which is
        # accepted + 2 for M0 = max(L/2, _M_MIN).  Both hold in exact arithmetic.
        # Where the model decrease is within the 16 ulps, a trial at M >= L has
        # g(x + s) <= f in exact arithmetic, so it passes wherever the rounding of
        # f_trial stays within _slack(f), 1e-14 max(1, |f|).
        e = f_trial - f + model_dec
        r3 = math.sqrt(s.dot(s)) ** 3
        if model_dec > rounding and rounding < e < math.inf and r3 > 0.0:
            M = max(2.0 * M, M + 6.0 * e / r3)
        else:
            M *= 2.0
        return None

    return step
