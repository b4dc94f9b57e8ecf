"""Outer loop of the augmented Lagrangian method, with invariant monitors.

Each outer iteration minimizes P(., lambda, sigma) from a warm start until
the 2-norm of its gradient falls below eps (which implies the sup-norm
condition), computes the feasibility statistic theta, updates the penalty
parameter and the multipliers, and re-checks the eps-KKT conditions, into one
``OuterState`` record per k.  The run-time monitors read those records for the
per-iteration inequalities that the analysis guarantees; any violation
indicates an implementation bug, and in strict mode aborts the run.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import core, inner
from .problems import ConstraintSet, ProblemSpec, ValidationError
from .report import run_payload, write_json, write_run_csv

TERMINATED_KKT = "EpsKKT"
TERMINATED_MAX_OUTER = "MaxOuter"
TERMINATED_SIGMA_OVERFLOW = "SigmaOverflow"
TERMINATED_ORACLE_BUDGET = "OracleBudget"

INNER_GD_FIXED = "gd-fixed"
INNER_GD_BACKTRACKING = "gd-backtracking"
INNER_CUBIC = "cubic-newton"
INNER_SOLVERS = (INNER_GD_FIXED, INNER_GD_BACKTRACKING, INNER_CUBIC)

MONITOR_STRICT = "strict"
MONITOR_RECORD = "record"
MONITOR_MODES = (MONITOR_STRICT, MONITOR_RECORD)

_SIGMA_CAP = 1e16
_MONITOR_SLACK = 1e-9
_DUAL_IDENTITY_TOL = 1e-12


class MonitorViolation(core.ImplementationError):
    """A guaranteed per-iteration inequality failed in strict mode."""

    what = "strict monitor violation"


class InnerFailure(RuntimeError):
    """The inner solver failed; wraps the underlying error."""


class EvaluationMismatch(core.ImplementationError):
    """An inner result's evaluation is not at its final iterate: implementation bug."""

    what = "evaluation mismatch"


@dataclass
class SolverConfig:
    """The run options, and their one validator: types, ranges and names."""

    eps: float = 1e-3
    alpha: float = 3.0
    gamma: float = 0.5
    sigma0: float = 1.0
    inner: str = INNER_GD_FIXED
    max_outer: int = 10_000
    monitor: str = MONITOR_STRICT
    # When True, keep iterating until theta <= eps/2 as well as the direct
    # KKT test; certification of the outer-iteration bounds needs the first
    # theta-crossing, which the direct test alone can preempt.
    require_theta_half: bool = False

    def __post_init__(self) -> None:
        for name, kind, low, high in (
            ("eps", numbers.Real, 0.0, 1.0),
            ("alpha", numbers.Real, 1.0, math.inf),
            ("gamma", numbers.Real, 0.0, 1.0),
            ("sigma0", numbers.Real, 0.0, math.inf),
            ("max_outer", numbers.Integral, -1, math.inf),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "a real number" if kind is numbers.Real else "an integer"
                raise ValueError(f"{name!r} must be {noun}, got {value!r}")
            # written so that NaN fails it, and an integer past the largest double fails as inf does
            if not (low < value < high) or (kind is numbers.Real and abs(value) > sys.float_info.max):
                raise ValueError(f"{name!r} must lie in ({low:g}, {high:g}), got {value!r}")
        for name, allowed in (
            ("inner", INNER_SOLVERS),
            ("monitor", MONITOR_MODES),
        ):
            value = getattr(self, name)
            if not (isinstance(value, str) and value in allowed):
                raise ValueError(f"{name!r} must be one of {', '.join(allowed)}, got {value!r}")
        if not isinstance(self.require_theta_half, bool):
            raise ValueError(
                f"'require_theta_half' must be a bool, got {self.require_theta_half!r}"
            )


# the options a user sets; require_theta_half is for library callers only
CONFIG_KEYS = tuple(f.name for f in fields(SolverConfig) if f.name != "require_theta_half")


@dataclass(slots=True)
class KKTReport:
    dual_inf: float
    primal_eq: float
    primal_ineq: float
    sign_ok: bool
    compl_ok: bool
    is_eps_kkt: bool


@dataclass(slots=True)
class OuterState:
    """Outer iteration k: f, c, g = grad f, J = jac c, grad_L and the eps-KKT test at (x_k, lam_k).

    From k = 1, also the inner solve that led to x_k, theta at x_k (``th``), and P(x0) and
    P(x_{k-1}) (``p_zero``, ``p_prev``), all three under that solve's (lam_{k-1}, sigma_{k-1}).
    """

    k: int
    x: np.ndarray
    lam: np.ndarray
    sigma: float
    mu_norm_sq: float
    kkt: KKTReport
    f: float
    c: np.ndarray
    g: np.ndarray
    J: np.ndarray
    grad_L: np.ndarray
    inner_stats: Optional[inner.InnerResult] = None
    th: Optional[core.ThetaStat] = None
    p_zero: Optional[float] = None
    p_prev: Optional[float] = None

    @property
    def theta(self) -> Optional[float]:  # undefined at k = 0
        return None if self.th is None else self.th.value


@dataclass(slots=True)
class MonitorEntry:
    iteration: int
    check: str
    lhs: float
    rhs: float
    passed: bool


@dataclass
class RunReport:
    problem: str
    config: SolverConfig
    trace: list[OuterState]
    monitor_log: list[MonitorEntry]
    terminated: str

    @property
    def T_outer(self) -> int:
        return len(self.trace) - 1

    @property
    def total_inner(self) -> int:
        return sum(st.inner_stats.iterations for st in self.trace[1:])

    @property
    def total_oracle_calls(self) -> int:
        """The f evaluations the run made, each paired with one c(x): one at x0, then per
        outer iteration the inner solve's calls (its start and x_{k+1} are read, not evaluated)."""
        return 1 + sum(st.inner_stats.oracle_calls for st in self.trace[1:])

    @property
    def x_final(self) -> np.ndarray:
        return self.trace[-1].x

    @property
    def lambda_final(self) -> np.ndarray:
        return self.trace[-1].lam

    @property
    def kkt(self) -> KKTReport:
        return self.trace[-1].kkt

    def to_json_dict(self) -> dict:
        return run_payload(self, CONFIG_KEYS)

    def save_json(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    def save_csv(self, path: str) -> None:
        write_run_csv(path, self)


def kkt_check(
    cons: ConstraintSet, c: np.ndarray, grad_L: np.ndarray, lam: np.ndarray, eps: float
) -> KKTReport:
    """Direct eps-KKT test from c = c(x) and grad_L = core.lagrangian_grad at (x, lam).

    Absent rows give 0.0 and True.  The sign test reads min(lambda_ineq, 0) >= 0,
    which a NaN multiplier fails.
    """
    me = cons.m_e
    dual = float(np.abs(grad_L).max())
    primal_eq, primal_ineq = cons.primal_residuals(c)
    lam_ineq = lam[me:]
    sign_ok = bool(lam_ineq.min(initial=0.0) >= 0.0)
    compl_ok = bool((lam_ineq[c[me:] > eps] == 0.0).all())
    is_kkt = (
        dual <= eps and primal_eq <= eps and primal_ineq <= eps and sign_ok and compl_ok
    )
    return KKTReport(dual, primal_eq, primal_ineq, sign_ok, compl_ok, is_kkt)


def _slacked(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _MONITOR_SLACK * max(1.0, abs(rhs))


def monitor_step(
    first: OuterState, prev: OuterState, next_state: OuterState, f_low: float, eps: float
) -> list[MonitorEntry]:
    """Evaluate the guaranteed inequalities linking the records at k and k+1.

    ``first``, ``prev`` and ``next_state`` are the records at 0, k (whose multipliers
    and penalty the inner solve used) and k+1.  theta, grad L, P(x0), P(x_k) and the
    inner solve's last evaluation, at x_{k+1}, all come from ``next_state``, so a
    finished report's trace replays its monitor log.  The last two checks,
    ``dual_residual`` and ``theta_sufficiency``, are logged only when they fail.
    """
    k, sigma_k = prev.k, prev.sigma
    th, ev, p_zero = next_state.th, next_state.inner_stats.evaluation, next_state.p_zero
    f0, mu0_norm_sq, p_next = first.f, first.mu_norm_sq, ev.p
    gap = f0 - f_low
    entries: list[MonitorEntry] = []

    # scaled-multiplier growth: ||mu^(k+1)||^2 <= ||mu^(0)||^2 + 2*gap*(k+1)
    lhs = next_state.mu_norm_sq
    rhs = mu0_norm_sq + 2.0 * gap * (k + 1)
    entries.append(MonitorEntry(k + 1, "mu_growth", lhs, rhs, _slacked(lhs, rhs)))

    if k >= 1:
        # theta's shifted-equality and inequality parts; an absent part is -inf
        _, eq_part, ineq_part = th.parts
        residual = max(max(eq_part, 0.0), max(ineq_part, 0.0))
        rhs = k * (mu0_norm_sq + 4.0 * gap)
        lhs = sigma_k * residual ** 2
        entries.append(MonitorEntry(k + 1, "penalized_residual", lhs, rhs, _slacked(lhs, rhs)))

        lhs = sigma_k * th.value ** 2
        entries.append(MonitorEntry(k + 1, "penalized_theta", lhs, rhs, _slacked(lhs, rhs)))

    # the inner solver tracks min(f, f_new), not P(x_{k+1}), which the warm start supplies
    rhs = min(next_state.p_prev, p_zero)
    entries.append(MonitorEntry(k + 1, "inner_decrease", p_next, rhs, _slacked(p_next, rhs)))
    entries.append(MonitorEntry(k + 1, "feasible_upper_bound", p_zero, f0, _slacked(p_zero, f0)))

    # penalty lower bound: P(x) >= f(x) - 0.5*sum(lambda^2)/sigma
    lhs = next_state.f - 0.5 * float(np.add.reduce(prev.lam * prev.lam)) / sigma_k
    entries.append(MonitorEntry(k + 1, "penalty_lower_bound", lhs, p_next, _slacked(lhs, p_next)))

    # dual-residual identity between the new Lagrangian gradient and grad P
    lhs = float(np.abs(next_state.grad_L - ev.grad_p).max())
    entries.append(MonitorEntry(k + 1, "dual_identity", lhs, _DUAL_IDENTITY_TOL, lhs <= _DUAL_IDENTITY_TOL))
    # the inner solve's ||grad P|| <= eps bounds the new dual residual, and theta <= eps/2 implies eps-KKT
    kkt = next_state.kkt
    if kkt.dual_inf > eps:
        entries.append(MonitorEntry(k + 1, "dual_residual", kkt.dual_inf, eps, False))
    if th.value <= eps / 2.0 and not kkt.is_eps_kkt:
        entries.append(MonitorEntry(k + 1, "theta_sufficiency", th.value, eps / 2.0, False))
    return entries


def warm_start(
    pen: core.Penalty, first: OuterState, prev: OuterState
) -> tuple[np.ndarray, tuple[float, np.ndarray], float, float]:
    """The better of {x0, x_prev} under the current augmented Lagrangian ``pen``, at k >= 1.

    ``first`` and ``prev`` are the states at x0 and x_prev; P and grad P come
    from the f, c, grad f and J stored on them, so no oracle runs.  Returns
    ``(start, (P(start), grad P(start)), P(x0), P(x_prev))``; ``start`` is a
    copy, ties return x_prev, and ``pen`` keeps the start's evaluation as its
    last.  Starting the monotone inner solver here makes the final inner
    iterate automatically no worse than both candidates.
    """
    at_zero = pen.from_values(first.f, first.c)  # (P, mask)
    at_prev = pen.from_values(prev.f, prev.c)
    state, p_mask = (first, at_zero) if at_zero[0] < at_prev[0] else (prev, at_prev)
    ev = pen.evaluation(state.x, state.f, state.c, state.g, state.J, p_mask)
    return state.x.copy(), (ev.p, ev.grad_p), at_zero[0], at_prev[0]


def _inner_constant(problem: ProblemSpec, kind: str, sigma: float) -> Optional[float]:
    """Inner solver ``kind``'s ``known_L`` at penalty ``sigma``: the one statement of what each solver needs.

    gd-fixed takes ``core.lipschitz_bound_for``; cubic Newton takes the declared L2 and needs
    equality-only linear constraints and a Hessian oracle; gd-backtracking takes None.
    Raises a ``ValidationError`` where ``kind`` does not apply, which ``default_inner_for`` takes as a skip.
    """
    if kind == INNER_GD_FIXED:
        return core.lipschitz_bound_for(problem, sigma)
    if kind == INNER_CUBIC:
        cons = problem.constraints
        if not (cons.is_linear and cons.m_e == cons.m):
            raise core.UnsupportedSpecializationError("cubic Newton requires equality-only linear constraints")
        if not problem.objective.has_hessian:
            raise core.UnsupportedSpecializationError("cubic Newton requires a Hessian oracle")
        return problem.objective.L2
    return None


def _inner_solve(
    pen: core.Penalty, start: np.ndarray, eps: float, kind: str, start_pair=None,
    stops: Sequence[float] = (), spent: int = 1, first_step: float = 2.0, k: int = 0,
) -> inner.InnerResult:
    """Outer iteration ``k``'s inner solve of P = ``pen`` by ``kind``: every inner solve is built and run here.

    It starts at ``start``, where (P, grad P) is ``start_pair``, and passes ``stops`` on the way to eps.
    ``spent`` is the run's ``total_oracle_calls`` so far (1, at x0, before its first inner solve), and
    the solve may make the rest of ``inner.ORACLE_BUDGET``.  ``first_step`` is gd-backtracking's first
    trial step.  A solve that cannot reach eps raises ``InnerFailure``.
    """
    task = inner.InnerTask(
        objective=pen.value, gradient=pen.grad, hessian=pen.hess, start=start, eps=eps,
        known_L=_inner_constant(pen.problem, kind, pen.sigma), start_pair=start_pair,
        last_evaluation=pen.last_evaluation, stops=stops, first_step=first_step,
        max_calls=inner.ORACLE_BUDGET - spent,
    )
    try:
        if kind == INNER_CUBIC:
            return inner.cubic_newton_solve(task)
        return inner.gd_solve(task, inner.FIXED_STEP if kind == INNER_GD_FIXED else inner.BACKTRACKING)
    except (inner.IterationCapExceeded, inner.NonFiniteValue) as exc:
        # gd-fixed's L is L1 + sigma lambda_max(A^T A): name the declared L1 a user can fix
        note = f", L = L1 + sigma lambda_max(A^T A) with the declared L1 = {pen.problem.objective.L1!r}"
        where = f"sigma = {pen.sigma!r}{note if kind == INNER_GD_FIXED else ''}"
        raise InnerFailure(f"inner solver failed at outer iteration {k}: {exc} ({where})") from exc


def default_inner_for(problem: ProblemSpec, sigma0: float = SolverConfig.sigma0) -> str:
    """The first of cubic Newton and gd-fixed with an ``_inner_constant`` at sigma0, else gd-backtracking."""
    for kind in (INNER_CUBIC, INNER_GD_FIXED):
        try:
            if _inner_constant(problem, kind, sigma0) is not None:
                return kind
        except ValidationError:  # kind does not apply
            pass
    return INNER_GD_BACKTRACKING


def _record(
    cons: ConstraintSet, eps: float, k: int, x: np.ndarray, lam: np.ndarray, sigma: float,
    f: float, c: np.ndarray, g: np.ndarray, J: np.ndarray, **step,
) -> OuterState:
    """Iteration k's record at x under (lam, sigma) from f, c, g = grad f and J there; from k = 1,
    ``step`` holds the inner solve's ``inner_stats``, ``th``, ``p_zero`` and ``p_prev``."""
    grad_L = core.lagrangian_grad(g, J, lam)
    return OuterState(
        k=k, x=x, lam=lam, sigma=sigma, mu_norm_sq=core.mu_norm(lam, sigma) ** 2,
        kkt=kkt_check(cons, c, grad_L, lam, eps), f=f, c=c, g=g, J=J, grad_L=grad_L, **step,
    )


def _start(problem: ProblemSpec, config: SolverConfig) -> OuterState:
    """The k = 0 record at x0, with lambda = 0 and sigma0.

    Evaluates c, f, grad f and J once each at x0: a run's only oracle calls
    outside its inner solves.  Every check of the input raises a ``ValueError``
    here, before the first inner solve: ``_inner_constant`` at sigma0, for an
    inner solver that cannot apply or a gd-fixed L that is not finite and positive,
    before any oracle call, a non-finite or infeasible c(x0) (``ProblemSpec.check_feasible_start``)
    before f is evaluated, and a non-finite f, grad f or J at x0 (``ValidationError`` naming it)
    once they are.  Inside a solve the inner loop checks every value.
    """
    cons, obj, x0 = problem.constraints, problem.objective, problem.x0
    _inner_constant(problem, config.inner, config.sigma0)
    c0 = cons.c(x0)
    problem.check_feasible_start(c0)
    f0, g0, J0 = obj.value(x0), obj.gradient(x0), cons.jac(x0)
    # ObjectiveOracle.value returns a Python float, which math.isfinite tests without numpy
    for what, finite in (("objective value", math.isfinite(f0)), ("objective gradient", np.isfinite(g0).all()),
                         ("constraint Jacobian", np.isfinite(J0).all())):
        if not finite:
            raise ValidationError(f"{problem.name}: the {what} at x0 is not finite")
    return _record(cons, config.eps, 0, x0.copy(), np.zeros(cons.m), config.sigma0, f0, c0, g0, J0)


def _first_descent(
    problem: ProblemSpec, config: SolverConfig, first: OuterState, tolerances: Sequence[float]
) -> list[inner.InnerResult]:
    """Every k = 0 inner solve: P(., 0, sigma0) from x0, the ``first`` record, valued once from its
    oracle values, so each result's ``start_value`` is P(x0).  It runs to the last eps of the
    descending ``tolerances``, with the others as stops, and returns the result taken at each."""
    pen = core.Penalty(problem, first.lam, first.sigma)
    ev = pen.evaluation(first.x, first.f, first.c, first.g, first.J, pen.from_values(first.f, first.c))
    *stops, eps = tolerances
    res = _inner_solve(pen, first.x, eps, config.inner, (ev.p, ev.grad_p), stops)
    return [*res.earlier, res]


def first_inner_results(
    problem: ProblemSpec, config: SolverConfig, tolerances: Sequence[float]
) -> Optional[list[inner.InnerResult]]:
    """The k = 0 inner results of solves under ``config`` at each eps in ``tolerances``, from one descent.

    ``tolerances`` is descending.  The descent is ``solve``'s own k = 0 one, ``_first_descent``,
    so ``solve(problem, replace(config, eps=e), _first=result)`` returns the report of ``solve``
    at e alone.  None when such a solve runs no inner solve: no outer iteration allowed, or
    sigma0 above the cap.  Raises whatever the start or the descent raises.
    """
    if config.max_outer == 0 or config.sigma0 > _SIGMA_CAP:
        return None
    return _first_descent(problem, config, _start(problem, config), tolerances)


def solve(
    problem: ProblemSpec, config: SolverConfig, _first: Optional[inner.InnerResult] = None
) -> RunReport:
    """Run the augmented Lagrangian outer loop until an eps-KKT point.

    Terminates at the first k >= 1 whose pair (x_k, lambda^(k)) passes the
    direct eps-KKT test; theta <= eps/2 is monitored as the sufficient
    condition the analysis counts.  Ends ``TERMINATED_ORACLE_BUDGET``, with
    the outer iterations completed before, where an inner solve would take
    ``total_oracle_calls`` past ``inner.ORACLE_BUDGET``; every inner solve
    goes through ``_inner_solve``, which raises ``InnerFailure`` where one
    cannot reach eps.  k = 0 runs ``_first_descent``, or reads its result as
    ``_first`` from ``first_inner_results``, which an eps-sweep passes; its
    ``start_value`` is P(x0), read as both P(x0) and P(x_0).  From k = 1 each
    inner solve starts at ``warm_start``.  Each gd-backtracking solve starts
    its first Armijo search at min(2, 2 t), t the last step accepted by the
    last solve that took one, and at 2 before that.
    """
    cons = problem.constraints
    first = _start(problem, config)
    f_low = problem.objective.f_low
    state = first
    trace = [state]
    monitor_log: list[MonitorEntry] = []
    terminated = TERMINATED_MAX_OUTER
    calls = 1  # total_oracle_calls so far
    first_step = 2.0

    for k in range(config.max_outer):
        if state.sigma > _SIGMA_CAP:
            terminated = TERMINATED_SIGMA_OVERFLOW
            break
        try:
            if k == 0:
                res = _first if _first is not None else _first_descent(problem, config, first, [config.eps])[-1]
                p_zero = p_prev = res.start_value
            else:
                penalty = core.Penalty(problem, state.lam, state.sigma)
                start, start_pair, p_zero, p_prev = warm_start(penalty, first, state)
                res = _inner_solve(penalty, start, config.eps, config.inner, start_pair,
                                   spent=calls, first_step=first_step, k=k)
        except inner.OracleBudgetExceeded:
            terminated = TERMINATED_ORACLE_BUDGET
            break

        calls += res.oracle_calls
        if res.last_step is not None:
            first_step = min(2.0, 2.0 * res.last_step)
        # every quantity below reads the inner solve's last evaluation, at x_{k+1}
        ev = res.evaluation
        if ev is None or ev.key != res.x_final.tobytes():
            raise EvaluationMismatch(
                f"outer iteration {k}: the inner solve's last evaluation is not at its final iterate"
            )
        th = core.theta(cons, ev.c, state.lam, state.sigma)
        next_state = _record(
            cons, config.eps, k + 1, res.x_final, core.update_multipliers(cons, ev.c, state.lam, state.sigma),
            core.update_penalty(k, th.value, state.theta, state.sigma, config),
            ev.f, ev.c, ev.g, ev.J, inner_stats=res, th=th, p_zero=p_zero, p_prev=p_prev,
        )
        entries = monitor_step(first, state, next_state, f_low, config.eps)
        monitor_log.extend(entries)
        failed = [e for e in entries if not e.passed]
        if failed and config.monitor == MONITOR_STRICT:
            worst = failed[0]
            raise MonitorViolation(
                f"iteration {worst.iteration}: check {worst.check!r} failed "
                f"(lhs={worst.lhs!r}, rhs={worst.rhs!r})"
            )

        trace.append(next_state)
        state = next_state
        if next_state.kkt.is_eps_kkt and (
            not config.require_theta_half or th.value <= config.eps / 2.0
        ):
            terminated = TERMINATED_KKT
            break

    return RunReport(problem.name, config, trace, monitor_log, terminated)
