"""Outer loop of the augmented Lagrangian method, with invariant monitors.

Each outer iteration minimizes P(., lambda, sigma) from a warm start until
the 2-norm of its gradient falls below eps (which implies the sup-norm
condition), computes the feasibility statistic theta, updates the penalty
parameter and the multipliers, and re-checks the eps-KKT conditions.  The
run-time monitors evaluate the per-iteration inequalities that the analysis
guarantees; any violation indicates an implementation bug, and in strict
mode aborts the run.
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


@dataclass
class KKTReport:
    dual_inf: float
    primal_eq: float
    primal_ineq: float
    sign_ok: bool
    compl_ok: bool
    is_eps_kkt: bool


@dataclass
class OuterState:
    k: int
    x: np.ndarray
    lam: np.ndarray
    sigma: float
    theta: Optional[float]  # undefined at k = 0
    mu_norm_sq: float
    kkt: KKTReport  # the direct eps-KKT test at (x, lam)
    inner_stats: Optional[inner.InnerResult] = None
    f: float = float("nan")
    # c(x), grad f(x) and jac c(x); kept for the warm start, not serialized
    c: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    J: Optional[np.ndarray] = None


@dataclass
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
    """Direct eps-KKT test from c = c(x) and grad_L = core.lagrangian_grad at (x, lam)."""
    me = cons.m_e
    dual = float(np.abs(grad_L).max())
    primal_eq, primal_ineq = cons.primal_residuals(c)
    sign_ok = bool((lam[me:] >= 0.0).all())
    compl_ok = bool((lam[me:][c[me:] > eps] == 0.0).all())
    is_kkt = (
        dual <= eps and primal_eq <= eps and primal_ineq <= eps and sign_ok and compl_ok
    )
    return KKTReport(dual, primal_eq, primal_ineq, sign_ok, compl_ok, is_kkt)


def _slacked(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _MONITOR_SLACK * max(1.0, abs(rhs))


def monitor_step(
    first: OuterState, prev: OuterState, next_state: OuterState, f_low: float,
    th: core.ThetaStat, p_prev: float, p_zero: float, ev: core.Evaluation,
    grad_L: np.ndarray, eps: float,
) -> list[MonitorEntry]:
    """Evaluate the guaranteed inequalities linking two consecutive states.

    ``first``, ``prev`` and ``next_state`` are the states at 0, k (whose multipliers
    and penalty the inner solve used) and k+1, and ``ev`` the inner solve's last
    evaluation, at x_{k+1}.  The rest is what ``solve`` computed: theta, P at x_k and
    x0 under (lambda_k, sigma_k), and grad L at (x_{k+1}, lambda_{k+1}).  The last
    two checks, ``dual_residual`` and ``theta_sufficiency``, are logged only when they fail.
    """
    k = prev.k
    f0, mu0_norm_sq, p_next = first.f, first.mu_norm_sq, ev.p
    gap = f0 - f_low
    entries: list[MonitorEntry] = []
    sigma_k = prev.sigma

    # scaled-multiplier growth: ||mu^(k+1)||^2 <= ||mu^(0)||^2 + 2*gap*(k+1)
    lhs = next_state.mu_norm_sq
    rhs = mu0_norm_sq + 2.0 * gap * (k + 1)
    entries.append(MonitorEntry(k + 1, "mu_growth", lhs, rhs, _slacked(lhs, rhs)))

    if k >= 1:
        # theta's shifted-equality and inequality parts; an absent part is -inf
        residual = max(max(part, 0.0) for part in th.parts[1:])
        rhs = k * (mu0_norm_sq + 4.0 * gap)
        lhs = sigma_k * residual ** 2
        entries.append(MonitorEntry(k + 1, "penalized_residual", lhs, rhs, _slacked(lhs, rhs)))

        lhs = sigma_k * th.value ** 2
        entries.append(MonitorEntry(k + 1, "penalized_theta", lhs, rhs, _slacked(lhs, rhs)))

    # the inner solver tracks min(f, f_new), not P(x_{k+1}), which solve supplies
    rhs = min(p_prev, p_zero)
    entries.append(MonitorEntry(k + 1, "inner_decrease", p_next, rhs, _slacked(p_next, rhs)))
    entries.append(MonitorEntry(k + 1, "feasible_upper_bound", p_zero, f0, _slacked(p_zero, f0)))

    # penalty lower bound: P(x) >= f(x) - 0.5*sum(lambda^2)/sigma
    lhs = next_state.f - 0.5 * float((prev.lam * prev.lam).sum()) / sigma_k
    entries.append(
        MonitorEntry(k + 1, "penalty_lower_bound", lhs, p_next, _slacked(lhs, p_next))
    )

    # dual-residual identity between the new Lagrangian gradient and grad P
    lhs = float(np.abs(grad_L - ev.grad_p).max())
    entries.append(
        MonitorEntry(k + 1, "dual_identity", lhs, _DUAL_IDENTITY_TOL, lhs <= _DUAL_IDENTITY_TOL)
    )
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
    """The better of {x0, x_prev} under the current augmented Lagrangian ``pen``.

    ``first`` and ``prev`` are the states at x0 and x_prev; P and grad P come
    from the f, c, grad f and J stored on them, so no oracle runs.  Returns
    ``(start, (P(start), grad P(start)), P(x0), P(x_prev))``; ``start`` is a
    copy, ties return x_prev, and ``pen`` keeps the start's evaluation as its
    last.  Starting the monotone inner solver here makes the final inner
    iterate automatically no worse than both candidates.
    """
    at_zero, at_prev = pen.from_values(first.f, first.c), pen.from_values(prev.f, prev.c)  # (P, mask)
    state, p_mask = (first, at_zero) if at_zero[0] < at_prev[0] else (prev, at_prev)
    ev = pen.evaluation(state.x, state.f, state.c, state.g, state.J, p_mask)
    return state.x.copy(), (ev.p, ev.grad_p), at_zero[0], at_prev[0]


def _build_inner_task(
    pen: core.Penalty, start: np.ndarray, eps: float, kind: str, start_pair=None,
    stops: Sequence[float] = (), spent: int = 1, first_step: float = 2.0,
) -> inner.InnerTask:
    """The inner solve of P = ``pen`` from ``start``, through ``stops`` to eps.

    ``start_pair`` is (P, grad P) at ``start``.  ``spent`` is the run's oracle
    calls so far, 1 (at x0) before its first inner solve; the solve may make
    the rest of ``inner.ORACLE_BUDGET``, as ``total_oracle_calls`` counts them.
    ``first_step`` is gd-backtracking's first trial step.
    """
    problem = pen.problem
    hessian = known_L = None
    if kind == INNER_GD_FIXED:
        known_L = core.lipschitz_bound_for(problem, pen.sigma)
    elif kind == INNER_CUBIC:  # _start has checked that cubic Newton applies
        hessian = pen.hess
        known_L = problem.objective.L2
    return inner.InnerTask(
        objective=pen.value, gradient=pen.grad, hessian=hessian,
        start=start, eps=eps, known_L=known_L, start_pair=start_pair,
        last_evaluation=pen.last_evaluation, stops=stops, first_step=first_step,
        max_calls=inner.ORACLE_BUDGET - spent,
    )


def default_inner_for(problem: ProblemSpec) -> str:
    """Pick the inner solver whose assumptions the problem certifies."""
    cons = problem.constraints
    obj = problem.objective
    if cons.is_linear and cons.m_e == cons.m and obj.has_hessian and obj.L2 is not None:
        return INNER_CUBIC
    if cons.is_linear and obj.L1 is not None:
        return INNER_GD_FIXED
    return INNER_GD_BACKTRACKING


_GD_VARIANTS = {INNER_GD_FIXED: inner.FIXED_STEP, INNER_GD_BACKTRACKING: inner.BACKTRACKING}


def _run_inner(task: inner.InnerTask, kind: str) -> inner.InnerResult:
    if kind == INNER_CUBIC:
        return inner.cubic_newton_solve(task)
    return inner.gd_solve(task, _GD_VARIANTS[kind])


def _state(
    cons: ConstraintSet, eps: float, k: int, x: np.ndarray, lam: np.ndarray, sigma: float,
    theta: Optional[float], f: float, c: np.ndarray, g: np.ndarray, J: np.ndarray,
    inner_stats: Optional[inner.InnerResult] = None,
) -> tuple[OuterState, np.ndarray]:
    """The ``OuterState`` at x under (lam, sigma), from f, c, g = grad f and J there, and grad L(x, lam)."""
    grad_L = core.lagrangian_grad(g, J, lam)
    state = OuterState(
        k=k, x=x, lam=lam, sigma=sigma, theta=theta, mu_norm_sq=core.mu_norm(lam, sigma) ** 2,
        kkt=kkt_check(cons, c, grad_L, lam, eps), inner_stats=inner_stats, f=f, c=c, g=g, J=J,
    )
    return state, grad_L


def _start(problem: ProblemSpec, config: SolverConfig) -> tuple[OuterState, core.Penalty]:
    """The k = 0 state at x0 and P(., lambda = 0, sigma0).

    Evaluates c, f, grad f and J once each at x0: a run's only oracle calls
    outside its inner solves.  Every check of the input raises a ``ValueError``
    here, before the first inner solve: an inner solver that cannot apply
    (``core.UnsupportedSpecializationError``) or a gd-fixed L that is not
    finite before any oracle call, a non-finite or infeasible c(x0)
    (``ProblemSpec.check_feasible_start``) before f is evaluated, and a
    non-finite f, grad f or J at x0 (``ValidationError`` naming it) once they
    are.  Inside a solve the inner loop checks every value.
    """
    cons, obj, x0 = problem.constraints, problem.objective, problem.x0
    if config.inner == INNER_GD_FIXED:
        core.lipschitz_bound_for(problem, config.sigma0)  # raises where gd-fixed has no finite L
    elif config.inner == INNER_CUBIC:
        if not (cons.is_linear and cons.m_e == cons.m):
            raise core.UnsupportedSpecializationError(
                "cubic Newton requires equality-only linear constraints"
            )
        if not obj.has_hessian:
            raise core.UnsupportedSpecializationError("cubic Newton requires a Hessian oracle")
    c0 = cons.c(x0)
    problem.check_feasible_start(c0)
    f0, g0, J0 = obj.value(x0), obj.gradient(x0), cons.jac(x0)
    for what, value in (("objective value", f0), ("objective gradient", g0), ("constraint Jacobian", J0)):
        if not np.isfinite(value).all():
            raise ValidationError(f"{problem.name}: the {what} at x0 is not finite")
    lam = np.zeros(cons.m)
    first, _ = _state(
        cons, config.eps, 0, x0.copy(), lam, config.sigma0, None, f0, c0, g0, J0,
    )
    return first, core.Penalty(problem, lam, config.sigma0)


def first_inner_results(
    problem: ProblemSpec, config: SolverConfig, tolerances: Sequence[float]
) -> Optional[list[inner.InnerResult]]:
    """The k = 0 inner results of solves under ``config`` at each eps in ``tolerances``, from one descent.

    ``tolerances`` is descending.  The descent is ``solve``'s k = 0 inner solve
    to the last eps, with the others as its stops; like every inner solve it
    goes through ``_build_inner_task`` and ``_run_inner``.  Each result is the
    one ``solve`` at that eps computes alone, so ``solve(problem,
    replace(config, eps=e), _first=result)`` returns the same report.  None
    when such a solve runs no inner solve: no outer iteration allowed, or
    sigma0 above the cap.  Raises whatever the start or the descent raises.
    """
    if config.max_outer == 0 or config.sigma0 > _SIGMA_CAP:
        return None
    first, penalty = _start(problem, config)
    start, start_pair, _, _ = warm_start(penalty, first, first)
    *stops, eps = tolerances
    task = _build_inner_task(penalty, start, eps, config.inner, start_pair, stops)
    res = _run_inner(task, config.inner)
    return [*res.earlier, res]


def solve(
    problem: ProblemSpec, config: SolverConfig, _first: Optional[inner.InnerResult] = None
) -> RunReport:
    """Run the augmented Lagrangian outer loop until an eps-KKT point.

    Terminates at the first k >= 1 whose pair (x_k, lambda^(k)) passes the
    direct eps-KKT test; theta <= eps/2 is monitored as the sufficient
    condition the analysis counts.  Ends ``TERMINATED_ORACLE_BUDGET``, with
    the outer iterations completed before, where an inner solve would take
    ``total_oracle_calls`` past ``inner.ORACLE_BUDGET``.  ``_first`` is
    this run's k = 0 inner result from ``first_inner_results``, which an
    eps-sweep passes.  Each gd-backtracking solve starts its first Armijo
    search at min(2, 2 t), t the last step accepted by the last solve that
    took one, and at 2 before that.
    """
    eps = config.eps
    cons = problem.constraints
    first, penalty = _start(problem, config)
    f_low = problem.objective.f_low
    state = first
    trace = [state]
    monitor_log: list[MonitorEntry] = []
    terminated = TERMINATED_MAX_OUTER
    calls = 1  # total_oracle_calls so far
    first_step = 2.0

    for k in range(config.max_outer):
        lam, sigma = state.lam, state.sigma
        if sigma > _SIGMA_CAP:
            terminated = TERMINATED_SIGMA_OVERFLOW
            break
        if k > 0:
            penalty = core.Penalty(problem, lam, sigma)
        # at k = 0 both states are at x0, and the tie rule starts there
        start, start_pair, p_zero, p_prev = warm_start(penalty, first, state)
        if k == 0 and _first is not None:
            res = _first
        else:
            task = _build_inner_task(
                penalty, start, eps, config.inner, start_pair, spent=calls, first_step=first_step,
            )
            try:
                res = _run_inner(task, config.inner)
            except inner.OracleBudgetExceeded:
                terminated = TERMINATED_ORACLE_BUDGET
                break
            except (inner.IterationCapExceeded, inner.NonFiniteValue) as exc:
                # gd-fixed's L is L1 + sigma lambda_max(A^T A): name the declared L1 a user can fix
                where = f"sigma = {sigma!r}"
                if config.inner == INNER_GD_FIXED:
                    where += f", L = L1 + sigma lambda_max(A^T A) with the declared L1 = {problem.objective.L1!r}"
                raise InnerFailure(f"inner solver failed at outer iteration {k}: {exc} ({where})") from exc

        calls += res.oracle_calls
        if res.last_step is not None:
            first_step = min(2.0, 2.0 * res.last_step)
        # every quantity below reads the inner solve's last evaluation, at x_{k+1}
        x_next, ev = res.x_final, res.evaluation
        if ev is None or ev.key != x_next.tobytes():
            raise EvaluationMismatch(
                f"outer iteration {k}: the inner solve's last evaluation is not at its final iterate"
            )
        th_next = core.theta(cons, ev.c, lam, sigma)
        sigma_next = core.update_penalty(k, th_next.value, state.theta, sigma, config)
        lam_next = core.update_multipliers(cons, ev.c, lam, sigma)
        next_state, grad_L = _state(
            cons, eps, k + 1, x_next, lam_next, sigma_next, th_next.value,
            ev.f, ev.c, ev.g, ev.J, res,
        )
        entries = monitor_step(first, state, next_state, f_low, th_next, p_prev, p_zero, ev, grad_L, eps)
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
            not config.require_theta_half or th_next.value <= eps / 2.0
        ):
            terminated = TERMINATED_KKT
            break

    return RunReport(
        problem=problem.name,
        config=config,
        trace=trace,
        monitor_log=monitor_log,
        terminated=terminated,
    )
