"""The defect gate: a seeded defect must make at least one corpus run fail a check.

Each row of ``DEFECTS`` names a defect, the monkeypatch that seeds it and the
corpus runs it applies to.  A run is flagged when it raises
``core.ImplementationError`` (a disagreement of the two forms of P or a
strict-monitor violation among them) or ``outer.InnerFailure``, when it ends
other than ``EpsKKT``, or when its certification verdict differs from the
unpatched run's.  Each row must change at least one of its runs (its work
counts, x_final, a theta or its outcome), so that the patch is shown to reach
the solver, and must flag at least one.  The control, the same runs unpatched,
must flag none.
"""
import pytest

from auglag import complexity, core, inner, outer
from auglag.problems import corpus_problem

EPS = 1e-3
KINDS = (outer.INNER_GD_FIXED, outer.INNER_GD_BACKTRACKING)
# eq-cos-8 and eq-qp-analytic have no inequality rows, so their Penalty builds no row plan
RUNS = tuple(
    (name, kind)
    for name in ("simplex-cos-8", "dup-eq-8", "simplex-cos-32", "eq-cos-8", "eq-qp-analytic")
    for kind in KINDS
)
# With sigma held, the other six runs still end EpsKKT and certified, or run 10 000 outer
# iterations to MaxOuter (four of them); those six together take about 18 s.
SIGMA_HELD_RUNS = tuple((name, kind) for name in ("simplex-cos-32", "eq-cos-8") for kind in KINDS)
BACKTRACKING_RUNS = tuple(run for run in RUNS if run[1] == outer.INNER_GD_BACKTRACKING)
CUBIC_RUNS = tuple(
    (name, outer.INNER_CUBIC) for name in ("eq-cos-8", "eq-cos-32", "eq-qp-analytic", "eq-rosenbrock-8")
)


class Unflagged(AssertionError):
    """A row changed its runs but flagged none: the defect passes every check."""


NO_STEP_CHECK = pytest.mark.xfail(
    strict=True, raises=Unflagged, reason="no per-step check of the inner solvers yet (ROADMAP item 2)",
)


def _seed_row_plan(edit):
    """A patch that applies ``edit`` to each new ``Penalty``'s row plan."""

    def patch(monkeypatch):
        real = core.Penalty.__init__

        def seeded(pen, *args):
            real(pen, *args)
            if pen._has_ineq:  # a set with no inequality rows has no row plan to seed
                edit(pen)

        monkeypatch.setattr(core.Penalty, "__init__", seeded)

    return patch


def _equality_row_may_go_inactive(pen):
    pen._threshold[: pen._cons.m_e] = pen._shift[: pen._cons.m_e]


def _clamp_reaches_an_equality_row(pen):
    pen._clamp[: pen._cons.m_e] = 0.0


def _multipliers_move_up(monkeypatch):
    real = core.update_multipliers
    monkeypatch.setattr(core, "update_multipliers", lambda cons, c, lam, sigma: real(cons, -c, lam, sigma))


def _sigma_never_grows(monkeypatch):
    monkeypatch.setattr(core, "update_penalty", lambda k, theta_next, theta_prev, sigma, config: sigma)


def _theta_halved(monkeypatch):
    real = core.theta

    def halved(*args):
        th = real(*args)
        return core.ThetaStat(0.5 * th.value, th.parts)

    monkeypatch.setattr(core, "theta", halved)


def _armijo_accepts_a_rise(monkeypatch):
    monkeypatch.setattr(inner, "_ARMIJO_C1", -1.0)


def _seed_cubic_model(edit):
    """A patch that applies ``edit(solve, g, H, M, eig)`` where the cubic rule solves its model."""

    def patch(monkeypatch):
        real = inner.solve_cubic_model
        monkeypatch.setattr(inner, "solve_cubic_model", lambda g, H, M, eig=None: edit(real, g, H, M, eig))

    return patch


def _hessian_halved(monkeypatch):
    real = core.Penalty.hess
    monkeypatch.setattr(core.Penalty, "hess", lambda pen, x: 0.5 * real(pen, x))


def _grad_p_scaled(monkeypatch):
    """grad P scaled where it is formed, so that the inner solvers and the outer loop both read it."""
    real = core.Penalty.evaluation

    def scaled(pen, *args):
        ev = real(pen, *args)
        pen._last = ev._replace(grad_p=1.05 * ev.grad_p)
        return pen._last

    monkeypatch.setattr(core.Penalty, "evaluation", scaled)


def _inner_gradient_scaled(monkeypatch):
    """The gradient the inner solvers step on scaled, while the recorded grad P, which the monitors read, is not."""
    real = core.Penalty.grad
    monkeypatch.setattr(core.Penalty, "grad", lambda pen, x: 1.05 * real(pen, x))


def _row(defect, patch, runs, *marks):
    """One ``DEFECTS`` row, its test named after the defect."""
    return pytest.param(defect, patch, runs, marks=marks, id=defect)


# (defect, monkeypatch that seeds it, the runs it applies to)
DEFECTS = (
    _row("an equality row can go inactive", _seed_row_plan(_equality_row_may_go_inactive), RUNS),
    _row("the shifted form clamps an equality row", _seed_row_plan(_clamp_reaches_an_equality_row), RUNS),
    _row("multiplier update lambda + sigma c", _multipliers_move_up, RUNS),
    _row("sigma never grows", _sigma_never_grows, SIGMA_HELD_RUNS),
    _row(
        "theta halved", _theta_halved, RUNS,
        pytest.mark.xfail(
            strict=True, raises=Unflagged,
            reason="no check recomputes theta from c(x_k); ROADMAP item 8 certifies from the report",
        ),
    ),
    _row("Armijo c1 = -1", _armijo_accepts_a_rise, BACKTRACKING_RUNS, NO_STEP_CHECK),
    _row("cubic step halved", _seed_cubic_model(lambda solve, g, H, M, eig: 0.5 * solve(g, H, M, eig)),
         CUBIC_RUNS, NO_STEP_CHECK),
    _row("cubic model solved at 4M", _seed_cubic_model(lambda solve, g, H, M, eig: solve(g, H, 4.0 * M, eig)),
         CUBIC_RUNS, NO_STEP_CHECK),
    _row("Hessian of P halved", _hessian_halved, CUBIC_RUNS, NO_STEP_CHECK),
    _row("grad P scaled by 1.05", _grad_p_scaled, RUNS),
    _row("the inner solvers' gradient scaled by 1.05", _inner_gradient_scaled, BACKTRACKING_RUNS + CUBIC_RUNS,
         NO_STEP_CHECK),
)


def _outcome(name, kind):
    """(outcome, work) of the run: its exception or termination name where it is not a clean
    EpsKKT end, else its verdict; and its work counts, x_final and thetas, None where it raised."""
    problem = corpus_problem(name)
    config = outer.SolverConfig(eps=EPS, inner=kind, monitor=outer.MONITOR_STRICT)
    try:
        report = outer.solve(problem, config)
    except (core.ImplementationError, outer.InnerFailure) as exc:
        return type(exc).__name__, None
    work = (report.T_outer, report.total_inner, report.x_final.tobytes(), [st.theta for st in report.trace])
    if report.terminated != outer.TERMINATED_KKT:
        return report.terminated, work
    return complexity.certify_run(report, problem, config).certified, work


@pytest.fixture(scope="module")
def unpatched():
    return {run: _outcome(*run) for run in RUNS + CUBIC_RUNS}


def _flagged(outcomes, unpatched):
    return {run: got for run, (got, _) in outcomes.items() if isinstance(got, str) or got != unpatched[run][0]}


def test_control_flags_no_run(unpatched):
    assert all(isinstance(got, bool) for got, _ in unpatched.values()), unpatched


@pytest.mark.parametrize("defect, patch, runs", DEFECTS)
def test_defect_flags_a_run(monkeypatch, unpatched, defect, patch, runs):
    patch(monkeypatch)
    outcomes = {run: _outcome(*run) for run in runs}
    assert any(got != unpatched[run] for run, got in outcomes.items()), f"{defect}: no run changed"
    if not _flagged(outcomes, unpatched):
        raise Unflagged(f"{defect}: no run flagged")
