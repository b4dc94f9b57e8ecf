"""The defect gate: a seeded defect must make at least one corpus run fail a check.

Each row of ``DEFECTS`` names a defect, the edit that seeds it and the corpus
runs it applies to.  A run is flagged when it raises
``core.ImplementationError`` (a disagreement of the two forms of P or a
strict-monitor violation among them) or ``outer.InnerFailure``, when it ends
other than ``EpsKKT``, or when its certification verdict differs from the
unpatched run's.  Each row must flag at least one of its runs, and the
control, the same runs unpatched, must flag none.
"""
import pytest

from auglag import complexity, core, outer
from auglag.problems import corpus_problem

EPS = 1e-3
KINDS = (outer.INNER_GD_FIXED, outer.INNER_GD_BACKTRACKING)
# eq-cos-8 and eq-qp-analytic have no inequality rows, so their Penalty builds no row plan
RUNS = tuple(
    (name, kind)
    for name in ("simplex-cos-8", "dup-eq-8", "simplex-cos-32", "eq-cos-8", "eq-qp-analytic")
    for kind in KINDS
)


def _equality_row_may_go_inactive(pen):
    pen._threshold[: pen._cons.m_e] = pen._shift[: pen._cons.m_e]


def _clamp_reaches_an_equality_row(pen):
    pen._clamp[: pen._cons.m_e] = 0.0


# (defect, edit of a Penalty's row plan, the runs it applies to)
DEFECTS = (
    ("an equality row can go inactive", _equality_row_may_go_inactive, RUNS),
    ("the shifted form clamps an equality row", _clamp_reaches_an_equality_row, RUNS),
)


def _outcome(name, kind):
    """The run's exception or termination name where it is not a clean EpsKKT end, else its verdict."""
    problem = corpus_problem(name)
    config = outer.SolverConfig(eps=EPS, inner=kind, monitor=outer.MONITOR_STRICT)
    try:
        report = outer.solve(problem, config)
    except (core.ImplementationError, outer.InnerFailure) as exc:
        return type(exc).__name__
    if report.terminated != outer.TERMINATED_KKT:
        return report.terminated
    return complexity.certify_run(report, problem, config).certified


@pytest.fixture(scope="module")
def unpatched():
    return {run: _outcome(*run) for run in RUNS}


def _flagged(outcomes, unpatched):
    return {run: got for run, got in outcomes.items() if isinstance(got, str) or got != unpatched[run]}


def test_control_flags_no_run(unpatched):
    assert all(isinstance(got, bool) for got in unpatched.values()), unpatched


@pytest.mark.parametrize("defect, edit, runs", DEFECTS, ids=[row[0] for row in DEFECTS])
def test_defect_flags_a_run(monkeypatch, unpatched, defect, edit, runs):
    real = core.Penalty.__init__

    def seeded(pen, *args):
        real(pen, *args)
        if pen._has_ineq:  # a set with no inequality rows has no row plan to seed
            edit(pen)

    monkeypatch.setattr(core.Penalty, "__init__", seeded)
    flagged = _flagged({run: _outcome(*run) for run in runs}, unpatched)
    assert flagged, f"{defect}: no run flagged"
