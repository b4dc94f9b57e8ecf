import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from auglag import core, inner, outer, problems
from auglag.complexity import certify_run, sweep
from auglag.outer import (
    INNER_CUBIC,
    INNER_GD_BACKTRACKING,
    INNER_GD_FIXED,
    KKTReport,
    MonitorViolation,
    SolverConfig,
    default_inner_for,
    kkt_check,
    monitor_step,
    solve,
    warm_start,
)
from auglag.problems import (
    ConstraintSet, ObjectiveOracle, ProblemSpec, corpus_problem, make_eq_cos,
    make_eq_rosenbrock,
)

from conftest import GD_FIXED_REFUSED, count_oracles, make_tiny


def _project_simplex(v):
    """Euclidean projection onto the unit simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u > css / (np.arange(len(v)) + 1))[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=2.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, gamma=1.5)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, gamma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, alpha=1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, sigma0=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, inner="bfgs")
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, monitor="loose")
        with pytest.raises(ValueError):
            SolverConfig(eps=1e-3, max_outer=-1)
        # NaN and infinity fail every range test
        for field in ("alpha", "sigma0"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field):
                    SolverConfig(eps=1e-3, **{field: bad})
        for field in ("eps", "gamma"):
            with pytest.raises(ValueError):
                SolverConfig(**{"eps": 1e-3, field: float("nan")})
        # so does an integer past the largest double, as a JSON number may be; max_outer takes any integer
        for field in ("alpha", "sigma0"):
            with pytest.raises(ValueError, match=rf"'{field}' must lie in"):
                SolverConfig(eps=1e-3, **{field: 10**400})
        assert SolverConfig(eps=1e-3, alpha=10**308, sigma0=10**308, max_outer=10**400).max_outer == 10**400

    @pytest.mark.parametrize(
        "field,bad",
        [("max_outer", 5.5), ("sigma0", True), ("max_outer", True),
         ("require_theta_half", "no"), ("eps", "0.001"), ("alpha", "3")],
    )
    def test_types(self, field, bad):
        with pytest.raises(ValueError, match=f"'{field}'"):
            SolverConfig(**{"eps": 1e-3, field: bad})

    def test_config_keys_are_the_user_fields(self):
        keys = ("eps", "alpha", "gamma", "sigma0", "inner", "max_outer", "monitor")
        assert outer.CONFIG_KEYS == keys
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [*keys, "require_theta_half"]


class TestOracleBudget:
    @pytest.mark.parametrize("name,kind", [
        ("eq-cos-8", INNER_GD_BACKTRACKING), ("simplex-cos-8", INNER_GD_FIXED), ("eq-cos-8", INNER_CUBIC),
    ])
    def test_a_budget_below_the_run_ends_it_with_the_iterations_completed(self, name, kind, monkeypatch):
        p = corpus_problem(name)
        config = SolverConfig(eps=1e-3, inner=kind)
        full = solve(p, config)
        needed = full.total_oracle_calls
        after_first = 1 + full.trace[1].inner_stats.oracle_calls
        assert full.terminated == outer.TERMINATED_KKT and full.T_outer >= 2
        assert inner.ORACLE_BUDGET == 1_000_000 > needed
        monkeypatch.setattr(inner, "ORACLE_BUDGET", needed)
        assert solve(p, config).to_json_dict() == full.to_json_dict()
        outside, inside = count_oracles(monkeypatch)
        for budget, T in ((needed - 1, full.T_outer - 1), (after_first, 1), (after_first - 1, 0), (1, 0)):
            outside.clear()
            inside.clear()
            monkeypatch.setattr(inner, "ORACLE_BUDGET", budget)
            report = solve(p, config)
            assert report.terminated == outer.TERMINATED_ORACLE_BUDGET == "OracleBudget"
            assert report.T_outer == T and report.trace[-1].x.tobytes() == full.trace[T].x.tobytes()
            assert report.total_oracle_calls <= budget
            # the f evaluations made, in the inner solve it stopped too, stay within the budget
            assert outside["value"] + inside["value"] <= budget

    def test_a_sweep_row_fails_with_the_status(self, monkeypatch):
        # a budget of the calls of the run at 1e-2, which the run at 1e-4 passes
        p = corpus_problem("eq-rosenbrock-8")
        config = SolverConfig(eps=1e-2, inner=INNER_GD_BACKTRACKING)
        budget = solve(p, config).total_oracle_calls
        assert solve(p, dataclasses.replace(config, eps=1e-4)).total_oracle_calls > budget
        monkeypatch.setattr(inner, "ORACLE_BUDGET", budget)
        rows = sweep(p, config, [1e-2, 1e-4]).rows
        assert [(r.failed, r.terminated) for r in rows] == [
            (False, outer.TERMINATED_KKT), (True, outer.TERMINATED_ORACLE_BUDGET)
        ]
        assert "cannot certify a run terminated 'OracleBudget'" in rows[1].error


def test_sigma_overflow_stops_before_the_first_inner_solve():
    report = solve(corpus_problem("eq-qp-analytic"), SolverConfig(eps=1e-3, sigma0=1e17))
    assert report.terminated == outer.TERMINATED_SIGMA_OVERFLOW == "SigmaOverflow"
    assert report.T_outer == 0 and report.total_inner == 0


def _kkt_at(p, x, lam, eps):
    cons = p.constraints
    grad_L = core.lagrangian_grad(p.objective.gradient(x), cons.jac(x), lam)
    return kkt_check(cons, cons.c(x), grad_L, lam, eps)


class TestKKTCheck:
    def test_unconstrained_stationary_point(self):
        p = corpus_problem("eq-qp-analytic")
        # lambda = 0 and grad f(0) = 0: stationarity holds, feasibility fails
        rep = _kkt_at(p, np.zeros(4), np.zeros(1), 1e-6)
        assert rep.dual_inf == 0.0
        assert not rep.is_eps_kkt  # equality sum(x) = 1 violated

    def test_all_pass_at_feasible_stationary(self):
        p = corpus_problem("eq-qp-analytic")
        x = np.full(4, 0.25)
        rep = _kkt_at(p, x, np.array([0.25]), 1e-6)
        assert rep.is_eps_kkt
        assert rep.dual_inf <= 1e-12 and rep.primal_eq <= 1e-12

    def test_complementarity_violation(self):
        p = corpus_problem("simplex-cos-8")
        eps = 1e-3
        x = np.full(8, 0.125)
        lam = np.zeros(9)
        lam[1] = 0.1  # c_1(x) = 0.125 > 2*eps but lambda_1 > 0
        rep = _kkt_at(p, x, lam, eps)
        assert not rep.compl_ok
        assert not rep.is_eps_kkt

    def test_sign_violation(self):
        p = corpus_problem("simplex-cos-8")
        lam = np.zeros(9)
        lam[3] = -0.5
        rep = _kkt_at(p, np.full(8, 0.125), lam, 1e-3)
        assert not rep.sign_ok

    def test_sign_test_skips_equality_rows(self):
        # one equality row, one inequality row: only the inequality sign counts
        p = make_tiny(1, lambda x: np.zeros(2), lambda x: np.zeros((2, 1)), m=2)
        assert _kkt_at(p, np.zeros(1), np.array([-1.0, 2.0]), 1e-3).sign_ok
        assert not _kkt_at(p, np.zeros(1), np.array([2.0, -1.0]), 1e-3).sign_ok


class TestSolve:
    def test_analytic_qp(self):
        p = corpus_problem("eq-qp-analytic")
        report = solve(p, SolverConfig(eps=1e-4, inner=INNER_GD_FIXED))
        assert report.terminated == outer.TERMINATED_KKT
        np.testing.assert_allclose(report.x_final, np.full(4, 0.25), atol=1e-4)
        assert report.lambda_final[0] == pytest.approx(0.25, abs=1e-3)

    def test_simplex_defaults(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner=INNER_GD_FIXED))
        assert report.terminated == outer.TERMINATED_KKT
        assert report.T_outer <= 200
        assert report.kkt.is_eps_kkt
        # independent stationarity cross-check: projected-gradient measure
        x = report.x_final
        pg = x - _project_simplex(x - p.objective.gradient(x))
        assert float(np.max(np.abs(pg))) <= 2e-3
        # bookkeeping invariants
        assert report.T_outer == len(report.trace) - 1
        assert report.total_inner == sum(
            st.inner_stats.iterations for st in report.trace[1:] if st.inner_stats
        )

    def test_max_outer_zero(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, max_outer=0))
        assert report.terminated == outer.TERMINATED_MAX_OUTER
        assert report.T_outer == 0 and len(report.trace) == 1

    def test_infeasible_start_rejected(self):
        import auglag.problems as problems

        p = corpus_problem("eq-cos-8")
        bad = problems.ProblemSpec("bad", p.objective, p.constraints, np.zeros(8))
        with pytest.raises(problems.ValidationError):
            solve(bad, SolverConfig(eps=1e-3))

    def test_backtracking_on_rosenbrock(self):
        p = corpus_problem("eq-rosenbrock-8")
        report = solve(p, SolverConfig(eps=1e-2, inner=INNER_GD_BACKTRACKING))
        assert report.terminated == outer.TERMINATED_KKT
        assert report.kkt.dual_inf <= 1e-2

    def test_dual_residual_every_iteration(self):
        p = corpus_problem("eq-cos-8")
        eps = 1e-3
        report = solve(p, SolverConfig(eps=eps, inner=INNER_CUBIC))
        for st in report.trace[1:]:
            assert st.kkt.dual_inf <= eps * (1.0 + 1e-9)

    def test_strict_monitor_aborts(self, monkeypatch):
        entry = outer.MonitorEntry(1, "mu_growth", 2.0, 1.0, False)
        monkeypatch.setattr(outer, "monitor_step", lambda *a, **k: [entry])
        p = corpus_problem("eq-qp-analytic")
        with pytest.raises(MonitorViolation):
            solve(p, SolverConfig(eps=1e-3, monitor=outer.MONITOR_STRICT))

    def test_record_mode_collects(self, monkeypatch):
        entry = outer.MonitorEntry(1, "mu_growth", 2.0, 1.0, False)
        monkeypatch.setattr(outer, "monitor_step", lambda *a, **k: [entry])
        p = corpus_problem("eq-qp-analytic")
        report = solve(p, SolverConfig(eps=1e-3, monitor=outer.MONITOR_RECORD))
        assert any(not e.passed for e in report.monitor_log)

    def test_record_mode_logs_the_dual_residual_and_theta_sufficiency_checks(self, monkeypatch):
        # a faulty KKT test that reads dual_inf = 1 and never passes: solve's own two
        # checks then fail at every iteration they cover, and the run goes on to max_outer
        real = outer.kkt_check
        monkeypatch.setattr(
            outer, "kkt_check", lambda *a: dataclasses.replace(real(*a), dual_inf=1.0, is_eps_kkt=False)
        )
        p = corpus_problem("eq-qp-analytic")
        report = solve(p, SolverConfig(eps=1e-2, monitor=outer.MONITOR_RECORD, max_outer=6))
        assert report.terminated == outer.TERMINATED_MAX_OUTER and report.T_outer == 6
        crossed = [st.k for st in report.trace[1:] if st.theta <= 0.5e-2]
        assert crossed
        failed = [(e.iteration, e.check) for e in report.monitor_log if not e.passed]
        expected = [(k, "dual_residual") for k in range(1, 7)] + [(k, "theta_sufficiency") for k in crossed]
        assert failed == sorted(expected)


class TestNonFiniteObjectiveGradient:
    """A non-finite grad f inside an inner solve fails the solve; at x0 it is a usage error.

    Inside a solve the inner loop catches it in grad P = grad f + J^T phi.
    """

    @staticmethod
    def _problem(finite_calls):
        """eq-cos-4 whose grad f is non-finite after its first ``finite_calls`` calls."""
        p = make_eq_cos(4)
        real, calls = p.objective.grad_fn, []

        def grad(x):
            calls.append(1)
            g = real(x)
            return g if len(calls) <= finite_calls else g * np.inf

        p.objective = dataclasses.replace(p.objective, grad_fn=grad)
        return p

    @pytest.mark.parametrize("inner_kind", outer.INNER_SOLVERS)
    def test_inside_an_inner_solve_is_an_inner_failure(self, inner_kind):
        with pytest.raises(outer.InnerFailure, match="gradient oracle returned a non-finite vector"):
            solve(self._problem(3), SolverConfig(inner=inner_kind))

    def test_at_x0_is_a_validation_error(self):
        with pytest.raises(problems.ValidationError, match="eq-cos-4: the objective gradient at x0 is not finite"):
            solve(self._problem(0), SolverConfig())


class TestMonitorStep:
    def _run(self, eps=1e-3):
        p = corpus_problem("simplex-cos-8")
        return p, solve(p, SolverConfig(eps=eps, inner=INNER_GD_FIXED))

    def test_full_run_all_pass(self):
        _, report = self._run()
        assert report.monitor_log, "monitors must have produced entries"
        assert all(e.passed for e in report.monitor_log)

    def test_k0_skips_residual_checks(self):
        p, report = self._run()
        first = [e.check for e in report.monitor_log if e.iteration == 1]
        assert "penalized_residual" not in first
        assert "penalized_theta" not in first
        assert "mu_growth" in first and "inner_decrease" in first

    def test_k1_includes_residual_checks(self):
        p, report = self._run()
        if report.T_outer >= 2:
            second = [e.check for e in report.monitor_log if e.iteration == 2]
            assert "penalized_residual" in second and "penalized_theta" in second

    def test_dual_identity_entries(self):
        _, report = self._run()
        idents = [e for e in report.monitor_log if e.check == "dual_identity"]
        assert idents and all(e.lhs <= 1e-12 for e in idents)


@pytest.fixture(scope="module")
def corpus_runs():
    """(problem, report) of each n = 8 corpus problem under each inner solver that applies, at eps = 1e-3."""
    runs = []
    for p in problems.corpus():
        for kind in outer.INNER_SOLVERS:
            try:
                outer._inner_constant(p, kind, SolverConfig.sigma0)
            except problems.ValidationError:  # kind does not apply
                continue
            runs.append((p, solve(p, SolverConfig(eps=1e-3, inner=kind))))
    return runs


class TestRecord:
    def test_every_record_holds_what_its_step_computed(self, corpus_runs):
        assert len(corpus_runs) == 12
        for p, report in corpus_runs:
            cons, x0 = p.constraints, report.trace[0].x
            for prev, st in zip(report.trace, report.trace[1:]):
                ev = st.inner_stats.evaluation
                assert ev.key == st.x.tobytes() and st.f == ev.f
                for got, want in ((st.c, ev.c), (st.g, ev.g), (st.J, ev.J)):
                    assert got.tobytes() == want.tobytes()
                assert st.grad_L.tobytes() == core.lagrangian_grad(st.g, st.J, st.lam).tobytes()
                assert st.th == core.theta(cons, st.c, prev.lam, prev.sigma) and st.theta == st.th.value
                assert st.mu_norm_sq == core.mu_norm(st.lam, st.sigma) ** 2
                assert st.p_zero == core.Penalty(p, prev.lam, prev.sigma).value(x0)
                assert st.p_prev == core.Penalty(p, prev.lam, prev.sigma).value(prev.x)

    def test_the_monitors_replay_from_a_finished_report(self, corpus_runs):
        # the log lists each iteration's entries in turn, so this is each k's entries equal to its replay
        for p, report in corpus_runs:
            trace, f_low, eps = report.trace, p.objective.f_low, report.config.eps
            replayed = [monitor_step(trace[0], trace[k], trace[k + 1], f_low, eps) for k in range(report.T_outer)]
            assert [e for entries in replayed for e in entries] == report.monitor_log


class TestOneEvaluationPerIterate:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("simplex-cos-8", INNER_GD_FIXED),
            ("eq-cos-8", INNER_GD_BACKTRACKING),
            ("eq-cos-8", INNER_CUBIC),
        ],
    )
    def test_oracle_calls_outside_inner_solver(self, monkeypatch, name, kind):
        calls, _ = count_oracles(monkeypatch)
        report = solve(corpus_problem(name), SolverConfig(eps=1e-3, inner=kind))
        assert report.T_outer >= 2
        # each oracle once at x0, where the feasibility check reads that c(x0);
        # every start and every x_{k+1} is read from an evaluation already made
        assert calls == {"c": 1, "value": 1, "gradient": 1, "jac": 1}

    @pytest.mark.parametrize(
        "name,kind",
        [
            ("eq-rosenbrock-8", INNER_GD_BACKTRACKING),
            ("eq-cos-8", INNER_CUBIC),
            ("simplex-cos-8", INNER_GD_FIXED),
        ],
    )
    def test_one_constraint_evaluation_per_objective_value_inside(self, monkeypatch, name, kind):
        # a gradient after a value at the same point reuses that point's c(x)
        _, calls = count_oracles(monkeypatch)
        report = solve(corpus_problem(name), SolverConfig(eps=1e-3, inner=kind))
        assert report.total_inner > 0
        assert calls["c"] == calls["value"]


    @pytest.mark.parametrize("kind", [INNER_GD_FIXED, INNER_GD_BACKTRACKING, INNER_CUBIC])
    def test_total_oracle_calls_counts_every_objective_value(self, monkeypatch, kind):
        outside, inside = count_oracles(monkeypatch)
        report = solve(corpus_problem("eq-cos-8"), SolverConfig(eps=1e-3, inner=kind))
        f_calls = outside["value"] + inside["value"]
        assert report.T_outer >= 2 and f_calls == report.total_oracle_calls
        # one c(x) per f value, the feasibility check's c(x0) included
        assert outside["c"] + inside["c"] == f_calls


    @pytest.mark.parametrize("kind", [INNER_GD_FIXED, INNER_GD_BACKTRACKING, INNER_CUBIC])
    def test_states_hold_the_oracle_values_at_their_iterates(self, kind):
        p = corpus_problem("eq-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner=kind))
        for st in report.trace:
            want = (p.objective.value(st.x), p.constraints.c(st.x), p.objective.gradient(st.x),
                    p.constraints.jac(st.x))
            assert st.f == want[0]
            for got, value in zip((st.c, st.g, st.J), want[1:]):
                assert got.tobytes() == value.tobytes()

    @pytest.mark.parametrize("stale", [lambda ev: None, lambda ev: ev._replace(key=b"stale")])
    def test_an_evaluation_off_the_final_iterate_is_a_bug(self, monkeypatch, stale):
        real = core.Penalty.last_evaluation
        monkeypatch.setattr(core.Penalty, "last_evaluation", lambda pen: stale(real(pen)))
        p = corpus_problem("eq-qp-analytic")
        with pytest.raises(outer.EvaluationMismatch, match="outer iteration 0"):
            solve(p, SolverConfig(eps=1e-3))
        with pytest.raises(outer.EvaluationMismatch):
            sweep(p, SolverConfig(eps=1e-2), [1e-2, 1e-3])


class TestWarmStart:
    def _setup(self):
        p = corpus_problem("eq-qp-analytic")
        return p, np.zeros(1)

    def _warm_start(self, p, lam, x0, x_prev):
        def state(x):
            obj, cons = p.objective, p.constraints
            return outer._record(cons, 1e-3, 0, x, lam, 1.0, obj.value(x), cons.c(x), obj.gradient(x), cons.jac(x))

        pen = core.Penalty(p, lam, 1.0)
        out, pair, p_zero, p_prev = warm_start(pen, state(x0), state(x_prev))
        # the start pair is P and grad P at the start, and the penalty's last evaluation
        fresh = core.Penalty(p, lam, 1.0)
        assert pair[0] == fresh.value(out) and pair[1].tobytes() == fresh.grad(out).tobytes()
        last = pen.last_evaluation()
        assert last.key == out.tobytes() and last.p == pair[0] and last.grad_p is pair[1]
        return out, p_zero, p_prev

    def _check_values(self, p, lam, x0, x_prev, p_zero, p_prev):
        assert p_zero == core.Penalty(p, lam, 1.0).value(x0)
        assert p_prev == core.Penalty(p, lam, 1.0).value(x_prev)

    def test_prev_better(self):
        p, lam = self._setup()
        x0 = np.array([2.0, 0.0, 0.0, 0.0])
        x_prev = np.full(4, 0.25)
        out, p_zero, p_prev = self._warm_start(p, lam, x0, x_prev)
        np.testing.assert_allclose(out, x_prev)
        self._check_values(p, lam, x0, x_prev, p_zero, p_prev)

    def test_x0_better(self):
        p, lam = self._setup()
        x0 = np.full(4, 0.25)
        x_prev = np.array([2.0, 0.0, 0.0, 0.0])
        out, p_zero, p_prev = self._warm_start(p, lam, x0, x_prev)
        np.testing.assert_allclose(out, x0)
        self._check_values(p, lam, x0, x_prev, p_zero, p_prev)

    def test_tie_returns_prev(self):
        p, lam = self._setup()
        # distinct points with exactly equal P (coordinate permutation with
        # dyadic entries, so the sums round identically)
        x0 = np.array([0.5, 0.0, 0.25, 0.25])
        x_prev = np.array([0.0, 0.5, 0.25, 0.25])
        out, p_zero, p_prev = self._warm_start(p, lam, x0, x_prev)
        np.testing.assert_allclose(out, x_prev)
        self._check_values(p, lam, x0, x_prev, p_zero, p_prev)
        assert p_zero == p_prev
        out[0] = 99.0  # the result is a copy, not a view
        assert x_prev[0] != 99.0


@st.composite
def _mixed_sign_problems(draw):
    """sum(x) = sum(x0) and 1-4 random inequality rows, the first with both signs, feasible at x0."""
    n = draw(st.integers(2, 5))
    m_i = draw(st.integers(1, 4))
    G = draw(arrays(float, (m_i, n), elements=st.floats(-2.0, 2.0)))
    G[0, 0] = -0.5 - abs(G[0, 0])
    G[0, -1] = 0.5 + abs(G[0, -1])
    x0 = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    slack = draw(arrays(float, m_i, elements=st.floats(0.0, 1.0)))
    A = np.vstack([np.ones((1, n)), G])
    b = A @ x0 - np.concatenate([[0.0], slack])
    return ProblemSpec(
        name="fuzz-mixed-sign",
        objective=make_eq_cos(n).objective,  # quadratic+cos with its declared L1
        constraints=ConstraintSet(m=m_i + 1, m_e=1, A=A, b=b),
        x0=x0,
    )


class TestMixedSignFuzz:
    @settings(max_examples=25, deadline=None)
    @given(p=_mixed_sign_problems(), eps=st.sampled_from([1e-2, 1e-3]))
    def test_fixed_step_reaches_certified_kkt(self, p, eps):
        config = SolverConfig(eps=eps, inner=INNER_GD_FIXED, monitor=outer.MONITOR_STRICT)
        report = solve(p, config)
        assert report.terminated == outer.TERMINATED_KKT
        assert certify_run(report, p, report.config).certified


def _corpus_objectives(n):
    return st.sampled_from([make_eq_cos, make_eq_rosenbrock]).map(lambda family: family(n).objective)


def _cos_objectives(n):
    """quadratic+cos with omega in [1.5, 4], and its declared L1."""
    return st.floats(1.5, 4.0).map(lambda omega: problems._quadratic_cos_objective(n, omega=omega))


@st.composite
def _linear_problems(draw, max_n=5, objectives=_corpus_objectives, equality_only=False):
    """0-2 equality and 0-3 inequality rows (at least one row), or 1-3 equality rows
    alone where ``equality_only``, random A, feasible at x0."""
    n = draw(st.integers(2, max_n))
    if equality_only:
        m_e, m_i = draw(st.integers(1, 3)), 0
    else:
        m_e, m_i = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    m = max(m_e + m_i, 1)
    A = draw(arrays(float, (m, n), elements=st.floats(-2.0, 2.0)))
    x0 = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    slack = draw(arrays(float, m - m_e, elements=st.floats(0.0, 1.0)))
    return ProblemSpec(
        name="fuzz-linear",
        objective=draw(objectives(n)),
        constraints=ConstraintSet(m=m, m_e=m_e, A=A, b=A @ x0 - np.concatenate([np.zeros(m_e), slack])),
        x0=x0,
    )


_DOCUMENTED_STATUSES = (
    outer.TERMINATED_KKT, outer.TERMINATED_MAX_OUTER, outer.TERMINATED_SIGMA_OVERFLOW,
    outer.TERMINATED_ORACLE_BUDGET,
)


class TestBacktrackingFuzz:
    @pytest.mark.parametrize("kind", [INNER_GD_BACKTRACKING, INNER_CUBIC])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), eps=st.sampled_from([1e-2, 1e-3, 1e-6]))
    def test_ends_with_a_documented_status(self, kind, data, eps):
        # a strict-monitor violation or a P form disagreement would raise out of solve;
        # cubic Newton takes equality rows only, so its draws have no other
        p = data.draw(_linear_problems(max_n=6, equality_only=kind == INNER_CUBIC))
        config = SolverConfig(eps=eps, inner=kind, max_outer=20, monitor=outer.MONITOR_STRICT)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inner, "ORACLE_BUDGET", 20_000)
                report = solve(p, config)
        except outer.InnerFailure:
            return
        assert report.terminated in _DOCUMENTED_STATUSES
        assert report.total_oracle_calls <= 20_000
        assert not [e for e in report.monitor_log if not e.passed]
        if report.terminated == outer.TERMINATED_KKT and p.objective.L1 is not None:
            assert certify_run(report, p, config).certified


class TestCertifiedFuzz:
    @settings(max_examples=15, deadline=None)
    @given(p=_linear_problems(max_n=6, objectives=_cos_objectives))
    def test_every_kkt_run_is_certified(self, p):
        # L1 is declared and the rows are linear, so each first-order run that ends at
        # an eps-KKT point must meet the paper's outer-iteration bound; a degenerate
        # draw (such as a feasible set of one point) ends at the oracle budget instead
        for kind in (INNER_GD_FIXED, INNER_GD_BACKTRACKING):
            for eps in (1e-2, 1e-3):
                config = SolverConfig(eps=eps, inner=kind, require_theta_half=True)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(inner, "ORACLE_BUDGET", 20_000)
                    report = solve(p, config)
                assert report.terminated in (outer.TERMINATED_KKT, outer.TERMINATED_ORACLE_BUDGET)
                assert report.total_oracle_calls <= 20_000
                if report.terminated == outer.TERMINATED_KKT:
                    assert certify_run(report, p, config).certified


class TestOnePointFeasibleSet:
    """x_1 - x_2 = 0, x_1 + x_2 >= 1 and -x_1 - x_2 >= -1 leave x0 = (1/2, 1/2) the only feasible point.

    LICQ fails there: both inequality rows are active, with opposite gradients.
    The runs still end eps-KKT and certified against the paper's bound.
    """

    @pytest.mark.parametrize("kind, eps, t_outer, f_calls", [
        (INNER_GD_FIXED, 1e-2, 5, 29), (INNER_GD_FIXED, 1e-3, 6, 44),
        (INNER_GD_BACKTRACKING, 1e-2, 5, 23), (INNER_GD_BACKTRACKING, 1e-3, 6, 28),
    ])
    def test_ends_eps_kkt_and_certified(self, kind, eps, t_outer, f_calls):
        A = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
        p = ProblemSpec(
            "one-point-2", problems._quadratic_cos_objective(2),
            ConstraintSet(m=3, m_e=1, A=A, b=np.array([0.0, 1.0, -1.0])), np.array([0.5, 0.5]),
        )
        config = SolverConfig(eps=eps, inner=kind)
        report = solve(p, config)
        assert report.terminated == outer.TERMINATED_KKT
        assert (report.T_outer, report.total_oracle_calls) == (t_outer, f_calls)
        assert certify_run(report, p, config).certified


@st.composite
def _poisonings(draw):
    """(inner solver, oracle, bad value, first bad call): f, grad f, the Hessian for cubic Newton, c or J for gd-backtracking."""
    kind = draw(st.sampled_from(outer.INNER_SOLVERS))
    oracles = ["f", "grad"] + (["H"] if kind == INNER_CUBIC else []) + (["c", "J"] if kind == INNER_GD_BACKTRACKING else [])
    return (
        kind, draw(st.sampled_from(oracles)), draw(st.sampled_from([np.nan, np.inf, -np.inf])),
        draw(st.integers(0, 20)),
    )


class TestNonFiniteOracleFuzz:
    """NaN or +-inf from one oracle of eq-cos-4, from its call ``from_call`` on.

    Returned at x0, where f, grad f, c and J each make call 0, or as f = -inf
    anywhere, it is a usage error, a ``ValueError``.  Anywhere else the run
    returns a report with a documented status or raises ``InnerFailure``.
    c and J come from a callable copy of the linear row, which gd-backtracking takes.
    """

    @staticmethod
    def _poisoned(oracle, bad, from_call):
        """eq-cos-4 with ``oracle`` returning ``bad`` from call ``from_call`` on, and its call count."""
        p = make_eq_cos(4)
        if oracle in ("c", "J"):
            A, b = p.constraints.A, p.constraints.b
            p.constraints = ConstraintSet(m=1, m_e=1, c_fn=lambda x: A.dot(x) - b, jac_fn=lambda x: A)
        owner, name = {
            "f": (p.objective, "fn"), "grad": (p.objective, "grad_fn"), "H": (p.objective, "hess_fn"),
            "c": (p.constraints, "c_fn"), "J": (p.constraints, "jac_fn"),
        }[oracle]
        real, calls = getattr(owner, name), [0]

        def poisoned(x):
            value, calls[0] = real(x), calls[0] + 1
            if calls[0] <= from_call:
                return value
            if oracle == "f":
                return bad
            value = np.array(value, dtype=float)
            value.flat[0] = bad
            return value

        if owner is p.objective:  # frozen, so the poisoned oracle is a new one
            p.objective = dataclasses.replace(owner, **{name: poisoned})
        else:
            setattr(owner, name, poisoned)
        return p, calls

    @settings(max_examples=60, deadline=None)
    @given(draw=_poisonings())
    def test_each_outcome_is_documented(self, draw):
        kind, oracle, bad, from_call = draw
        p, calls = self._poisoned(oracle, bad, from_call)
        try:
            # arithmetic on the bad value warns, and the library leaves numpy's settings to its caller
            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setattr(inner, "ORACLE_BUDGET", 2_000)
                report = solve(p, SolverConfig(eps=1e-3, inner=kind))
        except ValueError:
            outcome = "usage"
        except outer.InnerFailure:
            outcome = "failure"
        else:
            outcome = "report"
            assert report.terminated in _DOCUMENTED_STATUSES
        returned = calls[0] > from_call
        at_x0 = from_call == 0 and oracle != "H"  # _start makes each oracle's first call, but not the Hessian's
        if returned and (at_x0 or (oracle == "f" and bad == -np.inf)):
            assert outcome == "usage"
        else:
            assert outcome in ("report", "failure")


def _strongly_convex_qps(count):
    """The first ``count`` random strongly convex QPs from ``default_rng(0)``, each with its KKT pair.

    Each is (problem, x*, lambda* on the equality rows, ||K^-1||_2), with K the
    equality KKT matrix.  The draw order is fixed, so a draw keeps its index:
    n in 2..8, m_e in 1..n-1, m_i in 0..2, Q = B^T B + U[0.5, 2] I, q, A_eq, x0,
    then the inequality rows, set strictly inactive at x* and x0.
    """
    rng = np.random.default_rng(0)
    qps = []
    for index in range(count):
        n = int(rng.integers(2, 9))
        m_e, m_i = int(rng.integers(1, n)), int(rng.integers(0, 3))
        B = rng.standard_normal((n, n))
        Q = B.T.dot(B) + rng.uniform(0.5, 2.0) * np.eye(n)
        q = rng.standard_normal(n)
        A_eq = rng.uniform(-2.0, 2.0, (m_e, n))
        x0 = rng.uniform(-1.0, 1.0, n)
        b_eq = A_eq.dot(x0)
        # stationarity Q x + q - A_eq^T lambda = 0 and feasibility A_eq x = b_eq
        K = np.block([[Q, -A_eq.T], [A_eq, np.zeros((m_e, m_e))]])
        pair = np.linalg.solve(K, np.concatenate([-q, b_eq]))
        x_star = pair[:n]
        A_in = rng.uniform(-2.0, 2.0, (m_i, n))
        b_in = np.minimum(A_in.dot(x0), A_in.dot(x_star)) - rng.uniform(0.1, 1.0, m_i)
        objective = ObjectiveOracle(
            fn=lambda x, Q=Q, q=q: 0.5 * x.dot(Q.dot(x)) + q.dot(x),
            grad_fn=lambda x, Q=Q, q=q: Q.dot(x) + q,
            hess_fn=lambda x, Q=Q: Q,
            f_low=-0.5 * q.dot(np.linalg.solve(Q, q)),  # the unconstrained minimum
            L1=float(np.linalg.eigvalsh(Q)[-1]),
            L2=0.0,
        )
        cons = ConstraintSet(
            m=m_e + m_i, m_e=m_e, A=np.vstack([A_eq, A_in]), b=np.concatenate([b_eq, b_in]),
        )
        problem = ProblemSpec(name=f"qp-{index}", objective=objective, constraints=cons, x0=x0)
        qps.append((problem, x_star, pair[n:], np.linalg.norm(np.linalg.inv(K), 2)))
    return qps


_QPS = _strongly_convex_qps(12)


def _qp_runs():
    """Every applicable solver on every draw; cubic Newton needs equality rows only."""
    for index, (p, *_) in enumerate(_QPS):
        cubic = [INNER_CUBIC] if p.constraints.m == p.constraints.m_e else []
        for kind in [INNER_GD_FIXED, INNER_GD_BACKTRACKING] + cubic:
            for eps in (1e-3, 1e-4):
                yield pytest.param(index, kind, eps, id=f"draw{index}-{kind}-{eps:g}")


class TestClosedFormOracle:
    """Solves of QPs whose KKT pair is known, compared with that pair rather than with the solver's own test."""

    @staticmethod
    def _check(index, kind, eps):
        p, x_star, lam_star, k_inv_norm = _QPS[index]
        config = SolverConfig(eps=eps, inner=kind)
        report = solve(p, config)
        assert report.terminated == outer.TERMINATED_KKT
        assert certify_run(report, p, config).certified
        m_e = p.constraints.m_e
        # the inequality rows hold c > eps near x*, where complementarity forces lambda = 0
        assert (report.lambda_final[m_e:] == 0.0).all()
        # so K (x - x*, lambda_eq - lambda*) = (grad L, c_eq), whose n + m_e entries are each at most eps
        error = np.concatenate([report.x_final - x_star, report.lambda_final[:m_e] - lam_star])
        assert np.linalg.norm(error) <= k_inv_norm * np.sqrt(p.n + m_e) * eps

    @pytest.mark.parametrize("index,kind,eps", list(_qp_runs()))
    def test_eps_kkt_point_lies_within_the_bound_of_the_kkt_pair(self, index, kind, eps):
        self._check(index, kind, eps)

    @pytest.mark.parametrize("index", range(len(_QPS)), ids=lambda i: f"draw{i}")
    def test_backtracking_reaches_1e_6_on_every_draw(self, index):
        # at 1e-6 some Armijo searches test a decrease t ||grad P||^2 below P's rounding
        self._check(index, INNER_GD_BACKTRACKING, 1e-6)


class TestDefaultInner:
    def test_mixed_sign_rows_map_to_fixed_step(self, mixed_sign):
        assert default_inner_for(mixed_sign) == INNER_GD_FIXED

    def test_mapping(self):
        assert default_inner_for(corpus_problem("eq-cos-8")) == INNER_CUBIC
        assert default_inner_for(corpus_problem("eq-qp-analytic")) == INNER_CUBIC
        assert default_inner_for(corpus_problem("simplex-cos-8")) == INNER_GD_FIXED
        assert default_inner_for(corpus_problem("dup-eq-8")) == INNER_GD_FIXED
        assert default_inner_for(corpus_problem("eq-rosenbrock-8")) == INNER_GD_BACKTRACKING

    @pytest.mark.parametrize("name", GD_FIXED_REFUSED)
    def test_a_gd_fixed_bound_not_finite_and_positive_at_sigma0_falls_back(self, tmp_path, name):
        doc, flags = GD_FIXED_REFUSED[name]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        p = problems.load_problem(str(path))
        sigma0 = float(flags[1]) if flags else 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # A^T A overflows in nan-L
            assert default_inner_for(p, sigma0) == INNER_GD_BACKTRACKING

    def test_the_choice_is_made_at_sigma0(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(GD_FIXED_REFUSED["inf-L-at-sigma0"][0]))
        p = problems.load_problem(str(path))
        # L1 + sigma0 * 1e300 is finite at sigma0 = 1, and overflows at 1e10
        assert default_inner_for(p) == default_inner_for(p, 1.0) == INNER_GD_FIXED
        assert default_inner_for(p, 1e10) == INNER_GD_BACKTRACKING


@pytest.fixture(scope="module")
def report():
    p = corpus_problem("eq-qp-analytic")
    return solve(p, SolverConfig(eps=1e-4, inner=INNER_CUBIC))


class TestReportSerialization:

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "run.json"
        report.save_json(str(path))
        data = json.loads(path.read_text())
        assert data["terminated"] == "EpsKKT"
        assert data["kkt"]["is_eps_kkt"] is True
        assert len(data["trace"]) == report.T_outer + 1
        assert data["trace"][0]["theta"] is None

    def test_json_layout(self, report, tmp_path):
        path = tmp_path / "run.json"
        report.save_json(str(path))
        want = json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == want

    def test_json_deterministic(self, report, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report.save_json(str(a))
        report.save_json(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_columns(self, report, tmp_path):
        path = tmp_path / "run.csv"
        report.save_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,f,theta,sigma,mu_norm_sq,inner_iters,oracle_calls,dual_inf,primal_eq,primal_ineq"
        assert len(lines) == report.T_outer + 2
        # theta column is empty at k = 0
        assert lines[1].split(",")[2] == ""
