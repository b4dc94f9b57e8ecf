import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from auglag import core, outer
from auglag.complexity import certify_run
from auglag.outer import (
    INNER_CUBIC,
    INNER_GD_BACKTRACKING,
    INNER_GD_FIXED,
    KKTReport,
    MonitorViolation,
    OuterState,
    SolverConfig,
    default_inner_for,
    kkt_check,
    monitor_step,
    solve,
    warm_start,
)
from auglag.problems import ConstraintSet, ObjectiveOracle, ProblemSpec, corpus_problem, make_eq_cos

from conftest import make_tiny


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
        with pytest.raises(ValueError, match="penalty_policy"):
            SolverConfig(eps=1e-3, penalty_policy="linear")
        # NaN and infinity fail every range test
        for field in ("alpha", "sigma0"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field):
                    SolverConfig(eps=1e-3, **{field: bad})
        for field in ("eps", "gamma"):
            with pytest.raises(ValueError):
                SolverConfig(**{"eps": 1e-3, field: float("nan")})

    @pytest.mark.parametrize(
        "field,bad",
        [("max_outer", 5.5), ("sigma0", True), ("max_outer", True),
         ("require_theta_half", "no"), ("eps", "0.001"), ("alpha", "3")],
    )
    def test_types(self, field, bad):
        with pytest.raises(ValueError, match=f"'{field}'"):
            SolverConfig(**{"eps": 1e-3, field: bad})

    def test_config_keys_are_the_user_fields(self):
        keys = ("eps", "alpha", "gamma", "sigma0", "penalty_policy", "inner", "max_outer", "monitor")
        assert outer.CONFIG_KEYS == keys
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [*keys, "require_theta_half"]


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


def _count_oracles(monkeypatch):
    """Counters of f, grad f, c and jac calls (outside, inside) ``outer._run_inner``."""
    outside, inside = Counter(), Counter()
    where = [outside]

    def count(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            where[0][attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in (
        (ObjectiveOracle, "value"), (ObjectiveOracle, "gradient"),
        (ConstraintSet, "c"), (ConstraintSet, "jac"),
    ):
        count(owner, attr)
    run_inner = outer._run_inner

    def flagged(task, inner_kind):
        where[0] = inside
        try:
            return run_inner(task, inner_kind)
        finally:
            where[0] = outside

    monkeypatch.setattr(outer, "_run_inner", flagged)
    return outside, inside


class TestOneEvaluationPerIterate:
    @pytest.mark.parametrize(
        "name,kind", [("simplex-cos-8", INNER_GD_FIXED), ("eq-cos-8", INNER_CUBIC)]
    )
    def test_oracle_calls_outside_inner_solver(self, monkeypatch, name, kind):
        calls, _ = _count_oracles(monkeypatch)
        report = solve(corpus_problem(name), SolverConfig(eps=1e-3, inner=kind))
        T = report.T_outer
        assert T >= 2
        # each oracle once at x0 and at every x_{k+1}; c(x0) once more for the
        # feasibility check
        assert calls == {"c": T + 2, "value": T + 1, "gradient": T + 1, "jac": T + 1}

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
        _, calls = _count_oracles(monkeypatch)
        report = solve(corpus_problem(name), SolverConfig(eps=1e-3, inner=kind))
        assert report.total_inner > 0
        assert calls["c"] == calls["value"]


class TestWarmStart:
    def _setup(self):
        p = corpus_problem("eq-qp-analytic")
        return p, np.zeros(1)

    def _warm_start(self, p, lam, x0, x_prev):
        def state(x):
            return OuterState(k=0, x=x, lam=lam, sigma=1.0, theta=None, mu_norm_sq=0.0,
                              kkt=_kkt_at(p, x, lam, 1e-3), f=p.objective.value(x),
                              c=p.constraints.c(x))

        return warm_start(core.Penalty(p, lam, 1.0), state(x0), state(x_prev))

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


class TestDefaultInner:
    def test_mixed_sign_rows_map_to_fixed_step(self, mixed_sign):
        assert default_inner_for(mixed_sign) == INNER_GD_FIXED

    def test_mapping(self):
        assert default_inner_for(corpus_problem("eq-cos-8")) == INNER_CUBIC
        assert default_inner_for(corpus_problem("eq-qp-analytic")) == INNER_CUBIC
        assert default_inner_for(corpus_problem("simplex-cos-8")) == INNER_GD_FIXED
        assert default_inner_for(corpus_problem("dup-eq-8")) == INNER_GD_FIXED
        assert default_inner_for(corpus_problem("eq-rosenbrock-8")) == INNER_GD_BACKTRACKING


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
