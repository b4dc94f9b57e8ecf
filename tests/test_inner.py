import math

import numpy as np
import pytest

from auglag import core, inner, outer, problems
from auglag.inner import (
    BACKTRACKING,
    FIXED_STEP,
    InnerTask,
    IterationCapExceeded,
    NonFiniteValue,
    cubic_model_value,
    cubic_newton_solve,
    gd_solve,
    solve_cubic_model,
)
from auglag.problems import corpus_problem


def _quadratic_task(start, eps=1e-6, D=None, **kw):
    n = len(start)
    D = np.eye(n) if D is None else np.asarray(D, float)
    return InnerTask(
        objective=lambda x: 0.5 * float(x @ (D @ x)),
        gradient=lambda x: D @ x,
        hessian=lambda x: D,
        start=np.asarray(start, float),
        eps=eps,
        **kw,
    )


class TestGradientDescent:
    def test_exact_step_on_identity_quadratic(self):
        res = gd_solve(_quadratic_task([4.0, 3.0], known_L=1.0), FIXED_STEP)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_final, [0.0, 0.0], atol=1e-14)
        assert res.accepted

    def test_already_stationary(self):
        task = _quadratic_task([1e-9, 0.0], eps=1e-3, known_L=1.0)
        res = gd_solve(task, FIXED_STEP)
        assert res.iterations == 0
        np.testing.assert_allclose(res.x_final, task.start)

    def test_fixed_step_requires_L(self):
        with pytest.raises(ValueError):
            gd_solve(_quadratic_task([1.0]), FIXED_STEP)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gd_solve(_quadratic_task([1.0], known_L=1.0), "newton")

    def test_monotone_trace(self):
        task = _quadratic_task([4.0, -2.0, 1.0], D=np.diag([1.0, 5.0, 10.0]), known_L=10.0)
        res = gd_solve(task, FIXED_STEP)
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-14)

    def test_small_L_detected(self):
        # declared L far below the true curvature makes the step increase f
        task = _quadratic_task([4.0], D=np.array([[100.0]]), known_L=1.0)
        with pytest.raises(IterationCapExceeded):
            gd_solve(task, FIXED_STEP)

    def test_non_finite_oracle(self):
        task = InnerTask(
            objective=lambda x: float("inf"),
            gradient=lambda x: x,
            start=np.array([1.0]),
            eps=1e-6,
            known_L=1.0,
        )
        with pytest.raises(NonFiniteValue):
            gd_solve(task, FIXED_STEP)

    def test_backtracking_on_rosenbrock(self):
        p = corpus_problem("eq-rosenbrock-8")
        task = InnerTask(
            objective=p.objective.value,
            gradient=p.objective.gradient,
            start=p.x0,
            eps=1e-5,
        )
        res = gd_solve(task, BACKTRACKING)
        assert res.accepted and res.grad_norm2 <= 1e-5
        assert res.oracle_calls >= res.iterations
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-14)

    def test_first_order_budget(self):
        # augmented Lagrangian inner solve stays within the L*decrease/eps^2
        # iteration budget computed from the certified Lipschitz constant
        p = corpus_problem("simplex-cos-8")
        mult = core.MultiplierState(np.zeros(9))
        sigma, eps = 1.0, 1e-3
        L = core.lipschitz_bound_for(p, sigma)
        p_low = p.objective.f_low - 0.0  # zero scaled multipliers, k = 0
        pen = core.Penalty(p, mult, sigma)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            start=np.asarray(p.x0, float),
            eps=eps,
            known_L=L,
            g_low=p_low,
        )
        res = gd_solve(task, FIXED_STEP)
        budget = L * (res.objective_trace[0] - p_low) / eps**2
        assert res.iterations <= budget
        measured_c = res.iterations / (L * (res.objective_trace[0] - p_low) / eps**2)
        print(f"first-order budget constant measured: C = {measured_c:.3e}")


class TestCubicSubproblem:
    @staticmethod
    def _check_stationarity(g, H, M, s):
        r = float(np.linalg.norm(s))
        shifted = H + 0.5 * M * r * np.eye(len(g))
        resid = float(np.linalg.norm(shifted @ s + g))
        assert resid <= 1e-8 * max(1.0, float(np.linalg.norm(g)))
        assert float(np.linalg.eigvalsh(shifted)[0]) >= -1e-10

    def test_convex_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            B = rng.standard_normal((n, n))
            H = B @ B.T + 0.1 * np.eye(n)
            g = rng.standard_normal(n)
            M = float(rng.uniform(0.5, 4.0))
            s = solve_cubic_model(g, H, M)
            self._check_stationarity(g, H, M, s)

    def test_indefinite_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            B = rng.standard_normal((n, n))
            H = 0.5 * (B + B.T) - 1.0 * np.eye(n)
            g = rng.standard_normal(n)
            M = float(rng.uniform(0.5, 4.0))
            s = solve_cubic_model(g, H, M)
            self._check_stationarity(g, H, M, s)

    def test_hard_case(self):
        # gradient orthogonal to the minimal eigenspace of an indefinite H
        H = np.diag([-2.0, 1.0])
        g = np.array([0.0, 1.0])
        M = 1.0
        s = solve_cubic_model(g, H, M)
        self._check_stationarity(g, H, M, s)
        # the step must reach the boundary radius 2|w_min|/M
        assert float(np.linalg.norm(s)) == pytest.approx(4.0, abs=1e-8)

    def test_zero_gradient_psd(self):
        s = solve_cubic_model(np.zeros(3), np.eye(3), 1.0)
        np.testing.assert_allclose(s, np.zeros(3))

    def test_model_value(self):
        g = np.array([1.0, -1.0])
        H = np.eye(2)
        s = np.array([2.0, 0.0])
        # <g,s> + 0.5 s'Hs + (M/6)||s||^3 = 2 + 2 + 8/6
        assert cubic_model_value(g, H, 1.0, s) == pytest.approx(4.0 + 8.0 / 6.0)


class TestCubicNewton:
    def test_quadratic_fast_convergence(self):
        task = _quadratic_task([4.0, 3.0], eps=1e-10, D=np.diag([1.0, 10.0]), known_L=0.0)
        res = cubic_newton_solve(task)
        assert res.iterations <= 5
        assert res.grad_norm2 <= 1e-10

    def test_already_stationary(self):
        task = _quadratic_task([0.0, 0.0], eps=1e-6, known_L=0.0)
        res = cubic_newton_solve(task)
        assert res.iterations == 0

    def test_requires_hessian(self):
        task = InnerTask(
            objective=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x,
            start=np.array([1.0]),
            eps=1e-6,
        )
        with pytest.raises(ValueError):
            cubic_newton_solve(task)

    def test_second_order_budget(self):
        p = corpus_problem("eq-cos-8")
        mult = core.MultiplierState(np.zeros(1))
        sigma, eps = 1.0, 1e-4
        L2 = p.objective.L2
        pen = core.Penalty(p, mult, sigma)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            hessian=pen.hess,
            start=np.asarray(p.x0, float),
            eps=eps,
            known_L=L2,
            g_low=p.objective.f_low,
        )
        res = cubic_newton_solve(task)
        decrease_bound = task.objective(task.start) - task.g_low
        budget = 10.0 * math.sqrt(L2) * decrease_bound * eps**-1.5
        assert res.accepted_steps <= budget
        measured_c = res.accepted_steps / (math.sqrt(L2) * decrease_bound * eps**-1.5)
        print(f"second-order budget constant measured: C = {measured_c:.3e}")

    def test_monotone_trace_nonconvex(self):
        p = corpus_problem("eq-cos-8")
        mult = core.MultiplierState(np.zeros(1))
        pen = core.Penalty(p, mult, 1.0)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            hessian=pen.hess,
            start=np.asarray(p.x0, float),
            eps=1e-6,
            known_L=p.objective.L2,
        )
        res = cubic_newton_solve(task)
        assert res.accepted
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-14)


def _penalty_task(name, kind, sigma=1.0, eps=1e-3):
    p = corpus_problem(name)
    mult = core.MultiplierState(np.zeros(p.constraints.m))
    return outer._build_inner_task(core.Penalty(p, mult, sigma), p.x0.copy(), eps, kind, -1e9)


class TestFusedOracle:
    def test_default_value_grad_calls_both_oracles(self):
        task = _quadratic_task([4.0, -2.0], D=np.diag([1.0, 3.0]))
        value, grad = task.value_grad(np.array([1.0, 1.0]))
        assert value == 2.0
        np.testing.assert_array_equal(grad, [1.0, 3.0])

    def test_one_constraint_evaluation_per_fixed_step(self, monkeypatch):
        task = _penalty_task("simplex-cos-8", outer.INNER_GD_FIXED, sigma=8.0)
        calls = []
        real = problems.ConstraintSet.c

        def counted(self, x):
            calls.append(1)
            return real(self, x)

        monkeypatch.setattr(problems.ConstraintSet, "c", counted)
        res = gd_solve(task, FIXED_STEP)
        assert res.iterations > 0
        assert len(calls) == res.iterations + 1

    def test_form_disagreement_stops_fixed_step_descent(self, skewed_forms):
        task = _penalty_task("simplex-cos-8", outer.INNER_GD_FIXED)
        with pytest.raises(core.FormDisagreementError):
            gd_solve(task, FIXED_STEP)


class TestCubicEigenReuse:
    def test_one_eigendecomposition_per_accepted_point(self, monkeypatch):
        task = _penalty_task("eq-rosenbrock-8", outer.INNER_CUBIC, eps=1e-6)
        calls = []
        real = np.linalg.eigh

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = cubic_newton_solve(task)
        assert res.accepted
        assert res.iterations > res.accepted_steps  # at least one rejected step
        assert len(calls) == res.accepted_steps

    def test_precomputed_eigendecomposition_gives_same_step(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 5))
        H, g = 0.5 * (B + B.T), rng.standard_normal(5)
        eig = inner._model_eig(g, H)
        for M in (0.5, 1.0, 8.0):
            fresh = solve_cubic_model(g, H, M)
            assert solve_cubic_model(g, H, M, eig).tobytes() == fresh.tobytes()


class TestTaskValidation:
    def test_eps_positive(self):
        with pytest.raises(ValueError):
            _quadratic_task([1.0], eps=0.0)

    def test_finite_start(self):
        with pytest.raises(ValueError):
            InnerTask(
                objective=lambda x: 0.0,
                gradient=lambda x: x,
                start=np.array([float("nan")]),
                eps=1e-3,
            )
