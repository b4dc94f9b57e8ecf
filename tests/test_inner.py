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
    OracleBudgetExceeded,
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


def _ends_no_higher(task, res):
    """g(x_final) is at most g(start), up to the rounding a step's test forgives."""
    return task.objective(res.x_final) <= res.start_value + 1e-14 * max(1.0, abs(res.start_value))


class TestGradientDescent:
    def test_exact_step_on_identity_quadratic(self):
        res = gd_solve(_quadratic_task([4.0, 3.0], known_L=1.0), FIXED_STEP)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_final, [0.0, 0.0], atol=1e-14)
        assert res.grad_norm2 <= 1e-6

    def test_already_stationary(self):
        task = _quadratic_task([1e-9, 0.0], eps=1e-3, known_L=1.0)
        res = gd_solve(task, FIXED_STEP)
        assert res.iterations == 0
        np.testing.assert_allclose(res.x_final, task.start)

    def test_fixed_step_requires_L(self):
        with pytest.raises(ValueError):
            gd_solve(_quadratic_task([1.0]), FIXED_STEP)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
    def test_fixed_step_requires_finite_positive_L(self, L):
        with pytest.raises(ValueError, match="finite positive known_L"):
            gd_solve(_quadratic_task([1.0], known_L=L), FIXED_STEP)

    def test_step_that_no_longer_moves_x_stops(self):
        # g/L is below half a unit in the last place of every coordinate
        task = _quadratic_task([4.0, 3.0], known_L=1e300)
        with pytest.raises(IterationCapExceeded, match="no longer moves x"):
            gd_solve(task, FIXED_STEP)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gd_solve(_quadratic_task([1.0], known_L=1.0), "newton")

    def test_monotone_trace(self):
        task = _quadratic_task([4.0, -2.0, 1.0], D=np.diag([1.0, 5.0, 10.0]), known_L=10.0)
        res = gd_solve(task, FIXED_STEP)
        assert _ends_no_higher(task, res)

    @pytest.mark.parametrize("curvature", [100.0, 1.9])
    def test_small_L_detected(self, curvature):
        # declared L = 1 below the true curvature: at 100 the step increases f; at 1.9,
        # x -> -0.9 x lowers f by 0.19 f, under the ||grad||^2 / (2L) = 1.9 f a valid L guarantees
        task = _quadratic_task([4.0], D=np.array([[curvature]]), known_L=1.0)
        with pytest.raises(IterationCapExceeded, match=r"L is too small \(L = 1.0\)"):
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
        assert res.grad_norm2 <= 1e-5
        assert res.oracle_calls >= res.iterations
        assert _ends_no_higher(task, res)

    def test_first_order_budget(self):
        # augmented Lagrangian inner solve stays within the L*decrease/eps^2
        # iteration budget computed from the certified Lipschitz constant
        p = corpus_problem("simplex-cos-8")
        lam = np.zeros(9)
        sigma, eps = 1.0, 1e-3
        L = core.lipschitz_bound_for(p, sigma)
        p_low = p.objective.f_low - 0.0  # zero scaled multipliers, k = 0
        pen = core.Penalty(p, lam, sigma)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            start=np.asarray(p.x0, float),
            eps=eps,
            known_L=L,
        )
        res = gd_solve(task, FIXED_STEP)
        budget = L * (res.start_value - p_low) / eps**2
        assert res.iterations <= budget
        measured_c = res.iterations / (L * (res.start_value - p_low) / eps**2)
        print(f"first-order budget constant measured: C = {measured_c:.3e}")


def _ball_task(outside, hessian=None):
    """f = ||x||^2 inside the ball ||x|| <= 2 and ``outside`` beyond it, from (1, 0).

    The first Armijo trial, t = 2, lands at (-3, 0), outside the ball.
    """
    return InnerTask(
        objective=lambda x: float(x @ x) if x @ x <= 4.0 else outside,
        gradient=lambda x: 2.0 * x,
        hessian=hessian,
        start=np.array([1.0, 0.0]),
        eps=1e-8,
    )


class TestArmijoStepFloor:
    def test_steep_quadratic_descends_below_the_floor(self):
        # g = 1e40 x^2 / 2 from x = 1: every decreasing step is shorter than 2e-40
        task = _quadratic_task([1.0], eps=1.0, D=np.array([[1e40]]))
        res = gd_solve(task, BACKTRACKING)
        assert res.grad_norm2 <= 1.0 and res.accepted_steps > 0
        assert _ends_no_higher(task, res)

    def test_floor_stops_a_search_that_no_longer_moves_x(self):
        # the gradient points uphill on a constant objective, so no step decreases it;
        # at x = 1e10 every step below the floor leaves x where it is
        task = InnerTask(objective=lambda x: 0.0, gradient=lambda x: np.ones(1),
                         start=np.array([1e10]), eps=1e-6)
        with pytest.raises(IterationCapExceeded, match="step floor"):
            gd_solve(task, BACKTRACKING)


def _armijo_log(fn, grad, x0, calls):
    """The points where gd-backtracking evaluates g ("f") and grad g ("g") in its first ``calls`` oracle calls."""
    log = []

    def objective(x):
        log.append(("f", x.copy()))
        return fn(x)

    def gradient(x):
        log.append(("g", x.copy()))
        return grad(x)

    task = InnerTask(objective=objective, gradient=gradient, start=np.asarray(x0, float),
                     eps=1e-300, max_calls=calls)
    with pytest.raises(OracleBudgetExceeded):
        gd_solve(task, BACKTRACKING)
    return log


def _search_starts(log):
    """(iterates, first trials): x_k where grad g was taken, and the first trial of the search from each."""
    iterates = [x for kind, x in log if kind == "g"]
    firsts = [x for (kind, x), (prev, _) in zip(log[1:], log) if kind == "f" and prev == "g"]
    return iterates, firsts


class TestOracleBudget:
    @pytest.mark.parametrize("calls", [1, 2, 10])
    def test_a_line_search_stops_at_the_budget(self, calls):
        # the first search on g = 1e14 x^2 halves t = 2 about 48 times before a trial passes
        log = _armijo_log(lambda x: 1e14 * float(x[0]) ** 2, lambda x: 2e14 * x, [1.0], calls)
        assert [kind for kind, _ in log] == ["f", "g"] + ["f"] * (calls - 1)

    @pytest.mark.parametrize("variant", [FIXED_STEP, BACKTRACKING])
    def test_no_call_left_for_the_start(self, variant):
        with pytest.raises(OracleBudgetExceeded, match="used its budget of 0 oracle calls"):
            gd_solve(_quadratic_task([1.0], known_L=1.0, max_calls=0), variant)


class TestArmijoInitialStep:
    @pytest.mark.parametrize("iters, calls", [(1, 3), (2, 4)])
    def test_first_search_starts_at_2_the_next_at_the_bb_step(self, iters, calls):
        # g = 0.75 x^2 from x = 1: t = 2 fails (x -> -2x), t = 1 passes (x -> -x/2).  Then
        # s = -3/2 and y = 1.5 s, so the BB step s^2/(s y) = 2/3 lands on the minimizer.
        eps = 1.8 * 0.5**iters  # |grad g| = 0.75 after one step
        res = gd_solve(_quadratic_task([1.0], eps=eps, D=[[1.5]]), BACKTRACKING)
        assert res.iterations == iters and res.oracle_calls == calls
        assert res.x_final[0] == [-0.5, 0.0][iters - 1]

    @pytest.mark.parametrize("first_step", [2.0, 0.5, 1e-3])
    def test_first_search_starts_at_the_tasks_first_step(self, first_step):
        points = []

        def objective(x):
            points.append(float(x[0]))
            return 0.75 * float(x[0]) ** 2

        task = InnerTask(objective=objective, gradient=lambda x: 1.5 * x, start=np.array([1.0]),
                         eps=1e-6, first_step=first_step)
        gd_solve(task, BACKTRACKING)
        assert points[:2] == [1.0, 1.0 - first_step * 1.5]  # the start, then the first trial

    def test_last_step_at_each_stop_equals_a_solve_alone(self):
        # g = 0.75 x^2 from x = 1, |grad g| = 1.5: t = 0.05 passes at once (|grad g| = 1.3875),
        # and the BB step 2/3 lands on the minimizer; the stop 2.0 is met at the start
        def task(eps, stops=()):
            return _quadratic_task([1.0], eps=eps, D=[[1.5]], stops=stops, first_step=0.05)

        res = gd_solve(task(1e-6, (2.0, 1.4)), BACKTRACKING)
        steps = [r.last_step for r in (*res.earlier, res)]
        assert steps[:2] == [None, 0.05] and steps[2] == pytest.approx(2.0 / 3.0)
        for got, eps in zip((*res.earlier, res), (2.0, 1.4, 1e-6)):
            assert got.last_step == gd_solve(task(eps), BACKTRACKING).last_step
        # the other solvers take no Armijo step
        assert gd_solve(_quadratic_task([1.0], D=[[1.5]], known_L=1.5), FIXED_STEP).last_step is None
        assert cubic_newton_solve(task(1e-6)).last_step is None

    def test_later_searches_start_at_the_bb_step(self):
        D = np.array([1.0, 10.0])
        log = _armijo_log(lambda x: 0.5 * float(x.dot(D * x)), lambda x: D * x, [1.0, 1.0], 12)
        xs, firsts = _search_starts(log)
        assert len(firsts) >= 4
        np.testing.assert_array_equal(firsts[0], xs[0] - 2.0 * D * xs[0])
        for k in range(1, len(firsts)):
            s, y = xs[k] - xs[k - 1], D * xs[k] - D * xs[k - 1]
            t = float(s.dot(s)) / float(s.dot(y))
            np.testing.assert_array_equal(firsts[k], xs[k] - t * (D * xs[k]))

    @pytest.mark.parametrize("a, t, calls", [(1e-14, 256.0 * 2.0, 3), (1e14, inner._BB_LO, 100)])
    def test_the_bb_step_is_clipped(self, a, t, calls):
        # g = a x^2 has the BB step 1/(2a): 5e13 above 256 times the first search's
        # accepted t = 2, and 5e-15 below 1e-12, which lies below 256 times t = 2^-47
        log = _armijo_log(lambda x: a * float(x[0]) ** 2, lambda x: 2.0 * a * x, [1.0], calls)
        xs, firsts = _search_starts(log)
        assert (inner._BB_LO, inner._BB_GROWTH) == (1e-12, 256.0)
        np.testing.assert_array_equal(firsts[1], xs[1] - t * (2.0 * a * xs[1]))

    @pytest.mark.parametrize("a, x2, floored", [(30.0, 0.01, False), (100.0, 0.001, True)])
    def test_the_short_bb_step_starts_where_s_and_y_point_far_apart(self, a, x2, floored):
        # g = x'Dx/2 with D = diag(1, a) from (1, x2): after the first step s'y / y'y is 0.15
        # (a = 30) or 0.04 (a = 100) times s's / s'y, below kappa = 0.2 times it; 0.04 is
        # also below delta = 0.1 times it, so that search starts at the floor
        D = np.array([1.0, a])
        log = _armijo_log(lambda x: 0.5 * float(x.dot(D * x)), lambda x: D * x, [1.0, x2], 8)
        xs, firsts = _search_starts(log)
        s, y = xs[1] - xs[0], D * xs[1] - D * xs[0]
        sy = float(s.dot(y))
        long, short = float(s.dot(s)) / sy, sy / float(y.dot(y))
        assert (inner._BB_KAPPA, inner._BB_DELTA) == (0.2, 0.1)
        assert short < 0.2 * long and (short < 0.1 * long) == floored
        t = 0.1 * long if floored else short
        np.testing.assert_array_equal(firsts[1], xs[1] - t * (D * xs[1]))

    def test_falls_back_to_the_last_step_where_s_y_is_not_positive(self):
        # g = cos x is concave near 0.1: t = 2 passes at once, and the next search,
        # with s'y < 0, starts at 2t = 4
        log = _armijo_log(lambda x: math.cos(x[0]), lambda x: -np.sin(x), [0.1], 3)
        xs, firsts = _search_starts(log)
        np.testing.assert_array_equal(firsts[0], xs[0] - 2.0 * -np.sin(xs[0]))
        s, y = xs[1] - xs[0], -np.sin(xs[1]) + np.sin(xs[0])
        assert float(s.dot(y)) < 0.0
        np.testing.assert_array_equal(firsts[1], xs[1] - 4.0 * -np.sin(xs[1]))

    def test_accepted_step_that_no_longer_moves_x_is_a_cycle_of_1_step(self):
        # g is 1 at x = 1e10 and 2 anywhere else, with grad 1e-6: t = 2 and t = 1 move x
        # by an ulp and are rejected; t = 1/2 leaves x where it is, and 1 - c1 t 1e-12
        # rounds to 1, so it passes the test.  With s = 0 the next search starts at 2t = 1,
        # rejects it and accepts t = 1/2 again: its state recurs, found by Brent's check.
        calls = {"f": 0, "g": 0}

        def objective(x):
            calls["f"] += 1
            return 1.0 if x[0] == 1e10 else 2.0

        def gradient(x):
            calls["g"] += 1
            return np.full(1, 1e-6)

        task = InnerTask(objective=objective, gradient=gradient, start=np.array([1e10]), eps=1e-9)
        with pytest.raises(IterationCapExceeded, match="Armijo steps repeat a cycle of 1 step at g = 1.0"):
            gd_solve(task, BACKTRACKING)
        assert calls == {"f": 6, "g": 2}

    def test_bb_steps_that_repeat_a_cycle_stop(self):
        # g is 1 everywhere, with a made-up gradient at p = 1 and at q = 1 - 2^-53, the float
        # below it.  From p, t = 2 rounds to q.  From q, y rounds to -2^-53 = s, so the BB step
        # is 1, which rounds back to p; from p it is 1 again and rounds to q.  The state after
        # that third step, at q from p with t = 1, recurs after the fifth, found by Brent's check.
        p, q = 1.0, 1.0 - 2.0**-53
        grads = {p: 2.0**-54 + 2.0**-106, q: -(2.0**-54)}
        points = []

        def gradient(x):
            points.append(float(x[0]))
            return np.array([grads[float(x[0])]])

        task = InnerTask(objective=lambda x: 1.0, gradient=gradient, start=np.array([p]), eps=1e-20)
        with pytest.raises(IterationCapExceeded, match="Armijo steps repeat a cycle of 2 steps at g = 1.0"):
            gd_solve(task, BACKTRACKING)
        assert points == [p, q, p, q, p]

    @pytest.mark.parametrize("n, plain_bb", [(8, 468), (32, 332)])
    def test_the_shared_descent_makes_fewer_f_evaluations_than_the_plain_bb_start(self, n, plain_bb):
        # a ratchet: the k = 0 descent of eq-rosenbrock-n to 1e-4, from a sweep's stops,
        # made plain_bb oracle calls, one f evaluation each, when every search started at s's / s'y
        config = outer.SolverConfig(eps=1e-2, inner=outer.INNER_GD_BACKTRACKING)
        res = outer.first_inner_results(corpus_problem(f"eq-rosenbrock-{n}"), config, [1e-2, 1e-3, 1e-4])[-1]
        assert res.grad_norm2 <= 1e-4 and res.oracle_calls < plain_bb

    @pytest.mark.parametrize("name", ["simplex-cos-8", "eq-cos-8", "dup-eq-8", "eq-qp-analytic"])
    def test_steps_and_trials_within_the_t_min_bounds(self, name, monkeypatch):
        # every inner solve of an outer run, against the bounds proved in _gd_rule
        # from t_min = min(2, delta/L) with L the certified constant of grad P:
        # each accepted t is at least t_min, and each search's first trial at most
        # 256 times the last accepted t (at most 2 for the first), so trials <= 9 N + log2(2 / t_min)
        solves, run = [], inner.gd_solve

        def recording_run(task, variant):
            res = run(task, variant)
            solves.append((task.objective.__self__, task, res))  # objective is Penalty.value
            return res

        monkeypatch.setattr(inner, "gd_solve", recording_run)
        p = corpus_problem(name)
        report = outer.solve(p, outer.SolverConfig(eps=1e-3, inner=outer.INNER_GD_BACKTRACKING))
        assert report.terminated == outer.TERMINATED_KKT and len(solves) == report.T_outer
        c1 = inner._ARMIJO_C1
        for pen, task, res in solves:
            t_min = min(2.0, inner._BB_DELTA / core.lipschitz_bound_for(p, pen.sigma))
            p_low = p.objective.f_low - float(pen.lam @ pen.lam) / (2.0 * pen.sigma)  # P >= p_low
            assert res.accepted_steps == res.iterations
            assert res.accepted_steps <= (res.start_value - p_low) / (c1 * t_min * task.eps**2) + 1
            growth = math.log2(inner._BB_GROWTH)
            assert res.oracle_calls <= 1 + (1 + growth) * res.iterations + math.log2(2.0 / t_min)

    @pytest.mark.parametrize("name", ["simplex-cos-8", "dup-eq-8", "eq-qp-analytic"])
    def test_each_solve_starts_at_twice_the_last_solves_last_step(self, name, monkeypatch):
        # solve k+1's first trial is min(2, 2 t), t the last step of the last solve
        # that took one (eq-qp-analytic's last solve takes none), and 2 before that
        solves, run = [], inner.gd_solve

        def recording_run(task, variant):
            trials, value = [], task.objective

            def recorded(x):
                trials.append(x.copy())
                return value(x)

            task.objective = recorded
            res = run(task, variant)
            solves.append((task, res, trials))
            return res

        monkeypatch.setattr(inner, "gd_solve", recording_run)
        report = outer.solve(corpus_problem(name), outer.SolverConfig(eps=1e-3, inner=outer.INNER_GD_BACKTRACKING))
        assert report.terminated == outer.TERMINATED_KKT and len(solves) == report.T_outer >= 4
        want = 2.0
        for task, res, trials in solves:
            assert task.first_step == want
            if res.iterations:  # the start pair is given, so the first call is the first trial
                np.testing.assert_array_equal(trials[0], task.start - want * task.start_pair[1])
                want = min(2.0, 2.0 * res.last_step)
        assert want < 2.0


class TestNonFiniteTrial:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_armijo_rejects_the_trial_and_halves_t(self, bad):
        res = gd_solve(_ball_task(bad), BACKTRACKING)
        # t = 2 is not finite, t = 1 reaches (-1, 0) with no decrease, t = 1/2 reaches 0
        assert res.grad_norm2 <= 1e-8 and res.iterations == 1 and res.oracle_calls == 4
        np.testing.assert_array_equal(res.x_final, [0.0, 0.0])

    @staticmethod
    def _checked(task):
        """``task`` with its values checked by an ``ObjectiveOracle`` declaring f_low = 0."""
        obj = problems.ObjectiveOracle(fn=task.objective, grad_fn=task.gradient, f_low=0.0)
        return InnerTask(objective=obj.value, gradient=obj.gradient, start=task.start, eps=task.eps)

    def test_non_finite_objective_oracle_value_is_a_rejected_trial(self):
        # ObjectiveOracle.value returns the inf, and the trial's own check turns it into a rejection
        assert gd_solve(self._checked(_ball_task(math.inf)), BACKTRACKING).grad_norm2 <= 1e-8

    def test_finite_value_below_the_bound_still_raises(self):
        with pytest.raises(problems.ObjectiveBelowBound, match="violates declared lower bound"):
            gd_solve(self._checked(_ball_task(-1.0)), BACKTRACKING)

    def test_cubic_newton_rejects_the_trial(self):
        # a Hessian 20 times too small and M = 1e-3 make the first model step about 18 long
        task = _ball_task(math.inf, hessian=lambda x: 0.1 * np.eye(2))
        task.known_L = 1e-3
        res = cubic_newton_solve(task)
        assert res.grad_norm2 <= 1e-8 and res.accepted_steps < res.iterations

    @pytest.mark.parametrize("variant", [FIXED_STEP, BACKTRACKING])
    def test_non_finite_start_still_raises(self, variant):
        task = _ball_task(math.inf)
        task.start, task.known_L = np.array([3.0, 0.0]), 2.0
        with pytest.raises(NonFiniteValue):
            gd_solve(task, variant)


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

    def test_a_finite_hessian_entry_past_half_the_largest_double(self):
        # H + H^T overflows at 1e308; the step solves the model with H = diag(1e308, 1) itself
        s = solve_cubic_model(np.array([1.0, 1.0]), np.diag([1e308, 1.0]), 1.0)
        assert s[0] == pytest.approx(-1e-308, rel=1e-12, abs=0.0)
        assert s[1] == pytest.approx(1.0 - math.sqrt(3.0), rel=1e-12)

    def test_zero_gradient_psd(self):
        s = solve_cubic_model(np.zeros(3), np.eye(3), 1.0)
        np.testing.assert_allclose(s, np.zeros(3))
        # a float step, as every other step is, also for an integer g
        assert solve_cubic_model(np.zeros(3, dtype=int), np.eye(3), 1.0).dtype == float

    @pytest.mark.parametrize("M", [0.0, -1.0, math.nan])
    def test_a_cubic_weight_that_is_not_positive_is_refused(self, M):
        # once a division by zero, a step from a negative weight, and a failed bracket
        with pytest.raises(ValueError, match="cubic weight M must be positive"):
            solve_cubic_model(np.array([1.0, -2.0]), np.diag([-1.0, 2.0]), M)

    def test_an_infinite_cubic_weight_gives_the_zero_step(self):
        # the cubic rule's "no longer moves x" check relies on this
        s = solve_cubic_model(np.array([1.0, -2.0]), np.diag([-1.0, 2.0]), math.inf)
        assert (s == 0.0).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_gradient_without_eig_raises(self, bad):
        with pytest.raises(NonFiniteValue, match="gradient"):
            solve_cubic_model(np.array([1.0, bad]), np.diag([-1.0, 2.0]), 1.0)

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

    def test_step_that_no_longer_moves_x_stops(self):
        # with M = 1e300 the model step has length about 1e-150
        task = _quadratic_task([4.0, 3.0], known_L=1e300)
        with pytest.raises(IterationCapExceeded, match="no longer moves x"):
            cubic_newton_solve(task)

    def test_a_model_decrease_below_the_rounding_of_g_asks_only_for_no_increase(self):
        # g = 1e8 + x^2 / 2 from x = 1e-5: the model decrease, about 5e-11, is below the ulp
        # of g (1.5e-8), so the actual decrease rounds to 0, which the ratio test rejected
        task = InnerTask(
            objective=lambda x: 1e8 + 0.5 * float(x @ x), gradient=lambda x: x.copy(),
            hessian=lambda x: np.eye(1), start=[1e-5], eps=1e-9, known_L=0.0,
        )
        res = cubic_newton_solve(task)
        assert (res.iterations, res.accepted_steps) == (1, 1) and res.grad_norm2 <= 1e-9

    def test_no_rejection_at_the_rounding_of_p_near_eps(self):
        # eq-qp-analytic at eps 1e-8, as `auglag check` runs it: the last inner solve starts with
        # ||grad P|| near eps, where the model decrease lies below the ulp of P (1.4e-17 at P = 0.125)
        config = outer.SolverConfig(eps=1e-8, inner=outer.INNER_CUBIC)
        report = outer.solve(corpus_problem("eq-qp-analytic"), config)
        assert report.terminated == outer.TERMINATED_KKT
        work = [(st.inner_stats.iterations, st.inner_stats.accepted_steps) for st in report.trace[1:]]
        assert work == [(1, 1)] * 6

    def test_a_finite_hessian_entry_past_half_the_largest_double(self):
        # f = (1e308 x0^2 + x1^2)/2: one model step lands within eps of the minimizer
        D = np.array([1e308, 1.0])
        task = InnerTask(
            objective=lambda x: 0.5 * float(D.dot(x * x)), gradient=lambda x: D * x,
            hessian=lambda x: np.diag(D), start=[1e-300, 1.0], eps=1e-6, known_L=0.0,
        )
        res = cubic_newton_solve(task)
        assert (res.iterations, res.accepted_steps) == (1, 1) and res.grad_norm2 <= 1e-6

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
        lam = np.zeros(1)
        sigma, eps = 1.0, 1e-4
        L2 = p.objective.L2
        pen = core.Penalty(p, lam, sigma)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            hessian=pen.hess,
            start=np.asarray(p.x0, float),
            eps=eps,
            known_L=L2,
        )
        res = cubic_newton_solve(task)
        decrease_bound = task.objective(task.start) - p.objective.f_low
        budget = 10.0 * math.sqrt(L2) * decrease_bound * eps**-1.5
        assert res.accepted_steps <= budget
        measured_c = res.accepted_steps / (math.sqrt(L2) * decrease_bound * eps**-1.5)
        print(f"second-order budget constant measured: C = {measured_c:.3e}")

    def test_monotone_trace_nonconvex(self):
        p = corpus_problem("eq-cos-8")
        pen = core.Penalty(p, np.zeros(1), 1.0)
        task = InnerTask(
            objective=pen.value,
            gradient=pen.grad,
            hessian=pen.hess,
            start=np.asarray(p.x0, float),
            eps=1e-6,
            known_L=p.objective.L2,
        )
        res = cubic_newton_solve(task)
        assert res.grad_norm2 <= task.eps
        assert _ends_no_higher(task, res)


class TestCubicWeight:
    """A rejected trial sets M from its misfit, within the bounds that doubling alone keeps."""

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_one_rejection_sets_the_weight_on_eq_rosenbrock(self, n):
        # no declared L2, so M0 = 1, and doubling alone rejected 7, 6 and 5 trials on the way up
        config = outer.SolverConfig(eps=1e-3, inner=outer.INNER_CUBIC)
        report = outer.solve(corpus_problem(f"eq-rosenbrock-{n}"), config)
        assert report.terminated == outer.TERMINATED_KKT and report.T_outer == 1
        stats = report.trace[1].inner_stats
        assert stats.iterations - stats.accepted_steps == 1

    @pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
    def test_weight_and_rejections_within_the_lipschitz_bounds(self, monkeypatch, n):
        # if the Hessian is L-Lipschitz, M <= max(M0, 2L), and a solve rejects at most
        # accepted + log2(max(M0, 2L) / M0) trials; the Hessian of P is L2-Lipschitz here
        p = corpus_problem(f"eq-cos-{n}")
        L2 = p.objective.L2
        weights = []
        real = inner.solve_cubic_model

        def recorded(g, H, M, eig=None):
            weights.append(M)
            return real(g, H, M, eig)

        monkeypatch.setattr(inner, "solve_cubic_model", recorded)
        for sigma in (1.0, 100.0):
            for M0 in (1e-6, 1e-3, 1.0, L2):
                for eps in (1e-2, 1e-4, 1e-6):
                    weights.clear()
                    pen = core.Penalty(p, np.zeros(p.constraints.m), sigma)
                    task = InnerTask(objective=pen.value, gradient=pen.grad, hessian=pen.hess,
                                     start=p.x0.copy(), eps=eps, known_L=M0)
                    res = cubic_newton_solve(task)
                    top = max(M0, 2.0 * L2)
                    case = (sigma, M0, eps)
                    assert res.grad_norm2 <= eps and max(weights, default=M0) <= top, case
                    rejected = res.iterations - res.accepted_steps
                    assert rejected <= res.accepted_steps + math.log2(top / M0), case

    @pytest.mark.parametrize("n, alpha, sigma0", [
        (2, 2.0, 1e4), (8, 3.0, 1.0), (8, 1.5, 0.1), (8, 2.0, 1e4),
        (16, 5.0, 100.0), (16, 2.0, 1e4), (64, 3.0, 1.0), (64, 1.5, 0.1),
    ])
    def test_a_misfit_within_rounding_only_doubles(self, n, alpha, sigma0):
        # at eps 1e-8 the misfit of a rejected trial can be rounding; read as a weight it
        # sent M to 1e32 and beyond, where the cubic step no longer moves x
        config = outer.SolverConfig(eps=1e-8, alpha=alpha, sigma0=sigma0, inner=outer.INNER_CUBIC)
        report = outer.solve(corpus_problem(f"eq-cos-{n}"), config)
        assert report.terminated == outer.TERMINATED_KKT

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_the_first_weight_is_half_the_declared_constant(self, monkeypatch, n):
        # a trial at M >= L always passes but takes the shortest step, so a solve starts below it
        p = corpus_problem(f"eq-cos-{n}")
        weights = []
        real = inner.solve_cubic_model

        def recorded(g, H, M, eig=None):
            weights.append(M)
            return real(g, H, M, eig)

        monkeypatch.setattr(inner, "solve_cubic_model", recorded)
        for known_L in (1e-6, 1.0, p.objective.L2):
            weights.clear()
            pen = core.Penalty(p, np.zeros(p.constraints.m), 4.0)
            task = InnerTask(objective=pen.value, gradient=pen.grad, hessian=pen.hess,
                             start=p.x0.copy(), eps=1e-3, known_L=known_L)
            cubic_newton_solve(task)
            assert weights[0] == max(known_L / 2.0, 1e-8), known_L

    def test_the_lipschitz_bounds_hold_where_the_model_decrease_is_rounding(self, monkeypatch):
        # eq-cos-2 at eps 1e-7, (alpha, sigma0) = (2, 1e4): where f_trial <= f alone was asked
        # of a model decrease within 16 ulps, the first solve rejected 30 of 32 trials and M
        # passed 1e8 L2; within the rounding gd-backtracking forgives, every trial passes
        p = corpus_problem("eq-cos-2")
        L2 = p.objective.L2
        weights, solves = [], []
        real_model, real_solve = inner.solve_cubic_model, inner.cubic_newton_solve

        def recorded(g, H, M, eig=None):
            weights.append(M)
            return real_model(g, H, M, eig)

        def one_solve(task):
            weights.clear()
            res = real_solve(task)
            solves.append((list(weights), res))
            return res

        monkeypatch.setattr(inner, "solve_cubic_model", recorded)
        monkeypatch.setattr(inner, "cubic_newton_solve", one_solve)
        config = outer.SolverConfig(eps=1e-7, alpha=2.0, sigma0=1e4, inner=outer.INNER_CUBIC)
        report = outer.solve(p, config)
        assert report.terminated == outer.TERMINATED_KKT and solves
        M0, top = L2 / 2.0, 2.0 * L2
        for k, (seen, res) in enumerate(solves, start=1):
            assert seen[0] == M0 and max(seen) <= top, k
            assert res.iterations - res.accepted_steps <= res.accepted_steps + math.log2(top / M0), k

    @pytest.mark.parametrize("n, alpha, sigma0", [(16, 2.0, 1e4), (32, 5.0, 100.0), (32, 2.0, 1e4), (64, 3.0, 1.0)])
    def test_runs_that_ask_theta_half_reach_eps(self, n, alpha, sigma0):
        # each ended in "the cubic step no longer moves x" while a rounding-level trial had to
        # leave g unchanged or lower
        config = outer.SolverConfig(eps=1e-6, alpha=alpha, sigma0=sigma0, inner=outer.INNER_CUBIC,
                                    require_theta_half=True)
        report = outer.solve(corpus_problem(f"eq-cos-{n}"), config)
        assert report.terminated == outer.TERMINATED_KKT

    @pytest.mark.parametrize("n, most", [(32, 13), (64, 11)])
    def test_eigendecompositions_per_run(self, monkeypatch, n, most):
        # one per accepted cubic step; a start at M = L2 made 15 and 14
        calls = []
        real = np.linalg.eigh

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = outer.solve(corpus_problem(f"eq-cos-{n}"), outer.SolverConfig(eps=1e-3, inner=outer.INNER_CUBIC))
        assert report.terminated == outer.TERMINATED_KKT
        assert len(calls) <= most


def _penalty_solve(name, kind, sigma=1.0, eps=1e-3):
    """P(., 0, sigma) of corpus problem ``name``, and ``outer``'s inner solve of it by ``kind`` from x0."""
    p = corpus_problem(name)
    pen = core.Penalty(p, np.zeros(p.constraints.m), sigma)
    return pen, outer._inner_solve(pen, p.x0.copy(), eps, kind)


class TestFusedOracle:
    def test_one_constraint_evaluation_per_fixed_step(self, monkeypatch):
        calls = []
        real = problems.ConstraintSet.c

        def counted(self, x):
            calls.append(1)
            return real(self, x)

        monkeypatch.setattr(problems.ConstraintSet, "c", counted)
        _, res = _penalty_solve("simplex-cos-8", outer.INNER_GD_FIXED, sigma=8.0)
        assert res.iterations > 0
        assert len(calls) == res.iterations + 1

    def test_form_disagreement_stops_fixed_step_descent(self, skewed_forms):
        with pytest.raises(core.FormDisagreementError):
            _penalty_solve("simplex-cos-8", outer.INNER_GD_FIXED)


class TestStartPair:
    """A task given (g(start), grad g(start)) makes no evaluation at its start."""

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("simplex-cos-8", outer.INNER_GD_FIXED),
            ("eq-cos-8", outer.INNER_GD_BACKTRACKING),
            ("eq-cos-8", outer.INNER_CUBIC),
        ],
    )
    def test_same_descent_one_call_fewer(self, monkeypatch, name, kind):
        p = corpus_problem(name)
        lam = np.zeros(p.constraints.m)
        _, alone = _penalty_solve(name, kind, sigma=4.0)
        pen = core.Penalty(p, lam, 4.0)
        fresh = core.Penalty(p, lam, 4.0)
        pair = fresh.value(p.x0), fresh.grad(p.x0)
        calls = []
        real = problems.ObjectiveOracle.value

        def counted(self, x):
            calls.append(1)
            return real(self, x)

        monkeypatch.setattr(problems.ObjectiveOracle, "value", counted)
        res = outer._inner_solve(pen, p.x0.copy(), 1e-3, kind, start_pair=pair)
        assert alone.iterations > 0
        assert len(calls) == res.oracle_calls == alone.oracle_calls - 1
        assert res.x_final.tobytes() == alone.x_final.tobytes()
        assert res.start_value.hex() == alone.start_value.hex()
        assert (res.iterations, res.accepted_steps) == (alone.iterations, alone.accepted_steps)
        assert res.grad_norm2.hex() == alone.grad_norm2.hex()
        assert res.evaluation.key == res.x_final.tobytes() == alone.evaluation.key

    def test_a_start_pair_already_at_tolerance_makes_no_call(self):
        task = _quadratic_task([1e-9, 0.0], eps=1e-6, known_L=1.0)
        task.objective = task.gradient = None  # never called
        task.start_pair = (0.5e-18, np.array([1e-9, 0.0]))
        res = gd_solve(task, FIXED_STEP)
        assert (res.iterations, res.oracle_calls, res.start_value) == (0, 0, 0.5e-18)
        assert res.evaluation is None  # the task keeps no record of evaluations

    @pytest.mark.parametrize("pair", [(float("nan"), np.zeros(2)), (0.0, np.array([float("inf"), 0.0]))])
    def test_a_non_finite_start_pair_is_rejected(self, pair):
        task = _quadratic_task([1.0, 0.0], known_L=1.0)
        task.start_pair = pair
        with pytest.raises(NonFiniteValue):
            gd_solve(task, FIXED_STEP)


class TestCubicEigenReuse:
    def test_one_eigendecomposition_per_accepted_point(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        hessians = []
        real_hessian = core.Penalty.hess

        def counted_hessian(self, x):
            hessians.append(1)
            return real_hessian(self, x)

        monkeypatch.setattr(core.Penalty, "hess", counted_hessian)
        _, res = _penalty_solve("eq-rosenbrock-8", outer.INNER_CUBIC, eps=1e-6)
        assert res.grad_norm2 <= 1e-6
        assert res.iterations > res.accepted_steps  # at least one rejected step
        assert len(calls) == res.accepted_steps
        assert len(hessians) == res.accepted_steps  # none at the final point

    def test_precomputed_eigendecomposition_gives_same_step(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 5))
        H, g = 0.5 * (B + B.T), rng.standard_normal(5)
        eig = inner._model_eig(g, H)
        for M in (0.5, 1.0, 8.0):
            fresh = solve_cubic_model(g, H, M)
            assert solve_cubic_model(g, H, M, eig).tobytes() == fresh.tobytes()


class TestIterationBudget:
    def test_a_cap_raised_inside_solve_is_an_inner_failure_naming_the_outer_iteration(self, monkeypatch):
        # L is a hundredth of the certified bound once sigma has grown, which it first has at outer
        # iteration 2 here, and the first fixed step there raises P
        real = core.lipschitz_bound_for
        monkeypatch.setattr(
            core, "lipschitz_bound_for", lambda p, sigma: real(p, sigma) / (100.0 if sigma > 1.0 else 1.0)
        )
        config = outer.SolverConfig(eps=1e-3, inner=outer.INNER_GD_FIXED)
        failure = "outer iteration 2: the step g/L lowered the objective by less than"
        with pytest.raises(outer.InnerFailure, match=failure) as info:
            outer.solve(corpus_problem("simplex-cos-8"), config)
        assert isinstance(info.value.__cause__, IterationCapExceeded)

    @pytest.mark.parametrize("solve", [
        lambda t: gd_solve(t, FIXED_STEP), lambda t: gd_solve(t, BACKTRACKING), cubic_newton_solve,
    ])
    def test_a_task_built_without_max_calls_stops_at_the_library_budget(self, monkeypatch, solve):
        assert _quadratic_task([1.0]).max_calls == inner.ORACLE_BUDGET == 1_000_000
        # g = -x has no minimizer, so only the budget ends a descent; a small one keeps the test short
        monkeypatch.setattr(inner, "ORACLE_BUDGET", 50)
        values = []
        task = InnerTask(
            objective=lambda x: values.append(x) or -float(x[0]), gradient=lambda x: -np.ones(1),
            hessian=lambda x: np.zeros((1, 1)), start=[0.0], eps=1e-3, known_L=1.0,
        )
        assert task.max_calls == 50
        with pytest.raises(OracleBudgetExceeded):
            solve(task)
        assert len(values) == 50

    def test_each_tolerance_ends_at_its_first_iterate_below_it(self):
        # x_{k+1} = 0.75 x_k from ||grad|| = sqrt(2): 10 iterations reach 0.1, 26 reach 1e-3
        task = _quadratic_task([1.0, 1.0], eps=1e-3, known_L=4.0, stops=(1e-1,))
        res = gd_solve(task, FIXED_STEP)
        assert [r.iterations for r in [*res.earlier, res]] == [10, 26]


def _reference_cubic_step(eig, M):
    """``solve_cubic_model``'s secular solve as first written, each residual evaluated afresh."""
    w, Q, ghat = eig
    gnorm = float(np.linalg.norm(ghat))
    if gnorm == 0.0 and w[0] >= 0.0:
        return np.zeros_like(ghat)

    w_min = float(w[0])
    r_lb = max(0.0, -2.0 * w_min / M)

    def shifted_norm(r):
        v = ghat / (w + 0.5 * M * r)
        return math.sqrt(v @ v)

    def residual(r):
        return shifted_norm(r) - r

    min_mask = (w - w_min) <= 1e-12 * max(1.0, abs(w_min))
    hard_candidate = r_lb > 0.0 and float(np.max(np.abs(ghat[min_mask]), initial=0.0)) <= 1e-13 * max(1.0, gnorm)
    if hard_candidate:
        denom = w + 0.5 * M * r_lb
        p = np.where(min_mask, 0.0, ghat / np.where(min_mask, 1.0, denom))
        pnorm = float(np.linalg.norm(p))
        if pnorm <= r_lb:
            tau = math.sqrt(max(0.0, r_lb * r_lb - pnorm * pnorm))
            e = np.zeros_like(ghat)
            e[0] = 1.0
            return Q @ (-p + tau * e)

    lo = r_lb
    hi = max(1.0, 2.0 * (r_lb + 1.0))
    for _ in range(200):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise inner.IterationCapExceeded("failed to bracket the secular-equation root")

    r, r_prev = 0.5 * (lo + hi), None
    for _ in range(500):
        if r == r_prev:
            break  # every later iteration would repeat the last one
        r_prev = r
        F = residual(r)
        if abs(F) <= inner._SECULAR_TOL:
            break
        if F > 0.0:
            lo = r
        else:
            hi = r
        denom = w + 0.5 * M * r
        n2 = shifted_norm(r)
        dn2 = -(0.5 * M) * float(np.sum(ghat * ghat / denom ** 3)) / n2 if n2 > 0 else 0.0
        dF = dn2 - 1.0
        r_newton = r - F / dF if dF != 0.0 else r
        if lo < r_newton < hi:
            r = r_newton
        else:
            r = 0.5 * (lo + hi)
        if hi - lo <= 1e-17 * max(1.0, r):
            break
    denom = w + 0.5 * M * r
    return Q @ (-ghat / denom)


def _model_instances(rng, count):
    """(kind, g, H, M) with n in 1..64 and M in [1e-8, 1e4], cycling over four kinds.

    psd and indefinite draw a random spectrum in a random basis; near-hard
    gives g a component of 1e-20..1e-6 (or none) on the minimal eigenvector;
    rounded-root is diagonal, with M near its floor, so the secular root can
    fall within float spacing of r_lb.
    """
    kinds = ("psd", "indefinite", "near-hard", "rounded-root")
    for i in range(count):
        kind = kinds[i % 4]
        n = int(rng.integers(1, 65))
        M = float(10.0 ** rng.uniform(-8.0, 4.0))
        if kind == "psd":
            w = 10.0 ** rng.uniform(-4.0, 2.0, n)
            w[rng.random(n) < 0.1] = 0.0
        else:
            w = rng.normal(0.0, 10.0 ** rng.uniform(-2.0, 2.0), n)
        ghat = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 1.0), n)
        if kind in ("near-hard", "rounded-root"):
            k = int(np.argmin(w))
            w[k] = -abs(w[k]) - 1e-3
            ghat[k] = 0.0 if rng.random() < 0.2 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20.0, -6.0)
        if kind == "rounded-root":
            M = float(10.0 ** rng.uniform(-8.0, -5.0))
            yield kind, ghat, np.diag(w), M
            continue
        Qr, _ = np.linalg.qr(rng.standard_normal((n, n)))
        yield kind, Qr @ ghat, (Qr * w) @ Qr.T, M


class TestSecularReference:
    def test_steps_bitwise_equal_to_reference(self, monkeypatch):
        """Bit for bit, except where the rounded-root step replaces a finite reference step."""
        rounded = {}  # instance -> the r the rounded-root step was taken at
        real = inner._rounded_root_step

        def spy(Q, ghat, denom, r):
            rounded[current] = r
            return real(Q, ghat, denom, r)

        monkeypatch.setattr(inner, "_rounded_root_step", spy)
        rng = np.random.default_rng(2011)
        nonfinite, below_zero, kinds = [], [], set()
        for current, (kind, g, H, M) in enumerate(_model_instances(rng, 3200)):
            eig = inner._model_eig(g, H)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = _reference_cubic_step(eig, M)
            got = solve_cubic_model(g, H, M, eig)
            assert np.isfinite(got).all(), (current, kind)
            if current not in rounded:
                assert got.tobytes() == want.tobytes(), (current, kind)
            elif not np.isfinite(want).all():
                nonfinite.append(current)
                kinds.add(kind)
            else:
                # w_min + (M/2) r rounded below zero: the reference's step is
                # finite but far shorter than r, and its model value higher
                below_zero.append(current)
                assert np.linalg.norm(got) == pytest.approx(rounded[current], rel=1e-12)
                assert cubic_model_value(g, H, M, got) <= cubic_model_value(g, H, M, want)
        assert nonfinite
        assert below_zero == [39, 186, 1067, 2678, 3142]
        print(f"{len(nonfinite)} non-finite reference steps, kinds {sorted(kinds)}")


class TestRoundedSecularRoot:
    G, H, M = np.array([1e-9, 1e-7]), np.diag([-1.0, 1.0]), 1e-8

    def test_step_is_finite_and_no_worse_than_hard_case_steps(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(_reference_cubic_step(inner._model_eig(self.G, self.H), self.M)).all()
        s = solve_cubic_model(self.G, self.H, self.M)
        assert np.isfinite(s).all()
        # -p +- tau*e, with e the minimal eigenvector and length 2|w_min|/M
        r = float(np.linalg.norm(s))
        assert r == pytest.approx(2.0 / self.M, rel=1e-12)
        p = np.array([0.0, self.G[1] / (1.0 + 0.5 * self.M * r)])
        tau = math.sqrt(r * r - p @ p)
        e = np.array([1.0, 0.0])
        value = cubic_model_value(self.G, self.H, self.M, s)
        for sign in (1.0, -1.0):
            assert value <= cubic_model_value(self.G, self.H, self.M, -p + sign * tau * e)

    def test_solver_stays_finite(self):
        # f = -x0^2/2 + x0^4/4 + x1^2/2, with M at its floor 1e-8
        task = InnerTask(
            objective=lambda x: -0.5 * x[0] ** 2 + 0.25 * x[0] ** 4 + 0.5 * x[1] ** 2,
            gradient=lambda x: np.array([-x[0] + x[0] ** 3, x[1]]),
            hessian=lambda x: np.diag([-1.0 + 3.0 * x[0] ** 2, 1.0]),
            start=self.G,
            eps=1e-8,
            known_L=1e-9,
        )
        res = cubic_newton_solve(task)
        assert res.grad_norm2 <= task.eps
        assert abs(abs(res.x_final[0]) - 1.0) <= 1e-8 and abs(res.x_final[1]) <= 1e-8


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


def _poisoned_task(bad, from_call):
    """A 3-D quadratic task whose gradient entry 1 reads ``bad`` from gradient call ``from_call`` on."""
    D = np.diag([1.0, 5.0, 10.0])
    calls = []

    def gradient(x):
        calls.append(1)
        g = D @ x
        if len(calls) > from_call:
            g[1] = bad
        return g

    task = InnerTask(
        objective=lambda x: 0.5 * float(x @ (D @ x)),
        gradient=gradient,
        hessian=lambda x: D,
        start=np.array([4.0, -2.0, 1.0]),
        eps=1e-6,
        known_L=10.0,
    )
    return task, calls


# each inner solver, by outer's name for it
INNER_SOLVES = {
    outer.INNER_GD_FIXED: lambda task: gd_solve(task, FIXED_STEP),
    outer.INNER_GD_BACKTRACKING: lambda task: gd_solve(task, BACKTRACKING),
    outer.INNER_CUBIC: cubic_newton_solve,
}


class TestNonFiniteGradient:
    @pytest.mark.parametrize("kind", INNER_SOLVES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("from_call", [0, 1, 2])
    def test_raises_at_the_first_bad_gradient(self, kind, bad, from_call):
        task, calls = _poisoned_task(bad, from_call)
        with pytest.raises(NonFiniteValue):
            INNER_SOLVES[kind](task)
        assert len(calls) == from_call + 1

    def test_a_failed_fixed_step_takes_no_gradient(self):
        # L = 0.5 misses the descent lemma of g = x^2 (L = 2): the check raises before
        # the loop would take the gradient, NaN, at the rejected point
        calls = []

        def gradient(x):
            calls.append(1)
            return 2.0 * x if len(calls) == 1 else np.full(1, math.nan)

        task = InnerTask(objective=lambda x: float(x[0] ** 2), gradient=gradient, start=np.ones(1),
                         eps=1e-6, known_L=0.5)
        with pytest.raises(IterationCapExceeded, match="L is too small"):
            gd_solve(task, FIXED_STEP)
        assert len(calls) == 1


class TestRunningValue:
    """An accepted step may raise g within ``_slack``; the next step is tested against the lower running value."""

    # the solve's values and gradients, in call order: the start, an accepted rise of 5e-15
    # at a gradient of 1e-10 (a model decrease or t ||grad||^2 below the rounding of g = 1),
    # a trial at 1 + 1.2e-14 (within _slack of 1 + 5e-15, not of 1) and a trial at 0.5
    VALUES = (1.0, 1.0 + 5e-15, 1.0 + 1.2e-14, 0.5)
    GRADIENTS = (-1e-10, -1e-10, 0.0)

    @pytest.mark.parametrize("kind", [outer.INNER_GD_BACKTRACKING, outer.INNER_CUBIC])
    def test_a_trial_above_the_running_value_is_rejected(self, kind):
        values, gradients = iter(self.VALUES), iter(self.GRADIENTS)
        task = InnerTask(objective=lambda x: next(values), gradient=lambda x: np.full(1, next(gradients)),
                         hessian=lambda x: np.zeros((1, 1)), start=np.zeros(1), eps=1e-11)
        res = INNER_SOLVES[kind](task)
        # the third value was rejected (after the rise, f stayed 1) and the fourth accepted
        assert (res.accepted_steps, res.oracle_calls) == (2, 4)
        assert res.grad_norm2 == 0.0


class TestReportedGradientNorm:
    @pytest.mark.parametrize(
        "name, kind",
        [
            ("simplex-cos-32", outer.INNER_GD_FIXED),
            ("dup-eq-64", outer.INNER_GD_BACKTRACKING),
            ("eq-cos-32", outer.INNER_CUBIC),
        ],
    )
    def test_grad_norm2_is_numpy_norm_at_x_final(self, name, kind):
        pen, res = _penalty_solve(name, kind, sigma=4.0, eps=1e-4)
        assert res.iterations > 0
        want = float(np.linalg.norm(pen.grad(res.x_final)))
        assert res.grad_norm2.hex() == want.hex()

    @pytest.mark.parametrize("variant", [FIXED_STEP, BACKTRACKING])
    def test_a_gradient_whose_squares_underflow_is_not_below_eps(self, variant):
        # grad g = (1e-169, 1e-169, 1e-169): g.dot(g) rounds to 0, but ||grad g||_2 = 1.7e-169
        def task(eps):
            return InnerTask(objective=lambda x: float(x.sum()) * 1e-169, gradient=lambda x: np.full(3, 1e-169),
                             start=np.zeros(3), eps=eps, known_L=1.0, max_calls=5)

        assert gd_solve(task(1e-168), variant).grad_norm2 == math.sqrt(3.0) * 1e-169
        with pytest.raises(OracleBudgetExceeded):
            gd_solve(task(1e-170), variant)
