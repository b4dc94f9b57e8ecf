import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglag import cli, outer, problems
from auglag.problems import (
    ConstraintSet,
    ObjectiveOracle,
    ObjectiveBelowBound,
    ProblemSpec,
    ValidationError,
    corpus,
    corpus_problem,
    finite_difference_gradient,
    load_problem,
    validate,
)

from conftest import make_tiny


class TestCorpusContract:
    def test_names_and_shapes(self):
        by_name = {p.name: p for p in corpus()}
        assert set(by_name) == {
            "simplex-cos-8",
            "eq-cos-8",
            "eq-rosenbrock-8",
            "dup-eq-8",
            "eq-qp-analytic",
        }
        p = by_name["simplex-cos-8"]
        assert p.n == 8 and p.constraints.m == 9 and p.constraints.m_e == 1
        q = by_name["eq-cos-8"]
        assert q.constraints.m == 1 and q.constraints.m_e == 1
        d = by_name["dup-eq-8"]
        assert d.constraints.m == 10 and d.constraints.m_e == 2

    def test_objective_value_at_start(self):
        p = corpus_problem("simplex-cos-8")
        expected = 0.0625 + 8.0 * math.cos(0.5)
        assert p.objective.value(p.x0) == pytest.approx(expected, abs=1e-12)

    def test_feasible_starts(self):
        for p in corpus():
            p.check_feasible_start(p.constraints.c(p.x0))

    def test_nonconvexity_witness(self):
        # the cosine term dominates the quadratic at the origin
        p = corpus_problem("simplex-cos-8")
        H = p.objective.hessian(np.zeros(8))
        assert np.linalg.eigvalsh(H)[0] < 0.0

    def test_parametric_names(self):
        p = corpus_problem("simplex-cos-16")
        assert p.n == 16 and p.constraints.m == 17
        assert corpus_problem("eq-rosenbrock-4").n == 4

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown corpus problem"):
            corpus_problem("no-such-problem")

    def test_lookup_matches_corpus_field_for_field(self):
        for want in corpus():
            got = corpus_problem(want.name)
            cons, want_cons = got.constraints, want.constraints
            assert got.name == want.name and cons.m_e == want_cons.m_e
            for a, b in ((cons.A, want_cons.A), (cons.b, want_cons.b), (got.x0, want.x0)):
                assert a.tobytes() == b.tobytes() and a.shape == b.shape
            for field in ("f_low", "L1", "L2"):
                assert getattr(got.objective, field) == getattr(want.objective, field)

    # int() reads each of the last five as a size, which would name another problem
    @pytest.mark.parametrize("name", ["simplex-cos-", "foo", "simplex-cos-x", "simplex-cos-1_6", "simplex-cos-08",
                                      "simplex-cos-+8", "eq-cos-8 ", "eq-cos-\u0668"])
    def test_lookup_rejects_bad_names(self, name):
        with pytest.raises(ValidationError, match="unknown corpus problem"):
            corpus_problem(name)

    def test_lookup_rejects_n_out_of_range(self):
        with pytest.raises(ValueError):
            corpus_problem("eq-cos-65")

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            problems.make_simplex_cos(1)
        with pytest.raises(ValueError):
            problems.make_eq_cos(65)
        assert problems.make_eq_cos(64).n == 64

    def test_general_constraints_not_linear(self):
        cons = ConstraintSet(
            m=1, m_e=1, c_fn=lambda x: np.array([x[0] ** 2 - 1.0]),
            jac_fn=lambda x: np.array([[2.0 * x[0], 0.0]]),
        )
        assert not cons.is_linear
        np.testing.assert_allclose(cons.c(np.array([2.0, 0.0])), [3.0])

    def test_constraint_set_validation(self):
        with pytest.raises(ValidationError, match=re.escape("m_e = 2 lies outside [0, m] with m = 1")):
            ConstraintSet(m=1, m_e=2, A=np.ones((1, 2)), b=np.zeros(1))
        with pytest.raises(ValidationError, match=re.escape("A has shape (1, 2), expected m = 2 rows")):
            ConstraintSet(m=2, m_e=1, A=np.ones((1, 2)), b=np.zeros(1))
        with pytest.raises(ValidationError, match=re.escape("b has length 2, expected 1 (the rows of A)")):
            ConstraintSet(m=1, m_e=1, A=np.ones((1, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            ConstraintSet(m=1, m_e=1)

    # numpy parses text as numbers, and reads a missing b as [nan]
    @pytest.mark.parametrize("field, value, message", [
        ("A", [["1", "1"]], "A has text; expected an array of numbers"),
        ("b", ["1"], "b has text; expected an array of numbers"),
        ("b", None, "b has an object of type NoneType; expected an array of numbers"),
        ("x0", ["0.5", "0.5"], "x0 has text; expected an array of numbers"),
        ("x0", [0.5 + 0j, 0.5], "x0 has complex values; expected an array of numbers"),
    ], ids=["text-A", "text-b", "no-b", "text-x0", "complex-x0"])
    def test_non_numeric_data_rejected_where_the_problem_is_built(self, field, value, message):
        data = {"A": [[1.0, 1.0]], "b": [1.0], "x0": [0.5, 0.5], field: value}  # b = None is the default
        obj = corpus_problem("eq-cos-4").objective
        with pytest.raises(ValidationError, match=re.escape(message)):
            ProblemSpec("p", obj, ConstraintSet(m=1, m_e=1, A=data["A"], b=data["b"]), data["x0"])

    # a NaN f_low once made a strict solve raise MonitorViolation, an implementation bug, at iteration 1
    @pytest.mark.parametrize("field, value, message", [
        ("f_low", float("nan"), "f_low holds a non-finite value"),
        ("f_low", float("-inf"), "f_low holds a non-finite value"),
        ("f_low", [-8.0], "f_low = [-8.0] must be a single number"),
        ("f_low", None, "f_low has an object of type NoneType; expected a single number"),
        ("f_low", "-8", "f_low has text; expected a single number"),
        ("L1", -1.0, "L1 = -1.0 must be nonnegative"),
        ("L1", float("inf"), "L1 holds a non-finite value"),
        ("L1", True, "L1 = True holds a bool, which is not a number"),
        ("L2", float("nan"), "L2 holds a non-finite value"),
        ("L2", 64j, "L2 has complex values; expected a single number"),
    ], ids=["nan-f_low", "inf-f_low", "list-f_low", "no-f_low", "text-f_low", "negative-L1", "inf-L1", "bool-L1",
            "nan-L2", "complex-L2"])
    def test_declared_constants_checked_where_the_objective_is_built(self, field, value, message):
        obj = corpus_problem("simplex-cos-8").objective
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            dataclasses.replace(obj, **{field: value})

    def test_x0_of_the_wrong_length_rejected_where_the_problem_is_built(self):
        # without the check a solve ends in numpy's "shapes (1,4) and (3,) not aligned"
        p = corpus_problem("eq-cos-4")
        with pytest.raises(ValidationError, match=re.escape("x0 has length 3, expected n = 4")):
            ProblemSpec("short-x0", p.objective, p.constraints, np.zeros(3))


def _eq_cos_hessian_reference(x, omega=4.0):
    """eq-cos's Hessian as a sum of two n x n matrices, the form ``hess_fn`` must match bit for bit."""
    return np.eye(x.shape[0]) - (omega * omega) * np.diag(np.cos(omega * x))


def _rosenbrock_hessian_reference(x):
    """The chained Rosenbrock Hessian assigned entry by entry, the form ``hess_fn`` must match bit for bit."""
    n = x.shape[0]
    H = np.zeros((n, n))
    d = np.zeros(n)
    d[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
    d[1:] += 200.0
    off = -400.0 * x[:-1]
    H[np.arange(n), np.arange(n)] = d
    H[np.arange(n - 1), np.arange(1, n)] = off
    H[np.arange(1, n), np.arange(n - 1)] = off
    return H


class TestCorpusHessianBits:
    """Each corpus Hessian is built in one array, with the bits of its entrywise form, signed zeros,
    NaNs and infinities included (a sum of np.diag(off, +-1) matrices would turn a -0.0 into +0.0)."""

    SPECIAL = np.array([0.0, -0.0, math.nan, math.inf, -math.inf])

    @pytest.mark.parametrize("family, reference", [("eq-cos", _eq_cos_hessian_reference),
                                                   ("eq-rosenbrock", _rosenbrock_hessian_reference)])
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_hessian_matches_its_entrywise_form_bit_for_bit(self, family, reference, n):
        hess = corpus_problem(f"{family}-{n}").objective.hess_fn
        rng = np.random.default_rng(n)
        with np.errstate(all="ignore"):  # overflow and cos(inf) on the special draws
            for _ in range(400):
                x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
                special = rng.random(n) < 0.3
                x[special] = rng.choice(self.SPECIAL, special.sum())
                got, want = hess(x), reference(x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), x


class TestFeasibility:
    def test_violation_measure(self):
        p = corpus_problem("simplex-cos-8")
        x = np.full(8, 1.0 / 8.0)
        assert p.feasibility_violation(x) == pytest.approx(0.0, abs=1e-15)
        x_bad = np.zeros(8)
        x_bad[0] = -0.5  # sum = -0.5: equality off by 1.5, one negative coord
        assert p.feasibility_violation(x_bad) == pytest.approx(1.5)

    @pytest.mark.parametrize("m_e", [0, 1])
    def test_an_infinity_reads_as_infinite(self, m_e):
        # min(c, 0) alone would read +inf on an inequality row as feasible
        p = make_tiny(m_e, lambda x: np.array([math.inf]), lambda x: np.ones((1, 1)))
        assert p.feasibility_violation(p.x0) == math.inf
        assert p.feasibility_violation(p.x0, np.array([-math.inf])) == math.inf  # from c where it is held

    def test_infeasible_start_rejected(self):
        p = corpus_problem("eq-cos-8")
        bad = ProblemSpec(
            name="bad-start", objective=p.objective, constraints=p.constraints,
            x0=np.zeros(8),
        )
        with pytest.raises(ValidationError):
            bad.check_feasible_start(bad.constraints.c(bad.x0))


class TestNaNConstraintAtStart:
    """A NaN in c(x0), or an infinity, fails every feasibility check, on an equality row or an inequality row."""

    @pytest.mark.parametrize("m_e", [0, 1])
    def test_every_check_rejects_it(self, m_e):
        p = make_tiny(m_e, lambda x: np.array([math.nan]), lambda x: np.ones((1, 1)))
        assert math.isnan(p.feasibility_violation(p.x0))
        with pytest.raises(ValidationError, match="starting point infeasible"):
            p.check_feasible_start(p.constraints.c(p.x0))
        check = {c.name: c for c in validate(p, samples=1).checks}["feasible_start"]
        assert not check.passed and math.isnan(check.worst_error)
        with pytest.raises(ValidationError, match="starting point infeasible"):
            # gd-backtracking applies to callable constraints, so the run reaches c(x0)
            outer.solve(p, outer.SolverConfig(inner=outer.INNER_GD_BACKTRACKING))

    @pytest.mark.parametrize("m_e", [0, 1])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_an_infinity_fails_every_check_too(self, m_e, bad):
        # min(c, 0) reads +inf on an inequality row as feasible, so finiteness is tested first
        p = make_tiny(m_e, lambda x: np.array([bad]), lambda x: np.ones((1, 1)),
                      f=lambda x: float(x.dot(x)), grad=lambda x: 2.0 * x)
        checks = {c.name: c for c in validate(p, samples=1).checks}
        assert not checks["feasible_start"].passed and "c(x0) is not finite" in checks["feasible_start"].detail
        # c - c is NaN, not a warning, where c is infinite at both differenced points
        assert not checks["jacobian_finite_difference"].passed
        assert math.isnan(checks["jacobian_finite_difference"].worst_error)
        with pytest.raises(ValidationError, match=r"starting point infeasible: c\(x0\) is not finite"):
            outer.solve(p, outer.SolverConfig(inner=outer.INNER_GD_BACKTRACKING))

    def test_finite_violation_keeps_its_bits(self):
        rng = np.random.default_rng(5)
        for p in corpus():
            cons = p.constraints
            for _ in range(20):
                x = p.x0 + rng.normal(0.0, 0.5, p.n)
                want = max(cons.primal_residuals(cons.c(x)))
                assert p.feasibility_violation(x).hex() == want.hex()


class TestObjectiveOracle:
    def test_lower_bound_enforced(self):
        obj = ObjectiveOracle(fn=lambda x: -5.0, grad_fn=lambda x: np.zeros(1), f_low=0.0)
        with pytest.raises(ObjectiveBelowBound):
            obj.value(np.zeros(1))

    def test_nan_passes_through(self):
        # finiteness is checked by outer._start at x0 and by the inner loop after
        obj = ObjectiveOracle(
            fn=lambda x: float("nan"), grad_fn=lambda x: np.zeros(1), f_low=-1.0
        )
        assert math.isnan(obj.value(np.zeros(1)))

    def test_missing_hessian(self):
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: np.zeros(1), f_low=-1.0)
        assert not obj.has_hessian
        with pytest.raises(ValueError):
            obj.hessian(np.zeros(1))

    @pytest.mark.parametrize("field, value", [("f_low", float("nan")), ("L1", -1.0), ("L2", 0.5)])
    def test_fields_are_frozen(self, field, value):
        # an assigned field would skip the construction checks; a NaN f_low used to reach a
        # strict solve and fail its first mu_growth monitor as an implementation bug
        obj = corpus_problem("simplex-cos-8").objective
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, value)
        assert dataclasses.replace(obj, L2=0.5).L2 == 0.5
        with pytest.raises(ValidationError, match="^f_low holds a non-finite value"):
            dataclasses.replace(obj, f_low=float("nan"))


class TestValidate:
    def test_corpus_passes(self):
        for p in corpus():
            report = validate(p, samples=10, seed=0)
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_wrong_gradient_detected(self):
        p = corpus_problem("simplex-cos-8")
        wrong = ObjectiveOracle(
            fn=p.objective.fn,
            grad_fn=lambda x: 2.0 * p.objective.grad_fn(x),
            f_low=p.objective.f_low,
        )
        bad = ProblemSpec("wrong-grad", wrong, p.constraints, p.x0)
        report = validate(bad, samples=5, seed=1)
        check = {c.name: c for c in report.checks}["gradient_finite_difference"]
        assert not check.passed
        assert check.worst_error > 1e-6
        assert "coordinate" in check.detail

    @pytest.mark.parametrize("name", ["eq-cos-8", "eq-cos-64", "eq-rosenbrock-8", "eq-rosenbrock-64",
                                      "eq-qp-analytic"])
    def test_hessian_checks_pass_on_the_corpus(self, name):
        p = corpus_problem(name)
        checks = {c.name: c for c in validate(p, samples=10, seed=0).checks}
        assert checks["hessian_finite_difference"].passed
        assert checks["hessian_finite_difference"].worst_error <= 1e-7  # against a tolerance of 1e-6
        if p.objective.L2 is None:
            assert "hessian_lipschitz_secant" not in checks
        else:
            assert checks["hessian_lipschitz_secant"].worst_error <= p.objective.L2

    def test_no_hessian_check_without_a_hessian_oracle(self):
        p = corpus_problem("eq-cos-8")
        plain = ObjectiveOracle(fn=p.objective.fn, grad_fn=p.objective.grad_fn, f_low=p.objective.f_low,
                                L2=p.objective.L2)
        names = [c.name for c in validate(ProblemSpec("plain", plain, p.constraints, p.x0), samples=2).checks]
        assert names == ["feasible_start", "gradient_finite_difference"]

    def test_wrong_hessian_detected(self):
        p = corpus_problem("eq-cos-8")
        o = p.objective
        wrong = ObjectiveOracle(fn=o.fn, grad_fn=o.grad_fn, hess_fn=lambda x: 1.5 * o.hess_fn(x),
                                f_low=o.f_low, L2=1.5 * o.L2)
        report = validate(ProblemSpec("wrong-hess", wrong, p.constraints, p.x0), samples=5, seed=1)
        check = {c.name: c for c in report.checks}["hessian_finite_difference"]
        assert not report.passed and not check.passed
        assert check.worst_error > 0.1
        assert re.fullmatch(r"Hessian mismatch at column [0-7]: rel error \S+", check.detail)

    @pytest.mark.parametrize("L2, passed", [(1.0, False), (16.0, False), (64.0, True)])
    def test_a_declared_L2_below_a_secant_is_caught(self, L2, passed):
        # eq-cos-8's Hessian I - omega^2 diag(cos(omega x)) is omega^3 = 64-Lipschitz; sampled
        # pairs near x0 give secants above 16
        p = corpus_problem("eq-cos-8")
        p.objective = dataclasses.replace(p.objective, L2=L2)
        check = {c.name: c for c in validate(p, samples=10, seed=0).checks}["hessian_lipschitz_secant"]
        assert check.passed == passed
        assert check.worst_error > 16.0
        if not passed:
            assert f"exceeds the declared L2 = {L2!r}" in check.detail

    def test_a_declared_L1_below_a_secant_is_caught(self):
        # eq-cos-8's gradient x - omega sin(omega x) is 1 + omega^2 = 17-Lipschitz
        p = corpus_problem("eq-cos-8")
        p.objective = dataclasses.replace(p.objective, L1=1.0)
        check = {c.name: c for c in validate(p, samples=10, seed=0).checks}["gradient_lipschitz_secant"]
        assert not check.passed
        assert check.worst_error == pytest.approx(11.07, abs=0.01)
        assert check.detail == "a secant ||g(x) - g(y)||/||x - y|| of 11.0706 exceeds the declared L1 = 1.0"

    def test_one_sample_lists_no_secant_check(self):
        # one point forms no pair, so neither declared constant is compared with anything
        names = [c.name for c in validate(corpus_problem("eq-cos-8"), samples=1).checks]
        assert names == ["feasible_start", "gradient_finite_difference", "hessian_finite_difference"]
        names = [c.name for c in validate(corpus_problem("eq-cos-8"), samples=2).checks]
        assert names[-2:] == ["gradient_lipschitz_secant", "hessian_lipschitz_secant"]

    def test_a_nan_relative_error_is_the_worst(self):
        # f is NaN where x_0 > 0.3, where the gradient 3x is wrong too; a max over (rel, j) tuples
        # drops the NaN and reads a worst error of 4.19e-11 here
        def f(x):
            return math.nan if x[0] > 0.3 else float(x.dot(x))

        def grad(x):
            return 3.0 * x if x[0] > 0.3 else 2.0 * x

        obj = ObjectiveOracle(fn=f, grad_fn=grad, f_low=0.0)
        p = ProblemSpec("nan-f", obj, ConstraintSet(m=1, m_e=1, A=np.ones((1, 2)), b=np.zeros(1)), np.zeros(2))
        check = {c.name: c for c in validate(p, samples=10, seed=0).checks}["gradient_finite_difference"]
        assert not check.passed and math.isnan(check.worst_error)
        assert re.fullmatch(r"gradient mismatch at coordinate [01]: rel error nan", check.detail)

    @staticmethod
    def _with_jacobian(jac_fn):
        """eq-cos-4 with its constraint sum(x) = 1 given as callables, J by ``jac_fn``."""
        p = corpus_problem("eq-cos-4")
        cons = ConstraintSet(m=1, m_e=1, c_fn=lambda x: np.array([x.sum() - 1.0]), jac_fn=jac_fn)
        return ProblemSpec("callable-eq-cos-4", p.objective, cons, p.x0)

    def test_jacobian_checked_for_callable_constraints(self):
        checks = {c.name: c for c in validate(self._with_jacobian(lambda x: np.ones((1, 4))), samples=5).checks}
        assert checks["jacobian_finite_difference"].passed
        assert checks["jacobian_finite_difference"].worst_error <= 1e-7
        assert "jacobian_finite_difference" not in {c.name for c in validate(corpus_problem("eq-cos-4")).checks}

    def test_wrong_jacobian_detected(self):
        # |1 - 2| / max(1, 2): each column of J = 2 ones against the differences of c, which are 1
        report = validate(self._with_jacobian(lambda x: 2.0 * np.ones((1, 4))), samples=5)
        check = {c.name: c for c in report.checks}["jacobian_finite_difference"]
        assert not report.passed and not check.passed
        assert check.worst_error == pytest.approx(0.5)
        assert re.fullmatch(r"Jacobian mismatch at column [0-3]: rel error 5\.000e-01", check.detail)

    def test_non_finite_jacobian_is_a_validation_error(self):
        p = self._with_jacobian(lambda x: np.array([[1.0, 1.0, math.inf, 1.0]]))
        with pytest.raises(ValidationError, match="the constraint Jacobian at a sampled point is not finite"):
            validate(p, samples=1)

    def test_infeasible_start_reported(self):
        p = corpus_problem("eq-cos-8")
        bad = ProblemSpec("bad", p.objective, p.constraints, np.zeros(8))
        report = validate(bad, samples=1, seed=0)
        check = {c.name: c for c in report.checks}["feasible_start"]
        assert not check.passed and check.worst_error == pytest.approx(1.0)

    def test_samples_validated(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            validate(corpus_problem("eq-cos-8"), samples=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            validate(corpus_problem("eq-cos-8"), seed=-1)


class TestFiniteDifference:
    def test_quadratic_exact(self):
        g = finite_difference_gradient(lambda x: 0.5 * float(x @ x), np.array([3.0, -1.0]))
        np.testing.assert_allclose(g, [3.0, -1.0], atol=1e-9)

    def test_a_vector_function_gives_its_jacobian(self):
        # column j differences along coordinate j: J[i, j] = d fn_i / d x_j
        J = finite_difference_gradient(lambda x: np.array([x[0] * x[1], 3.0 * x[1]]), np.array([2.0, 5.0]))
        np.testing.assert_allclose(J, [[5.0, 2.0], [0.0, 3.0]], atol=1e-9)


class TestLoadProblem:
    def _write(self, tmp_path, payload):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_round_trip(self, tmp_path):
        ref = corpus_problem("eq-cos-8")
        payload = {
            "name": "file-eq-cos",
            "n": 8,
            "objective": {"kind": "quadratic+cos"},
            "A": [[1.0] * 8],
            "b": [1.0],
            "m_e": 1,
            "x0": [0.125] * 8,
            "f_low": -8.0,
            "L1": 17.0,
            "L2": 64.0,
        }
        p = load_problem(self._write(tmp_path, payload))
        assert p.name == "file-eq-cos"
        x = np.linspace(-1, 1, 8)
        assert p.objective.value(x) == pytest.approx(ref.objective.value(x))
        np.testing.assert_allclose(p.constraints.c(x), ref.constraints.c(x))
        assert p.objective.L1 == 17.0 and p.objective.L2 == 64.0

    def test_unknown_kind(self, tmp_path):
        payload = {
            "name": "x", "n": 2, "objective": {"kind": "mystery"},
            "A": [[1.0, 1.0]], "b": [1.0], "m_e": 1, "x0": [0.5, 0.5],
        }
        with pytest.raises(ValidationError):
            load_problem(self._write(tmp_path, payload))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_problem("/no/such/file.json")


_GOOD_FILE = {
    "name": "file-simplex", "n": 2, "objective": {"kind": "quadratic+cos"},
    "A": [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0, 0.0], "m_e": 1,
    "x0": [0.5, 0.5], "f_low": -2.0, "L1": 17.0, "L2": 64.0,
}


_MISSING = object()


def _bad_file(field, value):
    """_GOOD_FILE with one field replaced, or dropped when value is _MISSING;
    "omega" and "objective.omgea" sit in a quadratic+cos objective, "objective.omega" in a rosenbrock
    one, "objective.kind" is the objective's kind and
    "problem file" stands for the whole file."""
    if field == "problem file":
        return value
    if field == "objective.kind":
        return dict(_GOOD_FILE, objective={})
    if field in ("omega", "objective.omgea"):
        return dict(_GOOD_FILE, objective={"kind": "quadratic+cos", field.rpartition(".")[2]: value})
    if field == "objective.omega":  # omega is quadratic+cos's alone
        return dict(_GOOD_FILE, objective={"kind": "rosenbrock", "omega": value})
    if value is _MISSING:
        return {key: v for key, v in _GOOD_FILE.items() if key != field}
    return dict(_GOOD_FILE, **{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("x0", [0.5, 0.25, 0.25]),
        ("m_e", -1),
        ("m_e", 4),
        ("A", [[1.0, 1.0], [float("nan"), 0.0], [0.0, 1.0]]),
        ("b", [1.0, float("inf"), 0.0]),
        ("x0", [0.5, float("nan")]),
        ("f_low", float("-inf")),
        ("L1", float("nan")),
        ("L2", float("inf")),
        ("n", 0),
        ("L1", -1.0),
        ("L2", -0.5),
        ("A", [1.0, 1.0, 1.0, 0.0, 0.0]),
        ("b", [1.0, 0.0]),
        ("n", 2.5),
        ("n", True),
        ("m_e", 0.7),
        ("A", [[1.0, 1.0], [1.0], [0.0, 1.0]]),
        ("b", [[1.0], [0.0, 0.0], [0.0]]),
        ("x0", [[0.5], [0.5, 0.0]]),
        ("problem file", [1.0, 2.0]),
        ("objective", "x"),
        ("f_low", [1.0, 2.0]),
        ("L1", [17.0]),
        ("L2", [[64.0]]),
        ("omega", [4.0]),
        ("omega", float("nan")),
        ("omega", None),
        ("f_low", -10**400),
        # a JSON string or bool is not a number, at any depth
        ("f_low", "-3"),
        ("L1", True),
        ("L2", "64"),
        ("omega", "4"),
        ("omega", False),
        ("A", [[1, True], [1.0, 0.0], [0.0, 1.0]]),
        ("b", [1.0, "0", 0.0]),
        ("x0", [0.5, False]),
        ("x0", ["0.5", "0.5"]),
        # the name is the CLI's default report stem: a plain, non-empty file name
        ("name", "../escaped"),
        ("name", "sub\\run"),
        ("name", "nul\0"),
        ("name", ""),
        ("name", {"a": 1}),
        ("name", 7),
        ("name", None),
        # an unknown key, as where a misspelt omega or L1 would leave the default in force
        ("omgea", 2.0),
        ("l1", 17.0),
        ("objective.omgea", 2.0),
        ("objective.omega", 3.0),
    ]
    + [
        pytest.param(field, _MISSING, id=f"{field}-missing")
        for field in ("name", "n", "objective", "objective.kind", "A", "b", "m_e", "x0")
    ],
)
def test_bad_problem_file_rejected_at_load(tmp_path, field, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_file(field, value)))
    with pytest.raises(ValidationError, match=rf"^{re.escape(field)} "):
        load_problem(str(path))
    code = cli.main(["solve", "--problem", str(path), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("what, read", [
    ("problem file", load_problem),
    ("--config file", lambda path: problems.read_json_object(path, "--config file", outer.CONFIG_KEYS)),
])
def test_both_input_files_reject_another_json_value_alike(tmp_path, what, read):
    path = tmp_path / "input.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValidationError, match=re.escape(f"{what} {path} holds a list, not a JSON object")):
        read(str(path))


def test_too_deeply_nested_problem_file_rejected_at_load(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValidationError, match=r"^problem file .* nests too deeply"):
        load_problem(str(path))


def test_omega_whose_cube_overflows_rejected_at_load(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_file("omega", -1e300)))
    with pytest.raises(ValidationError, match=r"^omega = -1e\+300 is too large"):
        load_problem(str(path))


def test_negative_omega_declares_the_constants_of_its_magnitude(tmp_path):
    # cos is even, so omega and -omega give the same objective and constants
    path = tmp_path / "neg.json"
    doc = {k: v for k, v in _bad_file("omega", -3.0).items() if k not in ("L1", "L2")}
    path.write_text(json.dumps(doc))
    obj = load_problem(str(path)).objective
    assert (obj.L1, obj.L2) == (10.0, 27.0)


class TestObjectiveGradientFiniteness:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "grad",
        [
            [1.0, NAN, 2.0],
            [INF, 0.0],
            [0.0, -INF],
            [INF, -INF, NAN],
        ],
    )
    def test_non_finite_gradient_is_a_validation_error(self, grad):
        # the oracle passes it through; solve checks it at x0 and validate at each sampled point
        n = len(grad)
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: np.array(grad), f_low=-1.0)
        p = ProblemSpec("bad-grad", obj, ConstraintSet(m=1, m_e=1, A=np.ones((1, n)), b=np.zeros(1)), np.zeros(n))
        with pytest.raises(ValidationError, match="bad-grad: the objective gradient at x0 is not finite"):
            outer.solve(p, outer.SolverConfig(inner=outer.INNER_GD_BACKTRACKING))
        with pytest.raises(ValidationError, match="bad-grad: the objective gradient at a sampled point is not finite"):
            validate(p, samples=1)

    # g.dot(g) overflows for entries of 1e200, and numpy reports that as a warning
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("grad", [[1e200, -1e200, 1e200], [3.0], []])
    def test_finite_gradient_returned_unchanged(self, grad):
        want = np.array(grad, dtype=float)
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: np.array(grad), f_low=-1.0)
        got = obj.gradient(np.zeros(len(grad)))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _swapped(name, attr, wrap):
    """The corpus problem with its objective's ``attr`` oracle replaced by ``wrap`` of the true one."""
    p = corpus_problem(name)
    true = getattr(p.objective, attr)
    p.objective = dataclasses.replace(p.objective, **{attr: lambda x: wrap(true(x))})
    return p


class TestObjectiveGradientShape:
    """A gradient whose shape is not x's, (n,), is a bad oracle, finite or not."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "grad",
        [[1.0, 2.0, 3.0], [[1.0, NAN], [0.0, 0.0]], [[1e200, 1.0], [2.0, 3.0]], [[1.0], [2.0]], NAN, 3.0, [],
         [[1.0], [1.0, 2.0]]],  # the last is ragged: numpy makes no array of it
    )
    def test_wrong_shape_rejected(self, grad):
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: grad, f_low=-1.0)
        with pytest.raises(ValidationError, match=re.escape("expected (2,)")):
            obj.gradient(np.zeros(2))

    @pytest.mark.parametrize("out, same", [
        (np.array([1.0, 2.0]), True),  # a float ndarray of the right shape is returned as it is
        ([1.0, 2.0], False),
        (np.array([1, 2]), False),
        (np.array([1.0, 2.0], dtype=np.float32), False),
        (np.array([1.0, 2.0], dtype=">f8"), False),  # float64, but not in native byte order
    ], ids=["float-array", "list", "int-array", "float32-array", "big-endian-array"])
    def test_right_shape_is_a_float_array(self, out, same):
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: out, f_low=-1.0)
        got = obj.gradient(np.zeros(2))
        assert (got is out) == same and got.dtype == float and got.tolist() == [1.0, 2.0]

    WRONG = [
        (lambda g: g[:, None], "shape (4, 1)"),
        (lambda g: [[1.0], [1.0, 2.0]], "no regular numeric shape"),  # numpy makes no array of it
        (lambda g: g.astype(str), "text"),  # which numpy would parse
        (lambda g: {"g": g}, "an object of type dict"),
        (lambda g: g + 0j, "complex values"),
    ]
    IDS = ["column", "ragged", "text", "dict", "complex"]

    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_validate_names_the_expected_shape(self, wrap, what):
        p = _swapped("eq-cos-4", "grad_fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective gradient has {what}; expected (4,)")):
            validate(p)

    @pytest.mark.parametrize("kind", ["gd-fixed", "gd-backtracking", "cubic-newton"])
    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_solve_names_the_expected_shape(self, wrap, what, kind):
        from auglag.outer import SolverConfig, solve

        p = _swapped("eq-cos-4", "grad_fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective gradient has {what}; expected (4,)")):
            solve(p, SolverConfig(eps=1e-3, inner=kind))


class TestCallableConstraintShape:
    """Callable constraints must return c(x) of shape (m,) and J(x) of shape (m, n)."""

    WRONG = pytest.mark.parametrize("c_fn, jac_fn, message", [
        (lambda x: np.array([x[0] + x[1], 0.0]), None, "constraint values have shape (2,); expected (1,)"),
        (lambda x: x[0] + x[1], None, "constraint values have shape (); expected (1,)"),
        (lambda x: [[x[0]], [x[0], x[1]]], None, "constraint values have no regular numeric shape; expected (1,)"),
        (None, lambda x: np.ones((2, 2)), "constraint Jacobian has shape (2, 2); expected (1, 2)"),
        (None, lambda x: np.ones((2, 1)), "constraint Jacobian has shape (2, 1); expected (1, 2)"),
        (None, lambda x: [[1.0], [1.0, 1.0]], "constraint Jacobian has no regular numeric shape; expected (1, 2)"),
        (lambda x: np.array([x[0] + x[1]]).astype(str), None, "constraint values have text; expected (1,)"),
        (lambda x: {"c": x[0] + x[1]}, None, "constraint values have an object of type dict; expected (1,)"),
        (lambda x: np.array([x[0] + x[1] + 0j]), None, "constraint values have complex values; expected (1,)"),
        (None, lambda x: np.ones((1, 2)).astype(str), "constraint Jacobian has text; expected (1, 2)"),
        (None, lambda x: {"J": np.ones((1, 2))}, "constraint Jacobian has an object of type dict; expected (1, 2)"),
        (None, lambda x: np.ones((1, 2)) + 0j, "constraint Jacobian has complex values; expected (1, 2)"),
    ], ids=["c-too-long", "c-scalar", "c-ragged", "jac-square", "jac-column", "jac-ragged",
            "c-text", "c-dict", "c-complex", "jac-text", "jac-dict", "jac-complex"])

    @staticmethod
    def _tiny(c_fn, jac_fn):
        """n = 2 and m = m_e = 1, with c(x) = x_0 + x_1, feasible at x0 = 0, unless c_fn or jac_fn replaces it."""
        return make_tiny(1, c_fn or (lambda x: np.array([x[0] + x[1]])), jac_fn or (lambda x: np.ones((1, 2))), n=2)

    @WRONG
    def test_solve_names_the_wrong_shape(self, c_fn, jac_fn, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            outer.solve(self._tiny(c_fn, jac_fn), outer.SolverConfig(inner=outer.INNER_GD_BACKTRACKING))

    @WRONG
    def test_validate_names_the_wrong_shape(self, c_fn, jac_fn, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate(self._tiny(c_fn, jac_fn), samples=1)

    def test_one_row_jacobian_may_be_one_dimensional(self):
        p = make_tiny(1, lambda x: np.array([x[0] + x[1]]), lambda x: np.ones(2), n=2)
        np.testing.assert_array_equal(p.constraints.jac(np.zeros(2)), np.ones((1, 2)))


class TestObjectiveValueShape:
    """f(x) must be a scalar: a 1-element array or list is a bad oracle, not a TypeError."""

    WRONG = [
        (lambda v: np.array([v]), "shape (1,)"),
        (lambda v: np.array([v, v]), "shape (2,)"),
        (lambda v: [v], "shape (1,)"),
        (lambda v: [[v], [v, v]], "no regular numeric shape"),
        # float() would parse these, and a solve would run on the number
        (lambda v: repr(v), "text"),
        (lambda v: repr(v).encode(), "text"),
        (lambda v: {"v": v}, "an object of type dict"),
        (lambda v: complex(v), "complex values"),
    ]
    IDS = ["array-1", "array-2", "list", "ragged", "str", "bytes", "dict", "complex"]

    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_wrong_shape_rejected(self, wrap, what):
        obj = ObjectiveOracle(fn=lambda x: wrap(0.0), grad_fn=lambda x: np.zeros(2), f_low=-1.0)
        message = f"objective value has {what}; expected (), a scalar"
        with pytest.raises(ValidationError, match=re.escape(message)):
            obj.value(np.zeros(2))

    @pytest.mark.parametrize("kind", outer.INNER_SOLVERS)
    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_solve_names_the_wrong_shape(self, wrap, what, kind):
        p = _swapped("eq-cos-4", "fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective value has {what}; expected ()")):
            outer.solve(p, outer.SolverConfig(eps=1e-3, inner=kind))

    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_validate_names_the_wrong_shape(self, wrap, what):
        p = _swapped("eq-cos-4", "fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective value has {what}; expected ()")):
            validate(p, samples=1)

    def test_a_type_error_inside_fn_is_its_own(self):
        def fn(x):
            raise TypeError("inside fn")

        obj = ObjectiveOracle(fn=fn, grad_fn=lambda x: np.zeros(2), f_low=-1.0)
        with pytest.raises(TypeError, match="inside fn"):
            obj.value(np.zeros(2))


class TestObjectiveHessianShape:
    """The Hessian must have shape (n, n); a diagonal or a scalar would broadcast into H + sigma A^T A."""

    WRONG = [
        (np.diag, "shape (4,)"),
        (lambda H: np.array(H[0, 0]), "shape ()"),
        (lambda H: np.hstack([H, H[:, :1]]), "shape (4, 5)"),
        (lambda H: [row.tolist() for row in H[:3]] + [H[3, :2].tolist()], "no regular numeric shape"),
        (lambda H: H.astype(str), "text"),
        (lambda H: {"H": H}, "an object of type dict"),
        (lambda H: H + 0j, "complex values"),
    ]
    IDS = ["diagonal", "scalar", "extra-column", "ragged", "text", "dict", "complex"]

    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_wrong_shape_rejected(self, wrap, what):
        p = _swapped("eq-cos-4", "hess_fn", wrap)
        message = f"objective Hessian has {what}; expected (4, 4), a row and a column per variable"
        with pytest.raises(ValidationError, match=re.escape(message)):
            p.objective.hessian(p.x0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_cubic_newton_names_the_wrong_shape(self, wrap, what, eps):
        # without the check a diagonal or scalar Hessian still ends EpsKKT at eps = 1e-4,
        # after 153 or 132 inner iterations rather than 18
        p = _swapped("eq-cos-4", "hess_fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective Hessian has {what}; expected (4, 4)")):
            outer.solve(p, outer.SolverConfig(eps=eps, inner=outer.INNER_CUBIC))

    @pytest.mark.parametrize("wrap, what", WRONG, ids=IDS)
    def test_validate_names_the_wrong_shape(self, wrap, what):
        p = _swapped("eq-cos-4", "hess_fn", wrap)
        with pytest.raises(ValidationError, match=re.escape(f"objective Hessian has {what}; expected (4, 4)")):
            validate(p, samples=1)


_FUZZ_N = 2
# each oracle's true output on the fuzz problem, f = 0.5 ||x - a||^2 under x_0 + x_1 = 0, and its right shapes
_FUZZ_A = np.array([1.0, 0.0])
_FUZZ_ORACLES = {
    "value": (lambda x: 0.5 * float((x - _FUZZ_A).dot(x - _FUZZ_A)), {()}),
    "gradient": (lambda x: x - _FUZZ_A, {(_FUZZ_N,)}),
    "hessian": (lambda x: np.eye(_FUZZ_N), {(_FUZZ_N, _FUZZ_N)}),
    "c": (lambda x: np.array([x.sum()]), {(1,)}),
    "jac": (lambda x: np.ones((1, _FUZZ_N)), {(1, _FUZZ_N), (_FUZZ_N,)}),  # a 1-D J is read as one row
}


def _fuzz_problem(oracle, out):
    """The fuzz problem with ``oracle`` returning ``out`` of its true output; linear rows for cubic Newton."""
    fns = {name: true for name, (true, _) in _FUZZ_ORACLES.items()}
    true = fns[oracle]
    fns[oracle] = lambda x: out(true(x))
    obj = ObjectiveOracle(fn=fns["value"], grad_fn=fns["gradient"], hess_fn=fns["hessian"], f_low=0.0)
    if oracle == "hessian":
        cons = ConstraintSet(m=1, m_e=1, A=np.ones((1, _FUZZ_N)), b=np.zeros(1))
    else:
        cons = ConstraintSet(m=1, m_e=1, c_fn=fns["c"], jac_fn=fns["jac"])
    return ProblemSpec("fuzz", obj, cons, np.zeros(_FUZZ_N))


_RAGGED = [[1.0], [1.0, 2.0]]


@st.composite
def _oracle_outputs(draw):
    """(oracle, shape, form): one oracle returns its true output resized to shape, as an array, a list
    or an array of text, or returns the ragged list _RAGGED, whatever the shape."""
    oracle = draw(st.sampled_from(sorted(_FUZZ_ORACLES)))
    shape = tuple(draw(st.lists(st.integers(0, _FUZZ_N + 1), max_size=2)))
    return oracle, shape, draw(st.sampled_from(["array", "list", "text", "ragged"]))


class TestOracleShapeFuzz:
    @settings(max_examples=30, deadline=None)
    @given(draw=_oracle_outputs())
    @example(draw=("hessian", (_FUZZ_N,), "array"))  # a diagonal, which H + sigma A^T A would broadcast
    @example(draw=("value", (1,), "list"))  # a 1-element list, which float() rejects with a TypeError
    @example(draw=("jac", (_FUZZ_N,), "list"))  # the one-row Jacobian as a 1-D list: accepted
    @example(draw=("jac", (_FUZZ_N, _FUZZ_N), "array"))  # a square J: only a read of J finds it
    @example(draw=("gradient", (), "ragged"))  # which numpy cannot make an array
    @example(draw=("c", (1,), "text"))  # the right shape, in text that numpy would parse
    def test_a_wrong_shape_is_named_and_never_broadcast(self, draw):
        oracle, shape, form = draw

        def out(value):
            if form == "ragged":
                return _RAGGED
            arr = np.resize(np.asarray(value, dtype=float), shape)
            return arr.tolist() if form == "list" else arr.astype(str) if form == "text" else arr

        p = _fuzz_problem(oracle, out)
        if form in ("ragged", "text"):
            right = False
            message = "no regular numeric shape; expected" if form == "ragged" else "text; expected"
        else:
            got = np.asarray(out(_FUZZ_ORACLES[oracle][0](p.x0)), dtype=float)
            got_shape = np.atleast_2d(got).shape if oracle == "jac" else got.shape
            right, message = got.shape in _FUZZ_ORACLES[oracle][1], f"shape {got_shape}; expected"
        kind = outer.INNER_CUBIC if oracle == "hessian" else outer.INNER_GD_BACKTRACKING
        for run in (lambda: outer.solve(p, outer.SolverConfig(eps=1e-3, inner=kind)),
                    lambda: validate(p, samples=2)):
            if right:
                run()
            else:
                with pytest.raises(ValidationError, match=re.escape(message)):
                    run()
