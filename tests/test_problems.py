import json
import math
import re

import numpy as np
import pytest

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

    @pytest.mark.parametrize("name", ["simplex-cos-", "foo", "simplex-cos-x"])
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
        with pytest.raises(ValueError):
            ConstraintSet(m=1, m_e=2, A=np.ones((1, 2)), b=np.zeros(1))
        with pytest.raises(ValueError):
            ConstraintSet(m=2, m_e=1, A=np.ones((1, 2)), b=np.zeros(1))
        with pytest.raises(ValueError):
            ConstraintSet(m=1, m_e=1)


class TestFeasibility:
    def test_violation_measure(self):
        p = corpus_problem("simplex-cos-8")
        x = np.full(8, 1.0 / 8.0)
        assert p.feasibility_violation(x) == pytest.approx(0.0, abs=1e-15)
        x_bad = np.zeros(8)
        x_bad[0] = -0.5  # sum = -0.5: equality off by 1.5, one negative coord
        assert p.feasibility_violation(x_bad) == pytest.approx(1.5)

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
        check = {c.name: c for c in validate(p, samples=1).checks}["feasible_start"]
        assert not check.passed and "c(x0) is not finite" in check.detail
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
        p.objective.L2 = L2
        check = {c.name: c for c in validate(p, samples=10, seed=0).checks}["hessian_lipschitz_secant"]
        assert check.passed == passed
        assert check.worst_error > 16.0
        if not passed:
            assert f"exceeds the declared L2 = {L2!r}" in check.detail

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
    "omega" sits in the objective, "objective.kind" is the objective's kind and
    "problem file" stands for the whole file."""
    if field == "problem file":
        return value
    if field == "objective.kind":
        return dict(_GOOD_FILE, objective={})
    if field == "omega":
        return dict(_GOOD_FILE, objective={"kind": "quadratic+cos", "omega": value})
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


class TestObjectiveGradientShape:
    """A gradient whose shape is not x's, (n,), is a bad oracle, finite or not."""

    NAN = float("nan")

    @pytest.mark.parametrize(
        "grad",
        [[1.0, 2.0, 3.0], [[1.0, NAN], [0.0, 0.0]], [[1e200, 1.0], [2.0, 3.0]], [[1.0], [2.0]], NAN, 3.0, []],
    )
    def test_wrong_shape_rejected(self, grad):
        obj = ObjectiveOracle(fn=lambda x: 0.0, grad_fn=lambda x: np.array(grad), f_low=-1.0)
        with pytest.raises(ValidationError, match=re.escape("expected (2,)")):
            obj.gradient(np.zeros(2))

    @staticmethod
    def _column_gradient(name):
        """The corpus problem with a gradient oracle that returns shape (n, 1)."""
        p = corpus_problem(name)
        grad = p.objective.grad_fn
        p.objective.grad_fn = lambda x: grad(x)[:, None]
        return p

    def test_validate_names_the_expected_shape(self):
        p = self._column_gradient("eq-cos-4")
        with pytest.raises(ValidationError, match=re.escape("shape (4, 1); expected (4,)")):
            validate(p)

    @pytest.mark.parametrize("kind", ["gd-fixed", "gd-backtracking", "cubic-newton"])
    def test_solve_names_the_expected_shape(self, kind):
        from auglag.outer import SolverConfig, solve

        p = self._column_gradient("eq-cos-4")
        with pytest.raises(ValidationError, match=re.escape("shape (4, 1); expected (4,)")):
            solve(p, SolverConfig(eps=1e-3, inner=kind))


class TestCallableConstraintShape:
    """Callable constraints must return c(x) of shape (m,) and J(x) of shape (m, n)."""

    @pytest.mark.parametrize("c_fn, jac_fn, message", [
        (lambda x: np.array([x[0] + x[1], 0.0]), None, "constraint values have shape (2,); expected (1,)"),
        (lambda x: x[0] + x[1], None, "constraint values have shape (); expected (1,)"),
        (None, lambda x: np.ones((2, 2)), "constraint Jacobian has shape (2, 2); expected (1, 2)"),
        (None, lambda x: np.ones((2, 1)), "constraint Jacobian has shape (2, 1); expected (1, 2)"),
    ], ids=["c-too-long", "c-scalar", "jac-square", "jac-column"])
    def test_solve_names_the_wrong_shape(self, c_fn, jac_fn, message):
        # n = 2 and m = m_e = 1, with c(x) = x_0 + x_1, feasible at x0 = 0
        p = make_tiny(1, c_fn or (lambda x: np.array([x[0] + x[1]])), jac_fn or (lambda x: np.ones((1, 2))), n=2)
        with pytest.raises(ValidationError, match=re.escape(message)):
            outer.solve(p, outer.SolverConfig(inner=outer.INNER_GD_BACKTRACKING))

    def test_one_row_jacobian_may_be_one_dimensional(self):
        p = make_tiny(1, lambda x: np.array([x[0] + x[1]]), lambda x: np.ones(2), n=2)
        np.testing.assert_array_equal(p.constraints.jac(np.zeros(2)), np.ones((1, 2)))
