import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglag import core
from auglag.core import (
    FormDisagreementError,
    Penalty,
    UnsupportedSpecializationError,
    lagrangian_grad,
    mu_norm,
    theta,
    update_multipliers,
    update_penalty,
)
from auglag.outer import OuterState, SolverConfig, first_inner_results, warm_start
from auglag.problems import (
    ConstraintSet,
    ObjectiveOracle,
    ProblemSpec,
    ValidationError,
    corpus,
    corpus_problem,
    finite_difference_gradient,
)

from conftest import make_tiny


def _lam(*vals):
    return np.array(vals, dtype=float)


def _zero_lam(p):
    return np.zeros(p.constraints.m)


def _state(x, f, c):
    """An outer record at x that holds only what ``warm_start`` reads before P's two forms disagree."""
    return OuterState(k=0, x=x, lam=None, sigma=1.0, mu_norm_sq=0.0, kkt=None, f=f, c=c,
                      g=None, J=None, grad_L=None)


def _lagrangian_grad_at(p, x, lam):
    return lagrangian_grad(p.objective.gradient(x), p.constraints.jac(x), lam)


def _theta_at(p, x, lam, sigma):
    return theta(p.constraints, p.constraints.c(x), lam, sigma)


def _update_multipliers_at(p, x, lam, sigma):
    return update_multipliers(p.constraints, p.constraints.c(x), lam, sigma)


class TestLagrangianGrad:
    def test_single_equality(self):
        # f = 0, c(x) = x - 1, lambda = 2 -> grad = -2 at any x
        p = make_tiny(1, lambda x: x - 1.0, lambda x: np.ones((1, 1)))
        g = _lagrangian_grad_at(p, np.array([7.0]), _lam(2.0))
        np.testing.assert_allclose(g, [-2.0])

    def test_zero_multipliers(self):
        p = corpus_problem("simplex-cos-8")
        x = p.x0 + 0.1
        g = _lagrangian_grad_at(p, x, np.zeros(9))
        np.testing.assert_allclose(g, p.objective.gradient(x))

    def test_matches_finite_differences(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(7)
        lam = rng.standard_normal(9)
        x = np.asarray(p.x0, float)
        fn = lambda z: p.objective.fn(z) - float(lam @ p.constraints.c(z))
        fd = finite_difference_gradient(fn, x)
        g = _lagrangian_grad_at(p, x, lam)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
        assert float(np.max(rel)) <= 1e-6


class TestEvalP:
    def test_equality_zero_multiplier(self):
        p = make_tiny(1, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        assert Penalty(p, _lam(0.0), 2.0).value(np.array([3.0])) == pytest.approx(9.0)

    def test_inactive_inequality_constant_branch(self):
        p = make_tiny(0, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        assert Penalty(p, _lam(2.0), 1.0).value(np.array([5.0])) == pytest.approx(-2.0)

    def test_active_inequality_both_forms(self):
        p = make_tiny(0, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        assert Penalty(p, _lam(4.0), 2.0).value(np.array([1.0])) == pytest.approx(-3.0)

    def test_sigma_must_be_positive(self):
        p = make_tiny(1, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        with pytest.raises(ValueError):
            Penalty(p, _lam(0.0), 0.0).value(np.array([1.0]))

    def test_forms_agree_random(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, 8)
            lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
            sigma = float(10.0 ** rng.uniform(-1, 3))
            Penalty(p, lam, sigma).value(x)  # raises on disagreement

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(-5, 5),
        lam=st.floats(0, 5),
        sigma=st.floats(0.01, 100),
    )
    def test_forms_agree_property(self, x, lam, sigma):
        p = make_tiny(0, lambda z: z.copy(), lambda z: np.ones((1, 1)))
        Penalty(p, _lam(lam), sigma).value(np.array([x]))


class TestGradP:
    def test_equality_example(self):
        p = make_tiny(1, lambda x: x - 1.0, lambda x: np.ones((1, 1)))
        g = Penalty(p, _lam(1.0), 2.0).grad(np.array([2.0]))
        np.testing.assert_allclose(g, [1.0])

    def test_inactive_inequality_contributes_zero(self):
        p = make_tiny(0, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        g = Penalty(p, _lam(1.0), 1.0).grad(np.array([5.0]))
        np.testing.assert_allclose(g, [0.0])

    def test_branch_boundary_takes_inactive_side(self):
        # at c == lambda/sigma exactly the inequality term is flat
        p = make_tiny(0, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        g = Penalty(p, _lam(4.0), 2.0).grad(np.array([2.0]))
        np.testing.assert_allclose(g, [0.0])

    def test_matches_finite_differences_away_from_seams(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            x = rng.uniform(-1.5, 1.5, 8)
            lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
            sigma = float(10.0 ** rng.uniform(-0.5, 1.5))
            c = p.constraints.c(x)
            if np.min(np.abs(c[1:] - lam[1:] / sigma)) < 1e-3:
                continue
            pen = Penalty(p, lam, sigma)
            fd = finite_difference_gradient(pen.value, x)
            g = pen.grad(x)
            rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
            assert float(np.max(rel)) <= 1e-6
            checked += 1


class TestPenaltyValueGrad:
    def _tuples(self, p, rng, count):
        cons = p.constraints
        for i in range(count):
            x = rng.uniform(-1.5, 1.5, p.n)
            lam = np.concatenate(
                [rng.normal(0, 2, cons.m_e), np.abs(rng.normal(0, 2, cons.m - cons.m_e))]
            )
            sigma = float(10.0 ** rng.uniform(-1, 3))
            if i % 2 and cons.m > cons.m_e:
                # put every nonnegative inequality row exactly on its seam,
                # c_i == lambda_i/sigma, where the tie rule applies
                c = cons.c(x)
                rows = np.arange(cons.m_e, cons.m)
                rows = rows[c[rows] >= 0.0]
                sigma = 2.0
                lam[rows] = c[rows] * sigma
                assert np.all(c[rows] == lam[rows] / sigma)
            yield x, lam, sigma

    @pytest.mark.parametrize("name", ["simplex-cos-8", "dup-eq-8", "eq-cos-8"])
    def test_bitwise_equal_to_eval_and_grad(self, name):
        p = corpus_problem(name)
        ties = 0
        for x, lam, sigma in self._tuples(p, np.random.default_rng(17), 400):
            # grad after value at one point completes that evaluation, bit for bit a fresh one
            pen = Penalty(p, lam, sigma)
            value, grad = pen.value(x), pen.grad(x)
            assert value == Penalty(p, lam, sigma).value(x)
            assert grad.tobytes() == Penalty(p, lam, sigma).grad(x).tobytes()
            c = p.constraints.c(x)
            ties += int(np.sum(c[p.constraints.m_e:] == lam[p.constraints.m_e:] / sigma))
        if p.constraints.m > p.constraints.m_e:
            assert ties > 0

    def test_nan_constraint_reaches_value_and_gradient(self):
        p = make_tiny(0, lambda x: np.array([float("nan")]), lambda x: np.ones((1, 1)))
        pen, x = Penalty(p, _lam(1.0), 1.0), np.array([1.0])
        value, grad = pen.value(x), pen.grad(x)
        assert math.isnan(value) and np.all(np.isnan(grad))

    def test_form_disagreement_raises(self, skewed_forms):
        p = corpus_problem("simplex-cos-8")
        with pytest.raises(FormDisagreementError):
            Penalty(p, np.zeros(9), 1.0).grad(p.x0)

    @pytest.mark.parametrize("name", ["simplex-cos-8", "eq-rosenbrock-8", "eq-cos-8"])
    @pytest.mark.parametrize(
        "entry", ["value", "grad", "first_inner_results", "from_values", "warm_start"]
    )
    def test_form_disagreement_raises_through_every_entry(self, skewed_forms, name, entry):
        p = corpus_problem(name)
        pen = Penalty(p, _zero_lam(p), 1.0)
        x = p.x0
        f, c = p.objective.value(x), p.constraints.c(x)
        calls = {
            "value": lambda: pen.value(x),
            "grad": lambda: pen.grad(x),
            # gd-backtracking applies to every problem, so the run reaches P
            "first_inner_results": lambda: first_inner_results(p, SolverConfig(inner="gd-backtracking"), [1e-3]),
            "from_values": lambda: pen.from_values(f, c),
            "warm_start": lambda: warm_start(pen, _state(x, f, c), _state(x, f, c)),
        }
        with pytest.raises(FormDisagreementError):
            calls[entry]()

    @pytest.mark.parametrize("name", ["eq-rosenbrock-8", "eq-cos-8"])
    def test_equality_only_gradient_is_the_plain_formula(self, name):
        p = corpus_problem(name)
        cons = p.constraints
        for x, lam, sigma in self._tuples(p, np.random.default_rng(29), 200):
            c = cons.c(x)
            g, J = p.objective.gradient(x), cons.jac(x)
            pen = Penalty(p, lam, sigma)
            f = p.objective.value(x)
            p_mask = pen.from_values(f, c)
            mask = p_mask[1]
            assert mask.dtype == bool and mask.shape == (cons.m,) and not mask.any()
            assert mask.flags.writeable and mask is not pen.from_values(0.0, c)[1]
            grad_p = pen.evaluation(x, f, c, g, J, p_mask).grad_p
            assert grad_p.tobytes() == (g + J.T @ (sigma * c - lam)).tobytes()

    def test_sigma_must_be_positive(self):
        p = make_tiny(1, lambda x: x.copy(), lambda x: np.ones((1, 1)))
        with pytest.raises(ValueError):
            Penalty(p, _lam(0.0), 0.0)


class TestPenaltyReuse:
    def test_gradient_after_in_place_change_matches_fresh_penalty(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(23)
        lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
        pen = Penalty(p, lam, 4.0)
        x = rng.uniform(-1.5, 1.5, 8)
        pen.value(x)
        x[0] += 0.5  # same array object, different point
        assert pen.grad(x).tobytes() == Penalty(p, lam, 4.0).grad(x).tobytes()

    def test_gradient_after_value_matches_fresh_penalty(self):
        p = corpus_problem("simplex-cos-8")
        lam = np.concatenate([[0.3], np.full(8, 0.2)])
        pen = Penalty(p, lam, 2.0)
        x = p.x0 + 0.01
        pen.value(x)
        assert pen.grad(x).tobytes() == Penalty(p, lam, 2.0).grad(x).tobytes()


    def test_gradient_at_a_zero_of_the_other_sign_matches_fresh_penalty(self):
        # c(x) = x on one equality row, so c(x) keeps the sign of a zero of x
        p = ProblemSpec(
            "signed-zero", ObjectiveOracle(lambda x: 0.5 * float(x.dot(x)), lambda x: x.copy(), 0.0),
            ConstraintSet(m=1, m_e=1, A=np.ones((1, 1)), b=np.zeros(1)), np.zeros(1),
        )
        lam = np.zeros(1)
        pen = Penalty(p, lam, 4.0)
        pen.value(np.array([0.0]))
        x = np.array([-0.0])  # equal to the point valued under ==, not in its bytes
        assert pen.grad(x).tobytes() == Penalty(p, lam, 4.0).grad(x).tobytes()

    def test_gradient_at_a_point_holding_a_nan_matches_fresh_penalty(self, monkeypatch):
        p = ProblemSpec(
            "nan-row", ObjectiveOracle(lambda x: 0.0, lambda x: np.zeros(2), -1.0),
            ConstraintSet(m=2, m_e=1, A=np.eye(2), b=np.zeros(2)), np.zeros(2),
        )
        lam = np.array([0.5, 0.25])
        want = Penalty(p, lam, 2.0).grad(np.array([np.nan, 1.0]))
        calls = []
        real = ConstraintSet.c
        monkeypatch.setattr(ConstraintSet, "c", lambda cons, x: calls.append(1) or real(cons, x))
        pen = Penalty(p, lam, 2.0)
        x = np.array([np.nan, 1.0])
        assert math.isnan(pen.value(x))
        # a NaN has the same bytes as itself, so the gradient reuses c(x)
        assert pen.grad(x.copy()).tobytes() == want.tobytes() and len(calls) == 1


class TestOneGradPath:
    """``grad`` completes the evaluation that ``value`` began at x, and values x first when it must."""

    LAM = np.concatenate([[0.3], np.full(8, 0.2)])

    @staticmethod
    def _record_oracles(monkeypatch):
        """The names of the oracles called from here on, in call order."""
        calls = []
        for owner, attr in (
            (ObjectiveOracle, "value"), (ObjectiveOracle, "gradient"),
            (ConstraintSet, "c"), (ConstraintSet, "jac"),
        ):
            real = getattr(owner, attr)
            monkeypatch.setattr(
                owner, attr, lambda self, x, real=real, attr=attr: calls.append(attr) or real(self, x)
            )
        return calls

    def test_grad_at_a_point_not_valued_evaluates_f_and_c_once(self, monkeypatch):
        p = corpus_problem("simplex-cos-8")
        x = p.x0 + 0.01
        want = Penalty(p, self.LAM, 2.0).value(x)
        pen = Penalty(p, self.LAM, 2.0)
        pen.value(p.x0)  # the last point valued is another point
        calls = self._record_oracles(monkeypatch)
        grad = pen.grad(x)
        assert calls == ["c", "value", "gradient", "jac"]
        ev = pen.last_evaluation()
        assert ev.key == x.tobytes() and ev.p.hex() == want.hex()
        assert ev.grad_p.tobytes() == grad.tobytes()


def _reference_sums(lam, sigma, m_e, c):
    """The penalty sums written as plain expressions, the way ``Penalty._sums`` must compute them."""
    shift = lam / sigma
    inactive = c >= shift
    inactive[:m_e] = False
    quad = -lam * c + 0.5 * sigma * c * c
    branch_sum = float(np.where(inactive, -0.5 * lam * lam / sigma, quad).sum())
    d = c - shift
    d[m_e:] = np.minimum(d[m_e:], 0.0)
    shifted_sum = 0.5 * sigma * float(d @ d - shift @ shift)
    term_scale = float(np.abs(lam) @ np.abs(c) + 0.5 * sigma * (c @ c) + 0.5 * (lam @ lam) / sigma)
    return inactive, branch_sum, shifted_sum, term_scale


class TestPenaltyReference:
    @staticmethod
    def _tuples(rng, count):
        """(problem, lambda, sigma, c) with exact ties, NaN rows, m_e in {0, m} and sigma up to 1e16."""
        for i in range(count):
            m = int(rng.choice([1, 2, 9, 66, 130]))
            m_e = (0, m, int(rng.integers(0, m + 1)))[i % 3]
            lam = np.concatenate([rng.normal(0.0, 3.0, m_e), np.abs(rng.normal(0.0, 3.0, m - m_e))])
            sigma = float(10.0 ** rng.uniform(-2.0, 16.0))
            c = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 1.0), m)
            ties = rng.random(m) < 0.3
            c[ties] = lam[ties] / sigma  # c_i == lambda_i/sigma, where the tie rule applies
            if i % 7 == 0:
                c[rng.integers(0, m)] = float("nan")
            cons = ConstraintSet(m=m, m_e=m_e, A=np.zeros((m, 1)), b=np.zeros(m))
            p = ProblemSpec("ref", ObjectiveOracle(lambda x: 0.0, lambda x: x, -1.0), cons, np.zeros(1))
            yield p, lam, sigma, c

    def test_sums_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(41)
        ties = nans = 0
        worst = 0.0
        for p, lam, sigma, c in self._tuples(rng, 3000):
            m_e = p.constraints.m_e
            pen = Penalty(p, lam, sigma)
            got = (*pen._sums(c.copy()), pen._term_scale(c.copy()))
            want = _reference_sums(lam, sigma, m_e, c.copy())
            assert got[0].tobytes() == want[0].tobytes()
            for g, w in zip(got[1:], want[1:]):
                assert np.float64(g).tobytes() == np.float64(w).tobytes()
            ties += int(np.sum(c[m_e:] == lam[m_e:] / sigma))
            if np.isnan(c).any():
                nans += 1
                continue
            f = float(rng.normal(0.0, 10.0))
            _, branch_sum, shifted_sum, term_scale = got
            pb, ps = f + branch_sum, f + shifted_sum
            tol = max(1e-10 * max(1.0, abs(pb), abs(ps)), 1e-12 * (abs(f) + term_scale))
            worst = max(worst, abs(pb - ps) / tol)
        assert ties > 0 and nans > 0
        assert worst < 1e-2, f"worst |P_branch - P_shifted|/tol = {worst:.3e}"

    @staticmethod
    def _infinite_rows(rng, tuples):
        """The tuples with c = +inf or -inf on about one row in eight, equality and inequality rows alike."""
        for p, lam, sigma, c in tuples:
            rows = rng.random(c.shape[0]) < 0.125
            c[rows] = rng.choice([-np.inf, np.inf], int(rows.sum()))
            yield p, lam, sigma, c

    def test_sums_bitwise_equal_to_reference_with_infinite_rows(self):
        rng = np.random.default_rng(53)
        rows = {"eq": 0, "ineq": 0}
        with np.errstate(invalid="ignore", over="ignore"):
            for p, lam, sigma, c in self._infinite_rows(rng, self._tuples(rng, 1500)):
                m_e = p.constraints.m_e
                pen = Penalty(p, lam, sigma)
                got = (*pen._sums(c.copy()), pen._term_scale(c.copy()))
                want = _reference_sums(lam, sigma, m_e, c.copy())
                assert got[0].tobytes() == want[0].tobytes()
                for g, w in zip(got[1:], want[1:]):
                    assert np.float64(g).tobytes() == np.float64(w).tobytes()
                rows["eq"] += int(np.isinf(c[:m_e]).sum())
                rows["ineq"] += int(np.isinf(c[m_e:]).sum())
        assert min(rows.values()) > 100, rows

    def test_grad_bitwise_equal_to_plain_expression(self):
        """grad P is g + J^T (sigma c - lambda) with the inactive rows' entries zeroed, bit for bit."""
        rng = np.random.default_rng(59)
        tuples = self._tuples(rng, 1500)
        with np.errstate(invalid="ignore", over="ignore"):
            for i, (p, lam, sigma, c) in enumerate(tuples):
                if i % 2:
                    p, lam, sigma, c = next(self._infinite_rows(rng, [(p, lam, sigma, c)]))
                n = int(rng.integers(1, 5))
                g, J, f = rng.normal(size=n), rng.normal(size=(c.shape[0], n)), float(rng.normal())
                pen = Penalty(p, lam, sigma)
                got = pen.evaluation(np.zeros(n), f, c, g, J, pen.from_values(f, c)).grad_p
                inactive = _reference_sums(lam, sigma, p.constraints.m_e, c.copy())[0]
                want = g + J.T.dot(np.where(inactive, 0.0, sigma * c - lam))
                assert got.tobytes() == want.tobytes()

    def test_verdict_matches_eager_tolerance(self):
        """``from_values`` raises exactly where the eager max(relative, absolute) bound fails.

        The shifted sum is skewed by up to twice one of the two bounds, drawn
        at random, so the tuples land on both sides of each bound.
        """
        rng = np.random.default_rng(43)
        verdicts = {"raised": 0, "quiet": 0, "quiet_by_absolute_only": 0}
        for p, lam, sigma, c in self._tuples(np.random.default_rng(41), 3000):
            ref = _reference_sums(lam, sigma, p.constraints.m_e, c.copy())
            f = float(rng.normal(0.0, 10.0))
            bound = _eager_bounds(f, ref, 0.0)[int(rng.integers(0, 2))]
            delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0) * bound)
            want = _eager_raises(f, ref, delta)
            assert _skewed_raises(Penalty(p, lam, sigma), f, c, delta) == want
            verdicts["raised" if want else "quiet"] += 1
            if not want and _diff(f, ref, delta) > _eager_bounds(f, ref, delta)[0]:
                verdicts["quiet_by_absolute_only"] += 1
        assert min(verdicts.values()) > 25, verdicts

    # one equality row, c = 1e10, lambda = 0, sigma = 2: both sums are exactly
    # 1e20 and the term scale is 1e20, so with f = -1e20 P is near 0 and the
    # absolute bound 1e-12*(|f| + scale) = 2e8 dwarfs the relative one
    @pytest.mark.parametrize("delta, raises", [(1e4, False), (1e9, True)])
    def test_cancellation(self, delta, raises):
        lam, c = np.zeros(1), np.array([1e10])
        cons = ConstraintSet(m=1, m_e=1, A=np.ones((1, 1)), b=np.zeros(1))
        p = ProblemSpec("cancel", ObjectiveOracle(lambda x: 0.0, lambda x: x, -1e30), cons, np.zeros(1))
        ref = _reference_sums(lam, 2.0, 1, c.copy())
        assert ref[1] == ref[2] == ref[3] == 1e20
        rel, abs_ = _eager_bounds(-1e20, ref, delta)
        diff = _diff(-1e20, ref, delta)
        assert diff > rel  # the relative bound fails in both cases
        assert (diff > abs_) == raises == _eager_raises(-1e20, ref, delta)
        assert _skewed_raises(Penalty(p, lam, 2.0), -1e20, c, delta) == raises

    def test_nan_scale_leaves_the_relative_bound(self):
        """An inequality row with c = inf and lambda = 0 has a NaN term scale.

        The eager max(relative, NaN) is the relative bound, so a skew past it raises.
        """
        lam, c = np.zeros(2), np.array([0.5, np.inf])
        cons = ConstraintSet(m=2, m_e=1, A=np.ones((2, 1)), b=np.zeros(2))
        p = ProblemSpec("inf-row", ObjectiveOracle(lambda x: 0.0, lambda x: x, -1.0), cons, np.zeros(1))
        with np.errstate(invalid="ignore", over="ignore"):
            ref = _reference_sums(lam, 1.0, 1, c.copy())
            assert math.isfinite(ref[1]) and math.isfinite(ref[2]) and math.isnan(ref[3])
            for delta, raises in ((1e-12, False), (1e-3, True)):
                assert _eager_raises(1.0, ref, delta) == raises
                assert _skewed_raises(Penalty(p, lam, 1.0), 1.0, c, delta) == raises


def _eager_bounds(f, ref, delta):
    """The cross-check's relative and absolute bounds, from reference sums with a skewed shifted sum."""
    _, branch_sum, shifted_sum, term_scale = ref
    pb, ps = f + branch_sum, f + (shifted_sum + delta)
    return 1e-10 * max(1.0, abs(pb), abs(ps)), 1e-12 * (abs(f) + term_scale)


def _diff(f, ref, delta):
    """|P_branch - P_shifted| from reference sums with the shifted sum skewed."""
    _, branch_sum, shifted_sum, _ = ref
    return abs((f + branch_sum) - (f + (shifted_sum + delta)))


def _eager_raises(f, ref, delta):
    """The cross-check's verdict with both bounds computed up front."""
    return _diff(f, ref, delta) > max(*_eager_bounds(f, ref, delta))


def _skewed_raises(pen, f, c, delta):
    """Whether ``pen.from_values(f, c)`` raises once its shifted sum is moved by ``delta``."""
    real = pen._sums

    def skewed(c):
        mask, branch_sum, shifted_sum = real(c)
        return mask, branch_sum, shifted_sum + delta

    pen._sums = skewed
    try:
        pen.from_values(f, c.copy())
    except FormDisagreementError:
        return True
    return False


class TestHessP:
    def test_equality_only_linear(self):
        p = corpus_problem("eq-cos-8")
        x = np.asarray(p.x0, float)
        H = Penalty(p, _zero_lam(p), 3.0).hess(x)
        expected = p.objective.hessian(x) + 3.0 * np.ones((8, 8))
        np.testing.assert_allclose(H, expected)

    def test_rejects_inequalities(self):
        p = corpus_problem("simplex-cos-8")
        with pytest.raises(UnsupportedSpecializationError):
            Penalty(p, _zero_lam(p), 1.0).hess(p.x0)

    def test_cached_gram_matrix(self):
        p = corpus_problem("eq-rosenbrock-32")
        A = p.constraints.A
        x = p.x0 + 0.1
        expected = p.objective.hessian(x) + 5.0 * (A.T @ A)
        assert Penalty(p, _zero_lam(p), 5.0).hess(x).tobytes() == expected.tobytes()


class TestTheta:
    def test_equality_only(self):
        p = make_tiny(1, lambda x: np.array([0.5]), lambda x: np.ones((1, 1)))
        th = _theta_at(p, np.zeros(1), _lam(0.0), 1.0)
        assert th.value == pytest.approx(0.5)
        assert th.parts[2] == float("-inf")

    def test_inequality_only(self):
        p = make_tiny(0, lambda x: np.array([-0.3]), lambda x: np.ones((1, 1)))
        th = _theta_at(p, np.zeros(1), _lam(0.0), 1.0)
        assert th.value == pytest.approx(0.3)
        assert th.parts[1] == float("-inf")

    def test_all_three_parts(self):
        p = make_tiny(
            1, lambda x: np.array([1.0, 0.2]), lambda x: np.ones((2, 1)), m=2
        )
        th = _theta_at(p, np.zeros(1), _lam(4.0, 1.0), 2.0)
        assert th.parts == (2.0, 1.0, 0.0)
        assert th.value == pytest.approx(2.0)


class TestUpdatePenalty:
    @staticmethod
    def _config(**kw):
        return SolverConfig(eps=1e-3, **kw)

    def test_first_iteration_keeps_sigma(self):
        assert update_penalty(0, 100.0, None, 5.0, self._config()) == 5.0

    def test_growth_branch(self):
        assert update_penalty(3, 1.0, 1.0, 10.0, self._config(alpha=2.0, gamma=0.5)) == 16.0

    def test_decrease_branch(self):
        assert update_penalty(3, 0.4, 1.0, 10.0, self._config(gamma=0.5)) == 10.0

    def test_never_shrinks(self):
        assert update_penalty(3, 1.0, 1.0, 1e6, self._config(alpha=3.0)) == 1e6

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            update_penalty(-1, 1.0, 1.0, 1.0, self._config())

    @pytest.mark.parametrize("k, alpha", [(1, 1025.0), (1, 1e54), (1, 1.7e308), (9, 309.0)])
    def test_growth_past_the_largest_double_is_inf(self, k, alpha):
        # (k+1)^alpha: 2^1025, 2^1e54, 2^1.7e308 and 10^309 each pass the largest double
        assert update_penalty(k, 1.0, 1.0, 10.0, self._config(alpha=alpha)) == math.inf
        assert update_penalty(k, 1.0, 1.0, 10.0, self._config(alpha=1023.0 / math.log2(k + 1))) < math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 50),
        theta_next=st.floats(0, 10),
        theta_prev=st.floats(1e-6, 10),
        sigma=st.floats(0.1, 1e8),
    )
    def test_monotone_property(self, k, theta_next, theta_prev, sigma):
        config = self._config()
        out = update_penalty(k, theta_next, theta_prev, sigma, config)
        assert out >= sigma
        if theta_next <= config.gamma * theta_prev:
            assert out == sigma


class TestUpdateMultipliers:
    def test_equality(self):
        p = make_tiny(1, lambda x: np.array([0.25]), lambda x: np.ones((1, 1)))
        out = _update_multipliers_at(p, np.zeros(1), _lam(1.0), 2.0)
        np.testing.assert_allclose(out, [0.5])

    def test_inequality_clamp(self):
        p = make_tiny(0, lambda x: np.array([3.0]), lambda x: np.ones((1, 1)))
        out = _update_multipliers_at(p, np.zeros(1), _lam(1.0), 2.0)
        np.testing.assert_allclose(out, [0.0])

    def test_scalar_loop_oracle(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.0, 1.0, 8)
        lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
        sigma = 3.0
        out = _update_multipliers_at(p, x, lam, sigma)
        c = p.constraints.c(x)
        expected = np.empty(9)
        for i in range(9):
            v = lam[i] - sigma * c[i]
            expected[i] = v if i < 1 else max(v, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(-5, 5),
        c=st.floats(-5, 5),
        sigma=st.floats(0.01, 100),
    )
    def test_inequality_sign_property(self, lam, c, sigma):
        p = make_tiny(0, lambda x, c=c: np.array([c]), lambda x: np.ones((1, 1)))
        out = _update_multipliers_at(p, np.zeros(1), _lam(max(lam, 0.0)), sigma)
        assert np.all(out >= 0.0)


class TestMuNorm:
    def test_examples(self):
        assert mu_norm(_lam(3.0, 4.0), 25.0) == pytest.approx(1.0)
        assert mu_norm(_lam(0.0, 0.0), 7.0) == 0.0
        assert mu_norm(_lam(1.0, 2.0, 2.0), 4.0) == pytest.approx(1.5)

    def test_scaling(self):
        m = _lam(1.0, -2.0, 0.5)
        assert mu_norm(m, 4.0) == pytest.approx(mu_norm(m, 1.0) / 2.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            mu_norm(_lam(1.0), 0.0)

    def test_bitwise_equal_to_numpy_norm(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            lam = rng.normal(size=int(rng.integers(0, 70))) * 10.0 ** rng.uniform(-200.0, 200.0)
            sigma = float(10.0 ** rng.uniform(-3.0, 16.0))
            with np.errstate(over="ignore", under="ignore"):
                want = float(np.linalg.norm(lam)) / math.sqrt(sigma)
                assert np.float64(mu_norm(lam, sigma)).tobytes() == np.float64(want).tobytes()


def _linear_problem(A, L1):
    """Equality rows c(x) = A x with f = L1*||x||^2/2, which declares L1."""
    m, n = A.shape
    return ProblemSpec(
        name="linear",
        objective=ObjectiveOracle(fn=lambda x: 0.5 * L1 * float(x @ x), grad_fn=lambda x: L1 * x,
                                  f_low=0.0, L1=L1),
        constraints=ConstraintSet(m=m, m_e=m, A=A, b=np.zeros(m)),
        x0=np.zeros(n),
    )


class TestLipschitzBound:
    def test_identity_rows(self):
        got = core.lipschitz_bound_for(_linear_problem(np.eye(2), 1.0), 3.0)
        assert got >= 4.0 and got == pytest.approx(4.0, rel=1e-14)

    def test_sigma_zero_formula(self):
        assert core.lipschitz_bound_for(_linear_problem(np.eye(3), 5.0), 0.0) == 5.0

    def test_problem_wrapper(self):
        p = corpus_problem("simplex-cos-8")
        got = core.lipschitz_bound_for(p, 2.0)
        # A^T A = I + 11^T (identity rows plus the ones row), so lambda_max = 1 + 8 = 9
        assert got >= 17.0 + 2.0 * 9.0 and got == pytest.approx(17.0 + 2.0 * 9.0, rel=1e-14)

    def test_top_eigenvalue_is_lazy_and_computed_once(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(1) or real(G))
        p = corpus_problem("simplex-cos-16")
        assert calls == []
        bounds = [core.lipschitz_bound_for(p, sigma) for sigma in (1.0, 2.0, 4.0, 1e3)]
        assert calls == [1] and bounds == sorted(bounds)

    def test_attained_along_the_top_eigenvector(self):
        # f linear and every row an equality row: grad P(x) - grad P(y) = sigma A^T A (x - y)
        rng = np.random.default_rng(3)
        n, m = 6, 4
        A = rng.standard_normal((m, n))
        p = ProblemSpec(
            name="linear-eq",
            objective=ObjectiveOracle(fn=lambda x: float(x.sum()), grad_fn=lambda x: np.ones(n),
                                      f_low=-1e6, L1=0.0),
            constraints=ConstraintSet(m=m, m_e=m, A=A, b=rng.standard_normal(m)),
            x0=np.zeros(n),
        )
        top = np.linalg.eigh(A.T @ A)[1][:, -1]
        for sigma in (0.5, 3.0, 1e4):
            bound = core.lipschitz_bound_for(p, sigma)
            pen = Penalty(p, rng.standard_normal(m), sigma)
            x = rng.uniform(-2.0, 2.0, n)
            y = x + 1.5 * top
            quotient = float(np.linalg.norm(pen.grad(x) - pen.grad(y))) / float(np.linalg.norm(x - y))
            assert quotient <= bound
            assert quotient == pytest.approx(bound, rel=1e-9)

    def test_at_least_the_spectral_norm_bound(self, mixed_sign):
        linear = [q for q in corpus() if q.constraints.is_linear] + [
            corpus_problem(f"{fam}-{n}") for fam in ("simplex-cos", "dup-eq", "eq-cos") for n in (32, 64)
        ]
        declared = [p for p in linear + [mixed_sign] if p.objective.L1 is not None]
        assert len(declared) == 11  # eq-rosenbrock-8 declares no L1
        for p in declared:
            A, L1 = p.constraints.A, p.objective.L1
            for sigma in (0.5, 1.0, 27.0, 1e6):
                got = core.lipschitz_bound_for(p, sigma)
                assert got >= L1 + sigma * np.linalg.norm(A, 2) ** 2, (p.name, sigma)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 12),
        m=st.integers(1, 8),
        eq_share=st.floats(0.0, 1.0),
        shape=st.sampled_from(("full", "duplicated-rows", "rank-one")),
        seed=st.integers(0, 2**32 - 1),
        L1=st.floats(0.0, 100.0),
        sigma=st.floats(1e-3, 1e4),
    )
    def test_sound_on_random_mixed_sign_rows(self, n, m, eq_share, shape, seed, L1, sigma):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        if shape == "duplicated-rows":
            A[rng.integers(0, m, m)] = A[0]  # a random subset of rows repeat row 0
        elif shape == "rank-one":
            A = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        A *= 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        m_e = round(eq_share * m)
        lam = rng.normal(0.0, 2.0, m)
        lam[m_e:] = np.abs(lam[m_e:])
        b = rng.normal(0.0, 1.0, m)
        p = ProblemSpec(
            name="fuzz",
            objective=ObjectiveOracle(fn=lambda x: 0.5 * L1 * float(x @ x),
                                      grad_fn=lambda x: L1 * x, f_low=0.0, L1=L1),
            constraints=ConstraintSet(m=m, m_e=m_e, A=A, b=b),
            x0=np.zeros(n),
        )
        bound = core.lipschitz_bound_for(p, sigma)
        pen = Penalty(p, lam, sigma)
        top = np.linalg.eigh(A.T @ A)[1][:, -1]
        # sample a box where sigma*A x outweighs lambda and sigma*b on every row, so
        # that the rounding of grad P(x) - grad P(y) stays far below the 1e-12 margin;
        # each row's kink c_i = lambda_i/sigma still lies inside it
        R = max(2.0, 10.0 * float(np.max((np.abs(lam) / sigma + np.abs(b)) / np.linalg.norm(A, axis=1))))
        for i in range(40):
            x = rng.uniform(-R, R, n)
            # half the pairs step along the top eigenvector, where the bound is nearly reached
            y = x + rng.uniform(0.25, 1.0) * R * top if i % 2 else rng.uniform(-R, R, n)
            num = float(np.linalg.norm(pen.grad(x) - pen.grad(y)))
            assert num <= bound * float(np.linalg.norm(x - y)) * (1.0 + 1e-12)

    def test_wrapper_preconditions(self):
        p = corpus_problem("eq-rosenbrock-8")  # linear but no declared L1
        with pytest.raises(UnsupportedSpecializationError):
            core.lipschitz_bound_for(p, 1.0)
        q = make_tiny(
            0, lambda x: np.array([x[0] ** 2]), lambda x: np.array([[2 * x[0]]])
        )
        with pytest.raises(UnsupportedSpecializationError):
            core.lipschitz_bound_for(q, 1.0)

    @pytest.mark.parametrize("scale, sigma", [(1e200, 1.0), (1e150, 1e16)])
    def test_a_bound_that_is_not_finite_is_refused(self, scale, sigma):
        # A^T A overflows to inf (eigvalsh then gives NaN), or sigma lambda_max does
        p = _linear_problem(np.full((1, 2), scale), 17.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match="is not finite"):
            core.lipschitz_bound_for(p, sigma)

    def test_a_zero_bound_is_refused(self):
        # a declared L1 = 0 with no rows: the fixed step 1/L is undefined, and `solve` must say so
        # before its first inner solve, whatever --max-outer is
        p = _linear_problem(np.zeros((0, 2)), 0.0)
        with pytest.raises(ValidationError, match="= 0.0 at sigma = 1.0 is not finite and positive"):
            core.lipschitz_bound_for(p, 1.0)

    def test_sampled_quotients_respect_bound(self):
        p = corpus_problem("simplex-cos-8")
        rng = np.random.default_rng(5)
        lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
        sigma = 4.0
        bound = core.lipschitz_bound_for(p, sigma)
        pen = Penalty(p, lam, sigma)
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, 8)
            y = rng.uniform(-2.0, 2.0, 8)
            num = float(np.linalg.norm(pen.grad(x) - pen.grad(y)))
            den = float(np.linalg.norm(x - y))
            assert num <= bound * den * (1.0 + 1e-12)



class TestStateValidation:
    def test_penalty_state_ranges(self):
        # sigma, alpha and gamma live on SolverConfig, which rejects the
        # same out-of-range values the penalty state did
        with pytest.raises(ValueError, match="sigma0"):
            SolverConfig(eps=1e-3, sigma0=0.0)
        with pytest.raises(ValueError, match="alpha"):
            SolverConfig(eps=1e-3, alpha=1.0)
        with pytest.raises(ValueError, match="gamma"):
            SolverConfig(eps=1e-3, gamma=1.0)
