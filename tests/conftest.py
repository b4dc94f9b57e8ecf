import numpy as np
import pytest

from auglag.problems import ConstraintSet, ObjectiveOracle, ProblemSpec


def make_tiny(m_e, c_fn, jac_fn, m=1, n=1, f=None, grad=None, f_low=-100.0, x0=None):
    """1-D scratch problem for exercising single operations."""
    if f is None:
        f = lambda x: 0.0
        grad = lambda x: np.zeros(n)
    return ProblemSpec(
        name="tiny",
        objective=ObjectiveOracle(fn=f, grad_fn=grad, f_low=f_low),
        constraints=ConstraintSet(m=m, m_e=m_e, c_fn=c_fn, jac_fn=jac_fn),
        x0=np.zeros(n) if x0 is None else np.asarray(x0, float),
    )


@pytest.fixture(scope="session")
def simplex_cos_8():
    from auglag.problems import make_simplex_cos

    return make_simplex_cos(8)


@pytest.fixture(scope="session")
def eq_cos_8():
    from auglag.problems import make_eq_cos

    return make_eq_cos(8)


@pytest.fixture
def skewed_forms(monkeypatch):
    """Make the shifted-square form of P disagree with the branch form."""
    from auglag import core

    real = core._penalty_terms

    def skewed(*args):
        mask, branch_sum, shifted_sum, scale = real(*args)
        return mask, branch_sum, shifted_sum + 1e-3, scale

    monkeypatch.setattr(core, "_penalty_terms", skewed)
