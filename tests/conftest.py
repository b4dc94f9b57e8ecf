import json
import math
from collections import Counter

import numpy as np
import pytest

from auglag import inner
from auglag.problems import ConstraintSet, ObjectiveOracle, ProblemSpec, load_problem

# sum(x) = 1, x_i <= 0.3 and x_0 - x_1 >= -0.2: inequality rows of both signs
MIXED_SIGN = {
    "name": "mixed-sign-4", "n": 4, "objective": {"kind": "quadratic+cos"},
    "A": [[1.0, 1.0, 1.0, 1.0],
          [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
          [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
          [1.0, -1.0, 0.0, 0.0]],
    "b": [1.0, -0.3, -0.3, -0.3, -0.3, -0.2], "m_e": 1, "x0": [0.25] * 4,
}

# problem files whose gd-fixed bound L1 + sigma0 lambda_max(A^T A) is not finite and positive at
# the given sigma0, each with the flags that run it there; --inner auto falls back to gd-backtracking
GD_FIXED_REFUSED = {
    "zero-L": ({"name": "zero", "n": 2, "objective": {"kind": "rosenbrock"}, "A": [[0, 0]], "b": [-1],
                "m_e": 0, "x0": [0.5, 0.5], "L1": 0}, []),
    "nan-L": ({"name": "big2", "n": 2, "objective": {"kind": "quadratic+cos"}, "A": [[1e200, 1e200], [1, 0]],
               "b": [0, 0], "m_e": 1, "x0": [0.5, -0.5], "L1": 17.0}, []),
    "inf-L-at-sigma0": ({"name": "wide", "n": 2, "objective": {"kind": "quadratic+cos"},
                         "A": [[1e150, 0], [0, 1]], "b": [-1, -1], "m_e": 0, "x0": [0, 0]},
                        ["--sigma0", "1e10", "--max-outer", "0"]),
}


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

    real = core.Penalty._sums

    def skewed(*args):
        mask, branch_sum, shifted_sum = real(*args)
        return mask, branch_sum, shifted_sum + 1e-3

    monkeypatch.setattr(core.Penalty, "_sums", skewed)


@pytest.fixture(scope="session")
def mixed_sign_file(tmp_path_factory):
    """``MIXED_SIGN`` written as a problem file."""
    path = tmp_path_factory.mktemp("problems") / "mixed-sign-4.json"
    path.write_text(json.dumps(MIXED_SIGN))
    return str(path)


@pytest.fixture(scope="session")
def mixed_sign(mixed_sign_file):
    """A linear problem with a declared L1 whose inequality rows have coefficients of both signs."""
    return load_problem(mixed_sign_file)


def same_json(a, b) -> bool:
    """a == b for JSON values, with NaN equal to NaN and a bool never equal to a number."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(same_json, a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def count_oracles(monkeypatch):
    """Counters of f, grad f, c and jac calls (outside, inside) the inner solvers.

    The solvers are wrapped as module attributes of ``inner``, where ``outer``'s
    one inner-solve seam looks them up, as the benchmark's tracer wraps them.
    """
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
    for attr in ("gd_solve", "cubic_newton_solve"):
        def flagged(*args, _run=getattr(inner, attr)):
            where[0] = inside
            try:
                return _run(*args)
            finally:
                where[0] = outside

        monkeypatch.setattr(inner, attr, flagged)
    return outside, inside
