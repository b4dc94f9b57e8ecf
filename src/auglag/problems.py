"""Problem definitions, validation, and the built-in nonconvex test corpus.

A problem bundles an objective oracle (value / gradient / optional Hessian,
plus a finite lower bound and Lipschitz metadata), a constraint set (linear
rows or general differentiable constraints, equalities first), and a feasible
starting point.  All oracles are pure functions of ``x`` and a problem may be
shared read-only across concurrent solver runs.

Every bad input raises a ``ValidationError``, a ``ValueError``.  The oracles
check shapes, numbers and ``f_low``, not finiteness, which the outer loop
checks once at x0 and the inner solvers after.  This module imports no other ``auglag`` module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

FEASIBILITY_TOL = 1e-10
GRAD_CHECK_TOL = 1e-6


class ValidationError(ValueError):
    """A problem failed a hard validation check (infeasible start, bad oracle): a usage error."""


class ObjectiveBelowBound(ValidationError):
    """The objective returned a value below its declared lower bound (-inf among them)."""


def _floats(value, what: str, *expected) -> np.ndarray:
    """``value`` as a float array, from bools, integers and floats only: the one conversion of caller data.

    Else a ``ValidationError`` "{what} {got}; expected {expected, ...}" names what
    it got; every gradient passes here, so the message is built only on failure.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy makes no array of a ragged nesting
        got = "no regular numeric shape"
    else:
        if arr.dtype == float:
            return arr
        kind = arr.dtype.kind
        if kind in "biuf" or kind == "O" and all(isinstance(v, (int, float)) for v in arr.flat):
            try:  # numpy holds an integer past 64 bits as an object
                return arr.astype(float)
            except OverflowError:
                got = "a number too large for a float"
        else:  # text, complex values, or a dict, None or another object, alone or in a nesting
            bad = type(next((v for v in arr.flat if not isinstance(v, (int, float))), value)).__name__
            got = {"U": "text", "S": "text", "c": "complex values"}.get(kind, f"an object of type {bad}")
    raise ValidationError(f"{what} {got}; expected {', '.join(map(str, expected))}")


def _shaped(out, shape: tuple, what: str, expected: str, rows: bool = False) -> np.ndarray:
    """An oracle's output through ``_floats``; a ``ValidationError`` names its shape unless that is ``shape``.

    With ``rows``, an output of fewer than two dimensions is read as one row.
    A float ``ndarray`` of that shape, the common case, is returned as it is.
    """
    if type(out) is np.ndarray and out.dtype == float and out.shape == shape:
        return out
    arr = _floats(out, what, shape, expected)
    if arr.shape != shape:
        if rows:
            return _shaped(np.atleast_2d(arr), shape, what, expected)
        raise ValidationError(f"{what} shape {arr.shape}; expected {shape}, {expected}")
    return arr


@dataclass(frozen=True)
class ObjectiveOracle:
    """Smooth objective with value/gradient (and optional Hessian) oracles.

    ``f_low`` must be a valid lower bound for the objective over all of R^n;
    it enters the complexity bounds, so an optimistic value here invalidates
    certification.  ``L1``/``L2`` are global Lipschitz constants of the
    gradient / Hessian when known; ``local_lipschitz_only`` marks objectives
    whose derivatives are Lipschitz only on bounded sets (such problems are
    excluded from bound certification).  Building the oracle checks that
    ``f_low`` is a finite number and ``L1``, ``L2`` None or finite and >= 0,
    raising ``ValidationError`` naming the field; the oracle is frozen, so a
    changed field goes through ``dataclasses.replace`` and that check again.
    ``value`` raises ``ObjectiveBelowBound`` below ``f_low``.  f(x) must be a
    scalar, grad f(x) (n,) and the Hessian (n, n), as c(x) must be (m,) and
    J(x) (m, n) on a ``ConstraintSet``, all numbers; any other shape, or text,
    an object or complex values, raises ``ValidationError`` naming the oracle.
    A NaN or infinity passes through unchanged.
    """

    fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    f_low: float
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L1: Optional[float] = None
    L2: Optional[float] = None
    local_lipschitz_only: bool = False

    def __post_init__(self) -> None:
        _finite(self.f_low, "f_low", scalar=True)
        for key in ("L1", "L2"):
            value = getattr(self, key)
            if value is not None and _finite(value, key, scalar=True) < 0.0:
                raise ValidationError(f"{key} = {value!r} must be nonnegative")
        # the least value ``value`` accepts: f_low less its rounding slack; the oracle is frozen
        object.__setattr__(self, "_floor", self.f_low - 1e-12 * max(1.0, abs(self.f_low)))

    def value(self, x: np.ndarray) -> float:
        v = self.fn(x)
        if type(v) is not float:  # the common case, a Python float, needs no conversion
            v = float(_shaped(v, (), "objective value has", "a scalar"))
        if v < self._floor:
            raise ObjectiveBelowBound(
                f"objective value {v} violates declared lower bound {self.f_low}"
            )
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return _shaped(self.grad_fn(x), x.shape, "objective gradient has", "the shape of x")

    def hessian(self, x: np.ndarray) -> np.ndarray:
        if self.hess_fn is None:
            raise ValueError("no Hessian oracle available for this objective")
        return _shaped(self.hess_fn(x), x.shape * 2, "objective Hessian has", "a row and a column per variable")

    @property
    def has_hessian(self) -> bool:
        return self.hess_fn is not None


@dataclass
class ConstraintSet:
    """Constraints c_i(x) = 0 for i < m_e, c_i(x) >= 0 for i >= m_e.

    Either an explicit linear form (A, b) with c(x) = A x - b, or general
    callables (c_fn, jac_fn).  The linear form enables the specializations
    that need a closed-form Lipschitz constant for the penalized gradient;
    it caches A^T A and its top eigenvalue, so A must not be mutated
    afterwards.  An m_e outside [0, m], or an A or b that is not numbers (no
    b among them) or whose rows are not m, raises ``ValidationError`` naming
    the field first, as ``load_problem``'s messages do.
    """

    m: int
    m_e: int
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    c_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if not (0 <= self.m_e <= self.m):
            raise ValidationError(f"m_e = {self.m_e} lies outside [0, m] with m = {self.m}")
        if self.A is not None:
            self.A = np.atleast_2d(_floats(self.A, "A has", "an array of numbers"))
            self.b = _floats(self.b, "b has", "an array of numbers").ravel()
            if self.A.shape[0] != self.m:
                raise ValidationError(f"A has shape {self.A.shape}, expected m = {self.m} rows")
            if self.b.shape[0] != self.m:
                raise ValidationError(f"b has length {self.b.shape[0]}, expected {self.m} (the rows of A)")
        elif self.c_fn is None or self.jac_fn is None:
            raise ValidationError("either (A, b) or (c_fn, jac_fn) must be given")

    @cached_property
    def AtA(self) -> np.ndarray:
        """A^T A, computed on first use (the Hessian of the penalty term)."""
        return self.A.T.dot(self.A)

    @cached_property
    def AtA_max_eig(self) -> float:
        """The largest eigenvalue of A^T A, rounded up to bound ||A||_2^2; computed on first use.

        ``eigvalsh`` is backward stable: its top value is the top eigenvalue of a
        symmetric matrix within about n*u*||G||_2 of G = A^T A (n the order of
        G, u = 2^-53), so the factor 1 + n*2^-52 = 1 + 2n*u lifts it above the
        top eigenvalue of G.  The rounding that forms G (at most gamma_m =
        m*u/(1 - m*u) times |A|^T |A| entry by entry, m the rows of A) is not
        covered in general; an error of that relative size is far inside the
        factor 2 between the gd-fixed step 1/L and the step 2/L at which a
        gradient step stops decreasing P.
        """
        G = self.AtA
        return float(np.linalg.eigvalsh(G)[-1]) * (1.0 + G.shape[0] * 2.0**-52)

    @property
    def is_linear(self) -> bool:
        return self.A is not None

    def c(self, x: np.ndarray) -> np.ndarray:
        if self.A is not None:
            return self.A.dot(x) - self.b
        return _shaped(self.c_fn(x), (self.m,), "constraint values have", "one per constraint")

    def jac(self, x: np.ndarray) -> np.ndarray:
        if self.A is not None:
            return self.A
        return _shaped(self.jac_fn(x), (self.m, x.shape[0]), "constraint Jacobian has",
                       "a row per constraint and a column per variable", rows=True)  # a 1-D J is one row

    def ineq_violation(self, c: np.ndarray) -> float:
        """max |min(c_ineq, 0)| for constraint values c; 0 without inequality rows."""
        return 0.0 - float(c[self.m_e:].min(initial=0.0))  # +0.0, not -0.0, when none is violated

    def primal_residuals(self, c: np.ndarray) -> tuple[float, float]:
        """(max |c_eq|, max |min(c_ineq, 0)|) for constraint values c; absent rows give 0."""
        return float(np.abs(c[:self.m_e]).max(initial=0.0)), self.ineq_violation(c)


@dataclass
class ProblemSpec:
    """A named problem: objective + constraints + feasible starting point.

    An x0 that is not numbers, or, with linear constraints, not as long as A has columns, raises ``ValidationError``.
    """

    name: str
    objective: ObjectiveOracle
    constraints: ConstraintSet
    x0: np.ndarray

    def __post_init__(self) -> None:
        self.x0 = _floats(self.x0, "x0 has", "an array of numbers").ravel()
        A = self.constraints.A
        if A is not None and self.x0.shape[0] != A.shape[1]:
            raise ValidationError(f"x0 has length {self.x0.shape[0]}, expected n = {A.shape[1]}")

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def feasibility_violation(self, x: np.ndarray, c: Optional[np.ndarray] = None) -> float:
        """max of equality residual and inequality violation at x, from c = c(x) where the caller holds it.

        NaN where c holds a NaN, else inf where it holds an infinity (min(c, 0) reads +inf as feasible).
        """
        if c is None:
            c = self.constraints.c(x)
        viol = float(np.maximum(*self.constraints.primal_residuals(c)))
        return viol if math.isnan(viol) or np.isfinite(c).all() else math.inf

    def check_feasible_start(self, c0: np.ndarray) -> None:
        """Raise ``ValidationError`` unless c0 = c(x0) is finite and puts x0 within FEASIBILITY_TOL of feasible.

        The one start check, which a solve and ``validate`` both run.
        """
        viol = self.feasibility_violation(self.x0, c0)
        if not math.isfinite(viol):
            raise ValidationError(f"{self.name}: starting point infeasible: c(x0) is not finite")
        if viol > FEASIBILITY_TOL:
            raise ValidationError(
                f"{self.name}: starting point infeasible (violation {viol:.3e})"
            )


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    detail: str = ""


@dataclass
class ValidationReport:
    problem: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sample_unit_ball(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    n = center.shape[0]
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    r = rng.random() ** (1.0 / n)
    return center + r * u


def finite_difference_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-6*max(1,|x_j|).

    For a scalar fn this is its gradient; for a vector fn, its Jacobian, whose
    column j differences fn along coordinate j (the Hessian, for fn = grad f).
    """
    def at(j, h):  # fn with x_j moved by h
        y = x.copy()
        y[j] += h
        return _floats(fn(y), "fn(x) has", "numbers")

    steps = [1e-6 * max(1.0, abs(v)) for v in x]
    return np.stack([(at(j, h) - at(j, -h)) / (2.0 * h) for j, h in enumerate(steps)], axis=-1)


def _sampled_check(name: str, errors: list, tol: float, detail: str) -> CheckResult:
    """The check ``name`` whose worst error, the largest of ``errors`` (0 for none), is at most tol.

    A NaN counts as the largest.  A failing check keeps ``detail``, formatted
    with the worst error and the index of its last axis: a coordinate or a column.
    """
    errors = np.asarray(errors)  # floats already: oracle outputs and norms
    worst = float(errors.max(initial=0.0))  # NaN where any error is NaN
    if worst <= tol:
        return CheckResult(name, True, worst)
    i = np.unravel_index(int(np.argmax(errors)), errors.shape)  # argmax finds a NaN first too
    return CheckResult(name, False, worst, detail.format(worst, i[-1]))


def validate(problem: ProblemSpec, samples: int = 10, seed: int = 0) -> ValidationReport:
    """Check start feasibility, the derivative oracles and the declared L1 and L2.

    The start must pass ``ProblemSpec.check_feasible_start``, the check a
    solve runs; its worst error is the violation at x0, NaN where c(x0) holds
    a NaN and inf where it holds an infinity.  The other checks sample
    ``samples`` random points in the unit ball around x0:

    * ``gradient_finite_difference``: each coordinate of grad f matches
      central finite differences of f with relative error at most 1e-6;
    * ``hessian_finite_difference``, for an objective with a Hessian oracle:
      each column of the Hessian matches central differences of grad f to
      the same tolerance;
    * ``jacobian_finite_difference``, for a callable constraint set: each
      column of J matches central differences of c to the same tolerance
      (a linear set's J is A);
    * ``gradient_lipschitz_secant``, where L1 is declared, and
      ``hessian_lipschitz_secant``, where an L2 is declared for an objective
      with a Hessian oracle, each only with two samples or more: over each
      pair (x, y) of consecutive sampled points, the secant
      ||D(x) - D(y)||_2 / ||x - y|| of the gradient or the Hessian D (its worst
      error) is at most the constant times 1 + 1e-6.  A larger one proves the
      constant wrong.

    A relative error of NaN, as where f or c is not finite at a differenced
    point, is the worst and fails its check.  Each failing check names where
    its worst error lies.  The oracles are read through ``ObjectiveOracle``
    and ``ConstraintSet``, so a wrong shape or type, or an f below ``f_low``, raises
    ``ValidationError``; so does a gradient, Hessian or J that is not finite
    at a sampled point.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    obj, cons = problem.objective, problem.constraints

    c0 = cons.c(problem.x0)
    try:
        problem.check_feasible_start(c0)
        detail = ""
    except ValidationError as exc:
        detail = str(exc)
    checks = [CheckResult("feasible_start", not detail, problem.feasibility_violation(problem.x0, c0), detail)]

    xs = [_sample_unit_ball(rng, problem.x0) for _ in range(samples)]
    # (check, oracle, the function it differences, its noun, the axis a worst error names)
    rows = [("gradient_finite_difference", obj.gradient, obj.value, "objective gradient", "coordinate")]
    if obj.has_hessian:
        rows.append(("hessian_finite_difference", obj.hessian, obj.gradient, "objective Hessian", "column"))
    if not cons.is_linear:  # a linear set's J is A
        rows.append(("jacobian_finite_difference", cons.jac, cons.c, "constraint Jacobian", "column"))
    at = {}  # each oracle's outputs at the sampled points, by its check
    with np.errstate(all="ignore"):  # a non-finite f or c, or an overflow, reads as an error, not a warning
        for name, oracle, fn, noun, axis in rows:
            at[name] = got = [oracle(x) for x in xs]
            if not np.isfinite(got).all():
                raise ValidationError(f"{problem.name}: the {noun} at a sampled point is not finite")
            rel = [np.abs(finite_difference_gradient(fn, x) - d) / np.maximum(1.0, np.abs(d))
                   for x, d in zip(xs, got)]
            checks.append(_sampled_check(name, rel, GRAD_CHECK_TOL,
                                         f"{noun.split()[1]} mismatch at {axis} {{1}}: rel error {{0:.3e}}"))
        # (check, the derivative's check above, its symbol, the name of its declared Lipschitz constant)
        for name, of, D, key in (("gradient_lipschitz_secant", "gradient_finite_difference", "g", "L1"),
                                 ("hessian_lipschitz_secant", "hessian_finite_difference", "H", "L2")):
            L = getattr(obj, key)
            if of in at and L is not None and samples > 1:  # one sample forms no pair
                secants = [np.linalg.norm(Dx - Dy, 2) / np.linalg.norm(x - y)
                           for x, y, Dx, Dy in zip(xs, xs[1:], at[of], at[of][1:])]
                checks.append(_sampled_check(name, secants, L * (1.0 + GRAD_CHECK_TOL),
                                             f"a secant ||{D}(x) - {D}(y)||/||x - y|| of {{0:.6g}} exceeds "
                                             f"the declared {key} = {L!r}"))

    return ValidationReport(problem.name, checks)


# ---------------------------------------------------------------------------
# Built-in corpus
# ---------------------------------------------------------------------------

_OMEGA = 4.0
_MIN_N, _MAX_N = 2, 64


def _check_n(n: int) -> None:
    if not (_MIN_N <= n <= _MAX_N):
        raise ValueError(f"corpus generators accept {_MIN_N} <= n <= {_MAX_N}, got {n}")


def _quadratic_cos_objective(n: int, omega: float = _OMEGA) -> ObjectiveOracle:
    # f(x) = 0.5*||x||^2 + sum_j cos(omega*x_j); nonconvex for omega^2 > 1.
    def fn(x):
        return 0.5 * float(x.dot(x)) + float(np.cos(omega * x).sum())

    def grad(x):
        return x - omega * np.sin(omega * x)

    def hess(x):
        return np.eye(n) - (omega * omega) * np.diag(np.cos(omega * x))

    return ObjectiveOracle(
        fn=fn,
        grad_fn=grad,
        hess_fn=hess,
        f_low=-float(n),
        L1=1.0 + omega * omega,
        L2=abs(omega * omega * omega),
    )


def _rosenbrock_objective(n: int) -> ObjectiveOracle:
    # Chained Rosenbrock; derivatives are Lipschitz only on bounded sets.
    def fn(x):
        return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())

    def grad(x):
        g = np.zeros_like(x)
        t = x[1:] - x[:-1] ** 2
        g[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess(x):
        H = np.zeros((n, n))
        d = np.zeros(n)
        d[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        d[1:] += 200.0
        off = -400.0 * x[:-1]
        H[np.arange(n), np.arange(n)] = d
        H[np.arange(n - 1), np.arange(1, n)] = off
        H[np.arange(1, n), np.arange(n - 1)] = off
        return H

    return ObjectiveOracle(
        fn=fn, grad_fn=grad, hess_fn=hess, f_low=0.0, local_lipschitz_only=True
    )


def _linear_problem(name: str, objective: ObjectiveOracle, A: np.ndarray, b, m_e: int, x0) -> ProblemSpec:
    """The problem under the rows c(x) = A x - b, the first m_e of them equalities."""
    return ProblemSpec(name, objective, ConstraintSet(m=len(A), m_e=m_e, A=A, b=b), x0)


def make_simplex_cos(n: int = 8) -> ProblemSpec:
    """Quadratic-plus-cosine objective on the unit simplex in standard form.

    Equality sum(x) = 1 followed by the coordinate rows x_i >= 0.
    """
    _check_n(n)
    A = np.vstack([np.ones((1, n)), np.eye(n)])
    b = np.concatenate([[1.0], np.zeros(n)])
    return _linear_problem(f"simplex-cos-{n}", _quadratic_cos_objective(n), A, b, 1, np.full(n, 1.0 / n))


def make_eq_cos(n: int = 8) -> ProblemSpec:
    """Quadratic-plus-cosine objective with the single equality sum(x) = 1."""
    _check_n(n)
    A, b = np.ones((1, n)), np.array([1.0])
    return _linear_problem(f"eq-cos-{n}", _quadratic_cos_objective(n), A, b, 1, np.full(n, 1.0 / n))


def make_eq_rosenbrock(n: int = 8) -> ProblemSpec:
    """Chained Rosenbrock with equality sum(x) = n; local-Lipschitz only."""
    _check_n(n)
    d = 0.2 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    d -= d.mean()  # keep the start on the constraint hyperplane
    A, b = np.ones((1, n)), np.array([float(n)])
    return _linear_problem(f"eq-rosenbrock-{n}", _rosenbrock_objective(n), A, b, 1, np.ones(n) + d)


def make_dup_eq(n: int = 8) -> ProblemSpec:
    """simplex-cos with the equality row duplicated: degenerate multipliers."""
    _check_n(n)
    A = np.vstack([np.ones((1, n)), np.ones((1, n)), np.eye(n)])
    b = np.concatenate([[1.0, 1.0], np.zeros(n)])
    return _linear_problem(f"dup-eq-{n}", _quadratic_cos_objective(n), A, b, 2, np.full(n, 1.0 / n))


def make_eq_qp_analytic() -> ProblemSpec:
    """Quadratic objective on a hyperplane with a closed-form KKT pair.

    min 0.5*||x||^2 s.t. sum(x) = 1 with n = 4: solution x = (1/4)*ones,
    multiplier 1/4.
    """
    n = 4

    def fn(x):
        return 0.5 * float(x.dot(x))

    def grad(x):
        return x.copy()

    def hess(x):
        return np.eye(n)

    obj = ObjectiveOracle(fn=fn, grad_fn=grad, hess_fn=hess, f_low=0.0, L1=1.0, L2=0.0)
    return _linear_problem("eq-qp-analytic", obj, np.ones((1, n)), np.array([1.0]), 1, np.full(n, 1.0 / n))


# each corpus family: a prefix ending in "-" takes the size n, as in simplex-cos-16;
# any other names one problem.  corpus() lists them in this order.
_FAMILIES = (
    ("simplex-cos-", make_simplex_cos),
    ("eq-cos-", make_eq_cos),
    ("eq-rosenbrock-", make_eq_rosenbrock),
    ("dup-eq-", make_dup_eq),
    ("eq-qp-analytic", make_eq_qp_analytic),
)


def corpus() -> list[ProblemSpec]:
    """One problem of each family; the sized families at their default n = 8."""
    return [maker() for _, maker in _FAMILIES]


def corpus_problem(name: str) -> ProblemSpec:
    """The named problem, built alone: a ``corpus()`` name, or a family name with its n like simplex-cos-16."""
    for prefix, maker in _FAMILIES:
        if not prefix.endswith("-"):
            if name == prefix:
                return maker()
        elif name.startswith(prefix):
            suffix = name[len(prefix):]
            try:
                n = int(suffix)
            except ValueError:
                break
            if str(n) != suffix:  # int() also takes "08", "+8", "1_6" and " 8"
                break
            return maker(n)
    raise ValidationError(f"unknown corpus problem {name!r}")


_PROBLEM_KEYS = ("name", "n", "objective", "A", "b", "m_e", "x0", "f_low", "L1", "L2")  # the required seven first


def _check_keys(data: dict, keys: tuple, required: tuple, where: str, prefix: str = "") -> None:
    """Raise ``ValidationError``, naming the key first, at a key of ``required`` or of ``data`` not in ``keys``."""
    for key in required:
        if key not in data:
            raise ValidationError(f"{prefix}{key} is missing")
    for key in data:
        if key not in keys:
            raise ValidationError(f"{prefix}{key} is unknown in {where}; accepted keys: {', '.join(keys)}")


def read_json_object(path: str, what: str, keys: tuple, required: tuple = ()) -> dict:
    """The JSON object in the file at ``path``, with each key of ``required`` and no key outside ``keys``.

    Else a ``ValidationError`` names ``what`` and the file, and first a missing or unknown key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # nested deeper than the decoder's recursion limit
            raise ValidationError(f"{what} {path} nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} holds a {type(data).__name__}, not a JSON object")
    _check_keys(data, keys, required, f"{what} {path}")
    return data


def load_problem(path: str) -> ProblemSpec:
    """Load a problem from a JSON file.

    Schema: {name, n, objective: {kind: "quadratic+cos"|"rosenbrock", omega?
    (quadratic+cos only)}, A: row-major nested array, b, m_e, x0, f_low?, L1?,
    L2?}; only the parametric objective kinds are loadable.  Raises ``ValidationError``
    naming the field when a key is not in the schema or a required one (name,
    n, objective, objective.kind, A, b, m_e, x0) is missing; when a field has the
    wrong JSON type (the file and objective are objects, name a non-empty
    string with no '/', '\\' or NUL, n and m_e integers,
    f_low, L1, L2 and omega single numbers, A, b and x0 regular arrays of
    numbers, and a bool or a string is never a number) or shape (A's size a
    multiple of n, b as long as A has rows, x0 of length n); or when a value
    is out of range (n >= 1, 0 <= m_e <= m, all finite, |omega|^3 finite, and
    L1, L2 >= 0 as ``ObjectiveOracle`` checks).
    """
    data = read_json_object(path, "problem file", _PROBLEM_KEYS, _PROBLEM_KEYS[:7])
    name = data["name"]  # the CLI's default report stem, so it must name a file in the working directory
    if not (isinstance(name, str) and name) or any(ch in name for ch in "/\\\0"):
        raise ValidationError(f"name = {name!r} must be a non-empty string without '/', '\\' or NUL")
    n = _integer(data["n"], "n")
    if n < 1:
        raise ValidationError(f"n = {n} must be at least 1")
    spec = data["objective"]
    if not isinstance(spec, dict):
        raise ValidationError(f"objective = {spec!r} must be a JSON object")
    kind = spec.get("kind")
    keys = ("kind", "omega") if kind == "quadratic+cos" else ("kind",)  # omega is quadratic+cos's frequency
    _check_keys(spec, keys, ("kind",), f"a {kind!r} objective of problem file {path}", "objective.")
    if kind == "quadratic+cos":
        omega = float(_finite(spec.get("omega", _OMEGA), "omega", scalar=True))
        if not math.isfinite(omega * omega * omega):  # L2 = |omega|^3, which ObjectiveOracle checks
            raise ValidationError(f"omega = {omega!r} is too large: |omega|^3 overflows")
        obj = _quadratic_cos_objective(n, omega=omega)
    elif kind == "rosenbrock":
        obj = _rosenbrock_objective(n)
    else:
        raise ValidationError(f"unsupported objective kind {kind!r}")
    obj = replace(obj, **{key: float(_finite(data[key], key, scalar=True))  # replace checks L1, L2 >= 0
                          for key in _PROBLEM_KEYS[7:] if data.get(key) is not None})
    A = _finite(data["A"], "A")
    if A.size % n != 0:
        raise ValidationError(f"A has {A.size} entries, not a multiple of n = {n}")
    A = A.reshape(-1, n)
    b = _finite(data["b"], "b")
    x0 = _finite(data["x0"], "x0")
    return _linear_problem(name, obj, A, b, _integer(data["m_e"], "m_e"), x0)  # checks m_e, b's and x0's lengths


def _integer(value, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field_name} = {value!r} must be an integer")
    return value


def _has_bool(value) -> bool:
    """True iff value is a bool or a list nesting one; ``_floats`` reads a bool as a number."""
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _finite(value, field_name: str, scalar: bool = False) -> np.ndarray:
    arr = _floats(value, f"{field_name} has", "a single number" if scalar else "an array of numbers")
    if _has_bool(value):  # checked after numpy has bounded the nesting depth
        raise ValidationError(f"{field_name} = {value!r} holds a bool, which is not a number")
    if scalar and arr.ndim != 0:
        raise ValidationError(f"{field_name} = {value!r} must be a single number")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{field_name} holds a non-finite value")
    return arr
