"""Problem definitions, validation, and the built-in nonconvex test corpus.

A problem bundles an objective oracle (value / gradient / optional Hessian,
plus a finite lower bound and Lipschitz metadata), a constraint set (linear
rows or general differentiable constraints, equalities first), and a feasible
starting point.  All oracles are pure functions of ``x`` and a problem may be
shared read-only across concurrent solver runs.

Every bad input raises a ``ValidationError``, a ``ValueError``.  The oracles
check shapes and ``f_low``, not finiteness, which the outer loop checks once
at x0 and the inner solvers after.  This module imports no other ``auglag`` module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

FEASIBILITY_TOL = 1e-10
GRAD_CHECK_TOL = 1e-6


class ValidationError(ValueError):
    """A problem failed a hard validation check (infeasible start, bad oracle): a usage error."""


class ObjectiveBelowBound(ValidationError):
    """The objective returned a value below its declared lower bound (-inf among them)."""


@dataclass
class ObjectiveOracle:
    """Smooth objective with value/gradient (and optional Hessian) oracles.

    ``f_low`` must be a valid lower bound for the objective over all of R^n;
    it enters the complexity bounds, so an optimistic value here invalidates
    certification.  ``L1``/``L2`` are global Lipschitz constants of the
    gradient / Hessian when known; ``local_lipschitz_only`` marks objectives
    whose derivatives are Lipschitz only on bounded sets (such problems are
    excluded from bound certification).  ``value`` raises
    ``ObjectiveBelowBound`` below ``f_low``, and ``gradient`` raises
    ``ValidationError`` when ``grad_fn`` returns an array whose shape is not
    x's, (n,); a NaN or infinity otherwise passes through unchanged.
    """

    fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    f_low: float
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    L1: Optional[float] = None
    L2: Optional[float] = None
    local_lipschitz_only: bool = False

    def value(self, x: np.ndarray) -> float:
        v = float(self.fn(x))
        if v < self.f_low - 1e-12 * max(1.0, abs(self.f_low)):
            raise ObjectiveBelowBound(
                f"objective value {v} violates declared lower bound {self.f_low}"
            )
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.grad_fn(x), dtype=float)
        if g.shape != x.shape:
            raise ValidationError(
                f"objective gradient has shape {g.shape}; expected {x.shape}, the shape of x"
            )
        return g

    def hessian(self, x: np.ndarray) -> np.ndarray:
        if self.hess_fn is None:
            raise ValueError("no Hessian oracle available for this objective")
        return np.asarray(self.hess_fn(x), dtype=float)

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
    afterwards.
    """

    m: int
    m_e: int
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    c_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if not (0 <= self.m_e <= self.m):
            raise ValueError(f"need 0 <= m_e <= m, got m_e={self.m_e}, m={self.m}")
        if self.A is not None:
            self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
            self.b = np.asarray(self.b, dtype=float).ravel()
            if self.A.shape[0] != self.m or self.b.shape[0] != self.m:
                raise ValueError("A/b shapes inconsistent with m")
        elif self.c_fn is None or self.jac_fn is None:
            raise ValueError("either (A, b) or (c_fn, jac_fn) must be given")

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
        if self.is_linear:
            return self.A.dot(x) - self.b
        c = np.asarray(self.c_fn(x), dtype=float)
        if c.shape != (self.m,):
            raise ValidationError(
                f"constraint values have shape {c.shape}; expected {(self.m,)}, one per constraint"
            )
        return c

    def jac(self, x: np.ndarray) -> np.ndarray:
        if self.is_linear:
            return self.A
        J = np.atleast_2d(np.asarray(self.jac_fn(x), dtype=float))
        if J.shape != (self.m, x.shape[0]):
            raise ValidationError(
                f"constraint Jacobian has shape {J.shape}; expected {(self.m, x.shape[0])}, "
                "a row per constraint and a column per variable"
            )
        return J

    def ineq_violation(self, c: np.ndarray) -> float:
        """max |min(c_ineq, 0)| for constraint values c; 0 without inequality rows."""
        return 0.0 - float(c[self.m_e:].min(initial=0.0))  # +0.0, not -0.0, when none is violated

    def primal_residuals(self, c: np.ndarray) -> tuple[float, float]:
        """(max |c_eq|, max |min(c_ineq, 0)|) for constraint values c; absent rows give 0."""
        return float(np.abs(c[:self.m_e]).max(initial=0.0)), self.ineq_violation(c)


@dataclass
class ProblemSpec:
    """A named problem: objective + constraints + feasible starting point."""

    name: str
    objective: ObjectiveOracle
    constraints: ConstraintSet
    x0: np.ndarray

    def __post_init__(self) -> None:
        self.x0 = np.asarray(self.x0, dtype=float).ravel()

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def feasibility_violation(self, x: np.ndarray) -> float:
        """max of equality residual and inequality violation at x; NaN if c(x) holds one (Python's max can drop it)."""
        return float(np.maximum(*self.constraints.primal_residuals(self.constraints.c(x))))

    def check_feasible_start(self, c0: np.ndarray) -> None:
        """Raise ``ValidationError`` unless c0 = c(x0) is finite and puts x0 within FEASIBILITY_TOL of feasible.

        The one start check, which a solve and ``validate`` both run.  Finiteness
        comes first: min(c, 0) reads +inf on an inequality row as feasible.
        """
        if not np.isfinite(c0).all():
            raise ValidationError(f"{self.name}: starting point infeasible: c(x0) is not finite")
        viol = float(np.maximum(*self.constraints.primal_residuals(c0)))
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
    columns = []
    for j in range(x.shape[0]):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2.0 * h))
    return np.stack(columns, axis=-1)


def _worst_entry(got: np.ndarray, fd: np.ndarray) -> tuple[float, int]:
    """(largest |fd - got| / max(1, |got|), the index of its last axis): a coordinate or a column."""
    rel = np.abs(fd - got) / np.maximum(1.0, np.abs(got))
    i = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return float(rel[i]), int(i[-1])


def _sampled_check(name: str, worst: float, tol: float, detail: str) -> CheckResult:
    """The check ``name`` whose worst error over the samples is ``worst``, passing at or below tol."""
    ok = worst <= tol
    return CheckResult(name, ok, worst, "" if ok else detail)


def validate(problem: ProblemSpec, samples: int = 10, seed: int = 0) -> ValidationReport:
    """Check start feasibility, the objective's derivatives and its declared L2.

    The start must pass ``ProblemSpec.check_feasible_start``, the check a
    solve runs; its worst error is the violation at x0, NaN where c(x0) holds
    a NaN and inf where it holds an infinity.  The other checks sample
    ``samples`` random points in the unit ball around x0:

    * ``gradient_finite_difference``: each coordinate of grad f matches
      central finite differences of f with relative error at most 1e-6;
    * ``hessian_finite_difference``, for an objective with a Hessian oracle:
      each column of the Hessian matches central differences of grad f to
      the same tolerance;
    * ``hessian_lipschitz_secant``, where an L2 is declared too: over each
      pair (x, y) of consecutive sampled points, the secant ||H(x) - H(y)||_2 /
      ||x - y|| (its worst error) is at most L2 (1 + 1e-6).  A larger one
      proves L2 wrong.

    Each failing check names where its worst error lies.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    c0 = problem.constraints.c(problem.x0)
    try:
        problem.check_feasible_start(c0)
        detail = ""
    except ValidationError as exc:
        detail = str(exc)
    viol = problem.feasibility_violation(problem.x0)  # NaN where c(x0) holds a NaN
    if np.isinf(c0).any() and not math.isnan(viol):  # min(c, 0) reads +inf on an inequality row as 0
        viol = math.inf
    checks.append(CheckResult("feasible_start", not detail, viol, detail))

    obj = problem.objective
    sampled = []  # (x, H(x)) at each sampled point, where the objective has a Hessian oracle
    grad_worst = hess_worst = (0.0, 0)
    for _ in range(samples):
        x = _sample_unit_ball(rng, problem.x0)
        g = obj.gradient(x)
        if not np.isfinite(g).all():
            raise ValidationError(f"{problem.name}: the objective gradient at a sampled point is not finite")
        grad_worst = max(grad_worst, _worst_entry(g, finite_difference_gradient(obj.fn, x)))
        if obj.has_hessian:
            H = obj.hessian(x)
            if not np.isfinite(H).all():
                raise ValidationError(f"{problem.name}: the objective Hessian at a sampled point is not finite")
            hess_worst = max(hess_worst, _worst_entry(H, finite_difference_gradient(obj.gradient, x)))
            sampled.append((x, H))
    rel, j = grad_worst
    checks.append(_sampled_check("gradient_finite_difference", rel, GRAD_CHECK_TOL,
                                 f"gradient mismatch at coordinate {j}: rel error {rel:.3e}"))
    if obj.has_hessian:
        rel, j = hess_worst
        checks.append(_sampled_check("hessian_finite_difference", rel, GRAD_CHECK_TOL,
                                     f"Hessian mismatch at column {j}: rel error {rel:.3e}"))
    if obj.has_hessian and obj.L2 is not None:
        secant = max((float(np.linalg.norm(Hx - Hy, 2) / np.linalg.norm(x - y))
                      for (x, Hx), (y, Hy) in zip(sampled, sampled[1:])), default=0.0)
        checks.append(_sampled_check("hessian_lipschitz_secant", secant, obj.L2 * (1.0 + GRAD_CHECK_TOL),
                                     f"a secant ||H(x) - H(y)||/||x - y|| of {secant:.6g} exceeds "
                                     f"the declared L2 = {obj.L2!r}"))

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
        L2=abs(omega * omega * omega),  # inf, not OverflowError, for a huge omega
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


def make_simplex_cos(n: int = 8) -> ProblemSpec:
    """Quadratic-plus-cosine objective on the unit simplex in standard form.

    Equality sum(x) = 1 followed by the coordinate rows x_i >= 0.
    """
    _check_n(n)
    A = np.vstack([np.ones((1, n)), np.eye(n)])
    b = np.concatenate([[1.0], np.zeros(n)])
    return ProblemSpec(
        name=f"simplex-cos-{n}",
        objective=_quadratic_cos_objective(n),
        constraints=ConstraintSet(m=n + 1, m_e=1, A=A, b=b),
        x0=np.full(n, 1.0 / n),
    )


def make_eq_cos(n: int = 8) -> ProblemSpec:
    """Quadratic-plus-cosine objective with the single equality sum(x) = 1."""
    _check_n(n)
    return ProblemSpec(
        name=f"eq-cos-{n}",
        objective=_quadratic_cos_objective(n),
        constraints=ConstraintSet(m=1, m_e=1, A=np.ones((1, n)), b=np.array([1.0])),
        x0=np.full(n, 1.0 / n),
    )


def make_eq_rosenbrock(n: int = 8) -> ProblemSpec:
    """Chained Rosenbrock with equality sum(x) = n; local-Lipschitz only."""
    _check_n(n)
    d = 0.2 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    d -= d.mean()  # keep the start on the constraint hyperplane
    return ProblemSpec(
        name=f"eq-rosenbrock-{n}",
        objective=_rosenbrock_objective(n),
        constraints=ConstraintSet(m=1, m_e=1, A=np.ones((1, n)), b=np.array([float(n)])),
        x0=np.ones(n) + d,
    )


def make_dup_eq(n: int = 8) -> ProblemSpec:
    """simplex-cos with the equality row duplicated: degenerate multipliers."""
    _check_n(n)
    A = np.vstack([np.ones((1, n)), np.ones((1, n)), np.eye(n)])
    b = np.concatenate([[1.0, 1.0], np.zeros(n)])
    return ProblemSpec(
        name=f"dup-eq-{n}",
        objective=_quadratic_cos_objective(n),
        constraints=ConstraintSet(m=n + 2, m_e=2, A=A, b=b),
        x0=np.full(n, 1.0 / n),
    )


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
    return ProblemSpec(
        name="eq-qp-analytic",
        objective=obj,
        constraints=ConstraintSet(m=1, m_e=1, A=np.ones((1, n)), b=np.array([1.0])),
        x0=np.full(n, 1.0 / n),
    )


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
            try:
                n = int(name[len(prefix):])
            except ValueError:
                break
            return maker(n)
    raise ValidationError(f"unknown corpus problem {name!r}")


def load_problem(path: str) -> ProblemSpec:
    """Load a problem from a JSON file.

    Schema: {name, n, objective: {kind: "quadratic+cos"|"rosenbrock",
    omega?}, A: row-major nested array, b, m_e, x0, f_low?, L1?, L2?}.
    Only the parametric objective kinds are loadable.  Raises
    ``ValidationError`` naming the field when a required field (name, n,
    objective, objective.kind, A, b, m_e, x0) is missing; when a field has the
    wrong JSON type (the file and objective are objects, name a non-empty
    string with no '/', '\\' or NUL, n and m_e integers,
    f_low, L1, L2 and omega single numbers, A, b and x0 regular arrays of
    numbers, and a bool or a string is never a number) or shape (A's size a
    multiple of n, b as long as A has rows, x0 of length n); or when a value
    is out of range (n >= 1, 0 <= m_e <= m, L1, L2 >= 0, all finite, and
    |omega|^3 finite).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # nested deeper than the decoder's recursion limit
            raise ValidationError(f"problem file {path} nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValidationError(f"problem file {path} holds a {type(data).__name__}, not an object")
    for key in ("name", "n", "objective", "A", "b", "m_e", "x0"):
        if key not in data:
            raise ValidationError(f"{key} is missing")
    name = data["name"]  # the CLI's default report stem, so it must name a file in the working directory
    if not (isinstance(name, str) and name) or any(ch in name for ch in "/\\\0"):
        raise ValidationError(f"name = {name!r} must be a non-empty string without '/', '\\' or NUL")
    n = _integer(data["n"], "n")
    if n < 1:
        raise ValidationError(f"n = {n} must be at least 1")
    spec = data["objective"]
    if not isinstance(spec, dict):
        raise ValidationError(f"objective = {spec!r} must be a JSON object")
    if "kind" not in spec:
        raise ValidationError("objective.kind is missing")
    kind = spec["kind"]
    if kind == "quadratic+cos":
        omega = float(_finite(spec.get("omega", _OMEGA), "omega", scalar=True))
        obj = _quadratic_cos_objective(n, omega=omega)
        if not math.isfinite(obj.L2):
            raise ValidationError(f"omega = {omega!r} is too large: |omega|^3 overflows")
    elif kind == "rosenbrock":
        obj = _rosenbrock_objective(n)
    else:
        raise ValidationError(f"unsupported objective kind {kind!r}")
    for key in ("f_low", "L1", "L2"):
        if key in data and data[key] is not None:
            value = float(_finite(data[key], key, scalar=True))
            if key != "f_low" and value < 0.0:
                raise ValidationError(f"{key} = {value} must be nonnegative")
            setattr(obj, key, value)
    A = _finite(data["A"], "A")
    if A.size % n != 0:
        raise ValidationError(f"A has {A.size} entries, not a multiple of n = {n}")
    A = A.reshape(-1, n)
    b = _finite(data["b"], "b").ravel()
    if b.shape[0] != A.shape[0]:
        raise ValidationError(f"b has length {b.shape[0]}, expected {A.shape[0]} (the rows of A)")
    x0 = _finite(data["x0"], "x0").ravel()
    if x0.shape[0] != n:
        raise ValidationError(f"x0 has length {x0.shape[0]}, expected n = {n}")
    m_e = _integer(data["m_e"], "m_e")
    if not (0 <= m_e <= A.shape[0]):
        raise ValidationError(f"m_e = {m_e} lies outside [0, m] with m = {A.shape[0]}")
    cons = ConstraintSet(m=A.shape[0], m_e=m_e, A=A, b=b)
    return ProblemSpec(name=name, objective=obj, constraints=cons, x0=x0)


def _integer(value, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field_name} = {value!r} must be an integer")
    return value


def _numbers(value) -> bool:
    """True iff value is a JSON number (not a bool) or a list nesting only numbers."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return type(value) in (int, float)  # a bool is an int subclass, not a JSON number


def _finite(value, field_name: str, scalar: bool = False) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{field_name} is not a regular numeric array: {exc}") from exc
    # checked after numpy has bounded the nesting depth
    if not _numbers(value):
        raise ValidationError(f"{field_name} = {value!r} must hold only JSON numbers")
    if scalar and arr.ndim != 0:
        raise ValidationError(f"{field_name} = {value!r} must be a single number")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{field_name} holds a non-finite value")
    return arr
