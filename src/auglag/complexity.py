"""Closed-form outer-iteration bounds, sweeps, and certification verdicts.

The two bound formulas give thresholds T such that the feasibility statistic
theta is guaranteed to reach eps/2 within T outer iterations, in the
bounded-penalty and growing-penalty regimes respectively.  Natural
logarithms are used throughout.  Certification replays a finished run
against the matching bound computed from observed inputs.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import core, outer
from .outer import _write_csv, _write_json
from .problems import ProblemSpec

REGIME_BOUNDED = "BoundedSigma"
REGIME_GROWING = "GrowingSigma"

REASON_LOCAL_LIPSCHITZ = "objective derivatives are Lipschitz only on bounded sets"
REASON_BOUND_EXCEEDED = "outer iterations exceed the bound"
REASON_GEOMETRIC_GROWTH = (
    "sigma grew geometrically, not on the (k+1)^alpha schedule the growing-penalty bound assumes"
)

LOG_LINEAR = "LogLinear"
POWER_LAW = "PowerLaw"


@dataclass
class BoundInputs:
    mu0_norm_sq: float
    f0_gap: float
    gamma: float
    alpha: float
    eps: float
    sigma_max: float = 1.0

    def __post_init__(self) -> None:
        if self.f0_gap < 0.0:
            raise ValueError("f0_gap must be nonnegative")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0,1)")


def _log_term(inputs: BoundInputs) -> float:
    s = inputs.mu0_norm_sq + 4.0 * inputs.f0_gap
    return (0.5 * math.log(s) + math.log(2.0) + abs(math.log(inputs.eps))) / math.log(
        1.0 / inputs.gamma
    )


def bound_T_bounded(inputs: BoundInputs) -> float:
    """Outer-iteration threshold for the bounded-penalty regime.

    Any T strictly above this value has theta^(T) <= eps/2.
    """
    return inputs.sigma_max ** (1.0 / inputs.alpha) + 2.0 + _log_term(inputs)


def bound_T_unbounded(inputs: BoundInputs) -> float:
    """Outer-iteration threshold for the growing-penalty regime."""
    s4 = 4.0 * inputs.mu0_norm_sq + 16.0 * inputs.f0_gap
    power = s4 ** (1.0 / (inputs.alpha - 1.0)) * inputs.eps ** (-2.0 / (inputs.alpha - 1.0))
    return 4.0 + power + _log_term(inputs)


@dataclass
class Certification:
    bound_T: float
    certified: bool
    regime: str
    first_theta_ok: Optional[int]  # first k >= 1 with theta^(k) <= eps/2
    exceedance_prefix: int  # largest T with theta^(k) > eps/2 for all k = 1..T
    reason: str = ""  # why certified is False; empty when it is True


def _bound_inputs_from(report: outer.RunReport, problem: ProblemSpec) -> BoundInputs:
    first = report.trace[0]
    return BoundInputs(
        mu0_norm_sq=first.mu_norm_sq,
        f0_gap=first.f - problem.objective.f_low,
        gamma=report.config.gamma,
        alpha=report.config.alpha,
        eps=report.config.eps,
        sigma_max=max(st.sigma for st in report.trace),
    )


def certify_run(report: outer.RunReport, problem: ProblemSpec, config: outer.SolverConfig) -> Certification:
    """Check a finished run against the matching outer-iteration bound.

    Every input is read from ``report.config``; ``config`` must equal it.  The
    bounds assume globally Lipschitz derivatives, so a problem whose objective
    is ``local_lipschitz_only`` is never certified; its bound is still reported.
    Nor is a ``geometric`` run in which sigma grew: the growing-penalty bound
    assumes sigma_k = (k+1)^alpha, not 4^(k+1).  A geometric run whose sigma
    never grew is certified as any other, since the schedule played no part.
    """
    if config != report.config:
        raise ValueError("config differs from the config the report was produced with")
    if report.terminated != outer.TERMINATED_KKT:
        raise ValueError(f"cannot certify a run terminated {report.terminated!r}")
    inputs = _bound_inputs_from(report, problem)
    sigma0 = report.trace[0].sigma
    grew = any(st.sigma > sigma0 for st in report.trace[1:])
    regime = REGIME_GROWING if grew else REGIME_BOUNDED

    half = report.config.eps / 2.0
    first_ok: Optional[int] = None
    for st in report.trace[1:]:
        if st.theta is not None and st.theta <= half:
            first_ok = st.k
            break
    prefix = (first_ok - 1) if first_ok is not None else report.T_outer

    if regime == REGIME_BOUNDED:
        bound = bound_T_bounded(inputs)
        if first_ok is not None:
            certified = first_ok <= math.ceil(bound)
        else:
            certified = report.T_outer <= math.ceil(bound)
    else:
        bound = bound_T_unbounded(inputs)
        certified = prefix < bound
    reason = "" if certified else REASON_BOUND_EXCEEDED
    if regime == REGIME_GROWING and report.config.penalty_policy == core.GEOMETRIC_GROWTH:
        certified, reason = False, REASON_GEOMETRIC_GROWTH
    if problem.objective.local_lipschitz_only:
        certified, reason = False, REASON_LOCAL_LIPSCHITZ
    return Certification(bound, certified, regime, first_ok, prefix, reason)


@dataclass
class SweepRow:
    eps: float
    T_outer: int
    total_inner: int
    total_oracle_calls: int
    sigma_final: float
    bound_T: float
    certified: bool
    failed: bool = False
    error: str = ""


@dataclass
class SweepResult:
    problem: str
    rows: list[SweepRow]

    def successful(self) -> list[SweepRow]:
        return [r for r in self.rows if not r.failed]

    CSV_COLUMNS = (
        "eps,T_outer,total_inner,total_oracle_calls,sigma_final,bound_T,certified"
    ).split(",")

    def save_csv(self, path: str) -> None:
        """Successful rows only; failed rows appear in the JSON alone."""
        rows = ([getattr(r, col) for col in self.CSV_COLUMNS] for r in self.successful())
        _write_csv(path, self.CSV_COLUMNS, rows)

    def save_json(self, path: str, fits: Optional[dict] = None) -> None:
        payload = {"problem": self.problem, "rows": [asdict(r) for r in self.rows]}
        if fits:
            payload["fits"] = fits
        _write_json(path, payload)


def _solve_row(problem: ProblemSpec, config: outer.SolverConfig) -> SweepRow:
    """One sweep row, marked failed when the solve fails or certification refuses it.

    A run that certification refuses keeps its own counts in the row.  A
    strict-monitor violation or a P form disagreement is an implementation
    bug, not a row failure: it propagates and ends the sweep.
    """
    nan = float("nan")
    row = SweepRow(eps=config.eps, T_outer=0, total_inner=0, total_oracle_calls=0,
                   sigma_final=nan, bound_T=nan, certified=False)
    try:  # row-level isolation; the sweep continues
        report = outer.solve(problem, config)
        row = replace(row, T_outer=report.T_outer, total_inner=report.total_inner,
                      total_oracle_calls=report.total_oracle_calls,
                      sigma_final=report.trace[-1].sigma)
        cert = certify_run(report, problem, config)
    except (outer.MonitorViolation, core.FormDisagreementError):
        raise
    except Exception as exc:
        return replace(row, failed=True, error=str(exc))
    return replace(row, bound_T=cert.bound_T, certified=cert.certified)


def sweep(
    problem: ProblemSpec,
    base_config: outer.SolverConfig,
    eps_grid: Sequence[float],
) -> SweepResult:
    """One certified solve per eps; rows are ordered by descending eps."""
    if len(eps_grid) == 0:
        raise ValueError("eps_grid must be nonempty")
    # every config is checked before the first solve
    configs = [replace(base_config, eps=e) for e in sorted(eps_grid, reverse=True)]
    return SweepResult(problem=problem.name, rows=[_solve_row(problem, c) for c in configs])


def fit_growth(result: SweepResult, model: str):
    """Least-squares growth-law fit over the successful sweep rows.

    LogLinear regresses T_outer on |log eps|; PowerLaw regresses log
    total_inner on log(1/eps).  Returns (coefficient, exponent_or_slope,
    r_squared).
    """
    rows = result.successful()
    if len(rows) < 3:
        raise ValueError("need at least 3 successful rows to fit")
    if model == LOG_LINEAR:
        x = np.array([abs(math.log(r.eps)) for r in rows])
        y = np.array([float(r.T_outer) for r in rows])
    elif model == POWER_LAW:
        x = np.array([math.log(1.0 / r.eps) for r in rows])
        y = np.array([math.log(float(r.total_inner)) for r in rows])
    else:
        raise ValueError(f"unknown fit model {model!r}")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate design: all eps values equal")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    coeff = intercept if model == LOG_LINEAR else math.exp(intercept)
    return float(coeff), float(slope), float(r2)
