"""Closed-form outer-iteration bounds, sweeps, and certification verdicts.

The two bound formulas give thresholds T such that the feasibility statistic
theta is guaranteed to reach eps/2 within T outer iterations, in the
bounded-penalty and growing-penalty regimes respectively.  Natural
logarithms are used throughout.  Certification replays a finished run
against the matching bound computed from observed inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import core, inner, outer
from .problems import ProblemSpec
from .report import sweep_payload, write_json, write_sweep_csv

REGIME_BOUNDED = "BoundedSigma"
REGIME_GROWING = "GrowingSigma"

REASON_LOCAL_LIPSCHITZ = "objective derivatives are Lipschitz only on bounded sets"
REASON_BOUND_EXCEEDED = "outer iterations exceed the bound"
REASON_BOUND_INFINITE = "the bound is infinite, so no run can exceed it"

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
    # a count of gamma-contractions, so never below 0 (and no log of s = 0):
    # a threshold larger than the formula's is still a valid bound
    s = inputs.mu0_norm_sq + 4.0 * inputs.f0_gap
    if s == 0.0:
        return 0.0
    count = (0.5 * math.log(s) + math.log(2.0) + abs(math.log(inputs.eps))) / math.log(
        1.0 / inputs.gamma
    )
    return max(count, 0.0)


def bound_T_bounded(inputs: BoundInputs) -> float:
    """Outer-iteration threshold for the bounded-penalty regime.

    Any T strictly above this value has theta^(T) <= eps/2.
    """
    return inputs.sigma_max ** (1.0 / inputs.alpha) + 2.0 + _log_term(inputs)


def bound_T_unbounded(inputs: BoundInputs) -> float:
    """Outer-iteration threshold for the growing-penalty regime."""
    s4 = 4.0 * inputs.mu0_norm_sq + 16.0 * inputs.f0_gap
    try:
        power = s4 ** (1.0 / (inputs.alpha - 1.0)) * inputs.eps ** (-2.0 / (inputs.alpha - 1.0))
    except OverflowError:  # alpha near 1: an infinite threshold is a valid, if empty, bound
        power = math.inf
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
        # f accepts values down to 1e-12 below f_low, so the observed gap may be just below 0
        f0_gap=max(first.f - problem.objective.f_low, 0.0),
        gamma=report.config.gamma,
        alpha=report.config.alpha,
        eps=report.config.eps,
        sigma_max=max(st.sigma for st in report.trace),
    )


def certify_run(report: outer.RunReport, problem: ProblemSpec, config: outer.SolverConfig) -> Certification:
    """Check a finished run against the matching outer-iteration bound.

    Every input is read from ``report.config``; ``config`` must equal it.  The
    bounds assume globally Lipschitz derivatives, so a problem whose objective
    is ``local_lipschitz_only`` is never certified, and neither is a run whose
    bound is infinite (alpha near 1), which bounds nothing; the bound is still reported.
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

    bound = (bound_T_bounded if regime == REGIME_BOUNDED else bound_T_unbounded)(inputs)
    # theta <= eps/2 at every T above the bound, so theta > eps/2 up to T = prefix needs prefix < bound
    certified = prefix < bound
    reason = "" if certified else REASON_BOUND_EXCEEDED
    if bound == math.inf:
        certified, reason = False, REASON_BOUND_INFINITE
    if problem.objective.local_lipschitz_only:
        certified, reason = False, REASON_LOCAL_LIPSCHITZ
    return Certification(bound, certified, regime, first_ok, prefix, reason)


@dataclass
class SweepRow:
    # The counts are those of the row's own run: rows share their first inner
    # descent, but each counts it as a solve at its eps alone would.
    eps: float
    T_outer: int
    total_inner: int
    total_oracle_calls: int
    sigma_final: float
    bound_T: float
    certified: bool
    failed: bool = False
    error: str = ""
    terminated: str = ""  # the run's termination status; empty when the solve failed
    reason: str = ""  # Certification.reason: why certified is False


@dataclass
class SweepResult:
    problem: str
    rows: list[SweepRow]

    def successful(self) -> list[SweepRow]:
        return [r for r in self.rows if not r.failed]

    def save_csv(self, path: str) -> None:
        write_sweep_csv(path, self)

    def save_json(self, path: str, fits: Optional[dict] = None) -> None:
        write_json(path, sweep_payload(self, fits))


def _solve_row(
    problem: ProblemSpec, config: outer.SolverConfig, first: Optional[inner.InnerResult] = None
) -> SweepRow:
    """One sweep row, marked failed when the solve fails or certification refuses it.

    ``first`` is the run's k = 0 inner result, when already computed.  A run
    that certification refuses keeps its own counts and status in the row.
    A ``core.ImplementationError`` (a strict-monitor violation, a P form
    disagreement or an evaluation mismatch) is not a row failure: it
    propagates and ends the sweep.
    """
    nan = float("nan")
    row = SweepRow(eps=config.eps, T_outer=0, total_inner=0, total_oracle_calls=0,
                   sigma_final=nan, bound_T=nan, certified=False)
    try:  # row-level isolation; the sweep continues
        report = outer.solve(problem, config, _first=first)
        row = replace(row, T_outer=report.T_outer, total_inner=report.total_inner,
                      total_oracle_calls=report.total_oracle_calls,
                      sigma_final=report.trace[-1].sigma, terminated=report.terminated)
        cert = certify_run(report, problem, config)
    except core.ImplementationError:
        raise
    except Exception as exc:
        return replace(row, failed=True, error=str(exc))
    return replace(row, bound_T=cert.bound_T, certified=cert.certified, reason=cert.reason)


def sweep(
    problem: ProblemSpec,
    base_config: outer.SolverConfig,
    eps_grid: Sequence[float],
) -> SweepResult:
    """One certified solve per eps; rows are ordered by descending eps.

    Every row's first inner solve minimizes the same P(., 0, sigma0) from x0
    and differs only in its stop tolerance, so one descent to the smallest
    eps serves them all (``outer.first_inner_results``).  Each row still
    holds the report of its solve alone, with the counts of that run.  The
    sweep's f evaluations are the rows' counts summed, less the k = 0 inner
    calls of every row but the last, plus one at x0 for the descent's start.
    If that descent raises, every row solves alone and meets the failure itself.
    """
    if len(eps_grid) == 0:
        raise ValueError("eps_grid must be nonempty")
    # every config is checked before the first solve
    configs = [replace(base_config, eps=e) for e in sorted(eps_grid, reverse=True)]
    try:
        firsts = outer.first_inner_results(problem, base_config, [c.eps for c in configs])
    except core.ImplementationError:  # a bug, as in ``_solve_row``: it ends the sweep
        raise
    except Exception:  # each row then solves alone and fails as it would
        firsts = None
    firsts = firsts or [None] * len(configs)
    rows = [_solve_row(problem, c, first) for c, first in zip(configs, firsts)]
    return SweepResult(problem=problem.name, rows=rows)


def fit_growth(result: SweepResult, model: str):
    """Least-squares growth-law fit over the successful sweep rows.

    LogLinear regresses T_outer on |log eps|; PowerLaw regresses log
    total_inner on log(1/eps), so it is undefined when a row has no inner
    iteration.  Returns (coefficient, exponent_or_slope, r_squared); raises
    ValueError, saying why, when the fit is undefined.
    """
    rows = result.successful()
    if len(rows) < 3:
        raise ValueError("need at least 3 successful rows to fit")
    if model == LOG_LINEAR:
        x = np.array([abs(math.log(r.eps)) for r in rows])
        y = np.array([float(r.T_outer) for r in rows])
    elif model == POWER_LAW:
        idle = [r.eps for r in rows if r.total_inner <= 0]
        if idle:
            raise ValueError(
                f"PowerLaw takes log(total_inner), and the rows at eps {idle} ran no inner iteration"
            )
        x = np.array([math.log(1.0 / r.eps) for r in rows])
        y = np.array([math.log(float(r.total_inner)) for r in rows])
    else:
        raise ValueError(f"unknown fit model {model!r}")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate design: all eps values equal")
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    coeff = intercept if model == LOG_LINEAR else math.exp(intercept)
    return float(coeff), float(slope), float(r2)
