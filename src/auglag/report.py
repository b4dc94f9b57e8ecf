"""Report layouts: the run and sweep reports in JSON and CSV, and a sweep's fits.

Each table's columns are spelled once.  The module imports no other ``auglag``
module: it reads runs, sweeps and their states by attribute.
"""
import csv
import json
from dataclasses import asdict

TRACE_COLUMNS = ("k", "f", "theta", "sigma", "mu_norm_sq", "inner_iters", "oracle_calls",
                 "dual_inf", "primal_eq", "primal_ineq")
SWEEP_COLUMNS = ("eps", "T_outer", "total_inner", "total_oracle_calls", "sigma_final", "bound_T", "certified")
FIT_KEYS = ("coefficient", "exponent_or_slope", "r_squared")


def write_json(path: str, payload: dict) -> None:
    """The one JSON layout of every report: compact (so the C encoder), sorted keys, final newline, one write."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, columns, rows) -> None:
    """Header plus one line per row; each row lists values in column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _trace_row(st) -> tuple:
    """An ``outer.OuterState``'s values in ``TRACE_COLUMNS`` order; no inner solve led to k = 0."""
    stats, kkt = st.inner_stats, st.kkt
    return (st.k, st.f, st.theta, st.sigma, st.mu_norm_sq, stats.iterations if stats else 0,
            stats.oracle_calls if stats else 0, kkt.dual_inf, kkt.primal_eq, kkt.primal_ineq)


def run_payload(run, config_keys) -> dict:
    """An ``outer.RunReport``'s JSON payload, recording the config fields ``config_keys``."""
    return {
        "problem": run.problem,
        "config": {key: getattr(run.config, key) for key in config_keys},
        "terminated": run.terminated,
        "T_outer": run.T_outer,
        "total_inner": run.total_inner,
        "total_oracle_calls": run.total_oracle_calls,
        "x_final": run.x_final.tolist(),
        "lambda_final": run.lambda_final.tolist(),
        "kkt": asdict(run.kkt),
        "trace": [dict(zip(TRACE_COLUMNS, _trace_row(st))) for st in run.trace],
        "monitor_log": [
            {"iteration": e.iteration, "check": e.check, "lhs": e.lhs, "rhs": e.rhs, "pass": e.passed}
            for e in run.monitor_log
        ],
    }


def write_run_csv(path: str, run) -> None:
    """One row per outer state; theta is None at k = 0 and is written as an empty field."""
    _write_csv(path, TRACE_COLUMNS, map(_trace_row, run.trace))


def sweep_payload(result, fits=None) -> dict:
    """A ``complexity.SweepResult``'s JSON payload: every row, failed ones too, then any fits."""
    payload = {"problem": result.problem, "rows": [asdict(r) for r in result.rows]}
    if fits:
        payload["fits"] = fits
    return payload


def write_sweep_csv(path: str, result) -> None:
    """Successful rows only; failed rows appear in the JSON alone."""
    rows = ([getattr(r, col) for col in SWEEP_COLUMNS] for r in result.successful())
    _write_csv(path, SWEEP_COLUMNS, rows)


def fit_entry(fit) -> dict:
    """A sweep report's entry for one fit, from ``complexity.fit_growth``'s triple."""
    return dict(zip(FIT_KEYS, fit))
