"""Command-line front end: solve, sweep, check, list-problems.

Exit status: 0 success, 1 solver failure, 2 usage error, 3 strict-monitor
violation.  Diagnostics go to stderr; numerical data goes to the output
files, and the console summary only echoes values present in the report.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import complexity, core, inner, outer, problems

log = logging.getLogger("auglag")

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2
EXIT_MONITOR = 3

# keys a --config file may set, with the JSON type each value must have
_CONFIG_KEYS = {
    "eps": float, "alpha": float, "gamma": float, "sigma0": float,
    "penalty_policy": str, "inner": str, "max_outer": int, "monitor": str,
}


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}.get(
        os.environ.get("AUGLAG_LOG", "info"), logging.INFO
    )
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


def _load_problem(ref: str) -> problems.ProblemSpec:
    if os.path.exists(ref):
        return problems.load_problem(ref)
    return problems.corpus_problem(ref)


def _read_overrides(path: str) -> dict:
    """The --config file as a dict; an unknown key or a wrong-typed value raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError(f"--config file {path} must hold a JSON object")
    for key, value in overrides.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"--config key {key!r} is unknown; accepted keys: {', '.join(_CONFIG_KEYS)}"
            )
        kind = _CONFIG_KEYS[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"--config key {key!r} needs a {kind.__name__} value, got {value!r}")
    return overrides


def _config_from_args(args, problem) -> outer.SolverConfig:
    overrides = _read_overrides(args.config) if args.config else {}
    inner_choice = args.inner if args.inner != "auto" else overrides.get("inner", "auto")
    if inner_choice == "auto":
        inner_choice = outer.default_inner_for(problem)
    fields = dict(
        eps=args.eps,
        alpha=args.alpha,
        gamma=args.gamma,
        sigma0=args.sigma0,
        penalty_policy=args.penalty_policy,
        inner=inner_choice,
        max_outer=args.max_outer,
        monitor=args.monitor,
    )
    for key, value in overrides.items():
        if key != "inner":  # the file beats the flags, except for the inner solver
            fields[key] = value
    return outer.SolverConfig(**fields)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="corpus name or JSON file path")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--penalty-policy", choices=["polynomial", "geometric"], default="polynomial")
    p.add_argument(
        "--inner",
        choices=["auto", "gd-fixed", "gd-backtracking", "cubic-newton"],
        default="auto",
    )
    p.add_argument("--max-outer", type=int, default=10000)
    p.add_argument("--monitor", choices=["strict", "record"], default="strict")
    p.add_argument("--config", help="JSON file with solver-config overrides")
    p.add_argument("--out", default=None, help="output path (extension added per format)")
    p.add_argument("--format", choices=["json", "csv", "both"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auglag")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="run one solve and write the run report")
    _add_common_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve over an eps grid and fit growth laws")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--eps-grid", required=True, help="comma-separated eps values")

    p_check = sub.add_parser("check", help="validate a problem and the inner solvers")
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--samples", type=int, default=10)
    p_check.add_argument("--seed", type=int, default=0)

    sub.add_parser("list-problems", help="print the built-in corpus")
    return parser


def _out_paths(args, default_stem: str):
    stem = args.out or default_stem
    for ext in (".json", ".csv"):
        if stem.endswith(ext):
            stem = stem[: -len(ext)]
    return stem + ".json", stem + ".csv"


def _cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    config = _config_from_args(args, problem)
    try:
        report = outer.solve(problem, config)
    except outer.MonitorViolation as exc:
        log.error("strict monitor violation: %s", exc)
        return EXIT_MONITOR
    except outer.InnerFailure as exc:
        log.error("inner solver failure: %s", exc)
        return EXIT_SOLVER_FAILURE

    json_path, csv_path = _out_paths(args, f"{problem.name}-run")
    if args.format in ("json", "both"):
        report.save_json(json_path)
    if args.format in ("csv", "both"):
        report.save_csv(csv_path)
    last = report.trace[-1]
    print(
        f"terminated={report.terminated} T_outer={report.T_outer} "
        f"total_inner={report.total_inner} dual_inf={report.kkt.dual_inf:.3e} "
        f"theta_final={last.theta if last.theta is not None else math.nan:.3e} "
        f"sigma_final={last.sigma:.6g}"
    )
    if report.terminated != outer.TERMINATED_KKT:
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    problem = _load_problem(args.problem)
    config = _config_from_args(args, problem)
    try:
        grid = [float(v) for v in args.eps_grid.split(",") if v.strip()]
        result = complexity.sweep(problem, config, grid)
    except ValueError as exc:
        log.error("invalid sweep request: %s", exc)
        return EXIT_USAGE
    fits = {}
    if len(result.successful()) >= 3:
        for model in (complexity.LOG_LINEAR, complexity.POWER_LAW):
            coeff, slope, r2 = complexity.fit_growth(result, model)
            fits[model] = {"coefficient": coeff, "exponent_or_slope": slope, "r_squared": r2}
    json_path, csv_path = _out_paths(args, f"{problem.name}-sweep")
    if args.format in ("json", "both"):
        result.save_json(json_path, fits=fits)
    if args.format in ("csv", "both"):
        result.save_csv(csv_path)
    n_fail = sum(1 for r in result.rows if r.failed)
    print(
        f"rows={len(result.rows)} failed={n_fail} "
        f"certified={sum(1 for r in result.successful() if r.certified)}"
    )
    return EXIT_SOLVER_FAILURE if n_fail else EXIT_OK


def _cmd_check(args) -> int:
    problem = _load_problem(args.problem)
    report = problems.validate(problem, samples=args.samples, seed=args.seed)
    for check in report.checks:
        print(
            f"{check.name}: {'pass' if check.passed else 'FAIL'} "
            f"(worst error {check.worst_error:.3e}){' ' + check.detail if check.detail else ''}"
        )
    # inner-solver self-test on a tiny strongly convex quadratic
    task = inner.InnerTask(
        objective=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x,
        hessian=lambda x: np.eye(x.shape[0]),
        start=np.array([4.0, 3.0]),
        eps=1e-8,
        known_L=1.0,
        g_low=0.0,
    )
    ok = True
    for name, run in (
        ("gd-fixed", lambda: inner.gd_solve(task, inner.FIXED_STEP)),
        ("gd-backtracking", lambda: inner.gd_solve(task, inner.BACKTRACKING)),
        ("cubic-newton", lambda: inner.cubic_newton_solve(task)),
    ):
        res = run()
        good = res.accepted and float(np.linalg.norm(res.x_final)) < 1e-6
        ok = ok and good
        print(f"inner {name}: {'pass' if good else 'FAIL'} (iterations {res.iterations})")
    return EXIT_OK if (report.passed and ok) else EXIT_SOLVER_FAILURE


def _cmd_list(args) -> int:
    for p in problems.corpus():
        print(f"{p.name}: n={p.n} m={p.constraints.m} m_e={p.constraints.m_e}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.subcommand == "solve":
            return _cmd_solve(args)
        if args.subcommand == "sweep":
            return _cmd_sweep(args)
        if args.subcommand == "check":
            return _cmd_check(args)
        return _cmd_list(args)
    except (
        ValueError, KeyError, FileNotFoundError, problems.ValidationError,
        problems.ObjectiveBelowBound, core.UnsupportedSpecializationError,
    ) as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
