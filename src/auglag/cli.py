"""Command-line front end: solve, sweep, check, list-problems.

Exit status: 0 success, 1 solver failure, 2 usage error, 3 a run-time
invariant check failed (a strict-monitor violation or a disagreement between
the two forms of P), which means an implementation bug.  Diagnostics go to
stderr; numerical data goes to the output files, and the console summary
only echoes values present in the report.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
    """The --config file as a dict; a non-object or an unknown key raises ValueError.

    The values are checked by ``outer.SolverConfig``, like every other option.
    """
    with open(path, "r", encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError(f"--config file {path} must hold a JSON object")
    for key in overrides:
        if key not in outer.CONFIG_KEYS:
            raise ValueError(
                f"--config key {key!r} is unknown; accepted keys: {', '.join(outer.CONFIG_KEYS)}"
            )
    return overrides


def _config_from_args(args, problem) -> outer.SolverConfig:
    """The flags, then the --config file over them, except that an explicit --inner wins."""
    fields = {key: getattr(args, key) for key in outer.CONFIG_KEYS}
    if args.config:
        fields.update(_read_overrides(args.config))
    if fields["inner"] == "auto":
        fields["inner"] = outer.default_inner_for(problem)
    config = outer.SolverConfig(**fields)  # checks every value, the file's inner solver too
    if args.inner != "auto" and config.inner != args.inner:
        config = dataclasses.replace(config, inner=args.inner)
    return config


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    default = outer.SolverConfig
    p.add_argument("--problem", required=True, help="corpus name or JSON file path")
    p.add_argument("--eps", type=float, default=default.eps)
    p.add_argument("--alpha", type=float, default=default.alpha)
    p.add_argument("--gamma", type=float, default=default.gamma)
    p.add_argument("--sigma0", type=float, default=default.sigma0)
    p.add_argument(
        "--penalty-policy", choices=core.PENALTY_POLICIES, default=default.penalty_policy
    )
    p.add_argument("--inner", choices=("auto",) + outer.INNER_SOLVERS, default="auto")
    p.add_argument("--max-outer", type=int, default=default.max_outer)
    p.add_argument("--monitor", choices=outer.MONITOR_MODES, default=default.monitor)
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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused in this process."""
    return build_parser()


def _out_paths(args, default_stem: str):
    stem = args.out or default_stem
    for ext in (".json", ".csv"):
        if stem.endswith(ext):
            stem = stem[: -len(ext)]
    return stem + ".json", stem + ".csv"


def _save_reports(args, default_stem: str, save_json, save_csv) -> bool:
    """Write the formats ``--format`` asks for; False, after logging the path, if one cannot be written."""
    json_path, csv_path = _out_paths(args, default_stem)
    for fmt, path, save in (("json", json_path, save_json), ("csv", csv_path, save_csv)):
        if args.format in (fmt, "both"):
            try:
                save(path)
            except OSError as exc:
                log.error("cannot write report %s: %s", path, exc.strerror or exc)
                return False
    return True


def _cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    config = _config_from_args(args, problem)
    report = outer.solve(problem, config)
    if not _save_reports(args, f"{problem.name}-run", report.save_json, report.save_csv):
        return EXIT_USAGE
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
    grid = [float(v) for v in args.eps_grid.split(",") if v.strip()]
    result = complexity.sweep(problem, config, grid)
    fits = {}
    if len(result.successful()) >= 3:
        for model in (complexity.LOG_LINEAR, complexity.POWER_LAW):
            coeff, slope, r2 = complexity.fit_growth(result, model)
            fits[model] = {"coefficient": coeff, "exponent_or_slope": slope, "r_squared": r2}
    save_json = functools.partial(result.save_json, fits=fits)
    if not _save_reports(args, f"{problem.name}-sweep", save_json, result.save_csv):
        return EXIT_USAGE
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
    for name in outer.INNER_SOLVERS:
        res = outer._run_inner(task, name)
        good = float(np.linalg.norm(res.x_final)) < 1e-6
        ok = ok and good
        print(f"inner {name}: {'pass' if good else 'FAIL'} (iterations {res.iterations})")
    return EXIT_OK if (report.passed and ok) else EXIT_SOLVER_FAILURE


def _cmd_list(args) -> int:
    for p in problems.corpus():
        print(f"{p.name}: n={p.n} m={p.constraints.m} m_e={p.constraints.m_e}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
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
    except outer.MonitorViolation as exc:
        log.error("strict monitor violation: %s", exc)
        return EXIT_MONITOR
    except core.FormDisagreementError as exc:
        log.error("P form disagreement: %s", exc)
        return EXIT_MONITOR
    except outer.InnerFailure as exc:
        log.error("inner solver failure: %s", exc)
        return EXIT_SOLVER_FAILURE
    except (
        ValueError, KeyError, OSError, problems.ValidationError,
        problems.ObjectiveBelowBound, core.UnsupportedSpecializationError,
    ) as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
