"""Command-line front end: solve, sweep, check, list-problems.

Exit status: 0 success, 1 solver failure, 2 usage error, 3 a run-time
invariant check failed (a strict-monitor violation or a disagreement between
the two forms of P), which means an implementation bug.  An exception's
class sets the code: ``core.ImplementationError`` 3, ``outer.InnerFailure``
1, and ``ValueError`` or ``OSError`` 2; a run that ends without an eps-KKT
point also exits 1.  Diagnostics go to
stderr through the ``auglag`` logger, numpy's floating-point warnings among
them at DEBUG; numerical data goes to the output files, and the console
summary only echoes values present in the report.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys

import numpy as np

from . import complexity, core, outer, problems
from .report import fit_entry

log = logging.getLogger("auglag")

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2
EXIT_MONITOR = 3


def _setup_logging() -> None:
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}
    value = os.environ.get("AUGLAG_LOG", "info")
    logging.basicConfig(level=levels.get(value, logging.INFO), stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    if value not in levels:
        log.warning("AUGLAG_LOG=%r is not one of %s; logging at info", value, ", ".join(levels))


def _load_problem(ref: str) -> problems.ProblemSpec:
    if os.path.exists(ref):
        return problems.load_problem(ref)
    return problems.corpus_problem(ref)


def _config_from_args(args, problem) -> outer.SolverConfig:
    """The flags, then the --config file over them, except that an explicit --inner wins.

    ``auto`` resolves last, at the sigma0 that ``SolverConfig`` has checked.
    """
    fields = {key: getattr(args, key) for key in outer.CONFIG_KEYS}
    if args.config:
        fields.update(problems.read_json_object(args.config, "--config file", outer.CONFIG_KEYS))
    inner = fields["inner"] if args.inner == "auto" else args.inner
    if fields["inner"] == "auto":
        fields["inner"] = outer.INNER_GD_BACKTRACKING  # a valid name until sigma0 is checked
    config = outer.SolverConfig(**fields)  # checks every value, the file's inner solver too
    if inner == "auto":
        inner = outer.default_inner_for(problem, config.sigma0)
    return dataclasses.replace(config, inner=inner)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    default = outer.SolverConfig
    p.add_argument("--problem", required=True, help="corpus name or JSON file path")
    p.add_argument("--eps", type=float, default=default.eps)
    p.add_argument("--alpha", type=float, default=default.alpha)
    p.add_argument("--gamma", type=float, default=default.gamma)
    p.add_argument("--sigma0", type=float, default=default.sigma0)
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
    grid = [float(v) for v in args.eps_grid.split(",")]  # an empty entry is a usage error
    result = complexity.sweep(problem, config, grid)
    fits = {}
    if len(result.successful()) >= 3:
        for model in (complexity.LOG_LINEAR, complexity.POWER_LAW):
            try:
                fits[model] = fit_entry(complexity.fit_growth(result, model))
            except ValueError as exc:  # an undefined fit is left out of the report
                log.warning("%s fit skipped: %s", model, exc)
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
    # each inner solver through solve on a problem with a closed-form KKT pair,
    # x = lambda = 1/4, which the eps-KKT conditions place within 9*eps/4 < 3*eps
    analytic, eps = problems.corpus_problem("eq-qp-analytic"), 1e-8
    ok = True
    for name in outer.INNER_SOLVERS:
        run = outer.solve(analytic, outer.SolverConfig(eps=eps, inner=name))
        pair = np.concatenate([run.x_final, run.lambda_final])
        good = run.terminated == outer.TERMINATED_KKT and float(np.abs(pair - 0.25).max()) <= 3 * eps
        ok = ok and good
        print(f"inner {name}: {'pass' if good else 'FAIL'} (iterations {run.total_inner})")
    return EXIT_OK if (report.passed and ok) else EXIT_SOLVER_FAILURE


def _cmd_list(args) -> int:
    for p in problems.corpus():
        print(f"{p.name}: n={p.n} m={p.constraints.m} m_e={p.constraints.m_e}")
    return EXIT_OK


def _log_float_error(kind: str, flag: int) -> None:
    """numpy's floating-point error callback inside ``main``: log it instead of warning on stderr."""
    log.debug("numpy floating-point error: %s", kind)


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(divide="call", over="call", invalid="call", call=_log_float_error):
            if args.subcommand == "solve":
                return _cmd_solve(args)
            if args.subcommand == "sweep":
                return _cmd_sweep(args)
            if args.subcommand == "check":
                return _cmd_check(args)
            return _cmd_list(args)
    except core.ImplementationError as exc:
        log.error("%s: %s", exc.what, exc)
        return EXIT_MONITOR
    except outer.InnerFailure as exc:
        log.error("inner solver failure: %s", exc)
        return EXIT_SOLVER_FAILURE
    except (ValueError, OSError) as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
