"""The benchmark's three workloads and the checks on their outputs.

Each workload is a fixed list of requests built from the corpus problems and
their own starting points.  A request is one call a user would make: a
certified library solve, a CLI solve that writes its report, or an eps sweep
with both growth fits.  ``run`` is the timed call into the library; ``check``
validates what it returned (untimed) and returns the work it did.

Import this module only after BLAS threads are pinned: it imports numpy
through ``auglag``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from auglag import cli, complexity, outer, problems

STRICT = outer.MONITOR_STRICT


class CheckFailed(RuntimeError):
    """A request returned, but its output is wrong."""


@dataclass(frozen=True)
class Request:
    label: str
    problem: str
    eps: float


@dataclass
class Outcome:
    solves: int
    outer_iters: int
    inner_iters: int
    certify_checked: int = 0
    uncertified: int = 0
    failed: int = 0


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_report_dict(rep: dict, label: str) -> None:
    """Checks shared by in-process reports and re-read JSON reports."""
    _require(rep["terminated"] == outer.TERMINATED_KKT, f"{label}: terminated {rep['terminated']!r}")
    _require(rep["kkt"]["is_eps_kkt"] is True, f"{label}: final point is not eps-KKT")
    _require(rep["config"]["monitor"] == STRICT, f"{label}: monitors were not strict")
    _require(all(e["pass"] for e in rep["monitor_log"]), f"{label}: a monitor entry failed")
    _require(len(rep["trace"]) == rep["T_outer"] + 1, f"{label}: trace length != T_outer + 1")
    _require(
        sum(row["inner_iters"] for row in rep["trace"]) == rep["total_inner"],
        f"{label}: trace inner_iters do not sum to total_inner",
    )


class GdFixedIneq:
    name = "gd-fixed-ineq"
    why = ("certified gd-fixed solves with inequality rows: P and grad-P evaluation "
           "dominate; no Hessian, eigh or CLI work")
    solves_per_request = 1

    def __init__(self, workdir: str) -> None:
        self.requests = [
            Request(f"{fam}-{n}@{eps:g}", f"{fam}-{n}", eps)
            for fam in ("simplex-cos", "dup-eq")
            for n in (8, 32, 64)
            for eps in (1e-3, 1e-4)
        ]
        self.problems = {r.problem: problems.corpus_problem(r.problem) for r in self.requests}
        self.configs = {
            r: outer.SolverConfig(eps=r.eps, inner=outer.INNER_GD_FIXED, monitor=STRICT)
            for r in self.requests
        }

    def run(self, req: Request):
        problem, config = self.problems[req.problem], self.configs[req]
        report = outer.solve(problem, config)
        return report, complexity.certify_run(report, problem, config)

    def check(self, req: Request, raw) -> Outcome:
        report, cert = raw
        _check_report_dict(report.to_json_dict(), req.label)
        return Outcome(1, report.T_outer, report.total_inner, 1, int(not cert.certified))


class CubicEq:
    name = "cubic-eq"
    why = ("cubic-Newton solves through the CLI: dense Hessian, eigh and secular root per "
           "step, plus per-solve parsing and report writing")
    solves_per_request = 1

    def __init__(self, workdir: str) -> None:
        self.requests = [
            Request(f"{fam}-{n}@{eps:g}", f"{fam}-{n}", eps)
            for fam in ("eq-cos", "eq-rosenbrock")
            for n in (8, 32, 64)
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        for r in self.requests:  # fail in set-up, not mid-run, on a bad name
            problems.corpus_problem(r.problem)
        self.stems = {r: os.path.join(workdir, f"{r.problem}-{r.eps:g}") for r in self.requests}
        self.argv = {
            r: ["solve", "--problem", r.problem, "--inner", outer.INNER_CUBIC,
                "--eps", repr(r.eps), "--monitor", STRICT, "--format", "both",
                "--out", self.stems[r]]
            for r in self.requests
        }

    def run(self, req: Request):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv[req])
        return code, buf.getvalue()

    def check(self, req: Request, raw) -> Outcome:
        code, stdout = raw
        _require(code == cli.EXIT_OK, f"{req.label}: CLI exit code {code}")
        summary = dict(tok.split("=", 1) for tok in stdout.split())
        stem = self.stems[req]
        with open(stem + ".json", encoding="utf-8") as fh:
            rep = json.load(fh)
        with open(stem + ".csv", encoding="utf-8", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        for path in (stem + ".json", stem + ".csv"):
            os.remove(path)  # a stale file must not pass the next check
        _check_report_dict(rep, req.label)
        _require(rep["problem"] == req.problem and rep["config"]["eps"] == req.eps,
                 f"{req.label}: report is for another run")
        _require(
            summary.get("terminated") == rep["terminated"]
            and int(summary.get("T_outer", -1)) == rep["T_outer"]
            and int(summary.get("total_inner", -1)) == rep["total_inner"],
            f"{req.label}: JSON report does not match the in-process summary {stdout!r}",
        )
        _require(len(csv_rows) == rep["T_outer"] + 1, f"{req.label}: CSV row count")
        return Outcome(1, rep["T_outer"], rep["total_inner"])


class BacktrackingSweep:
    name = "backtracking-sweep"
    why = ("eps sweeps with gd-backtracking: Armijo trials evaluate P without a gradient, "
           "long inner runs, sweep and fit_growth")
    solves_per_request = 3
    eps_grid = (1e-2, 1e-3, 1e-4)

    def __init__(self, workdir: str) -> None:
        self.requests = [
            Request(name, name, self.eps_grid[0])
            for name in ("eq-rosenbrock-8", "eq-rosenbrock-32", "simplex-cos-16")
        ]
        self.problems = {r.problem: problems.corpus_problem(r.problem) for r in self.requests}
        self.config = outer.SolverConfig(
            eps=self.eps_grid[0], inner=outer.INNER_GD_BACKTRACKING, monitor=STRICT
        )

    def run(self, req: Request):
        result = complexity.sweep(self.problems[req.problem], self.config, self.eps_grid)
        fits = [complexity.fit_growth(result, m)
                for m in (complexity.LOG_LINEAR, complexity.POWER_LAW)]
        return result, fits

    def check(self, req: Request, raw) -> Outcome:
        result, fits = raw
        rows = result.rows
        _require([r.eps for r in rows] == sorted(self.eps_grid, reverse=True),
                 f"{req.label}: sweep rows do not match the eps grid")
        failed = [r for r in rows if r.failed]
        for r in failed:
            print(f"sweep row failed: {req.label} eps={r.eps:g}: {r.error}", file=sys.stderr)
        _require(all(math.isfinite(v) for fit in fits for v in fit),
                 f"{req.label}: non-finite growth fit {fits}")
        good = [r for r in rows if not r.failed]
        return Outcome(
            len(rows),
            sum(r.T_outer for r in good),
            sum(r.total_inner for r in good),
            len(good),
            sum(1 for r in good if not r.certified),
            failed=len(failed),
        )


WORKLOADS = {w.name: w for w in (GdFixedIneq, CubicEq, BacktrackingSweep)}
