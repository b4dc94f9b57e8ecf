#!/usr/bin/env python3
"""auglag benchmark: time to a certified eps-KKT point, end to end and by layer.

    python3 bench/run.py --workload gd-fixed-ineq --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``auglag`` from ``src/``.  One
client drives the library in a closed loop from this process: each request
starts when the previous one has ended.  A pass runs every request of the
workload once, in an order drawn from ``--seed``; the requests themselves are
fixed (see NOTES.md).  One untimed warm-up pass fixes the reference work
counts, then passes repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced passes and reports per-layer self time and
call counts per pass, plus the tracing overhead; the spans are written to
``bench/out/``.  Provenance and a readable table go to stdout first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Default OpenBLAS threading is bimodal on small problems (a 32x32 eigh took
# 16 ms or 0.1 ms), so every run pins BLAS to one thread before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The keys of workloads.WORKLOADS, listed here because importing workloads
# loads numpy, which must wait until the arguments are parsed and BLAS pinned.
WORKLOAD_NAMES = ("gd-fixed-ineq", "cubic-eq", "backtracking-sweep")
SETUP_SAMPLES = 7

# The calibration kernel's time on an uncontended 2-core Xeon (2.1 GHz) host.
# Timings are reported at this reference speed; see HostPace.
REF_KERNEL_S = 1.0e-3
KERNEL_STEPS = 100

# Per-layer spans reported as "<name>.self_s" and "<name>.calls" per pass.
LAYER_SPANS = (
    "problems.f", "problems.grad", "problems.c",
    "core.eval_P", "core.grad_P", "core.hess_P", "core.theta",
    "inner.gd_solve", "inner.cubic_newton_solve", "inner.solve_cubic_model", "inner.eigh",
    "outer.solve", "outer.monitor_step", "outer.kkt_check", "outer.report_write",
    "complexity.sweep", "complexity.certify_run", "complexity.fit_growth",
    "cli.main", "cli.build_parser",
)
# Ratio metrics, each stored with the count it is a share of.
RATIOS = (
    # (metric, numerator counter, base metric, base counter)
    ("inner.cubic.rejected_frac", "cubic.rejected", "inner.cubic.model_solves", "cubic.model_solves"),
    ("inner.backtracking.trials_per_iter", "backtracking.trials",
     "inner.backtracking.iters", "backtracking.iters"),
    ("fail_frac", "failed", "solves.attempted", "attempted"),
    ("uncertified_frac", "uncertified", "solves.certify_checked", "certify_checked"),
)


class HostPace:
    """Scales wall times to a reference host speed.

    The shared host alternates between a fast state and one about 1.7x slower,
    switching within a second and drifting over minutes, which moves every
    wall-clock median by 20-30 % between runs.  A fixed numpy-and-Python
    kernel, independent of auglag, runs just before and just after each timed
    call; the call's wall time times REF_KERNEL_S over the mean kernel time is
    its time at reference speed.  Raw wall times are reported alongside.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 32)
        self._a = np.ones((3, 32))
        self.samples: list[float] = []

    def kernel(self) -> float:
        np, y, a = self._np, self._x, self._a
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(KERNEL_STEPS):
            y = 0.5 * y + 0.1 * np.cos(4.0 * y)
            c = a @ y - 1.0
            acc += float(c @ c) + float(np.sum(np.minimum(c, 0.0)))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def timed(self, fn, *args):
        """(result, wall seconds, seconds at reference speed) of fn(*args)."""
        before = self.kernel()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self.kernel()
        return result, wall, wall * REF_KERNEL_S / (0.5 * (before + after))


@dataclass
class PassResult:
    times: list = field(default_factory=list)  # reference-speed seconds per request
    wall: list = field(default_factory=list)  # raw wall seconds per request
    roots: dict = field(default_factory=dict)  # traced root span -> speed factor
    solves: int = 0
    attempted: int = 0
    failed: int = 0
    certify_checked: int = 0
    uncertified: int = 0
    outer_iters: int = 0
    inner_iters: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    @property
    def work(self) -> tuple[int, int]:
        return self.outer_iters, self.inner_iters


def pin_blas_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def run_pass(wl, order, pace: HostPace, tracer=None) -> PassResult:
    """Run each request once, timed; with a tracer, inside a root span."""
    res = PassResult()
    for req in order:
        res.attempted += wl.solves_per_request
        try:
            if tracer is None:
                raw, wall, ref = pace.timed(wl.run, req)
            else:
                root = tracer.mark()
                raw, wall, ref = pace.timed(tracer.call, "bench.request", wl.run, req)
                res.roots[root] = ref / wall
            out = wl.check(req, raw)
        except Exception:  # benchmark boundary: record and go on
            print(f"request {req.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            res.failed += wl.solves_per_request
            continue
        res.times.append(ref)
        res.wall.append(wall)
        res.solves += out.solves
        res.failed += out.failed
        res.certify_checked += out.certify_checked
        res.uncertified += out.uncertified
        res.outer_iters += out.outer_iters
        res.inner_iters += out.inner_iters
    return res


def measure_setup(workload: str, pace: HostPace) -> tuple[list[float], list[float]]:
    """Fresh processes that import auglag and build the workload: (ref, wall) s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload]

    def spawn():
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)

    ref, wall = [], []
    for _ in range(SETUP_SAMPLES):
        proc, w, r = pace.timed(spawn)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr}")
        ref.append(r)
        wall.append(w)
    return ref, wall


def quantile(values, q: int, of: int = 10) -> float:
    """The q-th of ``of`` quantiles, inclusive method (exact for small samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=of, method="inclusive")[q - 1]


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def git_commit(root: Path) -> str:
    """HEAD commit read from .git files; a plain source tree has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "auglag").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, samples: dict, pace: HostPace) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    kern = pace.samples
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "pace": {
            "ref_kernel_ms": REF_KERNEL_S * 1e3,
            "kernel_ms_min": min(kern) * 1e3,
            "kernel_ms_p50": statistics.median(kern) * 1e3,
            "kernel_ms_max": max(kern) * 1e3,
            "kernel_samples": len(kern),
        },
        "samples": samples,
    }


def outcome_counts(passes) -> dict[str, int]:
    return {key: sum(getattr(p, key) for p in passes)
            for key in ("attempted", "failed", "certify_checked", "uncertified")}


def check_work(passes, ref: tuple[int, int], what: str) -> list[str]:
    return [f"{what} pass {i}: outer/inner {p.work} != reference {ref}"
            for i, p in enumerate(passes) if p.work != ref]


def latency_metrics(passes, prefix: str = "") -> dict:
    """Throughput and per-request latency over measured passes."""
    key = "wall" if prefix else "times"
    samples = [t for p in passes for t in getattr(p, key)]
    rates = [p.solves / sum(getattr(p, key)) for p in passes if getattr(p, key)]
    return {
        f"{prefix}solves_per_s": (statistics.median(rates), "1/s"),
        f"{prefix}solve_ms.p50": (1e3 * statistics.median(samples), "ms"),
        f"{prefix}solve_ms.p90": (1e3 * quantile(samples, 9), "ms"),
    }


def end_to_end(wl, args, shuffled, pace):
    setup, setup_wall = measure_setup(wl.name, pace)
    warm = run_pass(wl, shuffled(), pace)
    passes = []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        passes.append(run_pass(wl, shuffled(), pace))
    metrics = latency_metrics(passes)
    metrics.update({
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "outer_iters": (warm.outer_iters, "count"),
        "inner_iters": (warm.inner_iters, "count"),
    })
    info = latency_metrics(passes, prefix="wall.")
    info["wall.setup_s"] = (statistics.median(setup_wall), "s")
    counts = {
        "solve_ms": sum(len(p.times) for p in passes),
        "solves_per_s": len(passes),
        "setup_s": len(setup),
        "requests_per_pass": len(wl.requests),
    }
    return metrics, info, counts, [warm] + passes, check_work(passes, warm.work, "measured")


def trace_targets() -> tuple:
    """Methods and numpy functions traced besides the modules' public functions."""
    import numpy as np
    from auglag import outer, problems

    return (
        (problems.ObjectiveOracle, "value", "problems.f", None),
        (problems.ObjectiveOracle, "gradient", "problems.grad", None),
        (problems.ObjectiveOracle, "hessian", "problems.hess", None),
        (problems.ConstraintSet, "c", "problems.c", None),
        (problems.ConstraintSet, "jac", "problems.jac", None),
        (outer.RunReport, "save_json", "outer.report_write", None),
        (outer.RunReport, "save_csv", "outer.report_write", None),
        (np.linalg, "eigh", "inner.eigh", None),
    )


def per_layer(wl, args, shuffled, pace):
    import auglag
    from tracer import Tracer

    extra = trace_targets()
    tracer = Tracer()
    warm = run_pass(wl, shuffled(), pace)
    plain, traced, layers, counters = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not traced:
        plain.append(run_pass(wl, shuffled(), pace))
        lo, before = tracer.mark(), dict(tracer.counters)
        tracer.install(auglag, extra)
        try:
            traced.append(run_pass(wl, shuffled(), pace, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_totals(lo, tracer.mark(), traced[-1].roots))
        counters.append({k: v - before.get(k, 0) for k, v in tracer.counters.items()})

    problems_found = check_work(plain, warm.work, "untraced") + check_work(traced, warm.work, "traced")
    calls = [{name: v[1] for name, v in lay.items()} for lay in layers]
    if any(c != calls[0] for c in calls[1:]):
        problems_found.append("span call counts differ between traced passes")
    if any(c != counters[0] for c in counters[1:]):
        problems_found.append("layer counters differ between traced passes")

    n = len(layers)
    every = {name: (sum(lay.get(name, (0.0,))[0] for lay in layers) / n, count)
             for name, count in calls[0].items()}
    metrics = {}
    for name in LAYER_SPANS:
        self_s, count = every.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (count, "count")
    every_pass = [warm] + plain + traced
    pass_counts = dict(counters[0], **outcome_counts(every_pass))
    for name, num, base_name, base in RATIOS:
        metrics[name] = (ratio(pass_counts.get(num, 0), pass_counts.get(base, 0)), "ratio")
        metrics[base_name] = (pass_counts.get(base, 0), "count")
    overhead = statistics.median(p.busy_s for p in traced) / statistics.median(
        p.busy_s for p in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json.gz"
    tracer.write(str(spans_path))
    total = sum(v[0] for v in every.values())
    print("self time per traced pass at reference speed, all spans:")
    for name, (self_s, count) in sorted(every.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:34s} {self_s * 1e3:10.3f} ms {100 * self_s / total:5.1f} % {count:8d} calls")
    counts = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "requests_per_pass": len(wl.requests),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, {}, counts, every_pass, problems_found


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import auglag, build the workload and exit (set-up timing)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "auglag" / "__init__.py").is_file():
        print(f"error: no auglag sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import auglag

    if not Path(auglag.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported auglag from {auglag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](workdir)
        if args.setup_only:
            return 0
        rng = random.Random(args.seed)

        def shuffled():
            order = list(wl.requests)
            rng.shuffle(order)
            return order

        pace = HostPace()
        measure = per_layer if args.trace else end_to_end
        metrics, info, counts, passes, problems_found = measure(wl, args, shuffled, pace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = outcome_counts(passes)
    attempted, failed = outcomes["attempted"], outcomes["failed"]
    info.update({
        "attempted": (attempted, "count"),
        "failed": (failed, "count"),
        "fail_frac": (ratio(failed, attempted), "ratio"),
        "uncertified_frac": (ratio(outcomes["uncertified"], outcomes["certify_checked"]), "ratio"),
    })
    for msg in problems_found:
        print(f"integrity: {msg}", file=sys.stderr)
    correct = failed == 0 and not problems_found

    print(json.dumps({"provenance": provenance(args, counts, pace)}, sort_keys=True))
    print(f"workload {wl.name}: {wl.why}")
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
