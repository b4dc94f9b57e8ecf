"""Smoke test of the benchmark workloads, and the gate on the work of one pass of each.

The benchmark (bench/run.py) times these same calls; this test runs every
request of each workload once and makes sure that it still runs against the
library, that its output passes the workload's own checks, that no solve in it
failed, and that the pass does the outer and inner iterations pinned in
``WORK_PER_PASS``.  A change that moves the work on purpose edits those
numbers and logs why, as a re-pin of a golden digest does.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)  # its dataclasses look the module up in sys.modules


# (outer, inner) iterations summed over one pass, every request of the workload once
WORK_PER_PASS = {
    "gd-fixed-ineq": (56, 489),
    "cubic-eq": (51, 211),
    "backtracking-sweep": (23, 510),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_per_pass(tmp_path, name):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    outcomes = [workload.check(req, workload.run(req)) for req in workload.requests]
    assert sum(o.failed for o in outcomes) == 0
    assert sum(o.solves for o in outcomes) == workload.solves_per_request * len(workload.requests)
    work = (sum(o.outer_iters for o in outcomes), sum(o.inner_iters for o in outcomes))
    assert work == WORK_PER_PASS[name]
