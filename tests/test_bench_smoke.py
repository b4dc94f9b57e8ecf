"""Smoke test of the benchmark workloads, and the gate on the work of one pass of each.

The benchmark (bench/run.py) times these same calls; this test runs every
request of each workload once and makes sure that it still runs against the
library, that its output passes the workload's own checks, that no solve in it
failed, and that the pass does the outer and inner iterations pinned in
``WORK_PER_PASS`` and makes the calls pinned in ``CALLS_PER_PASS``.
Both are counts, so they do not depend on the host.  A change that moves them
on purpose edits those numbers and logs why, as a re-pin of a golden digest does.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from auglag import core, inner

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

# (core.Penalty constructions, Penalty.from_values calls, np.linalg.eigh calls,
#  Penalty.value calls, Penalty.grad calls, inner.solve_cubic_model calls) in one pass;
# before a sweep row's k = 0 read its shared descent and warm_start(pen, x0, x0) valued x0
# once, the first three were (56, 601, 0), (51, 313, 184) and (26, 361, 0)
CALLS_PER_PASS = {
    "gd-fixed-ineq": (56, 589, 0, 489, 489, 0),
    "cubic-eq": (51, 295, 184, 211, 184, 211),
    "backtracking-sweep": (17, 340, 0, 309, 201, 0),
}


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of ``CALLS_PER_PASS``'s six targets, each wrapped where the library looks it up."""
    counts = Counter()

    def counted(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(core.Penalty, "__init__")
    counted(core.Penalty, "from_values")
    counted(np.linalg, "eigh")
    counted(core.Penalty, "value")
    counted(core.Penalty, "grad")
    counted(inner, "solve_cubic_model")
    return counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_per_pass(tmp_path, monkeypatch, name):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    calls = _count_calls(monkeypatch)
    outcomes = [workload.check(req, workload.run(req)) for req in workload.requests]
    assert sum(o.failed for o in outcomes) == 0
    assert sum(o.solves for o in outcomes) == workload.solves_per_request * len(workload.requests)
    work = (sum(o.outer_iters for o in outcomes), sum(o.inner_iters for o in outcomes))
    assert work == WORK_PER_PASS[name]
    targets = ("__init__", "from_values", "eigh", "value", "grad", "solve_cubic_model")
    assert tuple(calls[t] for t in targets) == CALLS_PER_PASS[name]
