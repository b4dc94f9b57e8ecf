"""Smoke test of the benchmark workloads, and the gate on the work of one pass of each.

The benchmark (bench/run.py) times these same calls; this test runs every
request of each workload once and makes sure that it still runs against the
library, that its output passes the workload's own checks, that no solve in it
failed, and that the pass does the outer and inner iterations pinned in
``WORK_PER_PASS`` and makes the calls pinned in ``CALLS_PER_PASS`` and
``ORACLE_CALLS_PER_PASS``.  All are counts, so they do not depend on the host.  A change that moves them
on purpose edits those numbers and logs why, as a re-pin of a golden digest does.
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from auglag import core, inner
from auglag.problems import ConstraintSet, ObjectiveOracle

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
# before a sweep row's k = 0 read its shared descent and k = 0 valued x0
# once, the first three were (56, 601, 0), (51, 313, 184) and (26, 361, 0)
CALLS_PER_PASS = {
    "gd-fixed-ineq": (56, 589, 0, 489, 489, 0),
    "cubic-eq": (51, 295, 184, 211, 184, 211),
    "backtracking-sweep": (17, 340, 0, 309, 201, 0),
}


# (f, grad f, Hessian of f, c and J oracle calls, trial points valued by an Armijo search or a
#  cubic step, cubic trials rejected) in one pass, counted at the calls, so a shared descent's
# once; backtracking-sweep's 309 trials are over its 201 iterations (Penalty.grad) in 17 descents
ORACLE_CALLS_PER_PASS = {
    "gd-fixed-ineq": (501, 501, 0, 501, 501, 0, 0),
    "cubic-eq": (229, 202, 184, 229, 202, 211, 27),
    "backtracking-sweep": (321, 213, 0, 321, 213, 309, 0),
}


def _count_calls(monkeypatch) -> Counter:
    """Count the calls of the pinned targets, each wrapped where the library looks it up, and the
    cubic step's rejections, the steps of ``inner._cubic_rule`` that return None."""
    counts = Counter()

    def counted(owner, attr, key=None):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key or attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(core.Penalty, "__init__")
    counted(core.Penalty, "from_values")
    counted(np.linalg, "eigh")
    counted(core.Penalty, "value")
    counted(core.Penalty, "grad")
    counted(inner, "solve_cubic_model")
    counted(ObjectiveOracle, "value", "f")
    counted(ObjectiveOracle, "gradient")
    counted(ObjectiveOracle, "hessian")
    counted(ConstraintSet, "c")
    counted(ConstraintSet, "jac")
    counted(inner, "_trial_value")
    real_rule = inner._cubic_rule

    def cubic_rule(task, value):
        step = real_rule(task, value)

        def counted_step(*args):
            moved = step(*args)
            counts["rejected"] += moved is None
            return moved

        return counted_step

    monkeypatch.setattr(inner, "_cubic_rule", cubic_rule)
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
    oracles = ("f", "gradient", "hessian", "c", "jac", "_trial_value", "rejected")
    assert tuple(calls[t] for t in oracles) == ORACLE_CALLS_PER_PASS[name]
