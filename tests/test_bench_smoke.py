"""Smoke test of the benchmark workloads: the first request of each one runs and checks clean.

The benchmark (bench/run.py) times these same calls; this test only makes sure
that every workload still runs against the library, that its output passes the
workload's own checks and that no solve in it failed.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)  # its dataclasses look the module up in sys.modules


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_request_runs_and_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    req = workload.requests[0]
    outcome = workload.check(req, workload.run(req))
    assert outcome.failed == 0
    assert outcome.solves == workload.solves_per_request
    assert outcome.outer_iters > 0 and outcome.inner_iters > 0
