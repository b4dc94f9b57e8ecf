"""Contract between the library and the benchmark's tracer (bench/tracer.py).

The tracer wraps ``inner.gd_solve`` and ``inner.cubic_newton_solve`` as module
attributes and derives its inner-work counters from their arguments and
results.  A library change that reached the solvers another way would leave
those counters, and the per-layer ratios built on them, silently at zero.
"""
import importlib.util
import sys
from pathlib import Path

import auglag.cli  # the tracer wraps every traced module of auglag, the CLI's included
from auglag import outer
from auglag.problems import corpus_problem

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_inner_counters_equal_the_reports_inner_iterations():
    t = tracer.Tracer()
    t.install(auglag)
    try:
        backtracking = auglag.outer.solve(
            corpus_problem("eq-rosenbrock-8"), outer.SolverConfig(eps=1e-3, inner=outer.INNER_GD_BACKTRACKING))
        cubic = auglag.outer.solve(
            corpus_problem("eq-cos-8"), outer.SolverConfig(eps=1e-3, inner=outer.INNER_CUBIC))
    finally:
        t.uninstall()
    assert backtracking.total_inner > 0 and cubic.total_inner > 0
    assert t.counters["backtracking.iters"] == backtracking.total_inner
    assert t.counters["cubic.model_solves"] == cubic.total_inner
