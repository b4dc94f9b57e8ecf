"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q        (or: python3 -m unittest discover -s bench)

They cover the span arithmetic behind per-layer self time, the removal of
every wrapper after a traced run, the storage of each ratio metric next to
the count it is a share of, and the match between the per-layer metrics a
traced run reports and those BENCHMARK.json declares.
"""
from __future__ import annotations

import inspect
import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402

run.pin_blas_threads()


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract(self):
        # root [0,10] holds a [1,3] and b [4,8]; b holds c [5,6]
        names = ["root", "a", "b", "c"]
        out = tracer.self_times(names, [0, 1, 2, 3], [-1, 0, 0, 2], [0.0, 1.0, 4.0, 5.0],
                                [10.0, 3.0, 8.0, 6.0])
        self.assertEqual(out, {"root": [4.0, 1], "a": [2.0, 1], "b": [3.0, 1], "c": [1.0, 1]})

    def test_range_selects_one_pass_names_accumulate_and_roots_scale(self):
        # two passes of root -> (x, x); only the second is selected
        names = ["root", "x"]
        name_id = [0, 1, 1] * 2
        parent = [-1, 0, 0, -1, 3, 3]
        start = [0.0, 1.0, 2.0, 10.0, 11.0, 13.0]
        end = [5.0, 1.5, 3.0, 20.0, 12.0, 16.0]
        out = tracer.self_times(names, name_id, parent, start, end, lo=3, hi=6)
        self.assertEqual(out, {"root": [6.0, 1], "x": [4.0, 2]})
        scaled = tracer.self_times(names, name_id, parent, start, end, 3, 6, {3: 0.5})
        self.assertEqual(scaled, {"root": [3.0, 1], "x": [2.0, 2]})

    def test_recorded_self_times_sum_to_root_duration(self):
        t = tracer.Tracer()

        def leaf():
            return sum(range(1000))

        def mid():
            return t.call("leaf", leaf) + t.call("leaf", leaf)

        t.call("root", lambda: t.call("mid", mid))
        self.assertEqual(list(t.parent), [-1, 0, 1, 1])
        totals = t.layer_totals()
        self.assertEqual({k: v[1] for k, v in totals.items()}, {"root": 1, "mid": 1, "leaf": 2})
        self.assertTrue(all(v[0] >= 0.0 for v in totals.values()))
        root_s = t.end[0] - t.start[0]
        self.assertAlmostEqual(sum(v[0] for v in totals.values()), root_s, delta=1e-9)


def _snapshot(targets):
    import auglag

    snap = {}
    for short in tracer.TRACED_MODULES:
        mod = getattr(auglag, short)
        for name in vars(mod):
            snap[(mod, name)] = inspect.getattr_static(mod, name)
    for owner, attr, _, _ in targets:
        snap[(owner, attr)] = inspect.getattr_static(owner, attr)
    return snap


class TracedRunTest(unittest.TestCase):
    """One short traced run per workload kind, shared by the tests below."""

    @classmethod
    def setUpClass(cls):
        from workloads import BacktrackingSweep, CubicEq

        cls.targets = run.trace_targets()
        cls.before = _snapshot(cls.targets)
        cls.tmp = tempfile.TemporaryDirectory()
        args = types.SimpleNamespace(seconds=0.0, seed=0)
        cls.results = {}
        pace = run.HostPace()
        for kind, keep in ((CubicEq, None), (BacktrackingSweep, "simplex-cos-16")):
            wl = kind(cls.tmp.name)
            if keep:
                wl.requests = [r for r in wl.requests if r.problem == keep]
            cls.results[wl.name] = run.per_layer(
                wl, args, lambda wl=wl: list(wl.requests), pace)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_wrappers_removed_after_traced_run(self):
        after = _snapshot(self.targets)
        self.assertEqual(after.keys(), self.before.keys())
        changed = [key for key in after if after[key] is not self.before[key]]
        self.assertEqual(changed, [])

    def test_traced_run_kept_work_counts(self):
        for name, (_, _, _, passes, problems_found) in self.results.items():
            self.assertEqual(problems_found, [], name)
            self.assertEqual(len({p.work for p in passes}), 1, name)
            self.assertTrue(all(p.failed == 0 for p in passes), name)

    def test_metrics_match_benchmark_definition(self):
        from workloads import WORKLOADS

        self.assertEqual(tuple(WORKLOADS), run.WORKLOAD_NAMES)
        with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (metrics, _, _, _, _) in self.results.items():
            self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, declared, name)

    def test_ratio_metrics_stored_with_base(self):
        for name, (metrics, _, _, _, _) in self.results.items():
            for ratio_name, _, base_name, _ in run.RATIOS:
                self.assertIn(ratio_name, metrics, name)
                self.assertIn(base_name, metrics, name)
                value, unit = metrics[ratio_name]
                base, base_unit = metrics[base_name]
                self.assertEqual((unit, base_unit), ("ratio", "count"))
                numerator = value * base
                self.assertAlmostEqual(numerator, round(numerator), places=6)
        cubic = self.results["cubic-eq"][0]
        self.assertGreater(cubic["inner.cubic.model_solves"][0], 0)
        self.assertEqual(cubic["inner.cubic.model_solves"][0],
                         cubic["inner.solve_cubic_model.calls"][0])
        self.assertEqual(cubic["inner.backtracking.iters"][0], 0)
        sweep = self.results["backtracking-sweep"][0]
        self.assertGreater(sweep["inner.backtracking.iters"][0], 0)
        self.assertGreaterEqual(sweep["inner.backtracking.trials_per_iter"][0], 1.0)
        self.assertEqual(sweep["inner.cubic.model_solves"][0], 0)


if __name__ == "__main__":
    unittest.main()
