"""In-memory span tracing by wrapping the library's functions from outside.

A ``Tracer`` replaces module functions and a few methods of ``auglag`` with
wrappers that record one span per call (name, parent span, start, end) and
restores the originals on ``uninstall``.  Spans are kept in flat arrays so
that a pass with ~10^5 calls stays small, and are written out only when the
benchmark ends.  Self time is a span's duration minus the durations of its
direct children; the library is single-threaded, so children of one span run
one after another inside it and never overlap.
"""
from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from collections import Counter

# Layers are the library's modules; each public module-level function is a
# span named "<module>.<function>".
TRACED_MODULES = ("problems", "core", "inner", "outer", "complexity", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrapper(name, fn, None)(*args, **kwargs)

    def _wrapper(self, name: str, fn, on_return):
        nid = self._nid(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ----------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original, on_return))

    def install(self, package, extra=()) -> None:
        """Wrap every public function of the traced modules of ``package``.

        ``extra`` lists further ``(owner, attr, name, on_return)`` targets,
        such as methods or third-party functions the library calls.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, obj in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    self.wrap(mod, attr, f"{short}.{attr}", ON_RETURN.get(f"{short}.{attr}"))
        for owner, attr, name, on_return in extra:
            self.wrap(owner, attr, name, on_return)

    def uninstall(self) -> None:
        """Put every original back, newest first, and check that it stuck."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if inspect.getattr_static(owner, attr) is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    # -- results -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pair two marks to select one pass."""
        return len(self.start)

    def layer_totals(self, lo: int = 0, hi: int | None = None, root_scale=None) -> dict[str, list]:
        """name -> [self_s, calls] over spans lo..hi-1 (a closed set of roots)."""
        return self_times(self.names, self.name_id, self.parent, self.start, self.end, lo, hi,
                          root_scale)

    def write(self, path: str) -> None:
        """Write all spans as gzip'd JSON: names plus parallel columns."""
        payload = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)


def self_times(names, name_id, parent, start, end, lo: int = 0, hi: int | None = None,
               root_scale=None):
    """Per-name [self seconds, calls] over the span index range [lo, hi).

    Every parent of a span in the range must lie in the range or be -1; the
    benchmark selects whole passes, which satisfies this.  ``root_scale`` maps
    a root span's index to a factor applied to the self time of every span
    under it (the benchmark's host-speed correction); missing roots use 1.
    """
    hi = len(start) if hi is None else hi
    root_scale = root_scale or {}
    child = [0.0] * (hi - lo)
    scale = [1.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= 0:
            child[p - lo] += end[i] - start[i]
            scale[i - lo] = scale[p - lo]  # a parent's index is always lower
        else:
            scale[i - lo] = root_scale.get(i, 1.0)
    out: dict[str, list] = {}
    for i in range(lo, hi):
        acc = out.setdefault(names[name_id[i]], [0.0, 0])
        acc[0] += ((end[i] - start[i]) - child[i - lo]) * scale[i - lo]
        acc[1] += 1
    return out


# -- counters taken at layer boundaries ---------------------------------------


def _count_gd(counters, args, kwargs, result) -> None:
    variant = args[1] if len(args) > 1 else kwargs.get("variant", "fixed")
    if variant == "backtracking":
        # one call for the start point, then one objective call per trial
        counters["backtracking.iters"] += result.iterations
        counters["backtracking.trials"] += result.oracle_calls - 1


def _count_cubic(counters, args, kwargs, result) -> None:
    # every iteration solves one cubic model; only accepted ones move x
    counters["cubic.model_solves"] += result.iterations
    counters["cubic.rejected"] += result.iterations - result.accepted_steps


ON_RETURN = {
    "inner.gd_solve": _count_gd,
    "inner.cubic_newton_solve": _count_cubic,
}
