"""Spans, per-module cProfile counters and -X importtime parsing.

Spans are recorded only around calls the benchmark itself makes into a
layer's public function (nothing under ``src/`` is instrumented). They are
held in memory and written out when the run ends.
"""
from __future__ import annotations

import cProfile
import functools
import os
import time
from pathlib import Path

LAYERS = ("dispersion", "qpm", "tuning", "dwdm", "polarization", "emit",
          "config", "cli")


class Tracer:
    """In-memory span recorder: (name, start, end, parent, op, attrs).

    A span keeps its call's result until ``finish`` turns it into counts, so
    that reading the result does not run inside a profiled region.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, result)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def finish(self) -> list[tuple]:
        self.spans = [(name, start, end, parent, op, _annotate(name, result))
                      for name, start, end, parent, op, result in self.spans]
        return self.spans


def _annotate(name: str, result) -> dict | None:
    """Counts taken from a traced call's result at the layer boundary."""
    if name == "tuning.hub_sweep":
        return {"points": len(result),
                "nonempty": sum(not p.tuning.is_empty for p in result)}
    if name == "tuning.tuning_range":
        return {"points": 1, "nonempty": int(not result.is_empty)}
    if name in ("tuning.pm_spectrum", "dwdm.relative_efficiency_curve"):
        return {"points": len(result)}
    if name in ("dispersion.refractive_index", "qpm.phase_mismatch_vs_converted"):
        return {"points": int(getattr(result, "size", 1))}
    if name.startswith("emit.write") and isinstance(result, Path):
        return {"bytes": result.stat().st_size}
    return None


def wrap_module_imports(module, tracer: Tracer) -> None:
    """Trace every public qfchub layer function ``module`` calls by name.

    Replaces the names in ``module``'s namespace only, so the calls the CLI
    makes are traced while the layers' calls among themselves are not.
    """
    for name, obj in list(vars(module).items()):
        owner = getattr(obj, "__module__", "") or ""
        if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                and owner.startswith("qfchub.") and owner != module.__name__):
            setattr(module, name, tracer.wrap(f"{owner.split('.')[1]}.{obj.__name__}", obj))


def layer_of(filename: str, funcname: str) -> str | None:
    path = filename.replace(os.sep, "/")
    if "/qfchub/" in path:
        stem = Path(path).stem
        return stem if stem in LAYERS else "qfchub"
    if "/numpy/" in path or (filename == "~" and "numpy" in funcname):
        return "numpy"
    if "/scipy/" in path or (filename == "~" and "scipy" in funcname):
        return "scipy"
    return None


def layer_totals(profile: cProfile.Profile) -> dict[str, list[float]]:
    """Calls and self seconds summed per module source file, keyed by layer."""
    profile.create_stats()
    totals: dict[str, list[float]] = {}
    for (filename, _line, funcname), (_cc, nc, tt, _ct, _callers) in profile.stats.items():
        layer = layer_of(filename, funcname)
        if layer:
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += nc
            entry[1] += tt
    return totals


def merge_totals(into: dict[str, list[float]], other: dict[str, list[float]]) -> None:
    for layer, (calls, self_s) in other.items():
        entry = into.setdefault(layer, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s


def importtime_by_package(stderr: str) -> dict[str, float]:
    """Self import time (ms) summed per top-level package, plus 'total'."""
    totals: dict[str, float] = {"total": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        self_ms = int(fields[0]) / 1000.0
        package = fields[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + self_ms
        totals["total"] += self_ms
    return totals


def strip_importtime(stderr: str) -> str:
    return "\n".join(line for line in stderr.splitlines()
                     if not line.startswith("import time:"))
