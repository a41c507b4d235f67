"""Per-layer spans, recorded from outside the program.

The program has no tracing of its own, so the benchmark times each
layer at its public entry points.  :func:`install` wraps every entry
point in :data:`ENTRY_POINTS` and replaces each module-level reference
to it in the loaded ``repro`` modules: ``design_flow`` imports
``extract_paths`` by name, so patching only the defining module would
miss that call.  Spans stay in memory until :meth:`Tracer.write`.

A span records its name, start, end and the span that called it (per
thread), plus a group: the round of an in-process workload, or the
request of a served one (each ``RunSpec.from_json`` opens a group).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    """One timed call of a wrapped entry point."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    group: int
    value: float = 0.0
    """What the call returned, reduced to a count (0 if it raised)."""

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Tracer:
    """Span store for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = 0
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, measure=None, opens_group=False):
        """``func`` timed as span ``name``; ``measure(result)`` reduces
        what the call returned to the span's value."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if opens_group:
                self.group += 1
            stack = self._stack()
            span_id = next(self._ids)
            parent_id = stack[-1] if stack else None
            stack.append(span_id)
            value = 0.0
            start_s = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    value = float(measure(result))
            finally:
                end_s = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent_id, name, start_s,
                                       end_s, self.group, value))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    @staticmethod
    def read(path) -> list[Span]:
        with open(path, encoding="utf-8") as handle:
            return [Span(*fields) for fields in json.load(handle)]


#: (module, attribute path, span name, value of a result, opens a group)
ENTRY_POINTS = (
    ("repro.tech.characterize", "characterize_library",
     "tech.characterize", None, False),
    ("repro.circuits.catalog", "build_benchmark", "circuits.build",
     None, False),
    ("repro.synth.mapping", "map_netlist", "synth.map", None, False),
    ("repro.synth.sizing", "size_for_load", "synth.size", None, False),
    ("repro.placement.placer", "place_design", "placement.place",
     None, False),
    ("repro.placement.anneal", "anneal_place", "placement.anneal",
     None, False),
    ("repro.netlist.core", "Netlist.topological_order",
     "netlist.topo_order", None, False),
    ("repro.sta.engine", "TimingAnalyzer.for_placed", "sta.analyzer_build",
     None, False),
    ("repro.sta.engine", "TimingAnalyzer.analyze", "sta.scalar_analyze",
     None, False),
    ("repro.sta.paths", "extract_paths", "sta.extract_paths",
     len, False),
    ("repro.sta.batched", "BatchedTimingAnalyzer.analyze",
     "sta.batched_analyze", None, False),
    ("repro.sta.batched", "BatchedTimingAnalyzer.critical_delays",
     "sta.batched_analyze", None, False),
    ("repro.sta.batched", "BatchedTimingAnalyzer.refine",
     "sta.batched_refine", None, False),
    ("repro.core.problem", "build_problem", "core.build_problem",
     lambda problem: problem.num_constraints, False),
    ("repro.core.heuristic", "solve_heuristic", "core.heuristic",
     None, False),
    ("repro.core.ilp_alloc", "build_ilp", "ilp.build", None, False),
    ("repro.core.ilp_alloc", "solve_ilp", "ilp.solve",
     lambda solution: solution.optimal, False),
    ("repro.variation.montecarlo", "sample_dies", "variation.sample",
     None, False),
    ("repro.tuning.batched", "calibrate_dies_batched",
     "tuning.calibrate_batched", None, False),
    ("repro.tuning.controller", "TuningController.allocate_for_estimate",
     "tuning.allocate", None, False),
    ("repro.tuning.controller", "TuningController.calibrate_spatial",
     "tuning.calibrate_spatial", None, False),
    ("repro.tuning.lifetime", "run_lifetime", "tuning.lifetime",
     None, False),
    ("repro.flow.design_flow", "implement", "flow.implement", None, False),
    ("repro.api", "execute_spec", "api.execute_spec", None, False),
    ("repro.api", "RunSpec.from_json", "api.spec_decode", None, True),
    ("repro.api", "RunSpec.spec_hash", "api.spec_decode", None, False),
    ("repro.api", "RunResult.to_json", "api.result_encode", None, False),
    ("repro.flow.executor", "ExecutionEngine.run_spec",
     "flow.executor_run_spec", None, False),
    ("repro.flow.cache", "ArtifactCache.lookup", "flow.cache_lookup",
     lambda found_value: found_value[0], False),
    ("repro.flow.cache", "ArtifactCache.put", "flow.cache_put",
     None, False),
    ("repro.serve.service", "AllocationServer.stats", "serve.stats",
     None, False),
)


def _wrap_registry_get(tracer: Tracer, get):
    """Registry lookups hand out the solver timed as ``core.solve``."""

    @functools.wraps(get)
    def traced_get(registry, method):
        entry = get(registry, method)
        return dataclasses.replace(
            entry, func=tracer.wrap("core.solve", entry.func))

    return traced_get


def install(tracer: Tracer):
    """Wrap every entry point; returns a function that undoes it."""
    undo = []

    def patch(owner, attribute, value):
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    for module_name, path, name, measure, opens_group in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            wrapper = tracer.wrap(name, original, measure, opens_group)
            for loaded in _repro_modules():
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        patch(loaded, attribute, wrapper)
            continue
        class_name, method_name = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[method_name]
        if isinstance(raw, classmethod):
            wrapper = classmethod(tracer.wrap(name, raw.__func__,
                                              measure, opens_group))
        else:
            wrapper = tracer.wrap(name, raw, measure, opens_group)
        patch(owner, method_name, wrapper)

    from repro.core.registry import SolverRegistry
    patch(SolverRegistry, "get",
          _wrap_registry_get(tracer, SolverRegistry.__dict__["get"]))

    def uninstall():
        for owner, attribute, value in reversed(undo):
            setattr(owner, attribute, value)

    return uninstall


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


# -- per-layer metrics --------------------------------------------------------

#: per-layer time metric -> span name; the metric is the time inside
#: that entry point (outermost calls only, so recursion is not
#: counted twice)
INCLUSIVE_TIMES = {
    "tech.characterize_s": "tech.characterize",
    "circuits.build_s": "circuits.build",
    "synth.map_s": "synth.map",
    "synth.size_s": "synth.size",
    "placement.place_s": "placement.place",
    "placement.anneal_s": "placement.anneal",
    "netlist.topo_order_s": "netlist.topo_order",
    "sta.analyzer_build_s": "sta.analyzer_build",
    "sta.extract_paths_s": "sta.extract_paths",
    "core.build_problem_s": "core.build_problem",
    "core.solve_s": "core.solve",
    "ilp.build_s": "ilp.build",
    "ilp.solve_s": "ilp.solve",
    "core.heuristic_s": "core.heuristic",
    "variation.sample_s": "variation.sample",
    "sta.batched_analyze_s": "sta.batched_analyze",
    "sta.batched_refine_s": "sta.batched_refine",
    "sta.scalar_analyze_s": "sta.scalar_analyze",
    "tuning.calibrate_batched_s": "tuning.calibrate_batched",
    "tuning.calibrate_spatial_s": "tuning.calibrate_spatial",
    "tuning.lifetime_s": "tuning.lifetime",
    "api.spec_decode_s": "api.spec_decode",
    "api.result_encode_s": "api.result_encode",
    "flow.executor_run_spec_s": "flow.executor_run_spec",
    "flow.cache_lookup_s": "flow.cache_lookup",
    "flow.cache_put_s": "flow.cache_put",
    "api.execute_spec_s": "api.execute_spec",
}

#: per-layer call-count metric -> span name
CALL_COUNTS = {
    "netlist.topo_order_calls": "netlist.topo_order",
    "ilp.solves": "ilp.solve",
    "sta.batched_analyze_calls": "sta.batched_analyze",
    "sta.batched_refine_calls": "sta.batched_refine",
    "sta.scalar_analyze_calls": "sta.scalar_analyze",
    "tuning.allocations": "tuning.allocate",
    "tuning.calibrate_spatial_calls": "tuning.calibrate_spatial",
    "core.build_problem_calls": "core.build_problem",
    "flow.cache_lookups": "flow.cache_lookup",
}

#: per-layer count metric -> span name whose values it sums
VALUE_SUMS = {
    "sta.paths_extracted": "sta.extract_paths",
    "core.constraints": "core.build_problem",
}

#: per-layer ratio metric -> span name: the share of its calls whose
#: value is true (optimal ILP solves, cache lookups that hit)
RATIOS = {
    "ilp.optimal_ratio": "ilp.solve",
    "flow.cache_hit_ratio": "flow.cache_lookup",
}


def in_windows(spans, windows):
    """The spans that start inside one of the ``(start, end)`` windows."""
    return [span for span in spans
            if any(start <= span.start_s <= end for start, end in windows)]


def covered_s(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def untracked_s(spans, windows) -> float:
    """Window time not covered by any top-level span."""
    total = 0.0
    for start, end in windows:
        tops = [(max(span.start_s, start), min(span.end_s, end))
                for span in spans
                if span.parent_id is None and span.end_s > start
                and span.start_s < end]
        total += (end - start) - covered_s(tops)
    return total


def self_time_s(spans, name: str) -> float:
    """Time in spans called ``name`` minus the time in their children."""
    child_time: Counter[int] = Counter()
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration_s
    return sum(span.duration_s - child_time[span.span_id]
               for span in spans if span.name == name)


def inclusive_times_s(spans) -> Counter:
    """Per span name, the time in its outermost calls."""
    by_id = {span.span_id: span for span in spans}
    totals: Counter[str] = Counter()
    for span in spans:
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            totals[span.name] += span.duration_s
    return totals


def layer_metrics(spans, windows, rounds: int) -> dict:
    """Every per-layer metric but ``serve.outside_engine_ms`` from the
    spans inside the timed windows: times and counts per round, ratios
    over all calls (0 when there were none)."""
    spans = in_windows(spans, windows)
    calls = Counter(span.name for span in spans)
    values = Counter()
    for span in spans:
        values[span.name] += span.value
    inclusive = inclusive_times_s(spans)
    metrics = {}
    for metric, name in INCLUSIVE_TIMES.items():
        metrics[metric] = (inclusive[name] / rounds, "s")
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (calls[name] / rounds, "count")
    for metric, name in VALUE_SUMS.items():
        metrics[metric] = (values[name] / rounds, "count")
    for metric, name in RATIOS.items():
        metrics[metric] = (values[name] / calls[name] if calls[name] else 0.0,
                           "ratio")
    metrics["flow.implement_self_s"] = (
        self_time_s(spans, "flow.implement") / rounds, "s")
    metrics["trace.untracked_s"] = (untracked_s(spans, windows) / rounds,
                                    "s")
    return metrics
