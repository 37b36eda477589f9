"""Per-layer host-time attribution, recorded from outside the program.

:func:`install` replaces the public entry points of each simulator layer
with wrappers that record one span per call (name, start, end, parent
span, run id) into a :class:`Tracer`.  Nothing under ``src/`` changes:
the wrappers are installed in the measuring process only, and only in a
traced run — every end-to-end number comes from untraced runs.

Only per-plan and per-point calls are wrapped, never the per-kernel
``RooflineModel.time_kernel``; ``trace_overhead_ratio`` reports what the
wrappers cost.
"""

from __future__ import annotations

import functools
import os
import time
import types

#: Every wrapped layer, in table order.  ``<layer>.calls`` counts wrapped
#: calls; ``<layer>.self_s`` is span time minus time in child spans.
LAYERS = (
    "plan.symbolic.trace",
    "plan.symbolic.specialize",
    "models.build",
    "plan.lower",
    "hardware.roofline",
    "plan.replay",
    "plan.alloc",
    "plan.compile",
    "plan.memory",
    "plan.transform",
    "plan.cache",
    "tune.search",
    "bench.runner",
    "engine.keys",
    "engine.cache.load",
    "engine.merge",
    "engine.executor",
    "engine.cache.store",
    "training.session",
    "conformance.invariants",
    "conformance.generator",
    "distributed",
    "faults",
)

#: Counters the wrappers record at the same boundaries.
COUNTERS = (
    "plan.lower.kernels",
    "plan.cache.hits",
    "plan.cache.misses",
    "bench.runner.samples",
    "engine.cache.load.hits",
    "engine.cache.load.misses",
    "engine.cache.store.bytes",
    "engine.executor.points_computed",
    "engine.executor.worker_failures",
    "engine.executor.corrupt_entries",
)

#: Every per-layer metric of a traced run, with its unit.
UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "plan.lower.kernels": "count",
    "plan.us_per_kernel": "us",
    "plan.cache.hits": "count",
    "plan.cache.misses": "count",
    "plan.cache.hit_ratio": "ratio",
    "bench.runner.samples": "count",
    "engine.cache.load.hit_ratio": "ratio",
    "engine.cache.store.bytes": "B",
    "engine.executor.points_computed": "count",
    "engine.executor.worker_failures": "count",
    "engine.executor.corrupt_entries": "count",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}


class Tracer:
    """Spans kept in memory until the run ends, plus named counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: ``[name, start_s, end_s, parent_index]``; parent -1 is a root.
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def chrome_trace(self) -> dict:
        """The spans as a chrome://tracing document (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "traceEvents": [
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"span": index, "parent": parent, "run": self.run_id},
                }
                for index, (name, start, end, parent) in enumerate(self.spans)
            ]
        }


def self_times(spans) -> dict:
    """``{name: (calls, self seconds)}``: each span's duration minus the
    time its direct children cover.  A layer that calls itself (nested
    spans of one name) is counted once per call and never twice in time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + (end - start) - child_time[index])
    return totals


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Every per-layer metric of one traced run (zeros for idle layers)."""
    totals = self_times(tracer.spans)
    metrics = {}
    for layer in LAYERS:
        calls, seconds = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = seconds
    c = tracer.counters
    kernels = c["plan.lower.kernels"]
    metrics["plan.lower.kernels"] = kernels
    metrics["plan.us_per_kernel"] = (
        metrics["plan.lower.self_s"] / kernels * 1e6 if kernels else 0.0
    )
    metrics["plan.cache.hits"] = c["plan.cache.hits"]
    metrics["plan.cache.misses"] = c["plan.cache.misses"]
    metrics["plan.cache.hit_ratio"] = _ratio(
        c["plan.cache.hits"], c["plan.cache.hits"] + c["plan.cache.misses"]
    )
    metrics["bench.runner.samples"] = c["bench.runner.samples"]
    metrics["engine.cache.load.hit_ratio"] = _ratio(
        c["engine.cache.load.hits"],
        c["engine.cache.load.hits"] + c["engine.cache.load.misses"],
    )
    metrics["engine.cache.store.bytes"] = c["engine.cache.store.bytes"]
    for name in ("points_computed", "worker_failures", "corrupt_entries"):
        metrics[f"engine.executor.{name}"] = c[f"engine.executor.{name}"]
    attributed = sum(end - start for _n, start, end, parent in tracer.spans if parent < 0)
    metrics["unattributed_s"] = wall_s - attributed
    return metrics


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _patch(owner, attr: str, tracer: Tracer, name: str, inner=None) -> None:
    """Wrap ``owner.attr`` in a ``name`` span.  ``inner(original)``, when
    given, returns the callable to wrap instead (a counting shim that
    calls the original; its cost lands in the layer's own self time)."""
    original = getattr(owner, attr)
    target = original
    if inner is not None:
        target = functools.wraps(original)(inner(original))
    wrapped = tracer.wrap(name, target)
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, wrapped)
    else:  # a frozen dataclass field (ModelSpec.build, Invariant.check)
        object.__setattr__(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer in :data:`LAYERS` for the rest of this process."""
    from repro.bench.runner import InterleavedRunner
    from repro.conformance import invariants, runner as conformance_runner
    from repro.distributed.data_parallel import DataParallelTrainer
    from repro.engine import executor
    from repro.engine.cache import ResultCache
    from repro.engine.executor import SweepEngine
    from repro.faults.trainer import FaultTolerantTrainer
    from repro.hardware.roofline import RooflineModel
    from repro.models.registry import extension_catalog, model_catalog
    from repro.plan import compiler, symbolic
    from repro.plan.cache import PlanCache
    from repro.plan.compiled import CompiledPlan
    from repro.plan.transform import PlanTransform
    from repro.training.session import TrainingSession
    from repro.tune.search import Autotuner

    # Compile layers.  ``replay`` is looked up by name in two modules.
    _patch(symbolic, "compile_symbolic", tracer, "plan.symbolic.trace")
    _patch(symbolic.SymbolicPlanSet, "specialize", tracer, "plan.symbolic.specialize")
    for spec in list(model_catalog().values()) + list(extension_catalog().values()):
        _patch(spec, "build", tracer, "models.build")

    def count_kernels(original):
        def lower_kernels(*args, **kwargs):
            kernels = original(*args, **kwargs)
            tracer.count("plan.lower.kernels", len(kernels))
            return kernels

        return lower_kernels

    _patch(compiler, "lower_kernels", tracer, "plan.lower", count_kernels)
    _patch(RooflineModel, "time_kernels", tracer, "hardware.roofline")
    _patch(compiler, "replay", tracer, "plan.replay")
    _patch(symbolic, "replay", tracer, "plan.replay")
    _patch(compiler, "record_allocations", tracer, "plan.alloc")
    _patch(compiler, "compile_graph", tracer, "plan.compile")
    _patch(CompiledPlan, "check_memory", tracer, "plan.memory")
    _patch(CompiledPlan, "fits", tracer, "plan.memory")
    _patch(PlanTransform, "apply", tracer, "plan.transform")

    def count_plan_lookups(original):
        def get(cache, key, factory):
            tracer.count("plan.cache.hits" if key in cache else "plan.cache.misses")
            return original(cache, key, factory)

        return get

    _patch(PlanCache, "get", tracer, "plan.cache", count_plan_lookups)

    # Tuning and the A/B runner.
    _patch(Autotuner, "rank", tracer, "tune.search")
    _patch(Autotuner, "confirm", tracer, "tune.search")

    def count_samples(original):
        def run(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count("bench.runner.samples", 2 * result.samples_per_side)
            return result

        return run

    _patch(InterleavedRunner, "run", tracer, "bench.runner", count_samples)

    # The sweep engine: keys, cache I/O, merge, and the grid executor.
    _patch(executor, "point_key", tracer, "engine.keys")

    def count_loads(original):
        def load(cache, key):
            payload = original(cache, key)
            tracer.count(
                "engine.cache.load.misses" if payload is None else "engine.cache.load.hits"
            )
            return payload

        return load

    _patch(ResultCache, "load", tracer, "engine.cache.load", count_loads)

    def count_stored_bytes(original):
        def store(*args, **kwargs):
            path = original(*args, **kwargs)
            tracer.count("engine.cache.store.bytes", os.path.getsize(path))
            return path

        return store

    _patch(ResultCache, "store", tracer, "engine.cache.store", count_stored_bytes)
    for name in ("payload_to_point", "point_to_payload", "merge_ordered"):
        _patch(executor, name, tracer, "engine.merge")

    def count_engine_stats(original):
        fields = ("points_computed", "worker_failures", "corrupt_entries")

        def run_grid(engine, specs):
            before = [getattr(engine.stats, field) for field in fields]
            try:
                return original(engine, specs)
            finally:
                for field, old in zip(fields, before):
                    tracer.count(f"engine.executor.{field}", getattr(engine.stats, field) - old)

        return run_grid

    _patch(SweepEngine, "run_grid", tracer, "engine.executor", count_engine_stats)

    # Sessions, conformance, distributed and fault-tolerant training.
    _patch(TrainingSession, "run_iteration", tracer, "training.session")
    _patch(TrainingSession, "execute_plan", tracer, "training.session")
    for invariant in invariants.invariant_registry():
        _patch(invariant, "check", tracer, "conformance.invariants")
    _patch(conformance_runner, "generate_cases", tracer, "conformance.generator")
    _patch(conformance_runner, "shrink", tracer, "conformance.generator")
    _patch(DataParallelTrainer, "run_iteration", tracer, "distributed")
    _patch(FaultTolerantTrainer, "run", tracer, "faults")
