"""The ``symbolic-sweep`` suite: batch sweeps against per-point recompiles.

The symbolic plan layer (:mod:`repro.plan.symbolic`) was built so a
batch sweep costs one traced compile plus cheap specializations instead
of one full compile per point.  Sessions now answer with the memoized
concrete compiler, which measured faster; the layer is an off-path
library until it is deleted.  This suite measures the layer's claim and
guards its preconditions:

- **measured** (wall-clock, excluded from the trajectory digest): the
  median time of a cold 7-point sweep (trace + 7 specializations), a warm
  sweep over the same traced set (7 specializations, zero compiles), and
  the per-point recompilation baseline (7 ``compile_graph`` calls).
- **guarded** (deterministic, digest-keyed and CI-gated): every sweep
  performs exactly ONE symbolic compile per (model, framework, GPU), the
  warm sweep performs ZERO, the symbolic path never calls the concrete
  compiler, and every specialized plan is bit-identical to the concrete
  compiler's output (:func:`repro.plan.symbolic.plan_difference`).

The sweep grids are chosen to sit inside one guard region (verified by
the gate, not assumed), so the one-compile guarantee is a property of the
suite's design rather than of a lucky trace hint.  Wall-clock numbers are
recorded under the ``measured`` field, which :meth:`BenchStore.append`
excludes from the record digest — reruns on unchanged code converge on
one trajectory record instead of appending a near-duplicate per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from repro.bench.store import BenchStore, environment_fingerprint
from repro.frameworks import get_framework
from repro.hardware.devices import QUADRO_P4000
from repro.models.registry import get_model
from repro.observability.tracer import trace_span
from repro.plan import compiler as plan_compiler
from repro.plan.symbolic import SymbolicPlanSet, plan_difference

SUITE_NAME = "symbolic-sweep"

#: Seven-point batch grids, one per architecture family, each chosen to
#: stay inside a single guard region of its model's symbolic trace.
SWEEP_CASES = (
    ("resnet-50", "mxnet", (4, 8, 12, 16, 20, 24, 28)),
    ("inception-v3", "tensorflow", (8, 12, 16, 20, 24, 28, 32)),
    ("nmt", "tensorflow", (4, 6, 8, 10, 12, 14, 16)),
    ("sockeye", "mxnet", (4, 6, 8, 10, 12, 14, 16)),
    ("transformer", "tensorflow", (128, 192, 256, 320, 384, 448, 512)),
)


@dataclass(frozen=True)
class SweepCaseResult:
    """One case's deterministic guards plus its wall-clock medians."""

    model: str
    framework: str
    batches: tuple
    #: Traced compiles during the cold sweep (the guard wants exactly 1).
    symbolic_compiles: int
    #: Traced compiles during the warm sweep (the guard wants exactly 0).
    warm_symbolic_compiles: int
    #: ``compile_graph`` calls observed on the symbolic path (wants 0).
    concrete_compiles_on_symbolic_path: int
    #: Every specialized plan bit-identical to the concrete compiler's.
    identical: bool
    cold_s: float
    warm_s: float
    concrete_s: float

    @property
    def name(self) -> str:
        return f"{self.model}/{self.framework}/{len(self.batches)}pt"

    @property
    def cold_speedup(self) -> float:
        return self.concrete_s / self.cold_s if self.cold_s > 0 else 0.0

    @property
    def warm_speedup(self) -> float:
        return self.concrete_s / self.warm_s if self.warm_s > 0 else 0.0

    @property
    def guards_ok(self) -> bool:
        return (
            self.symbolic_compiles == 1
            and self.warm_symbolic_compiles == 0
            and self.concrete_compiles_on_symbolic_path == 0
            and self.identical
        )

    def guard_doc(self) -> dict:
        """The digest-keyed (deterministic) half of the result."""
        return {
            "name": self.name,
            "model": self.model,
            "framework": self.framework,
            "batches": list(self.batches),
            "symbolic_compiles": self.symbolic_compiles,
            "warm_symbolic_compiles": self.warm_symbolic_compiles,
            "concrete_compiles_on_symbolic_path": (
                self.concrete_compiles_on_symbolic_path
            ),
            "identical": self.identical,
        }

    def measured_doc(self) -> dict:
        """The volatile (wall-clock) half of the result."""
        return {
            "cold_s": self.cold_s,
            "warm_s": self.warm_s,
            "concrete_s": self.concrete_s,
            "cold_speedup": self.cold_speedup,
            "warm_speedup": self.warm_speedup,
        }

    def format_row(self) -> str:
        status = "ok" if self.guards_ok else "GUARD-FAIL"
        return (
            f"{self.name:<32} compiles={self.symbolic_compiles} "
            f"warm={self.warm_symbolic_compiles} "
            f"cold x{self.cold_speedup:5.2f} warm x{self.warm_speedup:5.2f} "
            f"{status}"
        )


def _run_case(model: str, framework_key: str, batches, gpu, repeats: int):
    spec = get_model(model)
    framework = get_framework(framework_key)
    concrete_calls = []
    orig_compile_graph = plan_compiler.compile_graph

    def counting_compile_graph(*args, **kwargs):
        concrete_calls.append(1)
        return orig_compile_graph(*args, **kwargs)

    cold_times, warm_times, concrete_times = [], [], []
    symbolic_compiles = warm_compiles = 0
    for _ in range(max(1, int(repeats))):
        sset = SymbolicPlanSet(spec, framework, gpu)
        plan_compiler.compile_graph = counting_compile_graph
        try:
            start = time.perf_counter()
            for batch in batches:
                sset.specialize(batch)
            cold_times.append(time.perf_counter() - start)
            symbolic_compiles = sset.compile_count
            start = time.perf_counter()
            for batch in batches:
                sset.specialize(batch)
            warm_times.append(time.perf_counter() - start)
            warm_compiles = sset.compile_count - symbolic_compiles
        finally:
            plan_compiler.compile_graph = orig_compile_graph
        start = time.perf_counter()
        concrete = [
            plan_compiler.compile_graph(spec.build(batch), framework, gpu)
            for batch in batches
        ]
        concrete_times.append(time.perf_counter() - start)
    final_set = SymbolicPlanSet(spec, framework, gpu)
    identical = all(
        plan_difference(final_set.specialize(batch), plan) is None
        for batch, plan in zip(batches, concrete)
    )
    return SweepCaseResult(
        model=model,
        framework=framework_key,
        batches=tuple(batches),
        symbolic_compiles=symbolic_compiles,
        warm_symbolic_compiles=warm_compiles,
        concrete_compiles_on_symbolic_path=len(concrete_calls),
        identical=identical,
        cold_s=median(cold_times),
        warm_s=median(warm_times),
        concrete_s=median(concrete_times),
    )


def run_symbolic_sweep(repeats: int = 5, gpu=QUADRO_P4000, cases=SWEEP_CASES):
    """Run every sweep case; returns the :class:`SweepCaseResult` list."""
    results = []
    with trace_span(
        "bench.symbolic_sweep", cases=len(cases), repeats=repeats, gpu=gpu.name
    ):
        for model, framework_key, batches in cases:
            results.append(_run_case(model, framework_key, batches, gpu, repeats))
    return results


def gate_doc_for(results) -> dict:
    """The gate verdict: deterministic guards only — wall-clock speedups
    are recorded, never gated (they are machine-dependent)."""
    failures = [result.name for result in results if not result.guards_ok]
    return {"passed": not failures, "failures": sorted(failures)}


def build_sweep_record(results, repeats: int, gpu=QUADRO_P4000) -> dict:
    return {
        "suite": SUITE_NAME,
        "repeats": repeats,
        "environment": environment_fingerprint(gpu=gpu),
        "results": [result.guard_doc() for result in results],
        "measured": {result.name: result.measured_doc() for result in results},
        "gate": gate_doc_for(results),
    }


def run_and_record(store_dir: str, repeats: int = 5, gpu=QUADRO_P4000):
    """Run the suite and append one trajectory record; returns
    ``(results, gate_doc, path)``."""
    results = run_symbolic_sweep(repeats=repeats, gpu=gpu)
    store = BenchStore(store_dir)
    store.append(
        SUITE_NAME,
        build_sweep_record(results, repeats, gpu=gpu),
        volatile=("measured",),
    )
    return results, gate_doc_for(results), store.path(SUITE_NAME)
