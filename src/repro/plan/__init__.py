"""Compiled execution plans: the one lowering/timing IR the whole stack
shares.

The paper's toolchain profiles a workload once and asks many questions of
the same run.  This package gives the simulated runtime the same shape —
an XLA-style compile-then-execute split:

- :mod:`repro.plan.compiler` lowers a layer graph once into a
  :class:`~repro.plan.compiled.CompiledPlan` (kernel stream, roofline
  timings, dispatch/execute replay, allocation trace);
- :mod:`repro.plan.executor` holds the one dispatch/execute recurrence
  every makespan (noiseless or noisy) and every timeline comes from;
- :mod:`repro.plan.cache` memoizes plans so each ``(model, framework,
  batch, gpu)`` point compiles exactly once per session;
- :mod:`repro.plan.transform` expresses the optimization what-ifs as
  plan -> plan rewrites with checked conservation contracts;
- :mod:`repro.plan.pipeline` composes those rewrites behind the
  ``--transforms`` mini-language (``fused_rnn+fp16+offload:0.5``) with
  canonical normalized ordering and composition-wide contract checks;
- :mod:`repro.plan.symbolic` (with :mod:`repro.plan.symexpr`) compiles
  once per (model, framework, GPU) with a symbolic batch and specializes
  per batch.  No module in this package or elsewhere under ``repro``
  imports it, and this package does not re-export it: every answer
  (sweeps, tuning, OOM probes) comes from
  :func:`~repro.plan.compiler.compile_graph`.  It is kept only while the
  host wall-clock benchmark (``benchmarks/wall``) patches it by name.
"""

from repro.plan.cache import PlanCache, PlanCacheStats
from repro.plan.compiled import AllocationRecord, CompiledPlan
from repro.plan.compiler import (
    compile_graph,
    lower_kernels,
    record_allocations,
    reduced_offload_allocations,
)
from repro.plan.executor import ExecutionReplay, replay
from repro.plan.pipeline import (
    PipelineStage,
    TransformPipeline,
    TransformSpecError,
    canonical_transform_spec,
    parse_transform_spec,
    transform_catalog,
)
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    FusedRNNTransform,
    HalfPrecisionStorageTransform,
    PlanTransform,
    ResNetDepthTransform,
    TransformArgumentError,
    TransformContractError,
)

__all__ = [
    "AllocationRecord",
    "CompiledPlan",
    "ExecutionReplay",
    "FeatureMapOffloadTransform",
    "FusedRNNTransform",
    "HalfPrecisionStorageTransform",
    "PipelineStage",
    "PlanCache",
    "PlanCacheStats",
    "PlanTransform",
    "ResNetDepthTransform",
    "TransformArgumentError",
    "TransformContractError",
    "TransformPipeline",
    "TransformSpecError",
    "canonical_transform_spec",
    "compile_graph",
    "lower_kernels",
    "parse_transform_spec",
    "record_allocations",
    "reduced_offload_allocations",
    "replay",
    "transform_catalog",
]
