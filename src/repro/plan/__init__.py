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
  plan -> plan rewrites with conservation contracts, all checked by one
  function (:func:`~repro.plan.transform.enforce_contracts`); each
  physical effect has one model (offload's allocation trace is the
  compiler's :func:`~repro.plan.compiler.record_allocations` with an
  offload fraction);
- :mod:`repro.plan.pipeline` parses the ``--transforms`` mini-language
  (``fused_rnn+fp16+offload:0.5``) into canonically ordered pipelines,
  which apply only through
  :meth:`~repro.training.session.TrainingSession.compile_transformed`
  (per-prefix memo, then the composition-wide contract check).
"""

from repro.plan.cache import PlanCache, PlanCacheStats
from repro.plan.compiled import AllocationRecord, AllocationTrace, CompiledPlan
from repro.plan.compiler import compile_graph, lower_kernels, record_allocations
from repro.plan.executor import ExecutionReplay, replay
from repro.plan.pipeline import (
    PipelineStage,
    TransformPipeline,
    TransformSpecError,
    parse_transform_spec,
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
    "AllocationTrace",
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
    "compile_graph",
    "lower_kernels",
    "parse_transform_spec",
    "record_allocations",
    "replay",
]
