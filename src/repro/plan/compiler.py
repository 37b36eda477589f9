"""Graph -> plan lowering: kernel stream, roofline timing, the replay's
aggregates, and the allocation trace, compiled once per point.

``compile_graph`` is the only place in the codebase that lowers a
:class:`~repro.graph.layer.LayerGraph` into its executable form; the
session, the optimization transforms, the depth search, and the profiling
tools all go through it (usually via the session's
:class:`~repro.plan.cache.PlanCache`).

The memory-model constants (``GRADIENT_MAP_FACTOR``, the input staging
buffer count) stay defined in ``repro.training.session`` and are read
lazily at compile time, so ablation studies that monkeypatch them keep
working against the plan layer.
"""

from __future__ import annotations

from repro.frameworks.base import Framework, MomentumAllocation
from repro.graph.layer import LayerGraph
from repro.hardware.devices import GPUSpec
from repro.hardware.memory import AllocationTag
from repro.hardware.roofline import RooflineModel
import repro.kernels.misc as misc
from repro.observability.tracer import trace_span

from repro.plan.compiled import AllocationTrace, CompiledPlan
from repro.plan.executor import ExecutionReplay, replay


def _memory_model_constants() -> tuple:
    """``(GRADIENT_MAP_FACTOR, input staging buffers)`` — read lazily from
    the session module both to avoid a circular import and so runtime
    patches of the constants (sensitivity ablations) take effect here."""
    from repro.training import session as session_module

    return session_module.GRADIENT_MAP_FACTOR, session_module._INPUT_STAGING_BUFFERS


def iteration_stream(graph: LayerGraph) -> list:
    """The full kernel stream of one iteration, before framework
    specialization: input copy, forward, loss, backward, and one
    optimizer-update kernel per weighted layer (frameworks launch
    per-tensor updates)."""
    kernels = [misc.memcpy_h2d(graph.input_bytes)]
    kernels.extend(graph.iteration_kernels())
    for layer in graph.layers:
        if layer.weight_elements > 0:
            kernels.append(misc.sgd_update(layer.weight_elements, momentum=True))
    return kernels


def lower_kernels(graph: LayerGraph, framework: Framework) -> list:
    """The iteration's kernel stream specialized to the framework's
    kernel-efficiency personality."""
    return framework.specialize_kernels(iteration_stream(graph))


def _backward_spans(graph: LayerGraph) -> tuple:
    """Stream-index ranges of each weighted layer's backward kernels.

    The stream layout is ``[h2d copy] + forwards + extras + backwards
    (layers reversed)``; specialization rewrites kernels one-to-one, so
    the indices computed on the graph remain valid on the specialized
    stream and its timings."""
    index = 1  # the h2d input copy
    for layer in graph.layers:
        index += len(layer.forward_kernels)
    index += len(graph.extra_kernels)
    spans = []
    for layer in reversed(graph.layers):
        count = len(layer.backward_kernels)
        if count and layer.weight_elements > 0:
            spans.append((layer.name, index, index + count))
        index += count
    return tuple(spans)


def record_allocations(
    graph: LayerGraph, framework: Framework, offload_fraction: float | None = None
) -> AllocationTrace:
    """One training setup + iteration's allocation trace, in framework
    order: per-layer weights/gradients/maps/workspace, input staging, then
    optimizer state (statically with the weights for TF/CNTK, lazily for
    MXNet — the paper's "dynamic" class).

    With an ``offload_fraction`` ``f`` this is the vDNN-style reduced
    trace of :class:`~repro.plan.transform.FeatureMapOffloadTransform`,
    the base trace with three differences: each stash is scaled by
    ``1 - f`` (that share lives in host memory), there is no
    input-staging record (staging spills to the host too), and optimizer
    state is always dynamic (allocated lazily alongside the prefetches)."""
    gradient_map_factor, staging_buffers = _memory_model_constants()
    fm_factor = (1.0 + gradient_map_factor) * graph.feature_map_overallocation
    offloaded = offload_fraction is not None
    if offloaded:
        fm_factor *= 1.0 - offload_fraction
    workspace_factor = framework.workspace_factor
    num_bytes = []
    tags = []
    labels = []
    for layer in graph.layers:
        name = layer.name
        weight_bytes = layer.weight_bytes
        if weight_bytes:
            num_bytes += (weight_bytes, weight_bytes)
            tags += (AllocationTag.WEIGHTS, AllocationTag.WEIGHT_GRADIENTS)
            labels += (name, name)
        stash_bytes = layer.stash_bytes
        if stash_bytes:
            num_bytes.append(stash_bytes * fm_factor)
            tags.append(AllocationTag.FEATURE_MAPS)
            labels.append(name)
        workspace_bytes = layer.workspace_bytes
        if workspace_bytes:
            num_bytes.append(workspace_bytes * workspace_factor)
            tags.append(AllocationTag.WORKSPACE)
            labels.append(name)
    if graph.input_bytes and not offloaded:
        num_bytes.append(graph.input_bytes * staging_buffers)
        tags.append(AllocationTag.FEATURE_MAPS)
        labels.append("input staging")
    num_bytes.append(graph.total_weight_bytes)
    if offloaded or framework.momentum_allocation is MomentumAllocation.DYNAMIC:
        tags.append(AllocationTag.DYNAMIC)
    else:
        tags.append(AllocationTag.WEIGHTS)
    labels.append("momentum")
    return AllocationTrace(tuple(num_bytes), tuple(tags), tuple(labels))


def compile_graph(
    graph: LayerGraph,
    framework: Framework,
    gpu: GPUSpec,
    roofline: RooflineModel | None = None,
) -> CompiledPlan:
    """Lower one layer graph into a :class:`CompiledPlan` for one device.

    This is the single expensive step of the whole simulated stack; every
    caller that can should reach it through a
    :class:`~repro.plan.cache.PlanCache` so each ``(model, framework,
    batch, gpu)`` point is compiled exactly once.
    """
    span = trace_span(
        "plan.compile",
        model=graph.model_name,
        framework=framework.key,
        device=gpu.name,
        batch_size=graph.batch_size,
    )
    with span:
        kernels = lower_kernels(graph, framework)
        model = roofline if roofline is not None else RooflineModel(gpu)
        timings = model.time_kernels(kernels)
        durations = [timing.duration_s for timing in timings]
        host_syncs = [kernel.host_sync for kernel in kernels]
        execution = ExecutionReplay(
            kernels,
            durations,
            host_syncs,
            framework,
            makespan_s=replay(durations, host_syncs, framework),
        )
        allocations = record_allocations(graph, framework)
        plan = CompiledPlan(
            graph=graph,
            framework=framework,
            gpu=gpu,
            kernels=kernels,
            timings=timings,
            execution=execution,
            allocations=allocations,
            backward_spans=_backward_spans(graph),
        )
        span.set_attributes(
            kernels=len(kernels),
            gpu_busy_s=execution.gpu_busy_s,
            makespan_s=execution.makespan_s,
        )
    return plan
