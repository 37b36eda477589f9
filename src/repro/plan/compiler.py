"""Graph -> plan lowering: kernel stream, roofline timing, replay, and the
allocation trace, compiled once per point.

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

from repro.plan.compiled import AllocationRecord, CompiledPlan
from repro.plan.executor import replay


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


def record_allocations(graph: LayerGraph, framework: Framework) -> list:
    """One training setup + iteration's allocation trace, in framework
    order: per-layer weights/gradients/maps/workspace, input staging, then
    optimizer state (statically with the weights for TF/CNTK, lazily for
    MXNet — the paper's "dynamic" class)."""
    gradient_map_factor, staging_buffers = _memory_model_constants()
    fm_factor = (1.0 + gradient_map_factor) * graph.feature_map_overallocation
    records = []
    for layer in graph.layers:
        if layer.weight_bytes:
            records.append(
                AllocationRecord(layer.weight_bytes, AllocationTag.WEIGHTS, layer.name)
            )
            records.append(
                AllocationRecord(
                    layer.weight_bytes, AllocationTag.WEIGHT_GRADIENTS, layer.name
                )
            )
        if layer.stash_bytes:
            records.append(
                AllocationRecord(
                    layer.stash_bytes * fm_factor,
                    AllocationTag.FEATURE_MAPS,
                    layer.name,
                )
            )
        if layer.workspace_bytes:
            records.append(
                AllocationRecord(
                    layer.workspace_bytes * framework.workspace_factor,
                    AllocationTag.WORKSPACE,
                    layer.name,
                )
            )
    if graph.input_bytes:
        records.append(
            AllocationRecord(
                graph.input_bytes * staging_buffers,
                AllocationTag.FEATURE_MAPS,
                "input staging",
            )
        )
    momentum_bytes = graph.total_weight_bytes
    if framework.momentum_allocation is MomentumAllocation.DYNAMIC:
        records.append(
            AllocationRecord(momentum_bytes, AllocationTag.DYNAMIC, "momentum")
        )
    else:
        records.append(
            AllocationRecord(momentum_bytes, AllocationTag.WEIGHTS, "momentum")
        )
    return records


def reduced_offload_allocations(
    graph: LayerGraph, framework: Framework, offload_fraction: float
) -> list:
    """The vDNN-style reduced allocation trace: the offloaded stash
    fraction lives in host memory, input staging is spilled too, and
    optimizer state is allocated lazily (dynamic) alongside the
    prefetches."""
    gradient_map_factor, _staging = _memory_model_constants()
    fm_factor = (
        (1.0 + gradient_map_factor)
        * graph.feature_map_overallocation
        * (1.0 - offload_fraction)
    )
    records = []
    for layer in graph.layers:
        if layer.weight_bytes:
            records.append(AllocationRecord(layer.weight_bytes, AllocationTag.WEIGHTS))
            records.append(
                AllocationRecord(layer.weight_bytes, AllocationTag.WEIGHT_GRADIENTS)
            )
        if layer.stash_bytes:
            records.append(
                AllocationRecord(
                    layer.stash_bytes * fm_factor, AllocationTag.FEATURE_MAPS
                )
            )
        if layer.workspace_bytes:
            records.append(
                AllocationRecord(
                    layer.workspace_bytes * framework.workspace_factor,
                    AllocationTag.WORKSPACE,
                )
            )
    records.append(AllocationRecord(graph.total_weight_bytes, AllocationTag.DYNAMIC))
    return records


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
        execution = replay(timings, framework)
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
