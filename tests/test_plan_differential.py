"""Differential guard for the plan refactor.

The compiled-plan layer replaced the session's inline graph-build /
lowering / timeline / allocation code with one shared implementation.
This module embeds the *pre-refactor* implementations verbatim (the old
``TrainingSession._iteration_kernels`` / ``_execute_timeline`` /
``_allocate`` / ``simulate_graph`` math and the old standalone
``build_timeline``) and proves the refactor changed nothing: every
``IterationProfile`` field, every timeline event and gap, every memory
snapshot, every OOM boundary, and the exported chrome traces are
*numerically identical* — ``==``, not approx — across the paper grid.
"""

import json

import pytest

from repro.hardware.devices import QUADRO_P4000
from repro.hardware.memory import AllocationTag, GPUMemoryAllocator, OutOfMemoryError
from repro.frameworks.base import MomentumAllocation
import repro.kernels.misc as misc
from repro.models.registry import model_catalog
from repro.plan.executor import Gap, Timeline, TimelineEvent
from repro.plan.pipeline import parse_transform_spec
from repro.plan.transform import FeatureMapOffloadTransform
from repro.profiling.export import timeline_to_chrome_trace
from repro.training.session import (
    GRADIENT_MAP_FACTOR,
    _INPUT_STAGING_BUFFERS,
    IterationProfile,
    TrainingSession,
)

#: Every (model, framework) implementation the paper evaluates, at its
#: reference mini-batch on the paper's primary GPU.
PAPER_GRID = [
    (spec.key, framework, spec.reference_batch)
    for spec in model_catalog().values()
    for framework in spec.frameworks
]


# ----------------------------------------------------------------------
# the pre-refactor implementations, embedded verbatim
# ----------------------------------------------------------------------


def _legacy_iteration_kernels(session, graph):
    kernels = [misc.memcpy_h2d(graph.input_bytes)]
    kernels.extend(graph.iteration_kernels())
    for layer in graph.layers:
        if layer.weight_elements > 0:
            kernels.append(misc.sgd_update(layer.weight_elements, momentum=True))
    return session.framework.specialize_kernels(kernels)


def _legacy_execute_timeline(session, timings):
    dispatch = session.framework.dispatch_cost_s
    sync = session.framework.sync_latency_s
    cpu_ready = session.framework.frontend_cost_s
    gpu_free = 0.0
    busy = 0.0
    sync_cpu = 0.0
    for timing in timings:
        cpu_ready += dispatch
        start = max(gpu_free, cpu_ready)
        gpu_free = start + timing.duration_s
        busy += timing.duration_s
        if timing.kernel.host_sync:
            cpu_ready = gpu_free + sync
            sync_cpu += sync
    dispatch_cpu = (
        session.framework.frontend_cost_s + dispatch * len(timings) + sync_cpu
    )
    return max(gpu_free, cpu_ready), busy, dispatch_cpu


def _legacy_allocate(session, graph, allocator):
    fm_factor = (1.0 + GRADIENT_MAP_FACTOR) * graph.feature_map_overallocation
    for layer in graph.layers:
        if layer.weight_bytes:
            allocator.allocate(layer.weight_bytes, AllocationTag.WEIGHTS, layer.name)
            allocator.allocate(
                layer.weight_bytes, AllocationTag.WEIGHT_GRADIENTS, layer.name
            )
        if layer.stash_bytes:
            allocator.allocate(
                layer.stash_bytes * fm_factor, AllocationTag.FEATURE_MAPS, layer.name
            )
        if layer.workspace_bytes:
            allocator.allocate(
                layer.workspace_bytes * session.framework.workspace_factor,
                AllocationTag.WORKSPACE,
                layer.name,
            )
    if graph.input_bytes:
        allocator.allocate(
            graph.input_bytes * _INPUT_STAGING_BUFFERS,
            AllocationTag.FEATURE_MAPS,
            "input staging",
        )
    momentum_bytes = graph.total_weight_bytes
    if session.framework.momentum_allocation is MomentumAllocation.DYNAMIC:
        allocator.allocate(momentum_bytes, AllocationTag.DYNAMIC, "momentum")
    else:
        allocator.allocate(momentum_bytes, AllocationTag.WEIGHTS, "momentum")


def _legacy_simulate_graph(session, graph, memory=None, display_name=None):
    batch = graph.batch_size
    kernels = _legacy_iteration_kernels(session, graph)
    timings = session._roofline.time_kernels(kernels)
    makespan, busy, dispatch_cpu = _legacy_execute_timeline(session, timings)

    pipeline = session._pipeline.cost(
        max(1, int(batch * session.spec.pipeline_cost_scale)), session.framework
    )
    host_core_seconds = session.spec.host_cpu_cost(session.framework.key)
    host_exposed = host_core_seconds * (1.0 - session.spec.host_cpu_overlap)
    env_core_seconds = session.spec.env_cpu_core_seconds_per_sample * batch
    env_wall = env_core_seconds / session.spec.env_cpu_threads

    iteration_time = makespan + pipeline.exposed_seconds + host_exposed + env_wall
    cpu_core_seconds = (
        dispatch_cpu + pipeline.cpu_core_seconds + host_core_seconds + env_core_seconds
    )
    return IterationProfile(
        model=display_name if display_name is not None else graph.model_name,
        framework=session.framework.name,
        device=session.gpu.name,
        batch_size=batch,
        iteration_time_s=iteration_time,
        gpu_busy_time_s=busy,
        gpu_flops=sum(t.kernel.flops for t in timings),
        effective_samples=graph.effective_samples,
        cpu_core_seconds=cpu_core_seconds,
        cpu_core_count=session.cpu.core_count,
        peak_fp32_flops=session.gpu.peak_fp32_flops,
        kernel_timings=timings,
        memory=memory,
    )


def _legacy_run_iteration(session, batch):
    graph = session.spec.build(batch)
    allocator = GPUMemoryAllocator(
        session.gpu.memory_bytes, pool_overhead=session.framework.pool_overhead
    )
    _legacy_allocate(session, graph, allocator)
    return _legacy_simulate_graph(
        session, graph, memory=allocator.snapshot(),
        display_name=session.spec.display_name,
    )


def _legacy_build_timeline(timings, framework):
    dispatch = framework.dispatch_cost_s
    sync = framework.sync_latency_s
    cpu_ready = framework.frontend_cost_s
    gpu_free = 0.0
    events = []
    gaps = []
    pending_cause = "frontend"
    for timing in timings:
        cpu_ready += dispatch
        start = max(gpu_free, cpu_ready)
        if start > gpu_free:
            gaps.append(Gap(start_s=gpu_free, end_s=start, cause=pending_cause))
        end = start + timing.duration_s
        events.append(
            TimelineEvent(
                name=timing.kernel.name,
                category=timing.kernel.category,
                issued_s=cpu_ready,
                start_s=start,
                end_s=end,
                host_sync=timing.kernel.host_sync,
            )
        )
        gpu_free = end
        if timing.kernel.host_sync:
            cpu_ready = gpu_free + sync
            pending_cause = "host sync"
        else:
            pending_cause = "dispatch"
    return Timeline(events=events, gaps=gaps, makespan_s=max(gpu_free, cpu_ready))


# ----------------------------------------------------------------------
# the differential assertions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model,framework,batch", PAPER_GRID)
def test_iteration_profile_is_bit_identical(model, framework, batch):
    session = TrainingSession(model, framework, gpu=QUADRO_P4000)
    legacy = _legacy_run_iteration(session, batch)
    current = session.run_iteration(batch)

    assert current.model == legacy.model
    assert current.framework == legacy.framework
    assert current.device == legacy.device
    assert current.batch_size == legacy.batch_size
    assert current.iteration_time_s == legacy.iteration_time_s
    assert current.gpu_busy_time_s == legacy.gpu_busy_time_s
    assert current.gpu_flops == legacy.gpu_flops
    assert current.effective_samples == legacy.effective_samples
    assert current.cpu_core_seconds == legacy.cpu_core_seconds
    assert current.cpu_core_count == legacy.cpu_core_count
    assert current.peak_fp32_flops == legacy.peak_fp32_flops
    assert current.kernel_timings == legacy.kernel_timings
    assert current.memory.peak_total == legacy.memory.peak_total
    assert current.memory.peak_by_tag == legacy.memory.peak_by_tag

    assert current.throughput == legacy.throughput
    assert current.gpu_utilization == legacy.gpu_utilization
    assert current.cpu_utilization == legacy.cpu_utilization


def _legacy_offload_stall(timeline, seconds):
    """The pre-refactor ``with_offload_stall``: the stall appended to an
    already-built timeline as one trailing ``"offload"`` gap."""
    stall = Gap(
        start_s=timeline.makespan_s,
        end_s=timeline.makespan_s + seconds,
        cause="offload",
    )
    return Timeline(
        events=timeline.events,
        gaps=[*timeline.gaps, stall],
        makespan_s=timeline.makespan_s + seconds,
    )


def _legacy_timeline_and_plan(model, framework, batch, transforms):
    """``(legacy timeline, current plan)`` for one point, under an
    optional offload transform spec."""
    session = TrainingSession(model, framework, gpu=QUADRO_P4000)
    graph = session.spec.build(batch)
    kernels = _legacy_iteration_kernels(session, graph)
    legacy = _legacy_build_timeline(
        session._roofline.time_kernels(kernels), session.framework
    )
    if transforms is None:
        return legacy, session.compile(batch)
    fraction = float(transforms.split(":", 1)[1])
    legacy = _legacy_offload_stall(
        legacy, FeatureMapOffloadTransform(fraction).exposed_transfer_s(graph)
    )
    return legacy, session.compile_transformed(batch, parse_transform_spec(transforms))


#: The paper grid, plus an offloaded RNN point whose timeline carries the
#: trailing offload stall gap.
TIMELINE_POINTS = [(*point, None) for point in PAPER_GRID] + [
    ("sockeye", "mxnet", 64, "offload:0.6"),
]


@pytest.mark.parametrize("model,framework,batch,transforms", TIMELINE_POINTS)
def test_timeline_is_identical(model, framework, batch, transforms):
    legacy, plan = _legacy_timeline_and_plan(model, framework, batch, transforms)
    current = plan.timeline
    assert current.makespan_s == legacy.makespan_s == plan.makespan_s
    assert current.events == legacy.events
    assert current.gaps == legacy.gaps
    assert current.idle_by_cause() == legacy.idle_by_cause()


@pytest.mark.parametrize(
    "model,framework,batch,transforms",
    [
        ("resnet-50", "mxnet", 32, None),
        ("nmt", "tensorflow", 128, None),
        ("sockeye", "mxnet", 64, "offload:0.6"),
    ],
)
def test_chrome_trace_export_is_byte_identical(model, framework, batch, transforms):
    legacy, plan = _legacy_timeline_and_plan(model, framework, batch, transforms)
    encode = lambda timeline: json.dumps(  # noqa: E731
        timeline_to_chrome_trace(timeline), sort_keys=True, separators=(",", ":")
    )
    assert encode(plan.timeline) == encode(legacy)


@pytest.mark.parametrize("model,framework,batch", PAPER_GRID)
def test_gradient_ready_times_are_the_legacy_event_ends(model, framework, batch):
    """The gradient schedule reads recorded end times, never events: each
    weighted layer's entry is the end of its last backward kernel on the
    legacy timeline."""
    legacy, plan = _legacy_timeline_and_plan(model, framework, batch, None)
    assert plan.gradient_ready_times() == [
        (name, legacy.events[end - 1].end_s)
        for name, _start, end in plan.backward_spans
    ]
    assert "timeline" not in vars(plan.execution)


@pytest.mark.parametrize("framework", ("tensorflow", "mxnet", "cntk"))
def test_oom_boundary_and_message_are_identical(framework):
    session = TrainingSession("resnet-50", framework, gpu=QUADRO_P4000)
    # The sweep batches plus two oversized probes, so the scan is
    # guaranteed to cross the OOM boundary on the paper's 8 GB card.
    for batch in list(session.spec.batch_sizes) + [256, 512]:
        graph = session.spec.build(batch)
        allocator = GPUMemoryAllocator(
            session.gpu.memory_bytes, pool_overhead=session.framework.pool_overhead
        )
        try:
            _legacy_allocate(session, graph, allocator)
            legacy_error = None
        except OutOfMemoryError as error:
            legacy_error = error
        plan = session.compile(batch)
        if legacy_error is None:
            assert plan.fits(session.gpu.memory_bytes)
        else:
            with pytest.raises(OutOfMemoryError) as current_error:
                plan.check_memory(session.gpu.memory_bytes)
            assert str(current_error.value) == str(legacy_error)
    # The scan must actually cross the OOM boundary to guard anything.
    assert not session.compile(512).fits(session.gpu.memory_bytes)
