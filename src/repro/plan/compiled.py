"""The compiled execution-plan IR.

A :class:`CompiledPlan` is the immutable, fully-lowered form of one
``(model graph, framework, batch, GPU)`` point: the specialized kernel
stream, its roofline timings, the resolved dispatch/execute replay, and
the allocation trace a training iteration replays through the memory
allocator.  It is the single substrate every consumer reads —
``TrainingSession`` executes plans, the optimization what-ifs transform
them, ``distributed.data_parallel`` derives gradient-ready times from
their replays, and the profiling/telemetry layers export their timelines
(recorded on first read) — so the expensive build/lower/time work
happens exactly once per point (see :class:`repro.plan.cache.PlanCache`).

The allocation trace is an :class:`AllocationTrace`: three parallel
tuples (bytes, tags, labels) rather than one record object per request,
so the compiler appends to columns, a rewrite replaces only the column
it changes and shares the rest, and a replay is one
:meth:`~repro.hardware.memory.GPUMemoryAllocator.allocate_trace` scan.

A capacity check is one comparison against the plan's *peak demand*:
the largest ``in use + charged`` the unconstrained replay of the
allocation trace (the one behind :attr:`CompiledPlan.memory`) reached,
summed in the allocator's own order.  The comparison is exact because
the trace only allocates, never frees: a replay at capacity ``C`` makes
the same requests in the same order, so it raises exactly when some
``in use + charged > C``, that is, when ``peak_demand > C``; and when it
does not raise, its snapshot is the unconstrained one.  Only a capacity
that does not fit is replayed, to raise the exact
:class:`~repro.hardware.memory.OutOfMemoryError` a live allocator would;
that error is memoized per capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frameworks.base import Framework
from repro.graph.layer import LayerGraph
from repro.hardware.devices import GPUSpec
from repro.hardware.memory import AllocationTag, GPUMemoryAllocator, OutOfMemoryError

from repro.plan.executor import ExecutionReplay


@dataclass(frozen=True)
class AllocationRecord:
    """One entry of a plan's allocation trace, as a row read from it."""

    num_bytes: float
    tag: AllocationTag
    label: str = ""


@dataclass(frozen=True)
class AllocationTrace:
    """A plan's allocation trace: three parallel columns, one entry per
    request in allocation order.

    Rewrites share the columns they do not change (the fp16 trace keeps
    its source's ``tags`` and ``labels`` tuples) and the allocator replays
    the columns directly (:meth:`GPUMemoryAllocator.allocate_trace`).
    Iterating or indexing yields :class:`AllocationRecord` rows; a slice
    is a trace.
    """

    num_bytes: tuple
    tags: tuple
    labels: tuple

    def __len__(self) -> int:
        return len(self.num_bytes)

    def __iter__(self):
        return map(AllocationRecord, self.num_bytes, self.tags, self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AllocationTrace(
                self.num_bytes[index], self.tags[index], self.labels[index]
            )
        return AllocationRecord(
            self.num_bytes[index], self.tags[index], self.labels[index]
        )


class CompiledPlan:
    """One fully-lowered, fully-timed execution point.

    Treat instances as immutable: plans are shared through the cache and
    across transforms, and every derived quantity is memoized.
    """

    def __init__(
        self,
        graph: LayerGraph,
        framework: Framework,
        gpu: GPUSpec,
        kernels: list,
        timings: list,
        execution: ExecutionReplay,
        allocations: AllocationTrace,
        backward_spans: tuple = (),
        total_flops: float | None = None,
    ):
        self.graph = graph
        self.framework = framework
        self.gpu = gpu
        self.kernels = kernels
        self.timings = timings
        self.execution = execution
        self.allocations = allocations
        #: ``(layer name, first backward-kernel index, end index)`` per
        #: weighted layer, in stream order; indices survive kernel
        #: specialization because it rewrites kernels one-to-one.
        self.backward_spans = tuple(backward_spans)
        # Accumulated in stream order, exactly as the session always has;
        # a sibling sharing ``timings`` passes its parent's sum.
        if total_flops is None:
            total_flops = sum(t.kernel.flops for t in timings)
        self.total_flops = total_flops
        self._unconstrained = None
        self._capacity_errors: dict = {}

    # -- identity ------------------------------------------------------

    @property
    def key(self) -> tuple:
        """The point this plan was compiled for."""
        return (
            self.graph.model_name,
            self.framework.key,
            self.graph.batch_size,
            self.gpu.name,
        )

    # -- execution view ------------------------------------------------

    @property
    def timeline(self):
        return self.execution.timeline

    @property
    def makespan_s(self) -> float:
        return self.execution.makespan_s

    @property
    def gpu_busy_s(self) -> float:
        return self.execution.gpu_busy_s

    @property
    def dispatch_cpu_s(self) -> float:
        return self.execution.dispatch_cpu_s

    def gradient_ready_times(self) -> list:
        """``(layer name, seconds)`` when each weighted layer's gradient is
        complete — the end of its last backward kernel, read from one
        recording replay without building the timeline's events.

        Layers appear in backward (stream) order, so the list is
        non-decreasing in time: the schedule a layer-wise gradient push
        overlaps against (the mechanism behind ``COMM_OVERLAP``).
        """
        _makespan, pairs = self.execution.record()
        return [(name, pairs[end - 1][1]) for name, _start, end in self.backward_spans]

    # -- memory view ---------------------------------------------------

    def _replay(self, capacity_bytes: float) -> GPUMemoryAllocator:
        """Replay the allocation trace through a fresh allocator."""
        allocator = GPUMemoryAllocator(
            capacity_bytes, pool_overhead=self.framework.pool_overhead
        )
        trace = self.allocations
        allocator.allocate_trace(trace.num_bytes, trace.tags, trace.labels)
        return allocator

    def check_memory(self, capacity_bytes: float):
        """Check the allocation trace against ``capacity_bytes``.

        Returns the :class:`~repro.hardware.memory.MemorySnapshot` (the
        unconstrained one, shared: read it, never mutate it); raises
        :class:`~repro.hardware.memory.OutOfMemoryError` exactly where
        (and with the message) a live allocator would, memoized per
        capacity.

        Raises:
            ValueError: for a capacity that is not positive.
        """
        if not self.fits(capacity_bytes):
            error = self._capacity_errors.get(capacity_bytes)
            if error is None:
                try:
                    self._replay(capacity_bytes)
                except OutOfMemoryError as raised:
                    error = self._capacity_errors[capacity_bytes] = raised
            raise error
        return self._unconstrained_replay()[0]

    def fits(self, capacity_bytes: float) -> bool:
        """Does the full allocation trace fit in ``capacity_bytes``?

        The allocator's own test negated (``not demand > capacity``), so
        even a NaN capacity answers as a live allocator would.

        Raises:
            ValueError: for a capacity that is not positive.
        """
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        return not self._unconstrained_replay()[1] > float(capacity_bytes)

    def _unconstrained_replay(self) -> tuple:
        """``(snapshot, peak demand)`` of the trace at infinite capacity,
        replayed once per plan."""
        if self._unconstrained is None:
            allocator = self._replay(float("inf"))
            self._unconstrained = (allocator.snapshot(), allocator.peak_demand)
        return self._unconstrained

    @property
    def memory(self):
        """The unconstrained footprint snapshot (capacity-independent)."""
        return self.check_memory(float("inf"))

    def with_allocations(
        self, allocations: AllocationTrace, execution=None
    ) -> "CompiledPlan":
        """A sibling plan with a rewritten allocation trace and the same
        kernel stream — how memory transforms derive plans.  ``execution``
        replaces the timeline when the rewrite also stalls the device
        (offload's exposed transfers); by default it is kept."""
        return CompiledPlan(
            graph=self.graph,
            framework=self.framework,
            gpu=self.gpu,
            kernels=self.kernels,
            timings=self.timings,
            execution=self.execution if execution is None else execution,
            allocations=allocations,
            backward_spans=self.backward_spans,
            total_flops=self.total_flops,
        )

    # -- presentation --------------------------------------------------

    def describe(self, top: int = 8) -> str:
        """Human-readable dump: kernel stream, timeline, memory trace."""
        timeline = self.timeline
        lines = [
            f"compiled plan: {self.graph.model_name} / {self.framework.name} "
            f"b={self.graph.batch_size} on {self.gpu.name}",
            f"  kernels        {len(self.kernels)}",
            f"  gpu busy       {self.gpu_busy_s * 1e3:9.3f} ms",
            f"  makespan       {self.makespan_s * 1e3:9.3f} ms "
            f"(utilization {timeline.gpu_utilization * 100.0:5.1f}%)",
            f"  dispatch cpu   {self.dispatch_cpu_s * 1e3:9.3f} ms",
            f"  total flops    {self.total_flops:.3e}",
        ]
        idle = timeline.idle_by_cause()
        if idle:
            causes = ", ".join(
                f"{cause} {seconds * 1e3:.3f} ms"
                for cause, seconds in sorted(idle.items())
            )
            lines.append(f"  idle by cause  {causes}")
        lines.append(f"  top kernels by accumulated GPU time (of {top} shown):")
        by_name: dict = {}
        for timing in self.timings:
            entry = by_name.setdefault(timing.kernel.name, [0, 0.0])
            entry[0] += 1
            entry[1] += timing.duration_s
        ranked = sorted(by_name.items(), key=lambda item: item[1][1], reverse=True)
        for name, (count, seconds) in ranked[:top]:
            lines.append(f"    {name:42s} x{count:<5d} {seconds * 1e3:9.3f} ms")
        totals: dict = {}
        for record in self.allocations:
            totals[record.tag] = totals.get(record.tag, 0.0) + record.num_bytes
        lines.append(
            f"  allocation trace ({len(self.allocations)} records, "
            f"pool overhead x{self.framework.pool_overhead:.2f}):"
        )
        for tag in sorted(totals, key=lambda tag: tag.value):
            lines.append(
                f"    {tag.value:18s} {totals[tag] / 1024.0 ** 2:10.1f} MiB"
            )
        lines.append(
            f"  peak footprint {self.memory.peak_total / 1024.0 ** 3:.2f} GiB"
        )
        return "\n".join(lines)
