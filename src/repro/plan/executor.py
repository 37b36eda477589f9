"""The CPU-dispatch / GPU-execute recurrence, and the timeline it records.

:func:`replay` is the one place the execution model lives: the CPU
issues each kernel one dispatch cost after the previous one (or after a
host sync's result arrives), and the GPU starts it at the later of that
issue time and the end of the previous kernel.  It walks a kernel
stream's flat per-kernel ``durations`` and ``host_syncs`` lists and
returns the makespan.  Compiled plans run it noiselessly.  The bench
harness draws per-kernel kernel and dispatch factors once per noisy
sample and calls :func:`replay_arrays`, the same recurrence over numpy
arrays: when the GPU never waits, the kernels' end times are one prefix
sum, and a stream with host syncs or an idle gap goes to :func:`replay`
— bit for bit the same makespan either way.

When kernels are long (big convolutions) the GPU never waits and compute
utilization approaches 100%; when they are tiny and numerous (per-timestep
RNN kernels, small batches) the dispatch+launch path dominates and the GPU
idles between kernels — the paper's Observations 4 and 5 fall out of this
loop directly.

The per-kernel :class:`Timeline` (events, and idle gaps with their
cause) is recorded on read: an :class:`ExecutionReplay` keeps the
aggregates and its inputs, and the first read of its ``timeline`` runs
:func:`replay` again with a recording sink.  Compiling a plan or drawing
a noisy sample records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat

from repro.frameworks.base import Framework
from repro.kernels.base import KernelCategory


@dataclass(frozen=True)
class TimelineEvent:
    """One kernel execution on the GPU timeline."""

    name: str
    category: KernelCategory
    issued_s: float  # when the CPU finished issuing it
    start_s: float  # when the GPU started executing it
    end_s: float
    host_sync: bool

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def queue_delay_s(self) -> float:
        """Time between issue and execution start (GPU was busy)."""
        return max(0.0, self.start_s - self.issued_s)


@dataclass(frozen=True)
class Gap:
    """One idle interval on the GPU timeline."""

    start_s: float
    end_s: float
    cause: str  # "dispatch" | "host sync" | "frontend" | "offload"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Timeline:
    """A reconstructed iteration timeline with analysis queries."""

    events: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return sum(event.duration_s for event in self.events)

    @property
    def gpu_utilization(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.makespan_s)

    def idle_by_cause(self) -> dict:
        """Total idle seconds per cause — the 'where do iterations lose
        time' question."""
        totals: dict = {}
        for gap in self.gaps:
            totals[gap.cause] = totals.get(gap.cause, 0.0) + gap.duration_s
        return totals


def replay(
    durations,
    host_syncs,
    framework: Framework,
    kernel_factors=None,
    dispatch_factors=None,
    sink=None,
) -> float:
    """The makespan of one pass of the dispatch / execute recurrence

        cpu_ready += dispatch_cost
        start      = max(gpu_free, cpu_ready)
        gpu_free   = start + kernel_duration

    over per-kernel ``durations`` and ``host_syncs`` lists in stream
    order.  ``kernel_factors`` and ``dispatch_factors`` (float lists, one
    per kernel) scale each duration and dispatch gap — the bench
    harness's noise; without them the pass is the noiseless one, bit for
    bit.  ``sink``, a list, receives one ``(issued_s, end_s)`` pair per
    kernel: all a timeline needs, since a kernel starts at the later of
    its issue and the previous kernel's end.
    """
    dispatch = framework.dispatch_cost_s
    sync = framework.sync_latency_s
    cpu_ready = framework.frontend_cost_s
    gpu_free = 0.0
    for duration, kernel_factor, dispatch_factor, host_sync in zip(
        durations,
        repeat(1.0) if kernel_factors is None else kernel_factors,
        repeat(1.0) if dispatch_factors is None else dispatch_factors,
        host_syncs,
    ):
        cpu_ready += dispatch * dispatch_factor
        start = cpu_ready if cpu_ready > gpu_free else gpu_free
        gpu_free = start + duration * kernel_factor
        if sink is not None:
            sink.append((cpu_ready, gpu_free))
        if host_sync:
            # The framework waits for this result, then spends the sync
            # latency in control-flow code before issuing anything else.
            cpu_ready = gpu_free + sync
    return gpu_free if gpu_free > cpu_ready else cpu_ready


def replay_arrays(
    durations, host_syncs, framework: Framework, kernel_factors, dispatch_factors
) -> float:
    """:func:`replay` over numpy arrays, scanned as one GPU busy period:
    the same Python float as ``replay`` on the arrays' ``.tolist()``,
    bit for bit.

    ``durations``, ``kernel_factors`` and ``dispatch_factors`` are
    float64 arrays and ``host_syncs`` a bool array, one entry per kernel.
    Without host syncs the CPU's issue times are one running sum of the
    dispatch gaps, and while the GPU never waits so are the kernels' end
    times.  Both sums are ``cumsum``, which adds left to right as the
    loop does, over the same IEEE products.  The GPU waits where a kernel
    is issued strictly after its predecessor ends — ``replay``'s own test
    for taking the issue time as the start.  Since a framework's dispatch
    cost is positive, the first kernel starts at its issue time, and the
    last kernel ends no earlier than it was issued, so without a wait the
    makespan is the last end time.  A stream with a host sync, a wait, or
    no kernels runs through ``replay`` instead; the sync-free plans
    ``tbd tune`` confirms on the paper grid are one busy period in all
    but rare noisy samples.  Uses only ndarray methods, so this module imports no numpy.
    """
    if len(durations) and not host_syncs.any():
        ends = durations * kernel_factors
        issued = dispatch_factors * framework.dispatch_cost_s
        issued[0] += framework.frontend_cost_s
        issued.cumsum(out=issued)
        ends[0] += issued[0]
        ends.cumsum(out=ends)
        if not (issued[1:] > ends[:-1]).any():
            return float(ends[-1])
    return replay(
        durations.tolist(),
        host_syncs.tolist(),
        framework,
        kernel_factors.tolist(),
        dispatch_factors.tolist(),
    )


@dataclass(frozen=True, eq=False)
class ExecutionReplay:
    """One kernel stream's noiseless execution on the simulated device:
    the inputs of :func:`replay` and the aggregates a session reads.

    ``kernels`` label the recorded timeline's events.  ``offload_stall_s``
    is GPU idle time waiting on offloaded feature maps (see
    :func:`with_offload_stall`); it is already inside ``makespan_s``."""

    kernels: list = field(repr=False)
    durations: list = field(repr=False)
    host_syncs: list = field(repr=False)
    framework: Framework
    makespan_s: float
    offload_stall_s: float = 0.0

    @cached_property
    def gpu_busy_s(self) -> float:
        """Kernel seconds, summed in stream order."""
        busy = 0.0
        for duration in self.durations:
            busy += duration
        return busy

    @cached_property
    def dispatch_cpu_s(self) -> float:
        """Host seconds spent issuing kernels and waiting out host syncs."""
        framework = self.framework
        sync_cpu = 0.0
        for host_sync in self.host_syncs:
            if host_sync:
                sync_cpu += framework.sync_latency_s
        issue_cpu = framework.dispatch_cost_s * len(self.durations)
        return framework.frontend_cost_s + issue_cpu + sync_cpu

    def record(self) -> tuple:
        """``(makespan before any offload stall, [(issued_s, end_s), ...])``
        from one recording pass of :func:`replay`; not cached."""
        pairs: list = []
        makespan = replay(self.durations, self.host_syncs, self.framework, sink=pairs)
        return makespan, pairs

    @cached_property
    def timeline(self) -> Timeline:
        """The per-kernel event record, with idle gaps attributed to their
        cause: recorded on first read, then cached."""
        makespan, pairs = self.record()
        events: list = []
        gaps: list = []
        gpu_free = 0.0
        cause = "frontend"
        for kernel, (issued, end) in zip(self.kernels, pairs):
            start = issued if issued > gpu_free else gpu_free
            if start > gpu_free:
                gaps.append(Gap(gpu_free, start, cause))
            events.append(
                TimelineEvent(
                    kernel.name, kernel.category, issued, start, end, kernel.host_sync
                )
            )
            gpu_free = end
            cause = "host sync" if kernel.host_sync else "dispatch"
        if self.offload_stall_s:
            gaps.append(Gap(makespan, self.makespan_s, "offload"))
        return Timeline(events=events, gaps=gaps, makespan_s=self.makespan_s)


def with_offload_stall(execution: ExecutionReplay, seconds: float) -> ExecutionReplay:
    """``execution`` followed by ``seconds`` of GPU idle: the host-link
    traffic of offloaded feature maps that compute does not hide.  A field
    update (no kernels change); the timeline ends in one ``"offload"``
    gap.  A zero stall returns ``execution`` itself."""
    if seconds == 0.0:
        return execution
    return replace(
        execution,
        makespan_s=execution.makespan_s + seconds,
        offload_stall_s=execution.offload_stall_s + seconds,
    )
