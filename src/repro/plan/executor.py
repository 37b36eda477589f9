"""The one CPU-dispatch / GPU-execute replay in the codebase.

Before the plan layer existed this loop lived twice: once inside
``TrainingSession`` (aggregates only: makespan, busy time, dispatch CPU
seconds) and once inside ``repro.profiling.timeline`` (full event/gap
record).  Both copies implemented the same execution model

    cpu_ready += dispatch_cost
    start      = max(gpu_free, cpu_ready)
    gpu_free   = start + kernel_duration

and had to be kept in lockstep by tests.  This module merges them: one
pass over the kernel stream produces the full :class:`Timeline` *and* the
scalar aggregates, with the exact accumulation order of the originals so
every derived metric stays bit-identical (the aggregates are accumulated
from the kernel durations in stream order, not re-derived from event
endpoints — floating-point addition order matters).

When kernels are long (big convolutions) the GPU never waits and compute
utilization approaches 100%; when they are tiny and numerous (per-timestep
RNN kernels, small batches) the dispatch+launch path dominates and the GPU
idles between kernels — the paper's Observations 4 and 5 fall out of this
loop directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    def idle_s(self) -> float:
        return sum(gap.duration_s for gap in self.gaps)

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

    def busy_by_category(self) -> dict:
        """GPU-busy seconds per kernel category."""
        totals: dict = {}
        for event in self.events:
            totals[event.category] = totals.get(event.category, 0.0) + event.duration_s
        return totals

    def longest_gaps(self, count: int = 5) -> list:
        """The largest idle intervals, the merge-analysis headline."""
        if count <= 0:
            raise ValueError("count must be positive")
        return sorted(self.gaps, key=lambda g: g.duration_s, reverse=True)[:count]


@dataclass(frozen=True)
class ExecutionReplay:
    """One kernel stream's resolved execution on the simulated device.

    ``offload_stall_s`` is GPU idle time waiting on offloaded feature maps
    (see :func:`with_offload_stall`); it is already inside
    ``makespan_s``."""

    timeline: Timeline
    makespan_s: float
    gpu_busy_s: float
    dispatch_cpu_s: float
    offload_stall_s: float = 0.0


def with_offload_stall(execution: ExecutionReplay, seconds: float) -> ExecutionReplay:
    """``execution`` followed by ``seconds`` of GPU idle (cause
    ``"offload"``): the host-link traffic of offloaded feature maps that
    compute does not hide.  It adds no kernels, so the events, busy time
    and dispatch CPU seconds carry over and no second replay is needed; a
    zero stall returns ``execution`` itself."""
    if seconds == 0.0:
        return execution
    timeline = execution.timeline
    stall = Gap(
        start_s=timeline.makespan_s,
        end_s=timeline.makespan_s + seconds,
        cause="offload",
    )
    return ExecutionReplay(
        timeline=Timeline(
            events=timeline.events,
            gaps=[*timeline.gaps, stall],
            makespan_s=timeline.makespan_s + seconds,
        ),
        makespan_s=execution.makespan_s + seconds,
        gpu_busy_s=execution.gpu_busy_s,
        dispatch_cpu_s=execution.dispatch_cpu_s,
        offload_stall_s=execution.offload_stall_s + seconds,
    )


def replay(timings, framework: Framework) -> ExecutionReplay:
    """Run the CPU-dispatch / GPU-execute loop over roofline-timed kernels.

    Returns both the per-kernel event record (with idle gaps attributed to
    their cause: frontend warmup, dispatch starvation, or host syncs) and
    the aggregates the session's metrics derive from.  Noiseless: the
    seeded-noise replays of the bench harness go through
    :func:`makespan_under_noise`.
    """
    dispatch = framework.dispatch_cost_s
    sync = framework.sync_latency_s
    cpu_ready = framework.frontend_cost_s
    gpu_free = 0.0
    busy = 0.0
    sync_cpu = 0.0
    events: list = []
    gaps: list = []
    pending_cause = "frontend"
    for timing in timings:
        duration = timing.duration_s
        cpu_ready += dispatch
        start = max(gpu_free, cpu_ready)
        if start > gpu_free:
            gaps.append(Gap(start_s=gpu_free, end_s=start, cause=pending_cause))
        end = start + duration
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
        busy += duration
        if timing.kernel.host_sync:
            # The framework waits for this result, then spends the sync
            # latency in control-flow code before issuing anything else.
            cpu_ready = gpu_free + sync
            sync_cpu += sync
            pending_cause = "host sync"
        else:
            pending_cause = "dispatch"
    makespan = max(gpu_free, cpu_ready)
    dispatch_cpu = framework.frontend_cost_s + dispatch * len(timings) + sync_cpu
    return ExecutionReplay(
        timeline=Timeline(events=events, gaps=gaps, makespan_s=makespan),
        makespan_s=makespan,
        gpu_busy_s=busy,
        dispatch_cpu_s=dispatch_cpu,
    )


def makespan_under_noise(durations, host_syncs, framework: Framework, noise) -> float:
    """One noisy makespan: the dispatch / execute recurrence of
    :func:`replay` with every kernel duration and dispatch gap scaled by a
    factor drawn from ``noise`` (a :class:`repro.bench.noise.NoiseStream`,
    or any object whose ``kernel_factors(n)`` / ``dispatch_factors(n)``
    return numpy arrays of ``n`` factors).

    The benchmarking harness replays a plan hundreds of times per A/B
    sample series, so this runs over precomputed ``durations`` /
    ``host_syncs`` lists (see :func:`plan_arrays`) and returns only the
    makespan instead of building a :class:`TimelineEvent` per kernel per
    sample.  Each factor array becomes a list of Python floats once per
    sample, so the per-kernel loop does plain float arithmetic on the
    arrays' float64 values.  ``tests/test_bench.py`` pins it to
    :func:`replay` exactly: unit factors give the plan's makespan, and
    constant factors give the replay of scaled durations under a scaled
    dispatch cost.
    """
    dispatch = framework.dispatch_cost_s
    sync = framework.sync_latency_s
    cpu_ready = framework.frontend_cost_s
    gpu_free = 0.0
    count = len(durations)
    kernel_factors = noise.kernel_factors(count).tolist()
    dispatch_factors = noise.dispatch_factors(count).tolist()
    for duration, kernel_factor, dispatch_factor, host_sync in zip(
        durations, kernel_factors, dispatch_factors, host_syncs
    ):
        cpu_ready += dispatch * dispatch_factor
        start = cpu_ready if cpu_ready > gpu_free else gpu_free
        gpu_free = start + duration * kernel_factor
        if host_sync:
            cpu_ready = gpu_free + sync
    return gpu_free if gpu_free > cpu_ready else cpu_ready


def plan_arrays(timings) -> tuple:
    """``(durations, host_syncs)`` lists for :func:`makespan_under_noise`,
    extracted once per plan instead of once per noisy sample."""
    durations = [timing.duration_s for timing in timings]
    host_syncs = [timing.kernel.host_sync for timing in timings]
    return durations, host_syncs
