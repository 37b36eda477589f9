"""nvprof-style kernel trace analysis.

The paper's toolchain runs nvprof over a sampled window of stable-phase
iterations and exports ``.nvvp`` files; the analysis then aggregates kernel
launches by name and asks the question behind Tables 5 and 6: *which
long-running kernels under-utilize the FP32 units?* — those are the top
acceleration candidates (Observation 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.roofline import KernelTiming


@dataclass
class KernelStats:
    """Aggregated statistics for one kernel name across a trace."""

    name: str
    launches: int = 0
    total_time_s: float = 0.0
    total_flops: float = 0.0
    _peak_flops: float = 0.0

    @property
    def fp32_utilization(self) -> float:
        """Achieved fraction of peak FP32 throughput while this kernel ran."""
        if self.total_time_s <= 0 or self._peak_flops <= 0:
            return 0.0
        return self.total_flops / (self._peak_flops * self.total_time_s)


@dataclass
class TableRow:
    """One row of the Table 5/6 report."""

    duration_share: float  # fraction of total GPU busy time
    fp32_utilization: float
    kernel_name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.duration_share * 100:5.2f}%  "
            f"{self.fp32_utilization * 100:5.1f}%  {self.kernel_name}"
        )


class KernelTrace:
    """A recorded stream of kernel launches with aggregation queries."""

    def __init__(self, timings, peak_fp32_flops: float):
        if peak_fp32_flops <= 0:
            raise ValueError("peak FLOP/s must be positive")
        self.timings: list = list(timings)
        self.peak_fp32_flops = peak_fp32_flops

    @property
    def total_time_s(self) -> float:
        return sum(t.duration_s for t in self.timings)

    @property
    def total_flops(self) -> float:
        return sum(t.kernel.flops for t in self.timings)

    @property
    def average_fp32_utilization(self) -> float:
        """Trace-wide FP32 utilization (paper Eq. 2 over the busy window)."""
        if self.total_time_s <= 0:
            return 0.0
        return self.total_flops / (self.peak_fp32_flops * self.total_time_s)

    def by_name(self) -> dict:
        """Aggregate launches into per-kernel-name statistics."""
        stats: dict = {}
        for timing in self.timings:
            name = timing.kernel.name
            entry = stats.get(name)
            if entry is None:
                entry = KernelStats(name=name, _peak_flops=self.peak_fp32_flops)
                stats[name] = entry
            entry.launches += 1
            entry.total_time_s += timing.duration_s
            entry.total_flops += timing.kernel.flops
        return stats

    def longest_low_utilization_kernels(self, count: int = 5) -> list:
        """The paper's Table 5/6 query: the ``count`` kernels with the
        largest share of GPU time whose FP32 utilization is *below* the
        trace average.  These are the top acceleration candidates.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        average = self.average_fp32_utilization
        total = self.total_time_s
        candidates = [
            stats
            for stats in self.by_name().values()
            if stats.fp32_utilization < average
        ]
        candidates.sort(key=lambda s: s.total_time_s, reverse=True)
        return [
            TableRow(
                duration_share=stats.total_time_s / total if total else 0.0,
                fp32_utilization=stats.fp32_utilization,
                kernel_name=stats.name,
            )
            for stats in candidates[:count]
        ]


def trace_from_profile(profile) -> KernelTrace:
    """Build a :class:`KernelTrace` from an
    :class:`~repro.training.session.IterationProfile`."""
    return KernelTrace(profile.kernel_timings, profile.peak_fp32_flops)
