"""The paper's metrics (Section 3.4.3): the utilization formulas and a
record derived from a simulated iteration.

- **Throughput**: data samples processed per second; audio-seconds/s for
  speech (variable utterance lengths), tokens/s for the Transformer.
- **GPU compute utilization** (Eq. 1): GPU active time / elapsed time.
- **FP32 utilization** (Eq. 2): executed FLOPs / (peak FLOP/s x active time).
- **CPU utilization** (Eq. 3): sum of core active times / (cores x elapsed).
"""

from __future__ import annotations

from dataclasses import dataclass


def gpu_utilization(gpu_active_s: float, elapsed_s: float) -> float:
    """Paper Eq. 1."""
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    if gpu_active_s < 0:
        raise ValueError("active time cannot be negative")
    return min(1.0, gpu_active_s / elapsed_s)


def cpu_utilization(core_active_s: float, core_count: int, elapsed_s: float) -> float:
    """Paper Eq. 3: mean utilization across all host cores."""
    if core_count <= 0:
        raise ValueError("core count must be positive")
    if elapsed_s <= 0:
        raise ValueError("elapsed time must be positive")
    if core_active_s < 0:
        raise ValueError("active time cannot be negative")
    return min(1.0, core_active_s / (core_count * elapsed_s))


@dataclass(frozen=True)
class IterationMetrics:
    """The paper's headline metrics for one benchmark configuration."""

    model: str
    framework: str
    device: str
    batch_size: int
    throughput: float
    throughput_unit: str
    gpu_utilization: float
    fp32_utilization: float
    cpu_utilization: float
    iteration_time_s: float

    @classmethod
    def from_profile(cls, profile, throughput_unit: str = "samples/s"):
        """Derive metrics from a
        :class:`~repro.training.session.IterationProfile`."""
        return cls(
            model=profile.model,
            framework=profile.framework,
            device=profile.device,
            batch_size=profile.batch_size,
            throughput=profile.throughput,
            throughput_unit=throughput_unit,
            gpu_utilization=profile.gpu_utilization,
            fp32_utilization=profile.fp32_utilization,
            cpu_utilization=profile.cpu_utilization,
            iteration_time_s=profile.iteration_time_s,
        )

    def format_row(self) -> str:
        """One printable summary row."""
        return (
            f"{self.model:14s} {self.framework:11s} b={self.batch_size:<5d} "
            f"{self.throughput:9.1f} {self.throughput_unit:15s} "
            f"gpu={self.gpu_utilization * 100:5.1f}%  "
            f"fp32={self.fp32_utilization * 100:5.1f}%  "
            f"cpu={self.cpu_utilization * 100:5.2f}%"
        )
