"""ASCII roofline chart: place a trace's kernels on the device roofline.

The roofline (Williams et al.) plots achieved FLOP/s against arithmetic
intensity; a kernel under the sloped (bandwidth) segment is memory-bound,
one under the flat (compute) segment is compute-bound, and its vertical
distance to the roof is the optimization headroom.  The paper's per-kernel
analysis (Tables 5/6, Observation 8) is exactly a roofline question —
this renderer makes it visual in a terminal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.devices import GPUSpec


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel aggregate placed on the roofline."""

    name: str
    arithmetic_intensity: float
    achieved_flops: float
    time_share: float


def points_from_trace(trace, top: int = 12) -> list:
    """Aggregate a :class:`~repro.profiling.kernel_trace.KernelTrace` into
    its ``top`` kernels by time, as roofline points."""
    if top <= 0:
        raise ValueError("top must be positive")
    total = trace.total_time_s
    stats = sorted(
        trace.by_name().values(), key=lambda s: s.total_time_s, reverse=True
    )[:top]
    points = []
    for entry in stats:
        if entry.total_time_s <= 0:
            continue
        flops_rate = entry.total_flops / entry.total_time_s
        # Recover aggregate intensity from the member kernels via trace.
        points.append(
            RooflinePoint(
                name=entry.name,
                arithmetic_intensity=_intensity_of(trace, entry.name),
                achieved_flops=flops_rate,
                time_share=entry.total_time_s / total if total else 0.0,
            )
        )
    return points


def _intensity_of(trace, name: str) -> float:
    flops = 0.0
    traffic = 0.0
    for timing in trace.timings:
        if timing.kernel.name == name:
            flops += timing.kernel.flops
            traffic += timing.kernel.bytes_accessed
    if traffic <= 0:
        return float("inf")
    return flops / traffic


def render_roofline(
    points, device: GPUSpec, width: int = 66, height: int = 18
) -> str:
    """Draw the roofline and the points as an ASCII chart (log-log axes)."""
    if width < 30 or height < 8:
        raise ValueError("chart too small to be legible")
    peak = device.peak_fp32_flops
    bandwidth = device.memory_bandwidth_bytes
    finite = [p for p in points if math.isfinite(p.arithmetic_intensity)]
    x_min, x_max = 0.01, 1000.0  # FLOP/byte
    y_min, y_max = peak / 1e4, peak * 2.0

    def x_of(intensity: float) -> int:
        fraction = (math.log10(intensity) - math.log10(x_min)) / (
            math.log10(x_max) - math.log10(x_min)
        )
        return max(0, min(width - 1, int(fraction * (width - 1))))

    def y_of(flops: float) -> int:
        flops = max(y_min, min(y_max, flops))
        fraction = (math.log10(flops) - math.log10(y_min)) / (
            math.log10(y_max) - math.log10(y_min)
        )
        return max(0, min(height - 1, int((1.0 - fraction) * (height - 1))))

    grid = [[" "] * width for _ in range(height)]
    # The roof: min(peak, intensity * bandwidth) across the x range.
    for column in range(width):
        fraction = column / (width - 1)
        intensity = 10 ** (
            math.log10(x_min)
            + fraction * (math.log10(x_max) - math.log10(x_min))
        )
        roof = min(peak, intensity * bandwidth)
        grid[y_of(roof)][column] = "-" if roof >= peak else "/"
    # The points, labelled a, b, c, ...
    labels = []
    for index, point in enumerate(finite):
        marker = chr(ord("a") + index)
        grid[y_of(point.achieved_flops)][x_of(point.arithmetic_intensity)] = marker
        labels.append(
            f"  {marker}: {point.name.split('<')[0][:46]:46s} "
            f"AI={point.arithmetic_intensity:8.2f}  "
            f"{point.achieved_flops / 1e9:8.1f} GFLOP/s  "
            f"{point.time_share * 100:4.1f}% of time"
        )
    header = (
        f"roofline: {device.name}  (peak {peak / 1e12:.2f} TFLOP/s, "
        f"{bandwidth / 1e9:.0f} GB/s; log-log, x: FLOP/byte {x_min}-{x_max})"
    )
    body = "\n".join("|" + "".join(row) for row in grid)
    return "\n".join([header, body, "+" + "-" * width] + labels)


def roofline_for(session, batch_size: int | None = None, top: int = 10) -> str:
    """Convenience: trace one session iteration and render its roofline."""
    from repro.profiling.kernel_trace import trace_from_profile

    profile = session.run_iteration(batch_size)
    trace = trace_from_profile(profile)
    return render_roofline(points_from_trace(trace, top), session.gpu)
