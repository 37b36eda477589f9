"""Trace export: chrome://tracing JSON and CSV summaries.

The paper's pipeline exports ``.nvvp`` files from nvprof and merges them
offline; the modern equivalent is the Chrome trace-event format, which
every trace viewer (chrome://tracing, Perfetto, Speedscope) reads.  This
module serializes simulated timelines and kernel traces so runs can be
inspected visually, and writes the CSV summaries the analysis scripts
consume.
"""

from __future__ import annotations

import csv
import io

from repro.observability.exporters import chrome_trace, timeline_events, write_trace
from repro.plan.executor import Timeline


def timeline_to_chrome_trace(timeline: Timeline, process_name: str = "GPU") -> dict:
    """Convert a :class:`Timeline` to a chrome://tracing object (built by
    :mod:`repro.observability.exporters`, like the span traces)."""
    return chrome_trace(process_name, timeline_events(timeline))


def write_chrome_trace(timeline: Timeline, path: str, process_name: str = "GPU") -> None:
    """Serialize a timeline to deterministic chrome-trace JSON (sorted keys,
    fixed float precision)."""
    write_trace(timeline_to_chrome_trace(timeline, process_name), path)


def _write_csv(header, rows, path_or_buffer) -> str:
    """Render ``header`` and ``rows`` as CSV text, write it to a path or a
    file object when one is given, and return the text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    if path_or_buffer is not None:
        if hasattr(path_or_buffer, "write"):
            path_or_buffer.write(text)
        else:
            with open(path_or_buffer, "w") as handle:
                handle.write(text)
    return text


def kernel_stats_to_csv(trace, path_or_buffer=None) -> str:
    """Write a :class:`~repro.profiling.kernel_trace.KernelTrace`'s
    aggregated per-kernel statistics as CSV; returns the CSV text."""
    stats = sorted(
        trace.by_name().values(), key=lambda s: s.total_time_s, reverse=True
    )
    return _write_csv(
        ["kernel", "launches", "total_time_s", "mean_time_s", "fp32_utilization"],
        (
            [
                entry.name,
                entry.launches,
                f"{entry.total_time_s:.9f}",
                f"{entry.mean_time_s:.9f}",
                f"{entry.fp32_utilization:.4f}",
            ]
            for entry in stats
        ),
        path_or_buffer,
    )


def metrics_to_csv(metrics_list, path_or_buffer=None) -> str:
    """Write a list of :class:`~repro.core.metrics.IterationMetrics` rows."""
    return _write_csv(
        [
            "model",
            "framework",
            "device",
            "batch_size",
            "throughput",
            "throughput_unit",
            "gpu_utilization",
            "fp32_utilization",
            "cpu_utilization",
            "iteration_time_s",
        ],
        (
            [
                metrics.model,
                metrics.framework,
                metrics.device,
                metrics.batch_size,
                f"{metrics.throughput:.3f}",
                metrics.throughput_unit,
                f"{metrics.gpu_utilization:.4f}",
                f"{metrics.fp32_utilization:.4f}",
                f"{metrics.cpu_utilization:.4f}",
                f"{metrics.iteration_time_s:.6f}",
            ]
            for metrics in metrics_list
        ),
        path_or_buffer,
    )
