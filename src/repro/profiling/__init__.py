"""The TBD analysis toolchain (paper Section 3.4 and Fig. 3).

Piecewise profiling with purpose-built tools, merged using domain knowledge
of DNN training:

- :mod:`repro.profiling.kernel_trace` — an nvprof-style kernel profiler:
  per-kernel durations, FP32 utilizations, aggregation by kernel name, and
  the "longest kernels below average utilization" query behind Tables 5/6.
- :mod:`repro.profiling.cpu_sampler` — a vTune-style host profiler: CPU
  core-seconds by component (dispatch, pipeline, frontend, model-specific
  host stages) and hotspot ranking.
- :mod:`repro.profiling.memory_profiler` — the paper's memory profiler:
  the five-way breakdown (weights / weight gradients / feature maps /
  workspace / dynamic) per framework (the first such tool, per the paper).
- :mod:`repro.profiling.sampling` — warm-up / auto-tuning detection and
  stable-phase sampling (Section 3.4.2).

:class:`Timeline`, :class:`TimelineEvent` and :class:`Gap` are
re-exported from :mod:`repro.plan.executor` (see ``plan.timeline``).
"""

from repro.profiling.kernel_trace import KernelTrace, KernelStats
from repro.profiling.cpu_sampler import CPUSample, CPUSampler
from repro.profiling.memory_profiler import MemoryProfile, MemoryProfiler
from repro.profiling.sampling import IterationTimeline, StablePhaseSampler
from repro.plan.executor import Gap, Timeline, TimelineEvent
from repro.profiling.statistics import bootstrap_ci, summarize
from repro.profiling.export import (
    kernel_stats_to_csv,
    metrics_to_csv,
    timeline_to_chrome_trace,
    write_chrome_trace,
)
from repro.profiling.comparison import ABReport, ab_compare
from repro.profiling.roofline_chart import render_roofline, roofline_for

__all__ = [
    "KernelTrace",
    "KernelStats",
    "CPUSampler",
    "CPUSample",
    "MemoryProfiler",
    "MemoryProfile",
    "StablePhaseSampler",
    "IterationTimeline",
    "Gap",
    "Timeline",
    "TimelineEvent",
    "summarize",
    "bootstrap_ci",
    "timeline_to_chrome_trace",
    "write_chrome_trace",
    "kernel_stats_to_csv",
    "metrics_to_csv",
    "ab_compare",
    "ABReport",
    "render_roofline",
    "roofline_for",
]
