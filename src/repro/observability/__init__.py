"""Always-on telemetry for the simulated stack.

The paper's toolchain merges nvprof, vTune and memory-profiler views into
one picture of a training run — but only *after* the run, by recomputing
profiles per call.  This package makes the run itself observable: every
session, pipeline stage, gradient exchange and data-pipeline invocation
emits structured telemetry that can be exported, archived and diffed.

- :mod:`repro.observability.tracer` — hierarchical spans with ids, parents
  and attributes; a context-manager API; a no-op fast path when disabled.
- :mod:`repro.observability.metrics` — counters / gauges / histograms
  (kernels issued, dispatch stalls, queue-delay distribution, bytes by
  allocation class, allreduce bytes on the wire).
- :mod:`repro.observability.exporters` — deterministic JSONL event
  streams, chrome://tracing overlays (spans above kernel events), and a
  Prometheus-style text dump.
- :mod:`repro.observability.archive` — per-run manifests (model,
  framework, device, batch, seed, headline metrics, git describe) in a
  local runs directory, with baseline-style diffing.
- :mod:`repro.observability.runner` — ``traced_run``: one call that runs
  the full analysis pipeline under telemetry and archives the result.

Telemetry is **off by default** and costs a single branch per
instrumentation point when off::

    from repro import AnalysisPipeline
    from repro.observability import telemetry

    with telemetry() as run:
        AnalysisPipeline("resnet-50", "mxnet").run(32)
    print(run.tracer.render_tree())
"""

import importlib

from repro.observability.tracer import (
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    telemetry_enabled,
    trace_span,
    tracing,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)

#: Names imported on first use (PEP 562): the exporters, the run archive
#: (``subprocess``) and the traced runner (the whole analysis pipeline)
#: stay unloaded in a process that only records spans and metrics.
_LAZY = {
    "metrics_to_prometheus": "repro.observability.exporters",
    "parse_jsonl": "repro.observability.exporters",
    "spans_to_chrome_trace": "repro.observability.exporters",
    "spans_to_jsonl": "repro.observability.exporters",
    "RunArchive": "repro.observability.archive",
    "RunManifest": "repro.observability.archive",
    "TelemetryRun": "repro.observability.runner",
    "telemetry": "repro.observability.runner",
    "traced_run": "repro.observability.runner",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "Tracer",
    "trace_span",
    "tracing",
    "current_span",
    "get_tracer",
    "set_tracer",
    "telemetry_enabled",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_metrics",
    "set_metrics",
    "spans_to_jsonl",
    "parse_jsonl",
    "spans_to_chrome_trace",
    "metrics_to_prometheus",
    "RunArchive",
    "RunManifest",
    "TelemetryRun",
    "telemetry",
    "traced_run",
]
