"""Instrumented runs: telemetry context management and ``traced_run``.

:func:`telemetry` installs an enabled tracer + metrics registry for a
``with`` block (restoring the previous globals afterwards, even on error),
so any code path — a session, a pipeline, a distributed sweep — can be
observed without plumbing handles through every call:

    with telemetry() as run:
        TrainingSession("resnet-50", "mxnet").run_iteration(32)
    print(run.tracer.render_tree())
    print(run.metrics.snapshot())

:func:`traced_run` is the batteries-included entry point behind
``tbd trace``: it executes the full :class:`~repro.core.analysis.AnalysisPipeline`
under telemetry, derives the run manifest (headline metrics + provenance)
and archives everything to the local runs directory.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.observability.archive import (
    RunArchive,
    RunManifest,
    git_describe,
    utc_now_iso,
)
from repro.observability.exporters import (
    metrics_to_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.observability.metrics import MetricsRegistry, set_metrics
from repro.observability.tracer import Tracer, set_tracer


@dataclass
class TelemetryRun:
    """The tracer + metrics pair active inside one ``telemetry()`` block."""

    tracer: Tracer
    metrics: MetricsRegistry

    def to_jsonl(self) -> str:
        """The recorded spans as a JSONL event stream."""
        return spans_to_jsonl(self.tracer)

    def to_chrome_trace(self, process_name: str = "run") -> dict:
        """The recorded spans as a chrome://tracing document."""
        return spans_to_chrome_trace(self.tracer, process_name)

    def to_prometheus(self) -> str:
        """The recorded metrics as Prometheus text."""
        return metrics_to_prometheus(self.metrics)


@contextmanager
def telemetry(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None):
    """Enable telemetry for a ``with`` block; yields a :class:`TelemetryRun`."""
    run = TelemetryRun(
        tracer=tracer if tracer is not None else Tracer(enabled=True),
        metrics=metrics if metrics is not None else MetricsRegistry(enabled=True),
    )
    previous_tracer = set_tracer(run.tracer)
    previous_metrics = set_metrics(run.metrics)
    try:
        yield run
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)


@dataclass
class TraceResult:
    """Everything one instrumented pipeline run produced."""

    report: object
    manifest: RunManifest
    tracer: Tracer
    metrics: MetricsRegistry
    run_dir: str | None = None
    artifacts: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        """The run's spans as a JSONL event stream."""
        return spans_to_jsonl(self.tracer)

    def to_chrome_trace(self) -> dict:
        """The run's spans as a chrome://tracing document."""
        # Named after the configuration, not the run id, so two runs of the
        # same configuration produce byte-identical traces.
        manifest = self.manifest
        name = f"{manifest.model}/{manifest.framework} b{manifest.batch_size}"
        return spans_to_chrome_trace(self.tracer, process_name=name)

    def to_prometheus(self) -> str:
        """The run's metrics as Prometheus text."""
        return metrics_to_prometheus(self.metrics)


def headline_metrics(report) -> dict:
    """The manifest's headline metrics, keyed to match the archive's
    :data:`~repro.observability.archive.TOLERANCES` for ``tbd runs diff``."""
    metrics = report.metrics
    return {
        "throughput": round(report.stable_throughput, 6),
        "gpu_utilization": round(metrics.gpu_utilization, 6),
        "fp32_utilization": round(metrics.fp32_utilization, 6),
        "cpu_utilization": round(metrics.cpu_utilization, 6),
        "iteration_time_s": round(metrics.iteration_time_s, 9),
        "memory_total_gib": round(report.memory.total_gib, 6),
    }


def traced_run(
    model: str,
    framework: str = "tensorflow",
    batch_size: int | None = None,
    gpu=None,
    seed: int = 0,
    archive: bool = True,
    archive_root: str | None = None,
) -> TraceResult:
    """Run the full analysis pipeline under telemetry and archive the run.

    Returns a :class:`TraceResult`; when ``archive`` is true the manifest,
    the JSONL event stream, the chrome trace and the Prometheus dump are
    persisted under ``archive_root`` (default: ``./runs`` or
    ``$TBD_RUNS_DIR``).
    """
    # Imported here: the pipeline's own modules import this package.
    from repro.core.analysis import AnalysisPipeline

    kwargs = {} if gpu is None else {"gpu": gpu}
    with telemetry() as run:
        with run.tracer.span(
            "run", model=model, framework=framework, seed=seed
        ) as root:
            report = AnalysisPipeline(model, framework, **kwargs).run(batch_size)
            root.set_attributes(
                batch_size=report.metrics.batch_size, device=report.metrics.device
            )

    store = RunArchive(archive_root)
    manifest = RunManifest(
        run_id=store.next_run_id(model, framework, report.metrics.batch_size),
        model=model,
        framework=framework,
        device=report.metrics.device,
        batch_size=report.metrics.batch_size,
        seed=seed,
        git=git_describe(),
        created_at=utc_now_iso(),
        metrics=headline_metrics(report),
    )
    result = TraceResult(
        report=report, manifest=manifest, tracer=run.tracer, metrics=run.metrics
    )
    if archive:
        result.run_dir = store.record(
            manifest,
            spans_jsonl=result.to_jsonl(),
            chrome_trace=result.to_chrome_trace(),
            prometheus=result.to_prometheus(),
        )
        result.artifacts = {
            "manifest": "manifest.json",
            "spans": "spans.jsonl",
            "trace": "trace.json",
            "metrics": "metrics.prom",
        }
    return result
