"""Tests for the telemetry runtime: tracer, metrics, exporters, archive,
instrumented runs, and the disabled-path perf guard."""

import json
import threading
import time

import pytest

from repro.core.analysis import AnalysisPipeline
from repro.distributed import DataParallelTrainer
from repro.distributed.allreduce import RingAllReduceExchange
from repro.distributed.topology import configuration
from repro.observability import (
    MetricsRegistry,
    RunArchive,
    RunManifest,
    Tracer,
    get_metrics,
    get_tracer,
    metrics_to_prometheus,
    parse_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
    telemetry,
    trace_span,
    traced_run,
    tracing,
)
from repro.observability.archive import TOLERANCES
from repro.observability.metrics import NULL_METRIC
from repro.observability.tracer import NULL_SPAN
from repro.training.session import TrainingSession


class TestTracer:
    def test_spans_nest_and_carry_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", model="resnet-50") as outer:
            with tracer.span("inner") as inner:
                inner.set_attribute("kernels", 3)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes["model"] == "resnet-50"
        assert [child.name for child in root.children] == ["inner"]
        assert root.children[0].parent_id == root.span_id
        assert root.children[0].attributes["kernels"] == 3

    def test_span_closed_on_exception_and_error_recorded(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                with tracer.span("deeper"):
                    raise ValueError("boom")
        root = tracer.roots[0]
        assert root.status == "error"
        assert root.attributes["error.type"] == "ValueError"
        assert root.attributes["error.message"] == "boom"
        assert root.end_s is not None
        deeper = root.children[0]
        assert deeper.status == "error"
        assert deeper.end_s is not None
        # The stack fully unwound: a new span becomes a new root.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["failing", "after"]

    def test_reentrant_across_two_concurrent_sessions(self):
        """Two sessions tracing concurrently must not interleave parents."""
        tracer = Tracer(enabled=True)
        barrier = threading.Barrier(2)
        errors = []

        def run_session(worker):
            try:
                with tracer.span("session", worker=worker):
                    barrier.wait(timeout=5)
                    for step in range(3):
                        with tracer.span("step", index=step):
                            time.sleep(0.001)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=run_session, args=(w,)) for w in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(tracer.roots) == 2
        workers = sorted(root.attributes["worker"] for root in tracer.roots)
        assert workers == ["a", "b"]
        for root in tracer.roots:
            assert [child.name for child in root.children] == ["step"] * 3
            assert all(child.parent_id == root.span_id for child in root.children)

    def test_disabled_global_returns_null_singletons(self):
        assert get_tracer().enabled is False
        assert trace_span("anything", x=1) is NULL_SPAN
        with trace_span("still nothing") as span:
            span.set_attribute("ignored", True)
        assert get_tracer().roots == []

    def test_tracing_context_restores_previous_tracer(self):
        before = get_tracer()
        with tracing() as active:
            assert get_tracer() is active
            with trace_span("visible"):
                pass
        assert get_tracer() is before
        assert active.roots[0].name == "visible"

    def test_render_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("run", model="nmt"):
            with tracer.span("stage"):
                pass
        text = tracer.render_tree()
        assert "run (model=nmt)" in text
        assert "\n  stage" in text


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("launches_total").inc()
        registry.counter("launches_total").inc(4)
        registry.gauge("occupancy").set(0.5)
        hist = registry.histogram("delay_seconds")
        for value in (2e-6, 2e-6, 0.02):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["launches_total"] == 5
        assert snap["occupancy"] == 0.5
        assert snap["delay_seconds"]["count"] == 3
        assert snap["delay_seconds"]["sum"] == pytest.approx(0.020004)

    def test_counters_reject_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_labels_resolve_to_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("bytes_total", {"tag": "weights"}).inc(10)
        registry.counter("bytes_total", {"tag": "workspace"}).inc(20)
        snap = registry.snapshot()
        assert snap['bytes_total{tag="weights"}'] == 10
        assert snap['bytes_total{tag="workspace"}'] == 20

    def test_disabled_registry_returns_null_metric(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("x") is NULL_METRIC
        registry.counter("x").inc()  # must be a silent no-op
        assert registry.snapshot() == {}
        assert get_metrics().enabled is False

    def test_prometheus_dump_shape(self):
        registry = MetricsRegistry()
        registry.counter("kernels_total").inc(7)
        registry.histogram("delay_seconds").observe(3e-6)
        text = metrics_to_prometheus(registry)
        assert "# TYPE kernels_total counter" in text
        assert "kernels_total 7" in text
        assert 'delay_seconds_bucket{le="+Inf"} 1' in text
        assert "delay_seconds_count 1" in text


class TestExporters:
    @pytest.fixture(scope="class")
    def traced_pipeline(self):
        with telemetry() as run:
            AnalysisPipeline("resnet-50", "mxnet").run(16)
        return run

    def test_jsonl_round_trips(self, traced_pipeline):
        text = traced_pipeline.to_jsonl()
        events = parse_jsonl(text)
        spans = [e for e in events if e["event"] == "span"]
        kernels = [e for e in events if e["event"] == "kernel"]
        assert spans and kernels
        names = {e["name"] for e in spans}
        for stage in ("setup", "warmup", "sample", "profile", "merge"):
            assert f"pipeline.stage.{stage}" in names
        by_id = {e["span_id"]: e for e in spans}
        for kernel in kernels:
            assert kernel["span_id"] in by_id
        # Re-serializing the parsed stream loses nothing.
        assert len(events) == len(text.strip().splitlines())

    def test_exports_are_deterministic(self):
        def one_run():
            with telemetry() as run:
                AnalysisPipeline("nmt", "tensorflow").run(32)
            return run

        first, second = one_run(), one_run()
        assert first.to_jsonl() == second.to_jsonl()
        assert json.dumps(first.to_chrome_trace(), sort_keys=True) == json.dumps(
            second.to_chrome_trace(), sort_keys=True
        )
        assert first.to_prometheus() == second.to_prometheus()

    def test_stage_spans_are_ancestors_of_kernel_events(self, traced_pipeline):
        trace = traced_pipeline.to_chrome_trace()
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        spans = {
            e["args"]["span_id"]: e for e in events if e.get("cat") == "span"
        }
        kernels = [
            e
            for e in events
            if e.get("cat") not in ("span", "idle") and "span_id" in e["args"]
        ]
        assert kernels
        for kernel in kernels:
            # Walk the parent chain to a pipeline stage span and check the
            # stage's interval contains the kernel's.
            span = spans[kernel["args"]["span_id"]]
            stage = None
            while span is not None:
                if span["name"].startswith("pipeline.stage."):
                    stage = span
                    break
                parent = span["args"].get("parent_id")
                span = spans.get(parent) if parent is not None else None
            assert stage is not None, kernel["name"]
            assert stage["ts"] <= kernel["ts"]
            assert stage["ts"] + stage["dur"] >= kernel["ts"] + kernel["dur"]

    def test_gap_events_present_for_host_sync_workload(self):
        with telemetry() as run:
            TrainingSession("nmt", "tensorflow").run_iteration(32)
        events = parse_jsonl(run.to_jsonl())
        causes = {e["cause"] for e in events if e["event"] == "gap"}
        assert "host sync" in causes


class TestInstrumentedRuns:
    def test_session_emits_spans_and_metrics(self):
        with telemetry() as run:
            TrainingSession("resnet-50", "mxnet").run_iteration(16)
        root = run.tracer.roots[0]
        assert root.name == "session.run_iteration"
        simulate = root.find("session.simulate_graph")
        assert simulate is not None
        assert simulate.timelines, "kernel timeline must be attached"
        assert simulate.find("data.pipeline") is not None
        snap = run.metrics.snapshot()
        assert snap["kernels_issued_total"] > 0
        assert snap["gpu_busy_seconds_total"] > 0
        assert snap['memory_peak_bytes{tag="feature maps"}'] > 0
        assert snap["kernel_queue_delay_seconds"]["count"] == snap[
            "kernels_issued_total"
        ]

    def test_allreduce_emits_rounds_and_wire_bytes(self):
        cluster = configuration("1M4G")
        with telemetry() as run:
            cost = RingAllReduceExchange().cost(100e6, cluster)
        root = run.tracer.roots[0]
        assert root.name == "allreduce.ring"
        rounds = [c for c in root.children if c.name == "allreduce.round"]
        assert len(rounds) == cost.steps == 6
        phases = {r.attributes["phase"] for r in rounds}
        assert phases == {"reduce-scatter", "all-gather"}
        snap = run.metrics.snapshot()
        assert snap["allreduce_rounds_total"] == 6
        assert snap["allreduce_wire_bytes_total"] == pytest.approx(
            2 * 100e6 * 3 / 4
        )

    def test_distributed_iteration_nests_exchange_under_it(self):
        cluster = configuration("2M1G (ethernet)")
        with telemetry() as run:
            DataParallelTrainer("resnet-50", "mxnet", cluster).run_iteration(16)
        root = run.tracer.roots[0]
        assert root.name == "distributed.iteration"
        exchange = root.find("ps.exchange")
        assert exchange is not None
        assert {c.name for c in exchange.children} == {
            "ps.push",
            "ps.aggregate",
            "ps.pull",
        }
        snap = run.metrics.snapshot()
        assert snap["ps_wire_bytes_total"] > 0
        assert snap["distributed_iterations_total"] == 1


class TestArchive:
    def _manifest(self, run_id, throughput=100.0, metrics=None):
        return RunManifest(
            run_id=run_id,
            model="resnet-50",
            framework="mxnet",
            device="Quadro P4000",
            batch_size=16,
            seed=0,
            git="abc1234",
            created_at="2026-08-06T00:00:00+00:00",
            metrics=metrics
            if metrics is not None
            else {"throughput": throughput, "gpu_utilization": 0.95},
        )

    def test_record_list_load(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archive.record(self._manifest("resnet-50-mxnet-b16-001"))
        archive.record(self._manifest("resnet-50-mxnet-b16-002"))
        assert archive.list() == [
            "resnet-50-mxnet-b16-001",
            "resnet-50-mxnet-b16-002",
        ]
        loaded = archive.load("resnet-50-mxnet-b16-001")
        assert loaded.metrics["throughput"] == 100.0
        assert archive.next_run_id("resnet-50", "mxnet", 16).endswith("-003")

    def test_diff_flags_out_of_tolerance_metrics(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archive.record(self._manifest("a-001"))
        archive.record(self._manifest("a-002", throughput=90.0))
        drifts = archive.diff("a-001", "a-002")
        assert [d.metric for d in drifts] == ["throughput"]
        assert drifts[0].relative_change == pytest.approx(-0.1)
        # Identical runs diff clean.
        archive.record(self._manifest("a-003"))
        assert archive.diff("a-001", "a-003") == []

    def test_delta_table_mentions_every_metric(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archive.record(self._manifest("a-001"))
        archive.record(self._manifest("a-002", throughput=90.0))
        table = archive.delta_table("a-001", "a-002")
        assert "throughput" in table and "-10.00%" in table
        assert "gpu_utilization" in table

    @pytest.mark.parametrize(
        "baseline,candidate",
        [({"throughput": 1.0, "memory_total_gib": 2.0}, {"throughput": 1.0}),
         ({"throughput": 1.0}, {"throughput": 1.0, "memory_total_gib": 2.0})],
        ids=["dropped", "added"],
    )
    def test_metric_on_one_side_only_is_missing(self, tmp_path, baseline, candidate):
        archive = RunArchive(str(tmp_path))
        archive.record(self._manifest("a-001", metrics=baseline))
        archive.record(self._manifest("a-002", metrics=candidate))
        [drift] = archive.diff("a-001", "a-002")
        assert drift.metric == "memory_total_gib"
        assert drift.baseline == baseline.get("memory_total_gib")
        assert drift.measured == candidate.get("memory_total_gib")
        assert drift.relative_change is None
        missing = "2.0000 -> missing" if drift.measured is None else "missing -> 2.0000"
        assert str(drift) == f"a-001..a-002.memory_total_gib: {missing}"
        assert "[missing]" in archive.delta_table("a-001", "a-002")

    def test_zero_reference_unchanged_is_clean(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        for run_id in ("z-001", "z-002"):
            archive.record(self._manifest(run_id, metrics={"cpu_utilization": 0.0}))
        assert archive.diff("z-001", "z-002") == []

    def test_zero_reference_changed_is_an_infinite_change(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        for run_id, value in (("z-001", 0.0), ("z-002", 0.5)):
            archive.record(self._manifest(run_id, metrics={"cpu_utilization": value}))
        [drift] = archive.diff("z-001", "z-002", tolerances={"cpu_utilization": 1e9})
        assert drift.relative_change == float("inf")
        assert str(drift) == "z-001..z-002.cpu_utilization: 0.0000 -> 0.5000 (+inf%)"

    def test_tolerances_sane(self):
        assert set(TOLERANCES) == {
            "throughput",
            "gpu_utilization",
            "fp32_utilization",
            "cpu_utilization",
        }
        assert all(0 < t < 0.2 for t in TOLERANCES.values())

    def test_missing_run_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunArchive(str(tmp_path)).load("nope")


class TestTracedRun:
    def test_traced_run_archives_everything(self, tmp_path):
        result = traced_run(
            "resnet-50", "mxnet", batch_size=16, archive_root=str(tmp_path)
        )
        assert result.manifest.run_id == "resnet-50-mxnet-b16-001"
        assert result.manifest.metrics["throughput"] > 0
        run_dir = tmp_path / result.manifest.run_id
        for artifact in ("manifest.json", "spans.jsonl", "trace.json", "metrics.prom"):
            assert (run_dir / artifact).exists(), artifact
        events = parse_jsonl((run_dir / "spans.jsonl").read_text())
        assert any(e["event"] == "kernel" for e in events)
        trace = json.loads((run_dir / "trace.json").read_text())
        assert trace["displayTimeUnit"] == "ms"

    def test_two_runs_diff_clean_and_archive_sequences(self, tmp_path):
        first = traced_run(
            "resnet-50", "mxnet", batch_size=16, archive_root=str(tmp_path)
        )
        second = traced_run(
            "resnet-50", "mxnet", batch_size=16, archive_root=str(tmp_path)
        )
        assert second.manifest.run_id == "resnet-50-mxnet-b16-002"
        archive = RunArchive(str(tmp_path))
        assert archive.diff(first.manifest.run_id, second.manifest.run_id) == []

    def test_no_archive_mode_writes_nothing(self, tmp_path):
        result = traced_run(
            "wgan", "tensorflow", batch_size=8, archive=False,
            archive_root=str(tmp_path),
        )
        assert result.run_dir is None
        assert RunArchive(str(tmp_path)).list() == []


class TestDisabledOverheadGuard:
    def test_disabled_telemetry_costs_under_5_percent(self):
        """The no-op fast path must not tax the plain simulation path."""
        import repro.training.session as session_module
        from repro.observability import metrics as metrics_module
        from repro.observability import tracer as tracer_module

        session = TrainingSession("resnet-50", "mxnet")
        session.run_iteration(16)  # warm every cache/import first

        def best_of(fn, repeats=7):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        assert not tracer_module.telemetry_enabled()
        assert not metrics_module.get_metrics().enabled
        disabled = best_of(lambda: session.run_iteration(16))

        # The pre-instrumentation path: stub the hooks down to bare no-ops.
        disabled_registry = MetricsRegistry(enabled=False)
        saved = (session_module.trace_span, session_module.get_metrics)
        session_module.trace_span = lambda *_a, **_k: NULL_SPAN
        session_module.get_metrics = lambda: disabled_registry
        try:
            baseline = best_of(lambda: session.run_iteration(16))
        finally:
            session_module.trace_span, session_module.get_metrics = saved

        assert disabled <= baseline * 1.05 + 1e-3, (
            f"disabled-telemetry path {disabled:.6f}s vs "
            f"pre-instrumentation {baseline:.6f}s"
        )
