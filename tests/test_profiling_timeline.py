"""Unit tests for timeline reconstruction and trace export."""

import json

import pytest

from repro.profiling.export import (
    kernel_stats_to_csv,
    metrics_to_csv,
    timeline_to_chrome_trace,
    write_chrome_trace,
)
from repro.profiling.kernel_trace import trace_from_profile
from repro.core.metrics import IterationMetrics
from repro.plan.executor import ExecutionReplay, replay
from repro.training.session import TrainingSession


def _execution(timings, framework):
    """The replay of a kernel stream that has no plan."""
    durations = [timing.duration_s for timing in timings]
    host_syncs = [timing.kernel.host_sync for timing in timings]
    return ExecutionReplay(
        [timing.kernel for timing in timings], durations, host_syncs, framework,
        makespan_s=replay(durations, host_syncs, framework),
    )


@pytest.fixture(scope="module")
def cnn_timeline():
    return TrainingSession("resnet-50", "mxnet").compile(32).timeline


@pytest.fixture(scope="module")
def rnn_timeline():
    return TrainingSession("nmt", "tensorflow").compile(64).timeline


class TestTimelineConstruction:
    def test_events_are_ordered_and_non_overlapping(self, cnn_timeline):
        events = cnn_timeline.events
        for before, after in zip(events, events[1:]):
            assert after.start_s >= before.end_s - 1e-12

    def test_busy_plus_idle_bounds_makespan(self, cnn_timeline):
        combined = cnn_timeline.busy_s + cnn_timeline.idle_s
        assert combined <= cnn_timeline.makespan_s + 1e-9
        assert combined >= 0.95 * cnn_timeline.makespan_s

    def test_matches_session_utilization(self):
        session = TrainingSession("sockeye", "mxnet")
        profile = session.run_iteration(64)
        timeline = session.compile(64).timeline
        # The timeline excludes pipeline/host exposure, so compare against
        # the kernel-level quantities.
        assert timeline.busy_s == pytest.approx(profile.gpu_busy_time_s, rel=1e-9)

    def test_event_fields(self, cnn_timeline):
        event = cnn_timeline.events[10]
        assert event.end_s > event.start_s
        assert event.queue_delay_s >= 0.0

    def test_rnn_timeline_has_host_sync_gaps(self, rnn_timeline):
        causes = rnn_timeline.idle_by_cause()
        assert causes.get("host sync", 0.0) > 0.0
        # host syncs dominate the idle time for dynamic_rnn-style graphs
        assert causes["host sync"] > causes.get("dispatch", 0.0)

    def test_cnn_timeline_has_little_idle(self, cnn_timeline):
        assert cnn_timeline.gpu_utilization > 0.9

    def test_busy_by_category_sums_to_busy(self, cnn_timeline):
        assert sum(cnn_timeline.busy_by_category().values()) == pytest.approx(
            cnn_timeline.busy_s
        )

    def test_longest_gaps_sorted(self, rnn_timeline):
        gaps = rnn_timeline.longest_gaps(5)
        durations = [gap.duration_s for gap in gaps]
        assert durations == sorted(durations, reverse=True)
        with pytest.raises(ValueError):
            rnn_timeline.longest_gaps(0)

    def test_empty_stream_timeline(self):
        from repro.frameworks.registry import TENSORFLOW

        timeline = _execution([], TENSORFLOW).timeline
        assert timeline.busy_s == 0.0
        assert timeline.gpu_utilization == 0.0


class TestGapAttribution:
    """Pin the dispatch/host-sync gap attribution and queue delays on a
    hand-computable host-sync-heavy kernel stream."""

    @pytest.fixture(scope="class")
    def synthetic_timeline(self):
        from repro.frameworks.base import Framework, MomentumAllocation
        from repro.hardware.roofline import KernelTiming
        from repro.kernels.base import Kernel, KernelCategory

        framework = Framework(
            name="synthetic",
            version="0",
            dispatch_cost_s=10e-6,
            frontend_cost_s=50e-6,
            pool_overhead=1.0,
            workspace_factor=1.0,
            momentum_allocation=MomentumAllocation.STATIC,
        )  # sync_latency_s defaults to 200e-6

        def timing(name, duration_us, host_sync=False):
            kernel = Kernel(
                name=name,
                category=KernelCategory.ELEMENTWISE,
                flops=1.0,
                bytes_accessed=1.0,
                host_sync=host_sync,
            )
            duration = duration_us * 1e-6
            return KernelTiming(
                kernel=kernel,
                duration_s=duration,
                compute_time_s=duration,
                memory_time_s=0.0,
                launch_latency_s=0.0,
            )

        timings = [
            timing("k1", 500),
            timing("k2", 50),
            timing("k3", 40, host_sync=True),
            timing("k4", 30),
            timing("k5", 20, host_sync=True),
            timing("k6", 5),
            timing("k7", 5),
        ]
        return _execution(timings, framework).timeline

    def test_gap_causes_and_extents(self, synthetic_timeline):
        us = 1e-6
        gaps = [
            (gap.cause, gap.start_s / us, gap.end_s / us)
            for gap in synthetic_timeline.gaps
        ]
        assert gaps == [
            ("frontend", pytest.approx(0.0), pytest.approx(60.0)),
            ("host sync", pytest.approx(650.0), pytest.approx(860.0)),
            ("host sync", pytest.approx(910.0), pytest.approx(1120.0)),
            ("dispatch", pytest.approx(1125.0), pytest.approx(1130.0)),
        ]

    def test_idle_by_cause_totals(self, synthetic_timeline):
        causes = synthetic_timeline.idle_by_cause()
        assert causes["host sync"] == pytest.approx(420e-6)
        assert causes["dispatch"] == pytest.approx(5e-6)
        assert causes["frontend"] == pytest.approx(60e-6)
        # Host syncs dominate dispatch starvation in a sync-heavy stream.
        assert causes["host sync"] > causes["dispatch"]

    def test_queue_delays(self, synthetic_timeline):
        delays = {
            event.name: event.queue_delay_s for event in synthetic_timeline.events
        }
        # k1 opens the stream, k4/k6/k7 start CPU-bound: no queueing.
        assert delays["k1"] == pytest.approx(0.0)
        assert delays["k4"] == pytest.approx(0.0)
        assert delays["k6"] == pytest.approx(0.0)
        assert delays["k7"] == pytest.approx(0.0)
        # k2/k3 were issued while the 500us kernel still ran; k5 queued
        # briefly behind k4.
        assert delays["k2"] == pytest.approx(490e-6)
        assert delays["k3"] == pytest.approx(530e-6)
        assert delays["k5"] == pytest.approx(20e-6)

    def test_makespan_and_busy(self, synthetic_timeline):
        assert synthetic_timeline.busy_s == pytest.approx(650e-6)
        assert synthetic_timeline.makespan_s == pytest.approx(1135e-6)
        assert synthetic_timeline.idle_s == pytest.approx(485e-6)


class TestDeterministicExport:
    def test_chrome_trace_is_byte_stable(self, cnn_timeline, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(cnn_timeline, str(first))
        write_chrome_trace(cnn_timeline, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_timestamps_have_fixed_precision(self, cnn_timeline):
        trace = timeline_to_chrome_trace(cnn_timeline)
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            assert event["ts"] == round(event["ts"], 3)
            assert event["dur"] == round(event["dur"], 3)


class TestChromeTraceExport:
    def test_trace_structure(self, cnn_timeline):
        trace = timeline_to_chrome_trace(cnn_timeline, process_name="test")
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(cnn_timeline.events) + len(cnn_timeline.gaps)
        assert all(e["dur"] >= 0 for e in complete)

    def test_round_trips_through_json(self, cnn_timeline, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(cnn_timeline, str(path))
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) > 100

    def test_idle_events_on_separate_track(self, rnn_timeline):
        trace = timeline_to_chrome_trace(rnn_timeline)
        idle = [e for e in trace["traceEvents"] if e.get("cat") == "idle"]
        assert idle
        assert all(e["tid"] == 1 for e in idle)


class TestCSVExport:
    def test_kernel_stats_csv(self, tmp_path):
        profile = TrainingSession("resnet-50", "mxnet").run_iteration(16)
        trace = trace_from_profile(profile)
        path = tmp_path / "kernels.csv"
        text = kernel_stats_to_csv(trace, str(path))
        lines = text.strip().splitlines()
        assert lines[0].startswith("kernel,launches")
        assert len(lines) > 10
        assert path.read_text() == text

    def test_kernel_stats_csv_to_buffer(self):
        import io

        profile = TrainingSession("wgan", "tensorflow").run_iteration(8)
        buffer = io.StringIO()
        kernel_stats_to_csv(trace_from_profile(profile), buffer)
        assert "kernel" in buffer.getvalue()

    def test_metrics_csv(self):
        profile = TrainingSession("a3c", "mxnet").run_iteration(32)
        text = metrics_to_csv([IterationMetrics.from_profile(profile)])
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert "A3C" in lines[1]
