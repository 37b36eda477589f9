"""Behavioural edge coverage for the suite, sweeps and metric records —
the paths the headline tests don't reach."""

import pytest

from repro.core.metrics import IterationMetrics
from repro.core.suite import SweepPoint, TBDSuite, standard_suite
from repro.experiments.common import SWEEP_PANELS, SweepSeries, run_sweeps
from repro.hardware.devices import GTX_580, TITAN_XP
from repro.hardware.memory import OutOfMemoryError
from repro.training.session import TrainingSession


class TestSuiteEdges:
    def test_sweep_with_custom_batches(self, suite):
        points = suite.sweep("wgan", "tensorflow", batch_sizes=(8, 24))
        assert [p.batch_size for p in points] == [8, 24]
        assert all(not p.oom for p in points)

    def test_sweep_point_record(self):
        point = SweepPoint(batch_size=8, oom=True)
        assert point.metrics is None

    def test_sweep_point_rejects_oom_with_metrics(self, resnet_mxnet_32):
        metrics = IterationMetrics.from_profile(resnet_mxnet_32)
        with pytest.raises(ValueError, match="cannot carry metrics"):
            SweepPoint(batch_size=32, metrics=metrics, oom=True)

    def test_sweep_point_rejects_measured_without_metrics(self):
        with pytest.raises(ValueError, match="has no metrics"):
            SweepPoint(batch_size=32)

    def test_oom_sweep_points_are_explicit(self):
        """Regression: the OOM path must yield metrics-free, oom-flagged
        points (not half-populated records) and keep the sweep complete."""
        old = TBDSuite(gpu=GTX_580)
        points = old.sweep("resnet-50", "tensorflow")
        assert [p.batch_size for p in points] == [4, 8, 16, 32, 64]
        oom_points = [p for p in points if p.oom]
        assert oom_points, "expected GTX 580 to run out of memory in-sweep"
        assert all(p.metrics is None for p in oom_points)
        assert all(p.metrics is not None for p in points if not p.oom)

    def test_run_propagates_oom(self, suite):
        with pytest.raises(OutOfMemoryError):
            suite.run("deep-speech-2", "mxnet", 16)

    def test_unknown_framework_for_model(self, suite):
        with pytest.raises(ValueError, match="no CNTK implementation"):
            suite.run("nmt", "cntk")

    def test_model_accessor_uses_aliases(self, suite):
        assert suite.model("resnet").display_name == "ResNet-50"

    def test_gtx580_suite_hits_memory_walls_early(self):
        old = TBDSuite(gpu=GTX_580)
        points = old.sweep("resnet-50", "mxnet")
        assert any(point.oom for point in points)

    def test_throughput_scales_down_on_older_hardware(self, suite):
        old = TBDSuite(gpu=GTX_580)
        # WGAN at batch 4 fits even 1.5 GB.
        slow = old.run("wgan", "tensorflow", 4).throughput
        fast = suite.run("wgan", "tensorflow", 4).throughput
        assert fast > 1.5 * slow

    def test_compare_frameworks_returns_all_three_for_images(self, suite):
        results = suite.compare_frameworks("inception-v3", 16)
        throughputs = {key: m.throughput for key, m in results.items()}
        assert throughputs["mxnet"] > throughputs["tensorflow"]  # Obs. 3

    def test_titan_suite_sweeps(self):
        xp = TBDSuite(gpu=TITAN_XP)
        points = xp.sweep("resnet-50", "mxnet", (16, 32))
        values = [p.metrics.throughput for p in points]
        assert values == sorted(values)


class TestSweepHelpers:
    def test_panel_list_matches_figures(self):
        models = [model for model, _ in SWEEP_PANELS]
        assert models == [
            "resnet-50",
            "inception-v3",
            "nmt",
            "sockeye",
            "transformer",
            "wgan",
            "deep-speech-2",
            "a3c",
        ]

    def test_series_finite_filters_oom(self):
        series = SweepSeries(
            model="m",
            framework="f",
            batch_sizes=(8, 16, 32),
            values=(1.0, None, 3.0),
        )
        assert series.finite() == [(8, 1.0), (32, 3.0)]

    def test_run_sweeps_metric_selection(self, suite):
        series = run_sweeps("gpu_utilization", suite)
        for entry in series:
            for _, value in entry.finite():
                assert 0.0 < value <= 1.0

    def test_sockeye_sweep_has_no_oom_within_paper_range(self, suite):
        series = {
            (s.model, s.framework): s for s in run_sweeps("throughput", suite)
        }
        sockeye = series[("sockeye", "mxnet")]
        assert None not in sockeye.values  # the paper's sweep stops at 64


class TestMetricRecords:
    def test_format_row_contains_all_metrics(self):
        profile = TrainingSession("a3c", "mxnet").run_iteration(64)
        record = IterationMetrics.from_profile(profile, "samples/s")
        row = record.format_row()
        for fragment in ("A3C", "MXNet", "gpu=", "fp32=", "cpu="):
            assert fragment in row

    def test_units_preserved(self, suite):
        ds2 = suite.run("deep-speech-2", "mxnet", 2)
        assert ds2.throughput_unit == "audio seconds/s"
        transformer = suite.run("transformer", "tensorflow", 256)
        assert transformer.throughput_unit == "tokens/s"

    def test_iteration_time_consistency(self, suite):
        metrics = suite.run("wgan", "tensorflow", 16)
        assert metrics.throughput == pytest.approx(
            16.0 / metrics.iteration_time_s, rel=1e-6
        )


class TestSessionEdges:
    def test_kernel_stream_starts_with_h2d_copy(self):
        session = TrainingSession("resnet-50", "mxnet")
        kernels = session.compile(8).kernels
        assert "HtoD" in kernels[0].name

    def test_update_kernels_one_per_weighted_layer(self):
        session = TrainingSession("a3c", "mxnet")
        plan = session.compile(8)
        graph, kernels = plan.graph, plan.kernels
        updates = [k for k in kernels if "sgd" in k.name]
        weighted = [l for l in graph.layers if l.weight_elements > 0]
        assert len(updates) == len(weighted)
