"""Unit tests for the core suite, metrics, analysis pipeline, and report
renderers."""

import pytest

from repro.core import metrics as M
from repro.core.analysis import AnalysisPipeline
from repro.core.report import (
    render_bar_chart,
    render_series,
    render_table,
)
from repro.core.suite import TBDSuite, standard_suite
from repro.hardware.devices import TITAN_XP


class TestMetricFormulas:
    def test_throughput(self):
        assert M.throughput(64, 0.5) == 128.0
        with pytest.raises(ValueError):
            M.throughput(64, 0.0)
        with pytest.raises(ValueError):
            M.throughput(-1, 1.0)

    def test_gpu_utilization_eq1(self):
        assert M.gpu_utilization(0.5, 1.0) == 0.5
        assert M.gpu_utilization(2.0, 1.0) == 1.0  # clamped
        with pytest.raises(ValueError):
            M.gpu_utilization(-0.1, 1.0)

    def test_fp32_utilization_eq2(self):
        assert M.fp32_utilization(5e12, 1e13, 1.0) == 0.5
        assert M.fp32_utilization(1.0, 1e13, 0.0) == 0.0
        with pytest.raises(ValueError):
            M.fp32_utilization(1.0, 0.0, 1.0)

    def test_cpu_utilization_eq3(self):
        assert M.cpu_utilization(14.0, 28, 1.0) == 0.5
        with pytest.raises(ValueError):
            M.cpu_utilization(1.0, 0, 1.0)

    def test_from_profile(self, resnet_mxnet_32):
        record = M.IterationMetrics.from_profile(resnet_mxnet_32)
        assert record.model == "ResNet-50"
        assert record.throughput == pytest.approx(resnet_mxnet_32.throughput)
        assert "ResNet-50" in record.format_row()


class TestSuite:
    def test_run_returns_metrics(self, suite):
        result = suite.run("resnet-50", "mxnet", 16)
        assert result.batch_size == 16
        assert result.throughput > 0

    def test_sweep_marks_oom(self, suite):
        points = suite.sweep("sockeye", "mxnet", (64, 128))
        assert not points[0].oom
        assert points[1].oom
        assert points[1].metrics is None

    def test_compare_frameworks(self, suite):
        results = suite.compare_frameworks("resnet-50", 16)
        assert set(results) == {"tensorflow", "mxnet", "cntk"}

    def test_configurations_count_matches_fig7(self, suite):
        assert sum(1 for _ in suite.configurations()) == 14

    def test_throughput_units(self, suite):
        assert suite.run("transformer", "tensorflow", 256).throughput_unit == "tokens/s"
        assert (
            suite.run("deep-speech-2", "mxnet", 1).throughput_unit
            == "audio seconds/s"
        )

    def test_suite_on_other_gpu(self):
        xp = TBDSuite(gpu=TITAN_XP)
        assert xp.run("resnet-50", "mxnet", 16).device == "TITAN Xp"

    def test_dataset_bindings(self, suite):
        suite.validate_dataset_bindings()

    def test_run_all_covers_every_configuration(self):
        results = standard_suite().run_all()
        assert len(results) == 14


class TestAnalysisPipeline:
    def test_full_report(self):
        pipeline = AnalysisPipeline("resnet-50", "mxnet", sample_iterations=100)
        report = pipeline.run(16)
        assert report.metrics.model == "ResNet-50"
        assert report.sampled_iterations >= 50
        assert report.stable_start_iteration > 0
        assert report.stable_throughput == pytest.approx(
            report.metrics.throughput, rel=0.1
        )
        assert report.memory.total_gib > 0
        assert len(report.kernel_trace.longest_low_utilization_kernels(5)) == 5

    def test_summary_text(self):
        report = AnalysisPipeline("wgan", "tensorflow").run(16)
        text = report.summary()
        assert "WGAN" in text
        assert "throughput" in text
        assert "feature maps" in text


class TestReportRenderers:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2), (33, 44)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_render_table_validation(self):
        with pytest.raises(ValueError):
            render_table((), [])
        with pytest.raises(ValueError):
            render_table(("a",), [(1, 2)])

    def test_render_series_marks_oom(self):
        text = render_series("s", (1, 2), (1.0, None))
        assert "OOM" in text

    def test_render_series_validation(self):
        with pytest.raises(ValueError):
            render_series("s", (1,), (1.0, 2.0))

    def test_render_bar_chart(self):
        text = render_bar_chart("T", ["a", "b"], [1.0, 2.0])
        assert "##" in text
