"""Deeper coverage of the Fig. 3 analysis pipeline: warm-up handling per
model class, device overrides, and the merged report's internal
consistency."""

import pytest

from repro.core.analysis import RUN_ITERATIONS, SAMPLE_ITERATIONS, AnalysisPipeline
from repro.hardware.devices import TITAN_XP
from repro.profiling.sampling import IterationTimeline, StablePhaseSampler


class TestWarmupHandling:
    def test_faster_rcnn_needs_thousands_of_iterations(self):
        """Section 3.4.2: Faster R-CNN's throughput stabilizes only after a
        few thousand iterations; the pipeline must not sample before that."""
        report = AnalysisPipeline("faster-rcnn", "mxnet").run(1)
        assert report.stable_start_iteration > 1000

    def test_ordinary_models_stabilize_within_hundreds(self):
        report = AnalysisPipeline("wgan", "tensorflow").run(16)
        assert report.stable_start_iteration < 500

    def test_sampler_never_selects_warmup(self):
        timeline = IterationTimeline(
            stable_iteration_s=0.2, warmup_iterations=5, autotune_iterations=300
        )
        durations = timeline.durations(1200)
        sampler = StablePhaseSampler()
        window = sampler.choose_window(durations)
        warmup_mean = durations[:5].mean()
        sampled_mean = durations[window.start_iteration : window.end_iteration].mean()
        assert sampled_mean < 0.2 * warmup_mean


class TestReportConsistency:
    @pytest.fixture(scope="class")
    def report(self):
        return AnalysisPipeline("sockeye", "mxnet").run(32)

    def test_trace_and_metrics_agree_on_fp32(self, report):
        assert report.kernel_trace.average_fp32_utilization == pytest.approx(
            report.metrics.fp32_utilization, rel=1e-6
        )

    def test_cpu_sample_and_metrics_agree(self, report):
        assert report.cpu_sample.utilization == pytest.approx(
            report.metrics.cpu_utilization, rel=0.05
        )

    def test_memory_profile_binds_to_the_configuration(self, report):
        assert report.memory.model == "Sockeye"
        assert report.memory.batch_size == 32

    def test_stable_throughput_near_point_estimate(self, report):
        assert report.stable_throughput == pytest.approx(
            report.metrics.throughput, rel=0.10
        )

    def test_sampled_iterations_in_paper_range(self, report):
        assert 50 <= report.sampled_iterations <= 1000

    def test_summary_lists_five_kernel_rows(self, report):
        text = report.summary()
        assert text.count("%") >= 10  # metrics + five kernel rows


class TestPipelineConfiguration:
    def test_device_override(self):
        report = AnalysisPipeline("resnet-50", "mxnet", gpu=TITAN_XP).run(32)
        assert report.metrics.device == "TITAN Xp"

    def test_default_batch_is_reference(self):
        report = AnalysisPipeline("a3c", "mxnet").run()
        assert report.metrics.batch_size == 128

    def test_samples_the_fixed_stable_window(self):
        """The window is ``SAMPLE_ITERATIONS`` long, past the warm-up, and
        inside a synthesized run of 200 auto-tuning iterations plus four
        windows."""
        assert (SAMPLE_ITERATIONS, RUN_ITERATIONS) == (200, 600)
        report = AnalysisPipeline("wgan", "tensorflow").run(8)
        assert report.sampled_iterations == SAMPLE_ITERATIONS
        assert 0 < report.stable_start_iteration
        assert report.stable_start_iteration + SAMPLE_ITERATIONS <= 200 + 4 * 200

    def test_comparability_gate_runs(self):
        """The pipeline checks hyper-parameters before profiling; a model
        with registered defaults always passes, but the call must happen
        (smoke: patched mismatch raises)."""
        import repro.core.analysis as analysis_module

        original = analysis_module.assert_comparable
        calls = []

        def spy(model_key, *sets):
            calls.append(model_key)
            return original(model_key, *sets)

        analysis_module.assert_comparable = spy
        try:
            AnalysisPipeline("wgan", "tensorflow").run(8)
        finally:
            analysis_module.assert_comparable = original
        assert calls == ["wgan"]
