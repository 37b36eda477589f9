"""Tests for the HTML report, A/B comparison harness, and gradient
compression wrappers."""

import pytest

from repro.bench.runner import MAX_SAMPLES, MIN_SAMPLES
from repro.core.html_report import build_report, write_report
from repro.distributed.compression import (
    HalfPrecisionGradients,
    TopKSparsification,
)
from repro.distributed.data_parallel import DataParallelTrainer
from repro.distributed.parameter_server import ParameterServerExchange
from repro.hardware.cluster import parse_configuration
from repro.profiling.comparison import ab_compare

_GRAD = 100e6
_SLOW = parse_configuration("2M1G", fabric="1gbe")


class TestCompression:
    def test_fp16_halves_the_wire_time(self):
        base = ParameterServerExchange()
        plain = base.cost(_GRAD, _SLOW)
        compressed = HalfPrecisionGradients(base).cost(_GRAD, _SLOW)
        assert compressed.inter_machine_s == pytest.approx(
            plain.inter_machine_s / 2.0, rel=0.01
        )

    def test_topk_cuts_wire_time_but_charges_selection(self):
        base = ParameterServerExchange()
        compressed = TopKSparsification(base, 0.01).cost(_GRAD, _SLOW)
        plain = base.cost(_GRAD, _SLOW)
        assert compressed.inter_machine_s < 0.05 * plain.inter_machine_s
        assert compressed.compression_s > 0

    def test_topk_keep_one_doubles_volume(self):
        """keep=1.0 still sends indices, so it is *worse* than no
        compression — the wrapper does not pretend otherwise."""
        base = ParameterServerExchange()
        everything = TopKSparsification(base, 1.0).cost(_GRAD, _SLOW)
        plain = base.cost(_GRAD, _SLOW)
        assert everything.inter_machine_s > plain.inter_machine_s

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKSparsification(ParameterServerExchange(), 0.0)

    def test_names_compose(self):
        wrapped = HalfPrecisionGradients(ParameterServerExchange())
        assert "fp16" in wrapped.name

    def test_end_to_end_with_trainer(self):
        plain = DataParallelTrainer("resnet-50", "mxnet", _SLOW).run_iteration(32)
        compressed = DataParallelTrainer(
            "resnet-50",
            "mxnet",
            _SLOW,
            exchange=TopKSparsification(ParameterServerExchange(), 0.01),
        ).run_iteration(32)
        assert compressed.throughput > 3.0 * plain.throughput


class TestABComparison:
    def test_clear_difference_detected(self):
        report = ab_compare("resnet-50", "mxnet", "tensorflow", 32, samples=150)
        assert report.faster == "mxnet"
        assert report.result.verdict == "regression"  # side B is slower
        assert report.throughput_a > report.throughput_b
        assert "mxnet is faster" in report.verdict

    def test_same_configuration_indistinguishable(self):
        report = ab_compare("wgan", "tensorflow", "tensorflow", 16, samples=100)
        assert report.faster == "indistinguishable"
        assert "indistinguishable" in report.verdict

    def test_throughput_matches_point_estimates(self, suite):
        report = ab_compare("resnet-50", "mxnet", "tensorflow", 32, samples=150)
        point = suite.run("resnet-50", "mxnet", 32).throughput
        assert report.throughput_a == pytest.approx(point, rel=0.05)

    def test_explicit_samples_override(self):
        report = ab_compare("resnet-50", "mxnet", "tensorflow", 32, samples=80)
        assert report.samples == 80

    def test_sample_count_is_spelled_samples(self):
        with pytest.raises(TypeError, match="iterations"):
            ab_compare("resnet-50", "mxnet", "tensorflow", 32, iterations=80)

    def test_adaptive_sizing_reports_its_sample_count(self):
        report = ab_compare("resnet-50", "mxnet", "tensorflow", 32)
        assert MIN_SAMPLES <= report.samples <= MAX_SAMPLES
        assert report.result.p_regression < 0.05


class TestHTMLReport:
    def test_selected_exhibits_only(self):
        text = build_report(observations=False, exhibits=["table4"])
        assert "Quadro P4000" in text
        assert "Fig. 10" not in text
        assert text.startswith("<!doctype html>")

    def test_observation_checklist_included(self):
        text = build_report(observations=True, exhibits=[])
        assert text.count("PASS") == 13
        assert "feature maps are the dominant consumers" in text.lower()

    def test_unknown_exhibit_rejected(self):
        with pytest.raises(KeyError):
            build_report(exhibits=["fig99"])

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.html"
        write_report(str(path), observations=False, exhibits=["table1"])
        content = path.read_text()
        assert "categorized" in content

    def test_escaping(self):
        # Kernel names contain '<...>' template arguments; they must be
        # escaped, not swallowed as tags.
        text = build_report(observations=False, exhibits=["table5_6"])
        assert "&lt;relu&gt;" in text
