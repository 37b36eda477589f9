"""Unit tests closing the coverage gaps in two leaf modules: the trace
exporters' timestamp rounding (:mod:`repro.observability.exporters`) and
the HTML report builder (:mod:`repro.core.html_report`)."""

from __future__ import annotations

import pytest

from repro.core.html_report import _ORDER, build_report, write_report
from repro.experiments import ALL_EXPERIMENTS
from repro.observability.exporters import _round_us


class TestRoundUs:
    def test_fixed_nanosecond_precision(self):
        assert _round_us(1.0) == 1_000_000.0
        assert _round_us(1.2345678912e-3) == 1234.568
        assert _round_us(0.0) == 0.0
        # Idempotent: re-rounding an already-rounded value is a no-op.
        assert _round_us(_round_us(3.14159e-4) / 1e6) == _round_us(3.14159e-4)


class TestHTMLReportBuilder:
    def test_order_matches_experiment_registry(self):
        assert sorted(_ORDER) == sorted(ALL_EXPERIMENTS)
        assert len(_ORDER) == 13

    def test_unknown_exhibit_named_in_error(self):
        with pytest.raises(KeyError, match="fig99"):
            build_report(observations=False, exhibits=["table1", "fig99"])

    def test_minimal_report_is_a_complete_document(self):
        text = build_report(observations=False, exhibits=[])
        assert text.startswith("<!doctype html>")
        assert text.endswith("</body></html>")
        assert "Benchmarking and Analyzing Deep Neural Network Training" in text
        assert "<h2>" not in text  # no observations, no exhibits

    def test_write_report_round_trips(self, tmp_path):
        path = tmp_path / "report.html"
        write_report(str(path), observations=False, exhibits=[])
        content = path.read_text()
        assert "<footer>generated " in content
