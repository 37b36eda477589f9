"""Unit tests closing the coverage gaps in two leaf modules: CSV/trace
export (:mod:`repro.profiling.export`) and the HTML report builder
(:mod:`repro.core.html_report`)."""

from __future__ import annotations

import io

import pytest

from repro.core.html_report import _ORDER, build_report, write_report
from repro.core.metrics import IterationMetrics
from repro.experiments import ALL_EXPERIMENTS
from repro.observability.exporters import _round_us
from repro.profiling.export import metrics_to_csv
from repro.profiling.kernel_trace import trace_from_profile
from repro.profiling.export import kernel_stats_to_csv


@pytest.fixture(scope="module")
def a3c_profile(profile_cache):
    return profile_cache("a3c", "mxnet", 8)


class TestRoundUs:
    def test_fixed_nanosecond_precision(self):
        assert _round_us(1.0) == 1_000_000.0
        assert _round_us(1.2345678912e-3) == 1234.568
        assert _round_us(0.0) == 0.0
        # Idempotent: re-rounding an already-rounded value is a no-op.
        assert _round_us(_round_us(3.14159e-4) / 1e6) == _round_us(3.14159e-4)


class TestMetricsCSVDestinations:
    def test_writes_to_path(self, a3c_profile, tmp_path):
        path = tmp_path / "metrics.csv"
        text = metrics_to_csv([IterationMetrics.from_profile(a3c_profile)], str(path))
        assert path.read_text() == text

    def test_writes_to_buffer(self, a3c_profile):
        buffer = io.StringIO()
        text = metrics_to_csv([IterationMetrics.from_profile(a3c_profile)], buffer)
        assert buffer.getvalue() == text

    def test_empty_list_yields_header_only(self):
        lines = metrics_to_csv([]).strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[:2] == ["model", "framework"]


class TestKernelStatsOrdering:
    def test_rows_sorted_by_total_time_descending(self, a3c_profile):
        text = kernel_stats_to_csv(trace_from_profile(a3c_profile))
        rows = text.strip().splitlines()[1:]
        totals = [float(row.split(",")[2]) for row in rows]
        assert totals == sorted(totals, reverse=True)
        # launches * mean == total for every row (CSV is self-consistent).
        for row in rows:
            _, launches, total, mean, util = row.split(",")
            assert float(total) == pytest.approx(
                int(launches) * float(mean), rel=1e-3
            )
            assert 0.0 <= float(util) <= 1.0


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
