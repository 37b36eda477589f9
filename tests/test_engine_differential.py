"""The differential harness: parallel == serial == cached, byte for byte.

A reduced Figs. 4-6 grid (two image panels, an RNN panel, and the A3C
panel — 22 points) is executed four ways:

- serially by ``TrainingSession.run_iteration``, no engine (the reference),
- through the engine with ``jobs=2`` and a cold cache,
- through the engine with ``jobs=4`` and **no** cache (pure fan-out),
- through the engine serially against the now-warm cache.

Every way must produce identical ``IterationMetrics`` field-by-field,
identical ``SweepSeries`` for all three paper metrics, and byte-identical
exported JSONL artifacts; the warm-cache way must execute zero
``TrainingSession.run_iteration`` calls.
"""

import dataclasses

import pytest

from repro.core.metrics import IterationMetrics
from repro.engine import PointSpec, SweepEngine, grid_for, write_grid_jsonl
from repro.engine.executor import _compute_payload
from repro.experiments.common import SweepSeries, run_sweeps
from repro.hardware.devices import QUADRO_P4000, XEON_E5_2680
from repro.training.session import TrainingSession

#: The reduced Figs. 4-6 grid: every panel family, trimmed for test time.
REDUCED_PANELS = (
    ("resnet-50", ("tensorflow", "mxnet")),
    ("nmt", ("tensorflow",)),
    ("a3c", ("mxnet",)),
)

METRICS = ("throughput", "gpu_utilization", "fp32_utilization")


@pytest.fixture(scope="module")
def grid():
    return grid_for(REDUCED_PANELS)


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("engine-cache"))


@pytest.fixture(scope="module")
def serial_points(direct_sweep):
    """The reference: each panel swept by one ``TrainingSession`` driven
    directly, with no engine in the way; OOM batches are recorded."""
    return {
        (model, framework): direct_sweep(model, framework)
        for model, frameworks in REDUCED_PANELS
        for framework in frameworks
    }


@pytest.fixture(scope="module")
def serial_series(serial_points):
    """The reference points as ``run_sweeps`` series, one per metric."""
    return {
        metric: [
            SweepSeries(
                model=model,
                framework=framework,
                batch_sizes=tuple(point.batch_size for point in points),
                values=tuple(
                    None if point.oom else getattr(point.metrics, metric)
                    for point in points
                ),
            )
            for (model, framework), points in serial_points.items()
        ]
        for metric in METRICS
    }


@pytest.fixture(scope="module")
def jobs2_cold(cache_root):
    """jobs=2 against a cold cache; populates ``cache_root`` for the
    warm-cache fixtures below."""
    engine = SweepEngine(jobs=2, cache=cache_root)
    series = {
        metric: run_sweeps(metric, engine=engine, panels=REDUCED_PANELS)
        for metric in METRICS
    }
    return engine, series


@pytest.fixture(scope="module")
def jobs4_uncached(grid):
    """jobs=4 with the cache disabled: pure fan-out, every point computed."""
    engine = SweepEngine(jobs=4, cache=None)
    return engine, engine.run_grid(grid)


class TestParallelEqualsSerial:
    def test_jobs2_matches_serial_for_all_metrics(self, serial_series, jobs2_cold):
        _engine, series = jobs2_cold
        for metric in METRICS:
            assert series[metric] == serial_series[metric]

    def test_jobs2_computed_each_point_exactly_once(self, jobs2_cold, grid):
        engine, _series = jobs2_cold
        # Three metric extractions share one grid: the first run computes
        # every point, the other two hit the cache (plus nothing else).
        assert engine.stats.points_computed == len(grid)
        assert engine.stats.cache_hits == 2 * len(grid)

    def test_jobs4_uncached_matches_serial(self, serial_points, jobs4_uncached, grid):
        _engine, points = jobs4_uncached
        by_panel = {}
        for spec, point in zip(grid, points):
            by_panel.setdefault((spec.model, spec.framework), []).append(point)
        for (model, framework), engine_points in by_panel.items():
            assert engine_points == serial_points[(model, framework)]

    def test_metrics_equal_field_by_field(self, serial_points, grid, jobs4_uncached):
        _engine, points = jobs4_uncached
        reference = serial_points
        cursor = {}
        for spec, point in zip(grid, points):
            panel = reference[(spec.model, spec.framework)]
            expected = panel[cursor.setdefault((spec.model, spec.framework), 0)]
            cursor[(spec.model, spec.framework)] += 1
            assert point.batch_size == expected.batch_size
            assert point.oom == expected.oom
            if expected.oom:
                assert point.metrics is None
                continue
            for metric_field in dataclasses.fields(IterationMetrics):
                assert getattr(point.metrics, metric_field.name) == getattr(
                    expected.metrics, metric_field.name
                ), metric_field.name


class TestWarmCacheEqualsCold:
    def test_warm_run_matches_serial_and_computes_nothing(
        self, serial_series, jobs2_cold, cache_root, monkeypatch
    ):
        _cold_engine, _ = jobs2_cold  # ensure the cache is populated
        calls = []
        original = TrainingSession.run_iteration

        def counting(self, batch_size=None):
            calls.append((self.spec.key, self.framework.key, batch_size))
            return original(self, batch_size)

        monkeypatch.setattr(TrainingSession, "run_iteration", counting)
        warm = SweepEngine(jobs=1, cache=cache_root)
        for metric in METRICS:
            series = run_sweeps(metric, engine=warm, panels=REDUCED_PANELS)
            assert series == serial_series[metric]
        assert calls == [], "warm cache must not execute any training session"
        assert warm.stats.points_computed == 0
        assert warm.stats.cache_misses == 0

    def test_warm_parallel_run_also_computes_nothing(
        self, jobs2_cold, cache_root, grid
    ):
        _cold_engine, _ = jobs2_cold
        warm = SweepEngine(jobs=4, cache=cache_root)
        warm.run_grid(grid)
        assert warm.stats.points_computed == 0
        assert warm.stats.cache_hits == len(grid)


class TestExportsByteIdentical:
    def test_serial_parallel_and_cached_exports_are_identical(
        self, tmp_path, grid, serial_points, jobs4_uncached, jobs2_cold, cache_root
    ):
        _engine, parallel_points = jobs4_uncached
        _cold_engine, _ = jobs2_cold

        flat_serial = []
        for model, frameworks in REDUCED_PANELS:
            for framework in frameworks:
                flat_serial.extend(serial_points[(model, framework)])
        warm_points = SweepEngine(jobs=1, cache=cache_root).run_grid(grid)

        paths = {}
        for label, points in (
            ("serial", flat_serial),
            ("parallel", parallel_points),
            ("cached", warm_points),
        ):
            path = tmp_path / f"{label}.jsonl"
            assert write_grid_jsonl(str(path), grid, points) == len(grid)
            paths[label] = path.read_bytes()

        assert paths["serial"] == paths["parallel"]
        assert paths["serial"] == paths["cached"]
        assert paths["serial"].count(b"\n") == len(grid)

    def test_export_rejects_mismatched_grid(self, tmp_path, grid, jobs4_uncached):
        _engine, points = jobs4_uncached
        with pytest.raises(ValueError, match="length mismatch"):
            write_grid_jsonl(str(tmp_path / "bad.jsonl"), grid[:-1], points)


class TestEngineSuiteParity:
    # These tests use per-test cache dirs (not the module-scoped, already
    # warm ``cache_root``) so each one proves parity from a cold cache and
    # stays independent of collection order.
    def test_suite_sweep_with_engine_delegates(self, suite, direct_sweep, tmp_path):
        engine = suite.engine(jobs=2, cache=str(tmp_path / "cache"))
        via_suite = suite.sweep("resnet-50", "tensorflow", engine=engine)
        plain = suite.sweep("resnet-50", "tensorflow")
        reference = direct_sweep("resnet-50", "tensorflow")
        assert via_suite == reference
        assert plain == reference

    def test_suite_run_with_engine_matches_plain_run(self, suite, tmp_path):
        engine = suite.engine(cache=str(tmp_path / "cache"))
        assert suite.run("resnet-50", "mxnet", 16, engine=engine) == suite.run(
            "resnet-50", "mxnet", 16
        )

    def test_engine_rejects_unknown_implementation(self, suite):
        engine = suite.engine()
        with pytest.raises(ValueError, match="no cntk implementation"):
            engine.run("nmt", "cntk")


class TestSessionReuse:
    def test_one_session_per_model_framework_across_batches(self):
        """A chunk's ``sessions`` dict holds one session per (model,
        framework) and reusing it never changes a payload."""
        sessions: dict = {}
        shared = [
            _compute_payload(
                PointSpec("a3c", "mxnet", batch),
                QUADRO_P4000,
                XEON_E5_2680,
                True,
                sessions,
            )
            for batch in (16, 32, 64)
        ]
        assert list(sessions) == [("a3c", "mxnet")]
        fresh = [
            _compute_payload(
                PointSpec("a3c", "mxnet", batch),
                QUADRO_P4000,
                XEON_E5_2680,
                True,
                {},
            )
            for batch in (16, 32, 64)
        ]
        assert shared == fresh
