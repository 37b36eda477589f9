"""Fault injection for the sweep engine: every failure mode must degrade
to recompute-with-warning — never a wrong result, never a crash.

Covered faults:

- cache entries that are truncated, garbage, schema-mismatched, or
  structurally valid but carrying a malformed point payload;
- a worker process that raises mid-chunk;
- a process pool that cannot be constructed at all;
- ``tbd cache clear`` racing a sweep that is mid-grid.
"""

import json
import multiprocessing
import os

import pytest

import repro.engine.executor as executor_module
from repro.engine import (
    CacheCorruptionWarning,
    EngineWorkerWarning,
    PointSpec,
    ResultCache,
    SweepEngine,
    point_key,
)
from repro.hardware.devices import GTX_580


@pytest.fixture
def cache_root(tmp_path):
    return str(tmp_path / "cache")


def _resnet_key(batch):
    return point_key("resnet-50", "mxnet", batch)


def _single_point_engine(cache_root, jobs=1):
    return SweepEngine(jobs=jobs, cache=cache_root)


class TestCorruptCacheEntries:
    @pytest.fixture
    def warmed(self, cache_root):
        """A cache holding one computed resnet point; returns (engine
        result, entry path)."""
        engine = _single_point_engine(cache_root)
        (point,) = engine.run_grid([PointSpec("resnet-50", "mxnet", 16)])
        return point, engine.cache.path_for(_resnet_key(16))

    @pytest.mark.parametrize(
        "damage",
        [
            b"",  # truncated to nothing
            b'{"schema": 1, "key": "abc", "point"',  # truncated mid-JSON
            b"not json at all \x00\xff",  # garbage bytes
            b'{"schema": 99, "key": "wrong", "point": {}}',  # wrong schema
            b'["a", "list", "not", "a", "dict"]',  # wrong shape
        ],
        ids=["empty", "truncated", "garbage", "wrong-schema", "wrong-shape"],
    )
    def test_damaged_entry_recomputes_with_warning(self, warmed, cache_root, damage):
        reference, path = warmed
        with open(path, "wb") as handle:
            handle.write(damage)
        fresh = _single_point_engine(cache_root)
        with pytest.warns(CacheCorruptionWarning):
            (point,) = fresh.run_grid([PointSpec("resnet-50", "mxnet", 16)])
        assert point == reference
        assert fresh.stats.points_computed == 1
        assert fresh.stats.corrupt_entries == 1

    def test_valid_entry_with_malformed_payload_recomputes(self, warmed, cache_root):
        reference, path = warmed
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["point"] = {"version": 1, "batch_size": 16}  # missing fields
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        fresh = _single_point_engine(cache_root)
        with pytest.warns(CacheCorruptionWarning):
            (point,) = fresh.run_grid([PointSpec("resnet-50", "mxnet", 16)])
        assert point == reference

    def test_damaged_entry_is_rewritten_after_recompute(self, warmed, cache_root):
        reference, path = warmed
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        with pytest.warns(CacheCorruptionWarning):
            _single_point_engine(cache_root).run_grid(
                [PointSpec("resnet-50", "mxnet", 16)]
            )
        # The recompute overwrote the damage: the next run is a clean hit.
        healed = _single_point_engine(cache_root)
        (point,) = healed.run_grid([PointSpec("resnet-50", "mxnet", 16)])
        assert point == reference
        assert healed.stats.cache_hits == 1
        assert healed.stats.points_computed == 0


class TestWorkerFailures:
    GRID = [
        PointSpec("resnet-50", "mxnet", 4),
        PointSpec("resnet-50", "mxnet", 8),
        PointSpec("resnet-50", "mxnet", 16),
        PointSpec("resnet-50", "mxnet", 32),
    ]

    @pytest.fixture
    def reference(self):
        return SweepEngine(jobs=1, cache=None).run_grid(self.GRID)

    def test_worker_exception_degrades_to_inline(self, reference, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fault injection via inherited monkeypatch needs fork")
        parent_pid = os.getpid()
        original = executor_module._compute_payload

        def fails_in_workers(spec, gpu, cpu, sessions):
            if os.getpid() != parent_pid:
                raise RuntimeError("injected worker fault")
            return original(spec, gpu, cpu, sessions)

        monkeypatch.setattr(executor_module, "_compute_payload", fails_in_workers)
        engine = SweepEngine(jobs=2, cache=None)
        with pytest.warns(EngineWorkerWarning, match="injected worker fault"):
            points = engine.run_grid(self.GRID)
        assert points == reference
        assert engine.stats.worker_failures >= 1
        assert engine.stats.points_computed == len(self.GRID)

    def test_pool_unavailable_degrades_to_inline(self, reference, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool in this environment")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
        engine = SweepEngine(jobs=4, cache=None)
        with pytest.warns(EngineWorkerWarning, match="process pool unavailable"):
            points = engine.run_grid(self.GRID)
        assert points == reference
        assert engine.stats.worker_failures == 1

    def test_failed_chunk_results_still_cached(self, cache_root, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fault injection via inherited monkeypatch needs fork")
        parent_pid = os.getpid()
        original = executor_module._compute_payload

        def fails_in_workers(spec, gpu, cpu, sessions):
            if os.getpid() != parent_pid:
                raise RuntimeError("injected worker fault")
            return original(spec, gpu, cpu, sessions)

        monkeypatch.setattr(executor_module, "_compute_payload", fails_in_workers)
        engine = SweepEngine(jobs=2, cache=cache_root)
        with pytest.warns(EngineWorkerWarning):
            points = engine.run_grid(self.GRID)
        warm = SweepEngine(jobs=1, cache=cache_root)
        assert warm.run_grid(self.GRID) == points
        assert warm.stats.points_computed == 0


class TestClearMidGrid:
    GRID = [PointSpec("resnet-50", "mxnet", batch) for batch in (4, 8, 16, 32)]

    class ClearingCache(ResultCache):
        """Simulates ``tbd cache clear`` landing while a sweep is between
        points: the whole store vanishes after the N-th lookup."""

        def __init__(self, root, clear_after: int):
            super().__init__(root)
            self._lookups = 0
            self._clear_after = clear_after

        def load(self, key):
            self._lookups += 1
            if self._lookups == self._clear_after:
                self.clear()
            return super().load(key)

    def test_clear_between_points_recomputes_silently(self, cache_root):
        reference = SweepEngine(jobs=1, cache=cache_root).run_grid(self.GRID)

        racing = SweepEngine(
            jobs=1, cache=self.ClearingCache(cache_root, clear_after=2)
        )
        points = racing.run_grid(self.GRID)
        assert points == reference
        # Lookups 2..4 found a cleared store and recomputed; the results
        # were re-stored, so the cache converges back toward warm.  Only
        # point 1 — hit before the clear wiped its entry — is still cold.
        assert racing.stats.points_computed == 3
        healed = SweepEngine(jobs=1, cache=cache_root)
        assert healed.run_grid(self.GRID) == reference
        assert healed.stats.points_computed == 1
        assert healed.stats.cache_hits == 3

    def test_store_survives_shard_removal_race(self, cache_root):
        cache = ResultCache(cache_root)
        key = _resnet_key(4)
        cache.store(key, {"version": 1, "batch_size": 4, "oom": True, "metrics": None})
        assert cache.clear() == 1
        # Shard directories are gone; a fresh store must recreate them.
        path = cache.store(
            key, {"version": 1, "batch_size": 4, "oom": True, "metrics": None}
        )
        assert os.path.exists(path)

    def test_clear_on_missing_root_is_harmless(self, tmp_path):
        cache = ResultCache(str(tmp_path / "never-created"))
        assert cache.clear() == 0
        assert cache.stats().entries == 0


class TestOOMPointsRoundTrip:
    def test_oom_points_cache_and_rehydrate(self, cache_root):
        cold = SweepEngine(jobs=2, cache=cache_root, gpu=GTX_580)
        cold_points = cold.sweep("resnet-50", "tensorflow")
        assert any(point.oom for point in cold_points)
        assert all(point.metrics is None for point in cold_points if point.oom)

        warm = SweepEngine(jobs=1, cache=cache_root, gpu=GTX_580)
        warm_points = warm.sweep("resnet-50", "tensorflow")
        assert warm_points == cold_points
        assert warm.stats.points_computed == 0, "OOM points must be memoized too"

    def test_oom_keys_are_device_specific(self, cache_root):
        """A GTX 580 OOM entry must never shadow a P4000 result."""
        SweepEngine(jobs=1, cache=cache_root, gpu=GTX_580).sweep(
            "resnet-50", "tensorflow", (64,)
        )
        p4000 = SweepEngine(jobs=1, cache=cache_root)
        (point,) = p4000.sweep("resnet-50", "tensorflow", (64,))
        assert not point.oom and point.metrics is not None
        assert p4000.stats.cache_hits == 0



class TestFaultedPointsCheckMemory:
    """A faulted point's replicas are memory-checked like the plain point:
    it is OOM exactly when the same (model, framework, batch) is."""

    FAULTS = "cluster=2M1G; steps=10; crash=1@5"

    @pytest.mark.parametrize("batch,oom", [(32, False), (128, True)])
    def test_faulted_point_ooms_exactly_when_the_plain_point_does(self, batch, oom):
        plain, faulted = SweepEngine(jobs=1, cache=None).run_grid(
            [
                PointSpec("resnet-50", "mxnet", batch),
                PointSpec("resnet-50", "mxnet", batch, self.FAULTS),
            ]
        )
        assert plain.oom is faulted.oom is oom
