"""Unit tests for :class:`repro.engine.ResultCache`, the content-addressed
store the sweep engine memoizes into.

The engine-level fault tests (``test_engine_faults.py``) drive damage
through ``SweepEngine.run_grid``; these pin the store's own contract
directly: sharded layout, atomic canonical writes, damage-as-a-miss, and
``stats``/``clear`` books that always agree with what is on disk.
"""

import json
import os
import threading

import pytest

from repro.engine import (
    CacheCorruptionWarning,
    CacheStats,
    PointSpec,
    ResultCache,
    SweepEngine,
    default_cache_dir,
    point_key,
)
from repro.engine.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ENTRY_SCHEMA,
    READ_CHUNK,
)
from repro.engine.keys import canonical_json

_KEYS = [f"{prefix}{'0' * 62}" for prefix in ("00", "7f", "ab", "ff")]


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _payload(index: int) -> dict:
    return {"batch_size": index, "throughput": 1.5 * index, "tags": ["a", "b"]}


def _disk_entries(root: str) -> list:
    found = []
    for directory, _dirs, names in os.walk(root):
        found.extend(
            os.path.join(directory, name)
            for name in names
            if name.endswith(".json") and not name.startswith(".tmp-")
        )
    return sorted(found)


class TestLayout:
    @pytest.mark.parametrize("key", _KEYS)
    def test_entry_path_is_sharded_by_key_prefix(self, cache, key):
        path = cache.path_for(key)
        assert path == os.path.join(cache.root, key[:2], f"{key}.json")
        assert cache.store(key, _payload(1)) == path
        assert os.path.isfile(path)

    def test_store_writes_the_canonical_entry_document(self, cache):
        key = _KEYS[0]
        path = cache.store(key, _payload(3), config={"model": "a3c"})
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text == canonical_json(
            {
                "schema": ENTRY_SCHEMA,
                "key": key,
                "config": {"model": "a3c"},
                "point": _payload(3),
            }
        )

    def test_store_leaves_no_temp_files(self, cache):
        for index, key in enumerate(_KEYS):
            cache.store(key, _payload(index))
        leftovers = [
            name
            for _dir, _dirs, names in os.walk(cache.root)
            for name in names
            if name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestRoundTrip:
    def test_load_returns_what_was_stored(self, cache):
        for index, key in enumerate(_KEYS):
            cache.store(key, _payload(index))
        for index, key in enumerate(_KEYS):
            assert cache.load(key) == _payload(index)
        assert cache.corrupt_entries == 0

    def test_missing_key_is_a_silent_miss(self, cache, recwarn):
        assert cache.load(_KEYS[0]) is None
        assert cache.corrupt_entries == 0
        assert not [w for w in recwarn if w.category is CacheCorruptionWarning]

    def test_restore_overwrites_in_place(self, cache):
        key = _KEYS[1]
        cache.store(key, _payload(1))
        cache.store(key, _payload(2))
        assert cache.load(key) == _payload(2)
        assert cache.stats().entries == 1

    @pytest.mark.parametrize(
        "size",
        (READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1, 3 * READ_CHUNK + 7),
    )
    def test_an_entry_of_any_size_loads_whole(self, cache, size):
        # The reader takes an entry in READ_CHUNK-byte reads until end of
        # file; pad the payload so the entry is exactly ``size`` bytes.
        payload = {"batch_size": 1, "blob": ""}
        unpadded = os.path.getsize(cache.store(_KEYS[0], payload))
        payload["blob"] = "x" * (size - unpadded)
        path = cache.store(_KEYS[0], payload)
        assert os.path.getsize(path) == size
        assert cache.load(_KEYS[0]) == payload
        assert cache.stats().total_bytes == size
        assert cache.corrupt_entries == 0

    def test_same_payload_stores_byte_identical_entries(self, tmp_path):
        first = ResultCache(str(tmp_path / "one"))
        second = ResultCache(str(tmp_path / "two"))
        shuffled = dict(reversed(list(_payload(5).items())))
        with open(first.store(_KEYS[2], _payload(5)), "rb") as handle:
            one = handle.read()
        with open(second.store(_KEYS[2], shuffled), "rb") as handle:
            two = handle.read()
        assert one == two


class TestDamageIsAMiss:
    @pytest.mark.parametrize(
        "damage",
        [
            b"",
            b'{"schema": 1, "key": ',
            b"\x00\xff\xfe binary",
            b"[1, 2, 3]",
            b'"just a string"',
            json.dumps({"schema": 99, "key": _KEYS[0], "point": {}}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[3], "point": {}}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[0], "point": [1]}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[0]}).encode(),
        ],
        ids=[
            "empty",
            "truncated",
            "binary",
            "list",
            "string",
            "wrong-schema",
            "wrong-key",
            "point-not-dict",
            "point-missing",
        ],
    )
    def test_damaged_entry_warns_counts_and_is_removed(self, cache, damage):
        key = _KEYS[0]
        path = cache.store(key, _payload(1))
        with open(path, "wb") as handle:
            handle.write(damage)
        with pytest.warns(CacheCorruptionWarning):
            assert cache.load(key) is None
        assert cache.corrupt_entries == 1
        assert not os.path.exists(path)
        # The quarantined slot takes a fresh store like any miss.
        cache.store(key, _payload(2))
        assert cache.load(key) == _payload(2)

    def test_discard_removes_and_counts_a_decoded_entry(self, cache):
        path = cache.store(_KEYS[0], _payload(1))
        with pytest.warns(CacheCorruptionWarning, match="bad payload"):
            cache.discard(_KEYS[0], "bad payload")
        assert cache.corrupt_entries == 1
        assert not os.path.exists(path)
        assert cache.load(_KEYS[0]) is None


class TestBooks:
    def test_stats_bytes_match_disk_exactly(self, cache):
        for index, key in enumerate(_KEYS):
            cache.store(key, _payload(index), config={"model": "a3c"})
        stats = cache.stats()
        on_disk = _disk_entries(cache.root)
        assert stats.entries == len(on_disk) == len(_KEYS)
        assert stats.total_bytes == sum(os.path.getsize(p) for p in on_disk)

    def test_stats_counts_points_per_model(self, cache):
        cache.store(_KEYS[0], _payload(0), config={"model": "a3c"})
        cache.store(_KEYS[1], _payload(1), config={"model": "a3c"})
        cache.store(_KEYS[2], _payload(2), config={"model": "nmt"})
        cache.store(_KEYS[3], _payload(3))
        assert cache.stats().by_model == {"a3c": 2, "nmt": 1, "<unknown>": 1}

    def test_stats_skips_temp_and_unreadable_files(self, cache):
        path = cache.store(_KEYS[0], _payload(0))
        shard = os.path.dirname(path)
        with open(os.path.join(shard, ".tmp-inflight.json"), "w") as handle:
            handle.write("{}")
        with open(os.path.join(shard, f"00{'1' * 62}.json"), "w") as handle:
            handle.write("{not json")
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.total_bytes == os.path.getsize(path)

    @pytest.mark.parametrize(
        "damage",
        [
            b"[1, 2, 3]",
            b'"just a string"',
            b'{"config": null}',
            json.dumps({"schema": 99, "key": _KEYS[0], "point": {}}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[3], "point": {}}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[0], "point": [1]}).encode(),
            json.dumps({"schema": ENTRY_SCHEMA, "key": _KEYS[0]}).encode(),
        ],
        ids=[
            "list",
            "string",
            "config-null",
            "wrong-schema",
            "wrong-key",
            "point-not-dict",
            "point-missing",
        ],
    )
    def test_stats_counts_only_what_load_serves(self, cache, damage, recwarn):
        healthy = cache.store(_KEYS[1], _payload(1), config={"model": "a3c"})
        damaged = cache.store(_KEYS[0], _payload(0), config={"model": "nmt"})
        with open(damaged, "wb") as handle:
            handle.write(damage)
        stats = cache.stats()
        assert (stats.entries, stats.by_model) == (1, {"a3c": 1})
        assert stats.total_bytes == os.path.getsize(healthy)
        # Read-only: the damaged entry is neither removed nor reported.
        assert os.path.exists(damaged)
        assert cache.corrupt_entries == 0
        assert not recwarn.list

    @pytest.mark.parametrize(
        "config", [None, [1, 2], "a3c", {"model": None}, {"model": ["a3c"]}]
    )
    def test_stats_counts_a_served_entry_without_a_model_as_unknown(
        self, cache, config
    ):
        path = cache.store(_KEYS[0], _payload(0))
        entry = {"schema": ENTRY_SCHEMA, "key": _KEYS[0], "config": config}
        entry["point"] = _payload(0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.load(_KEYS[0]) == _payload(0)
        stats = cache.stats()
        assert (stats.entries, stats.by_model) == (1, {"<unknown>": 1})
        assert stats.total_bytes == os.path.getsize(path)

    def test_stats_skips_an_entry_outside_its_shard(self, cache):
        path = cache.store(_KEYS[0], _payload(0), config={"model": "a3c"})
        stray = os.path.join(cache.root, "7f", os.path.basename(path))
        os.makedirs(os.path.dirname(stray))
        os.replace(path, stray)
        # ``load`` reads only the entry's own shard, so nothing is served.
        assert cache.load(_KEYS[0]) is None
        assert cache.stats().entries == 0

    def test_stats_on_missing_root_is_empty(self, tmp_path):
        stats = ResultCache(str(tmp_path / "absent")).stats()
        assert (stats.entries, stats.total_bytes, stats.by_model) == (0, 0, {})

    def test_clear_removes_entries_and_shard_directories(self, cache):
        for index, key in enumerate(_KEYS):
            cache.store(key, _payload(index))
        assert cache.clear() == len(_KEYS)
        assert _disk_entries(cache.root) == []
        assert os.listdir(cache.root) == []
        assert cache.stats().entries == 0

    def test_concurrent_stores_keep_books_exact(self, cache):
        keys = [f"{index:064x}" for index in range(48)]

        def writer(offset):
            for key in keys[offset::4]:
                cache.store(key, _payload(int(key, 16)), config={"model": "m"})

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        on_disk = _disk_entries(cache.root)
        assert stats.entries == len(on_disk) == len(keys)
        assert stats.total_bytes == sum(os.path.getsize(p) for p in on_disk)
        assert all(cache.load(key) == _payload(int(key, 16)) for key in keys)

    def test_format_report_lists_models_sorted(self):
        stats = CacheStats(
            root="/c", entries=3, total_bytes=120, by_model={"nmt": 1, "a3c": 2}
        )
        lines = stats.format_report().splitlines()
        assert lines[:3] == ["cache /c", "  entries: 3", "  size:    120 bytes"]
        assert [line.split()[0] for line in lines[3:]] == ["a3c", "nmt"]


class TestLocation:
    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() == DEFAULT_CACHE_DIR
        assert ResultCache().root == DEFAULT_CACHE_DIR

    def test_environment_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert default_cache_dir() == str(tmp_path / "env")
        assert ResultCache().root == str(tmp_path / "env")


class TestSharedByEngines:
    def test_concurrent_engines_on_one_cache_agree(self, tmp_path):
        """Two engines racing the same grid into one store: both see the
        same points, and the store ends with exactly one entry per point."""
        root = str(tmp_path / "shared")
        specs = [PointSpec("a3c", "mxnet", batch) for batch in (16, 32, 64)]
        results = {}

        def sweep(name):
            results[name] = SweepEngine(jobs=1, cache=root).run_grid(specs)

        threads = [threading.Thread(target=sweep, args=(n,)) for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["a"] == results["b"]
        cache = ResultCache(root)
        assert cache.stats().entries == len(specs)
        assert cache.stats().by_model == {"a3c": len(specs)}
        warm = SweepEngine(jobs=1, cache=root)
        assert warm.run_grid(specs) == results["a"]
        assert warm.stats.points_computed == 0
        keys = {point_key("a3c", "mxnet", spec.batch_size) for spec in specs}
        assert {os.path.basename(p)[:-5] for p in _disk_entries(root)} == keys
