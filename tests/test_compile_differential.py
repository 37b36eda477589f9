"""Differential tests for the concrete compiler off the paper ladder.

A session's plan comes from ``compile_graph`` behind three memos: the
process-wide graph memo (``shared_graph``), the session roofline's
per-kernel timing memo and the session's plan cache.
``tests/test_plan_memo.py`` proves them invisible on the paper grid on
the P4000. This module covers the rest of the batch axis and the
consumers built on top:

- seeded fuzzed batches (both GPUs, every paper pair) compile through a
  session to exactly the plan of a fresh ``compile_graph`` with its own
  ``RooflineModel``, every float compared by ``repr``;
- the comparator itself sees every plan facet;
- memory footprints are nondecreasing in batch, the property the
  bisected OOM probe relies on, and the bisected probe equals the
  linear search for every paper pair;
- the bisected boundary over a dense candidate range is exact on each
  GPU: the boundary fits and the next batch does not;
- a builder's error reaches the session's caller byte for byte;
- engine exports are byte-identical whether plans come through the
  memos or from fresh compiles, and with a cold or warm result cache.
"""

from __future__ import annotations

import filecmp
import random

import pytest

from repro.engine.executor import SweepEngine, grid_for
from repro.engine.merge import write_grid_jsonl
from repro.hardware.devices import QUADRO_P4000, TITAN_XP
from repro.hardware.roofline import RooflineModel
from repro.models.registry import get_model, model_catalog
from repro.plan import compiler as plan_compiler
from repro.training.session import TrainingSession
from tests.plans import plan_difference, plan_fingerprint

#: Every (model, framework) implementation the paper evaluates.
PAPER_PAIRS = [
    (spec.key, framework)
    for spec in model_catalog().values()
    for framework in spec.frameworks
]

#: Models whose builder takes only the batches on their ladder.
FIXED_BATCH_MODELS = {"faster-rcnn"}

FUZZ_SEED = 20260807
FUZZ_POINTS = 2


def _flexible_pairs():
    return [(m, f) for m, f in PAPER_PAIRS if m not in FIXED_BATCH_MODELS]


def _fuzz_batches(rng, spec, count):
    """``count`` seeded batches, off the ladder where the builder allows."""
    if spec.key in FIXED_BATCH_MODELS:
        return [rng.choice(spec.batch_sizes) for _ in range(count)]
    return [rng.randint(1, 2 * max(spec.batch_sizes)) for _ in range(count)]


def _fresh_plan(spec, framework, gpu, batch):
    """The memo-free reference: a new graph and a new roofline."""
    return plan_compiler.compile_graph(
        spec.build(batch), framework, gpu, roofline=RooflineModel(gpu)
    )


class TestSeededFuzzBitIdentity:
    @pytest.mark.parametrize("model,framework", PAPER_PAIRS)
    def test_fuzzed_batches_equal_fresh_compiles(self, model, framework):
        rng = random.Random(f"{FUZZ_SEED}:{model}:{framework}")
        spec = get_model(model)
        for gpu in (QUADRO_P4000, TITAN_XP):
            session = TrainingSession(model, framework, gpu=gpu)
            for batch in _fuzz_batches(rng, spec, FUZZ_POINTS):
                difference = plan_difference(
                    session.compile(batch),
                    _fresh_plan(spec, session.framework, gpu, batch),
                )
                assert difference is None, (
                    f"{model}/{framework}@{gpu.name} b={batch}: {difference}"
                )

    def test_fingerprint_covers_kernels_timings_and_allocations(self):
        """The comparator itself must see every plan facet: a fingerprint
        missing the kernel stream or the allocation trace would let a
        divergent plan pass every differential that uses it."""
        session = TrainingSession("resnet-50", "mxnet")
        fingerprint = plan_fingerprint(session.compile(16))
        flat = repr(sorted(fingerprint))
        for facet in ("kernel", "timing", "allocation", "execution"):
            assert facet in flat, f"fingerprint misses the {facet} facet"

    def test_builder_error_reaches_the_session_caller_unchanged(self):
        """faster-rcnn builds only at batch 1; any other batch raises in
        the builder, and the session must surface that error, type and
        message, byte for byte."""
        spec = get_model("faster-rcnn")
        framework_key = spec.frameworks[0]
        session = TrainingSession("faster-rcnn", framework_key)
        assert plan_difference(
            session.compile(1),
            _fresh_plan(spec, session.framework, session.gpu, 1),
        ) is None
        with pytest.raises(Exception) as builder_error:
            spec.build(2)
        with pytest.raises(type(builder_error.value)) as session_error:
            session.compile(2)
        assert str(session_error.value) == str(builder_error.value)


class TestMemoryMonotonicity:
    @pytest.mark.parametrize("model,framework", _flexible_pairs())
    def test_footprint_nondecreasing_in_batch(self, model, framework):
        spec = get_model(model)
        rng = random.Random(f"{FUZZ_SEED}:monotone:{model}:{framework}")
        batches = sorted(set(_fuzz_batches(rng, spec, 8)) | {1})
        session = TrainingSession(model, framework)
        footprints = []
        for batch in batches:
            snapshot, demand = session.compile(batch)._unconstrained_replay()
            footprints.append((batch, snapshot.peak_total, demand))
        for smaller, larger in zip(footprints, footprints[1:]):
            assert smaller[1] <= larger[1], (smaller[0], larger[0])
            assert smaller[2] <= larger[2], (smaller[0], larger[0])


class TestOOMBoundary:
    @pytest.mark.parametrize("model,framework", PAPER_PAIRS)
    def test_bisected_max_batch_equals_searched(self, model, framework):
        searched = TrainingSession(model, framework).max_batch_size(search=True)
        bisected = TrainingSession(model, framework).max_batch_size()
        assert bisected == searched

    @pytest.mark.parametrize("gpu", [QUADRO_P4000, TITAN_XP], ids=lambda g: g.name)
    def test_bisected_boundary_is_exact(self, gpu):
        """Over every batch from 1 to 512 the bisected boundary is the
        last batch that fits: it fits and the next batch does not."""
        session = TrainingSession("resnet-50", "mxnet", gpu=gpu)
        candidates = range(1, 513)
        boundary = session.max_batch_size(candidates)
        assert 1 <= boundary < candidates[-1]
        assert session.compile(boundary).fits(gpu.memory_bytes)
        assert not session.compile(boundary + 1).fits(gpu.memory_bytes)


class TestExportByteIdentity:
    PANELS = (("resnet-50", ("mxnet",)), ("nmt", ("tensorflow",)))

    def _export(self, path, cache) -> None:
        grid = grid_for(self.PANELS, batch_sizes=(4, 8, 16))
        engine = SweepEngine(jobs=1, cache=cache)
        points = engine.run_grid(grid)
        write_grid_jsonl(str(path), grid, points)

    def test_memoized_and_fresh_compile_exports_are_byte_identical(
        self, tmp_path, monkeypatch
    ):
        self._export(tmp_path / "memoized.jsonl", cache=None)

        def fresh_plan(session, batch):
            return _fresh_plan(session.spec, session.framework, session.gpu, batch)

        monkeypatch.setattr(TrainingSession, "_build_plan", fresh_plan)
        self._export(tmp_path / "fresh.jsonl", cache=None)
        assert filecmp.cmp(
            tmp_path / "memoized.jsonl", tmp_path / "fresh.jsonl", shallow=False
        )

    def test_cold_and_warm_cache_exports_are_byte_identical(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        self._export(tmp_path / "cold.jsonl", cache=cache_root)
        warm_engine = SweepEngine(jobs=1, cache=cache_root)
        grid = grid_for(self.PANELS, batch_sizes=(4, 8, 16))
        warm_points = warm_engine.run_grid(grid)
        write_grid_jsonl(str(tmp_path / "warm.jsonl"), grid, warm_points)
        assert warm_engine.stats.cache_hits == len(grid)
        assert warm_engine.stats.points_computed == 0
        assert filecmp.cmp(
            tmp_path / "cold.jsonl", tmp_path / "warm.jsonl", shallow=False
        )
