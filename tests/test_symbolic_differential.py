"""Differential proof for the symbolic plan layer.

``SymbolicPlanSet.specialize(batch)`` must reproduce the concrete
compiler's :class:`~repro.plan.compiled.CompiledPlan` *bit for bit* —
kernel streams, roofline timings, execution replay, allocation traces,
every float compared by ``repr``, not by tolerance.  This module is the
harness that proves it:

- every (model, framework, batch) point of the paper grid,
- ≥50 seeded fuzzed specs across both GPUs and random batch sizes,
- the analytic OOM boundary against the session's bisected and the
  linearly searched boundaries for every paper-grid configuration,
- byte-identical engine JSONL exports whether the session's plans come
  from the concrete compiler or from symbolic specialization, and with a
  cold/warm result cache,
- exact error semantics for the one model whose builder escapes the
  trace (faster-rcnn formats a symbolic value into an error message).

The symbolic layer is off the answer path (sessions compile concretely);
this harness keeps it honest for as long as it stays in the tree.
"""

from __future__ import annotations

import filecmp
import random

import pytest

from repro.engine.executor import SweepEngine, grid_for
from repro.engine.merge import write_grid_jsonl
from repro.frameworks import get_framework
from repro.hardware.devices import QUADRO_P4000, TITAN_XP
from repro.models.registry import get_model, model_catalog
from repro.plan import compiler as plan_compiler
from repro.plan.symbolic import SymbolicPlanSet, TraceEscape, shared_plan_set
from repro.training.session import TrainingSession
from tests.plans import plan_difference, plan_fingerprint

#: Every (model, framework) implementation the paper evaluates.
PAPER_PAIRS = [
    (spec.key, framework)
    for spec in model_catalog().values()
    for framework in spec.frameworks
]

#: Models whose builder cannot be traced (validated against TraceEscape
#: separately); every other model must trace.
ESCAPING_MODELS = {"faster-rcnn"}

FUZZ_SEED = 20260807
FUZZ_SPECS = 56


def _traceable_pairs():
    return [(m, f) for m, f in PAPER_PAIRS if m not in ESCAPING_MODELS]


class TestPaperGridBitIdentity:
    @pytest.mark.parametrize("model,framework", _traceable_pairs())
    def test_specialize_matches_concrete_across_ladder(self, model, framework):
        spec = get_model(model)
        fw = get_framework(framework)
        sset = shared_plan_set(spec, fw, QUADRO_P4000)
        for batch in spec.batch_sizes:
            symbolic = sset.specialize(batch)
            concrete = plan_compiler.compile_graph(
                spec.build(batch), fw, QUADRO_P4000
            )
            difference = plan_difference(symbolic, concrete)
            assert difference is None, f"{model}/{framework} b={batch}: {difference}"

    def test_fingerprint_covers_kernels_timings_and_allocations(self):
        """The comparator itself must see every plan facet — a fingerprint
        missing the kernel stream or the allocation trace would let a
        divergent specialization pass the whole harness."""
        spec = get_model("resnet-50")
        fw = get_framework("mxnet")
        plan = plan_compiler.compile_graph(spec.build(16), fw, QUADRO_P4000)
        fingerprint = plan_fingerprint(plan)
        flat = repr(sorted(fingerprint))
        for facet in ("kernel", "timing", "allocation", "execution"):
            assert facet in flat, f"fingerprint misses the {facet} facet"

    def test_escaping_model_raises_and_falls_back_identically(self):
        """faster-rcnn traces at its only valid batch (1); any other batch
        makes the builder format the symbolic batch into an error message,
        which escapes the trace — and the session (which compiles
        concretely) must surface the concrete compiler's error, byte for
        byte."""
        spec = get_model("faster-rcnn")
        framework_key = spec.frameworks[0]
        fw = get_framework(framework_key)
        sset = SymbolicPlanSet(spec, fw, QUADRO_P4000)
        concrete = plan_compiler.compile_graph(spec.build(1), fw, QUADRO_P4000)
        assert plan_difference(sset.specialize(1), concrete) is None

        with pytest.raises(TraceEscape):
            SymbolicPlanSet(spec, fw, QUADRO_P4000).specialize(2)

        with pytest.raises(Exception) as concrete_error:
            plan_compiler.compile_graph(spec.build(2), fw, QUADRO_P4000)
        session = TrainingSession("faster-rcnn", framework_key)
        with pytest.raises(type(concrete_error.value)) as session_error:
            session.compile(2)
        assert str(session_error.value) == str(concrete_error.value)


class TestSeededFuzzBitIdentity:
    def test_fuzzed_specs_specialize_bit_identically(self):
        rng = random.Random(FUZZ_SEED)
        pairs = _traceable_pairs()
        gpus = (QUADRO_P4000, TITAN_XP)
        checked = 0
        for _ in range(FUZZ_SPECS):
            model, framework = rng.choice(pairs)
            spec = get_model(model)
            fw = get_framework(framework)
            gpu = rng.choice(gpus)
            batch = rng.randint(1, 2 * max(spec.batch_sizes))
            sset = shared_plan_set(spec, fw, gpu)
            symbolic = sset.specialize(batch)
            concrete = plan_compiler.compile_graph(spec.build(batch), fw, gpu)
            difference = plan_difference(symbolic, concrete)
            assert difference is None, (
                f"{model}/{framework}@{gpu.name} b={batch}: {difference}"
            )
            checked += 1
        assert checked >= 50


class TestAnalyticOOMBoundary:
    @pytest.mark.parametrize("model,framework", PAPER_PAIRS)
    def test_analytic_max_batch_equals_searched(self, model, framework):
        session = TrainingSession(model, framework)
        searched = session.max_batch_size(search=True)
        bisected = TrainingSession(model, framework).max_batch_size()
        assert bisected == searched
        if model in ESCAPING_MODELS:
            return
        analytic = shared_plan_set(
            session.spec, session.framework, session.gpu
        ).max_batch_size(session.spec.batch_sizes, session.gpu.memory_bytes)
        assert analytic == searched

    @pytest.mark.parametrize("gpu", [QUADRO_P4000, TITAN_XP], ids=lambda g: g.name)
    def test_exact_oom_boundary_matches_bisected_replay(self, gpu):
        """``oom_boundary`` (polynomial seed + allocator confirm) equals a
        dumb linear scan over the allocator replay near the boundary."""
        spec = get_model("resnet-50")
        fw = get_framework("mxnet")
        sset = shared_plan_set(spec, fw, gpu)
        boundary = sset.oom_boundary(gpu.memory_bytes)
        assert boundary >= 1
        assert sset.fits(boundary, gpu.memory_bytes)
        assert not sset.fits(boundary + 1, gpu.memory_bytes)


class TestExportByteIdentity:
    PANELS = (("resnet-50", ("mxnet",)), ("nmt", ("tensorflow",)))

    def _export(self, path, cache) -> None:
        grid = grid_for(self.PANELS, batch_sizes=(4, 8, 16))
        engine = SweepEngine(jobs=1, cache=cache)
        points = engine.run_grid(grid)
        write_grid_jsonl(str(path), grid, points)

    def test_symbolic_and_concrete_exports_are_byte_identical(
        self, tmp_path, monkeypatch
    ):
        self._export(tmp_path / "concrete.jsonl", cache=None)

        def specialized_plan(session, batch):
            return shared_plan_set(
                session.spec, session.framework, session.gpu
            ).specialize(batch)

        monkeypatch.setattr(TrainingSession, "_build_plan", specialized_plan)
        self._export(tmp_path / "symbolic.jsonl", cache=None)
        assert filecmp.cmp(
            tmp_path / "symbolic.jsonl", tmp_path / "concrete.jsonl", shallow=False
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
