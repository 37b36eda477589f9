"""Differential tests for the transforms dimension of the sweep engine.

The same guarantees the faults dimension shipped with, plus the one the
pipeline leans on:

- ``transforms=""`` is bitwise invisible: the plain grid's points are
  exactly what a direct, engine-free ``TrainingSession`` sweep produces,
  with no ``transforms`` field in any record, and its key is the key of
  a point that never mentions transforms;
- the transformed grid is deterministic — byte-identical JSONL across
  job counts and across a warm cache re-run, with the canonical spec
  text carried in every record and in the cache key, so two spellings of
  one pipeline share one key and one cache entry;
- ``compile_transformed`` (the prefix-memoized path) is bit-identical to
  folding the stages through ``PlanTransform.apply`` on the compiled
  plan, and on a fresh compile with its own graph and roofline, for
  every pipeline over the paper pairs.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    PointSpec,
    SweepEngine,
    grid_record,
    point_key,
    write_grid_jsonl,
)
from repro.engine.keys import KEY_SCHEMA, key_document
from repro.engine.scenario import ScenarioError
from repro.hardware.roofline import RooflineModel
from repro.models.registry import get_model
from repro.plan.compiler import compile_graph
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession
from tests.plans import fold_stages, plan_difference

#: A reduced paper grid used for the no-perturbation check.
PLAIN_PANELS = (("resnet-50", ("mxnet",)), ("nmt", ("tensorflow",)))

#: Transformed grid: pipelines exercising every family and a composition.
TRANSFORM_SPECS = ("fp16", "offload:0.25+fp16", "fused_rnn+offload:0.5+fp16")

#: (model, framework, batch, spec) points where every spec applies.
PIPELINE_POINTS = (
    ("nmt", "tensorflow", 64, "fused_rnn+offload:0.5+fp16"),
    ("sockeye", "mxnet", 64, "fused_rnn+fp16"),
    ("deep-speech-2", "mxnet", 16, "fused_rnn+offload:0.25"),
    ("resnet-50", "mxnet", 16, "depth:23+offload:0.5+fp16"),
    ("inception-v3", "tensorflow", 32, "offload:0.5+fp16"),
)


def _transformed_grid():
    return [
        PointSpec(model, framework, batch, "", spec)
        for model, framework in (("nmt", "tensorflow"), ("sockeye", "mxnet"))
        for spec in TRANSFORM_SPECS
        for batch in (16, 64)
    ]


def _export(tmp_path, name, grid, points):
    path = tmp_path / f"{name}.jsonl"
    write_grid_jsonl(str(path), grid, points)
    return path.read_bytes()


class TestUntransformedGridUnperturbed:
    """``transforms=""`` must be bitwise invisible to the paper grid."""

    def test_engine_sweep_matches_suite_sweep(self, suite, direct_sweep, tmp_path):
        engine = SweepEngine(jobs=1, cache=str(tmp_path / "cache"))
        for model, frameworks in PLAIN_PANELS:
            for framework in frameworks:
                reference = direct_sweep(model, framework)
                assert engine.sweep(model, framework) == reference
                assert suite.sweep(model, framework) == reference

    def test_empty_transforms_key_is_the_pre_transform_key(self):
        spec = get_model("resnet-50")
        with_dimension = point_key(spec, "mxnet", 16, transforms="")
        without_dimension = point_key(spec, "mxnet", 16)
        assert with_dimension == without_dimension

    def test_untransformed_documents_carry_an_empty_transforms_field(self):
        document = key_document("resnet-50", "mxnet", 16)
        assert document["schema"] == KEY_SCHEMA == 5
        assert document["transforms"] == ""

    def test_transformed_documents_carry_schema_5_and_the_canonical_spec(self):
        document = key_document("nmt", "tensorflow", 64, transforms="FP16")
        assert document["schema"] == KEY_SCHEMA == 5
        assert document["transforms"] == "fp16"

    def test_plain_records_carry_no_transforms_field(self):
        spec = PointSpec("resnet-50", "mxnet", 16)
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        record = grid_record(spec, point)
        assert "transforms" not in record

    def test_spellings_of_one_pipeline_share_a_key(self):
        spec = get_model("nmt")
        for spellings in (
            ("fp16", "FP16", "fp16_storage", " fp16-storage "),
            ("fp16+fused_rnn", "fused_rnn+fp16", "FusedRNN+fp16"),
        ):
            keys = {
                point_key(spec, "tensorflow", 64, transforms=text)
                for text in spellings
            }
            assert len(keys) == 1, spellings

    def test_two_spellings_share_one_cache_entry(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = PointSpec("nmt", "tensorflow", 16, transforms="fp16+fused_rnn")
        second = PointSpec("nmt", "tensorflow", 16, transforms="fused_rnn+FP16")
        SweepEngine(jobs=1, cache=cache).run_grid([first])
        warm = SweepEngine(jobs=1, cache=cache)
        [point] = warm.run_grid([second])
        assert warm.stats.cache_hits == 1
        assert warm.stats.points_computed == 0
        assert grid_record(second, point)["transforms"] == "fused_rnn+fp16"

    def test_transform_text_moves_the_cache_key(self):
        spec = get_model("nmt")
        keys = {
            point_key(spec, "tensorflow", 64, transforms=text)
            for text in ("", "fp16", "offload:0.5+fp16", "fused_rnn+offload:0.5+fp16")
        }
        assert len(keys) == 4


class TestTransformedGridDeterministic:
    """Same specs, same bytes — whatever the job count or cache state."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _transformed_grid()

    @pytest.fixture(scope="class")
    def reference_bytes(self, grid, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("transforms-serial")
        points = SweepEngine(jobs=1, cache=None).run_grid(grid)
        return _export(tmp, "serial", grid, points)

    def test_jobs2_and_jobs4_are_byte_identical(self, grid, reference_bytes, tmp_path):
        for jobs in (2, 4):
            engine = SweepEngine(jobs=jobs, cache=None)
            points = engine.run_grid(grid)
            assert _export(tmp_path, f"jobs{jobs}", grid, points) == reference_bytes

    def test_warm_cache_is_byte_identical_and_computes_nothing(
        self, grid, reference_bytes, tmp_path
    ):
        cache = str(tmp_path / "cache")
        cold = SweepEngine(jobs=2, cache=cache)
        cold_points = cold.run_grid(grid)
        assert cold.stats.points_computed == len(grid)
        warm = SweepEngine(jobs=1, cache=cache)
        warm_points = warm.run_grid(grid)
        assert warm.stats.points_computed == 0
        assert warm.stats.cache_hits == len(grid)
        assert _export(tmp_path, "cold", grid, cold_points) == reference_bytes
        assert _export(tmp_path, "warm", grid, warm_points) == reference_bytes

    def test_exported_rows_carry_the_spec_text(self, reference_bytes):
        rows = [json.loads(line) for line in reference_bytes.decode().splitlines()]
        assert len(rows) == len(_transformed_grid())
        for row in rows:
            assert row["transforms"] in TRANSFORM_SPECS
            assert row["oom"] is False
            assert row["metrics"]["throughput"] > 0

    def test_fused_pipelines_actually_change_the_measurement(self, grid):
        # fp16 is a memory-only rewrite (timings untouched by design);
        # every fused_rnn pipeline must cut iteration time, and offload
        # without fusion must add its exposed PCIe transfers.
        engine = SweepEngine(jobs=1, cache=None)
        transformed = engine.run_grid(grid)
        plain = engine.run_grid(
            [PointSpec(s.model, s.framework, s.batch_size) for s in grid]
        )
        for spec, before, after in zip(grid, plain, transformed):
            before_s = before.metrics.iteration_time_s
            after_s = after.metrics.iteration_time_s
            if "fused_rnn" in spec.transforms:
                assert after_s < before_s
            elif "offload" in spec.transforms:
                assert after_s > before_s
            else:
                assert after_s == before_s


class TestPipelineAgreement:
    """The prefix-memoized pipeline path must equal folding the stages
    over the compiled plan, and over a fresh compile, bit for bit."""

    @pytest.mark.parametrize("model,framework,batch,spec", PIPELINE_POINTS)
    def test_compile_transformed_equals_folded_stages(
        self, model, framework, batch, spec
    ):
        session = TrainingSession(model, framework)
        pipeline = parse_transform_spec(spec)
        difference = plan_difference(
            session.compile_transformed(batch, pipeline),
            fold_stages(pipeline, session.compile(batch)),
        )
        assert difference is None

    @pytest.mark.parametrize("model,framework,batch,spec", PIPELINE_POINTS)
    def test_fresh_compile_then_rewrite_is_bit_identical(
        self, model, framework, batch, spec
    ):
        pipeline = parse_transform_spec(spec)
        session = TrainingSession(model, framework)
        fresh = compile_graph(
            session.spec.build(batch),
            session.framework,
            session.gpu,
            roofline=RooflineModel(session.gpu),
        )
        difference = plan_difference(
            fold_stages(pipeline, fresh),
            session.compile_transformed(batch, pipeline),
        )
        assert difference is None

    def test_prefix_memoization_shares_plans_across_pipelines(self):
        session = TrainingSession("nmt", "tensorflow")
        first = session.compile_transformed(
            64, parse_transform_spec("fused_rnn+offload:0.5")
        )
        second = session.compile_transformed(
            64, parse_transform_spec("fused_rnn+offload:0.5+fp16")
        )
        # The shared prefix plan is the same object, not a recompile.
        prefix = session.compile_transformed(
            64, parse_transform_spec("fused_rnn+offload:0.5")
        )
        assert prefix is first
        assert second is not first


class TestTransformValidation:
    def test_run_grid_rejects_malformed_spec_before_computing(self):
        from repro.plan.pipeline import TransformSpecError

        engine = SweepEngine(jobs=1, cache=None)
        bad = PointSpec("resnet-50", "mxnet", 16, "", "offload:banana")
        with pytest.raises(TransformSpecError):
            engine.run_grid([bad])
        assert engine.stats.points_computed == 0

    def test_faults_and_transforms_are_mutually_exclusive(self):
        engine = SweepEngine(jobs=1, cache=None)
        both = PointSpec(
            "resnet-50",
            "mxnet",
            16,
            "cluster=2M1G:infiniband; steps=12; crash=1@5",
            "fp16",
        )
        with pytest.raises(ScenarioError, match="faults cannot combine with transforms"):
            engine.run_grid([both])
        assert engine.stats.points_computed == 0

    def test_transformed_point_obeys_the_memory_boundary(self):
        # depth:36 at the largest resnet batch exceeds the P4000; the
        # engine must report a transformed OOM, not crash.
        spec = PointSpec("resnet-50", "mxnet", 64, "", "depth:36")
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        assert point.oom is True
