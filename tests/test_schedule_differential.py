"""Differential tests for the schedule dimension of the sweep engine.

The same guarantees faults and transforms shipped with:

- ``schedule="fixed"`` (and every spelling of it) is bitwise invisible:
  cache keys, key documents, grid records, and JSONL exports are exactly
  those of the unscheduled point — an empty ``schedule`` key field, no
  ``schedule`` field in any record;
- the adaptive grid is deterministic — byte-identical JSONL across job
  counts and across a warm cache re-run, with the canonical spec text
  carried in every record and moving every cache key;
- invalid combinations (adaptive + faults, a model with no convergence
  curve) are rejected before any computation; adaptive + transforms
  composes.
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
from repro.models.registry import get_model

ADAPTIVE = "gns:ceiling=64,every=50"

#: Every spelling that must mean "no schedule at all".
FIXED_SPELLINGS = ("", "fixed", "constant", " fixed ")

#: (model, framework) pairs with convergence curves, swept both ways.
PANELS = (("resnet-50", "mxnet"), ("nmt", "tensorflow"))

#: Adaptive specs exercising every family (ceilings chosen to fit).
ADAPTIVE_SPECS = (
    ADAPTIVE,
    "geometric:factor=2,every=100,ceiling=64",
    "plateau:factor=2,patience=200,ceiling=64",
)


def _scheduled_grid():
    return [
        PointSpec(model, framework, batch, schedule=spec)
        for model, framework in PANELS
        for spec in ADAPTIVE_SPECS
        for batch in (16, 32)
    ]


def _export(tmp_path, name, grid, points):
    path = tmp_path / f"{name}.jsonl"
    write_grid_jsonl(str(path), grid, points)
    return path.read_bytes()


class TestFixedSpellingInvisible:
    """schedule="fixed" must be byte-identical to the legacy grid."""

    def test_every_fixed_spelling_keeps_the_pre_schedule_key(self):
        spec = get_model("resnet-50")
        legacy = point_key(spec, "mxnet", 16)
        for spelling in FIXED_SPELLINGS:
            assert point_key(spec, "mxnet", 16, schedule=spelling) == legacy

    def test_unscheduled_documents_carry_an_empty_schedule_field(self):
        plain = key_document("resnet-50", "mxnet", 16)
        assert plain["schema"] == KEY_SCHEMA == 5
        assert plain["schedule"] == ""
        transformed = key_document("nmt", "tensorflow", 64, transforms="fp16")
        assert transformed["schema"] == KEY_SCHEMA
        assert transformed["schedule"] == ""
        for spelling in FIXED_SPELLINGS:
            fixed = key_document("resnet-50", "mxnet", 16, schedule=spelling)
            assert fixed == plain

    def test_scheduled_documents_carry_schema_5_and_the_spec(self):
        document = key_document("resnet-50", "mxnet", 16, schedule="noise:ceiling=64")
        assert document["schema"] == KEY_SCHEMA == 5
        assert document["schedule"] == ADAPTIVE

    def test_engine_normalizes_fixed_spellings_onto_one_key(self):
        engine = SweepEngine(jobs=1, cache=None)
        keys = {
            engine._key_for(PointSpec("resnet-50", "mxnet", 16, schedule=s))
            for s in FIXED_SPELLINGS
        }
        assert keys == {engine._key_for(PointSpec("resnet-50", "mxnet", 16))}

    def test_fixed_grid_is_point_for_point_the_plain_grid(self):
        plain = [
            PointSpec(model, framework, batch)
            for model, framework in PANELS
            for batch in (16, 32)
        ]
        fixed = [
            PointSpec(p.model, p.framework, p.batch_size, schedule="fixed")
            for p in plain
        ]
        engine = SweepEngine(jobs=1, cache=None)
        assert engine.run_grid(fixed) == engine.run_grid(plain)

    def test_fixed_jsonl_is_byte_identical_to_plain(self, tmp_path):
        plain = [PointSpec("resnet-50", "mxnet", b) for b in (16, 32)]
        fixed = [
            PointSpec("resnet-50", "mxnet", b, schedule="fixed") for b in (16, 32)
        ]
        engine = SweepEngine(jobs=1, cache=None)
        plain_bytes = _export(tmp_path, "plain", plain, engine.run_grid(plain))
        fixed_bytes = _export(tmp_path, "fixed", fixed, engine.run_grid(fixed))
        assert fixed_bytes == plain_bytes
        for line in plain_bytes.decode().splitlines():
            assert "schedule" not in json.loads(line)

    def test_plain_records_carry_no_schedule_field(self):
        spec = PointSpec("resnet-50", "mxnet", 16, schedule="fixed")
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        assert "schedule" not in grid_record(spec, point)

    def test_schedule_text_moves_the_cache_key(self):
        spec = get_model("resnet-50")
        keys = {
            point_key(spec, "mxnet", 32, schedule=text)
            for text in ("",) + ADAPTIVE_SPECS
        }
        assert len(keys) == len(ADAPTIVE_SPECS) + 1


class TestScheduledGridDeterministic:
    """Same specs, same bytes — whatever the job count or cache state."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _scheduled_grid()

    @pytest.fixture(scope="class")
    def reference_bytes(self, grid, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("schedule-serial")
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

    def test_exported_rows_carry_the_canonical_spec_text(self, reference_bytes):
        rows = [json.loads(line) for line in reference_bytes.decode().splitlines()]
        assert len(rows) == len(_scheduled_grid())
        for row in rows:
            assert row["schedule"] in ADAPTIVE_SPECS
            assert row["oom"] is False
            assert row["metrics"]["throughput"] > 0

    def test_adaptive_points_diverge_from_their_plain_twins(self, grid):
        from repro.schedule import integrate_schedule

        engine = SweepEngine(jobs=1, cache=None)
        scheduled = engine.run_grid(grid)
        plain = engine.run_grid(
            [PointSpec(s.model, s.framework, s.batch_size) for s in grid]
        )
        grew = 0
        for spec, before, after in zip(grid, plain, scheduled):
            integration = integrate_schedule(
                spec.model, spec.schedule, spec.batch_size
            )
            if len(integration.batch_sizes) > 1:
                # A batch that actually grows must move the aggregate.
                grew += 1
                assert after.metrics.throughput != before.metrics.throughput
        # Most of the grid grows (nmt's steep curve never plateaus within
        # a 0.95-target run, so the plateau points there stay single-segment).
        assert grew >= 9


class TestScheduleValidation:
    def test_run_grid_rejects_malformed_spec_before_computing(self):
        from repro.schedule.spec import ScheduleSpecError

        engine = SweepEngine(jobs=1, cache=None)
        bad = PointSpec("resnet-50", "mxnet", 16, schedule="gns:ceiling=banana")
        with pytest.raises(ScheduleSpecError):
            engine.run_grid([bad])
        assert engine.stats.points_computed == 0

    def test_faults_and_adaptive_schedule_are_mutually_exclusive(self):
        engine = SweepEngine(jobs=1, cache=None)
        both = PointSpec(
            "resnet-50",
            "mxnet",
            16,
            "cluster=2M1G:infiniband; steps=12; crash=1@5",
            schedule=ADAPTIVE,
        )
        with pytest.raises(ScenarioError, match="faults cannot combine with schedule"):
            engine.run_grid([both])
        assert engine.stats.points_computed == 0

    def test_transforms_and_adaptive_schedule_compose(self):
        engine = SweepEngine(jobs=1, cache=None)
        both = PointSpec(
            "resnet-50", "mxnet", 16, "", "fp16", schedule=ADAPTIVE
        )
        [point] = engine.run_grid([both])
        [scheduled] = engine.run_grid(
            [PointSpec("resnet-50", "mxnet", 16, schedule=ADAPTIVE)]
        )
        assert point.oom is False
        # fp16 rewrites memory only, so the composed point keeps the
        # scheduled point's timing.
        assert point.metrics == scheduled.metrics

    def test_fixed_schedule_composes_with_faults_and_transforms(self):
        # "fixed" normalizes away, so it must NOT trip the exclusivity
        # checks — it is the legacy point, whatever else it carries.
        engine = SweepEngine(jobs=1, cache=None)
        transformed = PointSpec(
            "resnet-50", "mxnet", 16, "", "fp16", schedule="fixed"
        )
        [point] = engine.run_grid([transformed])
        assert point.oom is False

    def test_model_without_a_curve_is_rejected(self):
        engine = SweepEngine(jobs=1, cache=None)
        bad = PointSpec("deep-speech-2", "mxnet", 16, schedule=ADAPTIVE)
        with pytest.raises(ValueError, match="convergence curve"):
            engine.run_grid([bad])
        assert engine.stats.points_computed == 0

    def test_grown_batch_oom_is_reported_not_crashed(self):
        # gns:ceiling=512 grows resnet-50 past the P4000; the scheduled
        # point must report OOM like any oversized fixed batch.
        spec = PointSpec("resnet-50", "mxnet", 32, schedule="gns:ceiling=512")
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        assert point.oom is True
