"""Differential tests for the faults dimension of the sweep engine.

Two byte-identity guarantees:

- adding the dimension changed **nothing** for the paper grid — a
  fault-free grid run through the engine equals a direct, engine-free
  ``TrainingSession`` sweep, and empty-``faults`` cache keys are the
  keys of points that never mention faults (no "faults" field in
  records);
- the faulted grid is itself deterministic — the same specs produce
  byte-identical JSONL across ``jobs=1/2/4`` and across a warm re-run
  from cache, and the cache key moves if (and only if) the canonical
  fault scenario text moves.
"""

import json

import pytest

from repro.engine import (
    PointSpec,
    SweepEngine,
    grid_record,
    point_key,
    write_grid_jsonl,
)
from repro.faults.spec import parse_fault_spec
from repro.faults.trainer import FaultTolerantTrainer
from repro.hardware.cluster import parse_configuration
from repro.hardware.devices import QUADRO_P4000, TITAN_XP
from repro.models.registry import get_model

#: A reduced paper grid (fault-free) used for the no-perturbation check.
PLAIN_PANELS = (("resnet-50", ("mxnet",)), ("a3c", ("mxnet",)))

#: Faulted grid: two models x two scenarios x two batch sizes.
FAULT_SPECS = (
    "cluster=2M1G:infiniband; steps=12; straggler=0x1.5@2:8",
    "cluster=2M1G:infiniband; steps=12; degrade=bw0.5+loss0.05@3:9; crash=1@5",
)


#: What grid records and cache keys carry for each of FAULT_SPECS.
CANONICAL_SPECS = tuple(parse_fault_spec(text).canonical for text in FAULT_SPECS)


def _faulted_grid():
    return [
        PointSpec(model, "mxnet", batch, faults)
        for model in ("resnet-50", "inception-v3")
        for faults in FAULT_SPECS
        for batch in (8, 16)
    ]


def _export(tmp_path, name, grid, points):
    path = tmp_path / f"{name}.jsonl"
    write_grid_jsonl(str(path), grid, points)
    return path.read_bytes()


class TestFaultFreeGridUnperturbed:
    """``faults=""`` must be bitwise invisible to the paper grid."""

    def test_engine_sweep_matches_suite_sweep(self, suite, direct_sweep, tmp_path):
        engine = SweepEngine(jobs=1, cache=str(tmp_path / "cache"))
        for model, frameworks in PLAIN_PANELS:
            for framework in frameworks:
                reference = direct_sweep(model, framework)
                assert engine.sweep(model, framework) == reference
                assert suite.sweep(model, framework) == reference

    def test_empty_faults_spec_key_is_the_pre_fault_key(self):
        spec = get_model("resnet-50")
        with_dimension = point_key(spec, "mxnet", 16, faults="")
        without_dimension = point_key(spec, "mxnet", 16)
        assert with_dimension == without_dimension

    def test_fault_free_records_carry_no_faults_field(self, suite):
        spec = PointSpec("resnet-50", "mxnet", 16)
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        record = grid_record(spec, point)
        assert "faults" not in record

    def test_faulted_records_carry_the_scenario_text(self):
        spec = PointSpec("resnet-50", "mxnet", 16, FAULT_SPECS[0])
        [point] = SweepEngine(jobs=1, cache=None).run_grid([spec])
        record = grid_record(spec, point)
        assert record["faults"] == CANONICAL_SPECS[0]

    def test_field_order_and_defaults_do_not_move_the_key(self):
        spec = get_model("resnet-50")
        keys = {
            point_key(spec, "mxnet", 16, faults=text)
            for text in (
                "crash=1@30;steps=60",
                "steps=60; crash=1@30",
                "cluster=2M1G; seed=0; steps=60; crash=1@30",
                "cluster=2m1g:ib; crash=1@30; steps=60",
            )
        }
        assert len(keys) == 1

    def test_fault_text_moves_the_cache_key(self):
        spec = get_model("resnet-50")
        clean = point_key(spec, "mxnet", 16)
        faulted = point_key(spec, "mxnet", 16, faults=FAULT_SPECS[0])
        other = point_key(spec, "mxnet", 16, faults=FAULT_SPECS[1])
        assert len({clean, faulted, other}) == 3


class TestFaultedGridDeterministic:
    """Same specs, same bytes — whatever the job count or cache state."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _faulted_grid()

    @pytest.fixture(scope="class")
    def reference_bytes(self, grid, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("faults-serial")
        points = SweepEngine(jobs=1, cache=None).run_grid(grid)
        return _export(tmp, "serial", grid, points)

    def test_jobs2_and_jobs4_are_byte_identical(
        self, grid, reference_bytes, tmp_path
    ):
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

    def test_exported_rows_are_valid_json_with_fault_metadata(self, reference_bytes):
        rows = [
            json.loads(line)
            for line in reference_bytes.decode().splitlines()
        ]
        assert len(rows) == len(_faulted_grid())
        for row in rows:
            assert row["faults"] in CANONICAL_SPECS
            assert row["oom"] is False
            assert row["metrics"]["throughput"] > 0

    def test_faulted_points_actually_differ_from_clean_points(self, grid):
        # Same cluster, same steps, zero fault events: the event-free
        # scenario is the apples-to-apples baseline for the faulted runs.
        event_free = "cluster=2M1G:infiniband; steps=12"
        clean_grid = [
            PointSpec(s.model, s.framework, s.batch_size, event_free) for s in grid
        ]
        engine = SweepEngine(jobs=1, cache=None)
        clean = {
            (spec.model, spec.batch_size): point
            for spec, point in zip(clean_grid, engine.run_grid(clean_grid))
        }
        faulted = engine.run_grid(grid)
        for spec, point in zip(grid, faulted):
            reference = clean[(spec.model, spec.batch_size)]
            assert point.metrics.throughput < reference.metrics.throughput


class TestFaultedPointsRunOnTheEngineDevices:
    """A faulted point's cluster carries the engine's GPU and CPU, like
    the cache key and the record that name them."""

    SPEC = PointSpec("resnet-50", "mxnet", 16, "cluster=2M1G; steps=20; crash=1@10")

    @staticmethod
    def _by_hand(gpu):
        scenario = parse_fault_spec(
            TestFaultedPointsRunOnTheEngineDevices.SPEC.faults
        )
        trainer = FaultTolerantTrainer(
            "resnet-50",
            "mxnet",
            parse_configuration("2M1G", gpu=gpu),
            16,
            plan=scenario.plan,
        )
        return trainer.iteration_metrics(trainer.run(steps=scenario.steps))

    def test_each_gpu_gets_its_own_cluster_run(self):
        (p4000,) = SweepEngine(cache=None).run_grid([self.SPEC])
        (titan,) = SweepEngine(cache=None, gpu=TITAN_XP).run_grid([self.SPEC])
        assert titan.metrics.throughput != p4000.metrics.throughput
        assert titan.metrics == self._by_hand(TITAN_XP)
        assert p4000.metrics == self._by_hand(QUADRO_P4000)


class TestFaultValidation:
    def test_run_grid_rejects_malformed_spec_before_computing(self):
        from repro.faults.spec import FaultSpecError

        engine = SweepEngine(jobs=1, cache=None)
        bad = PointSpec("resnet-50", "mxnet", 16, "straggler=banana")
        with pytest.raises(FaultSpecError):
            engine.run_grid([bad])
        assert engine.stats.points_computed == 0
