"""Pytest bridge for the conformance harness.

Runs the full invariant/relation registries over the paper grid plus a
fixed-seed fuzz budget, proves the JSON report is byte-deterministic
across a cache-warm rerun, and exercises the CLI surface.  Everything is
seeded and engine-cached, so the module stays deterministic and fast.

``tests/expected/conformance_report.json`` pins that run's report byte for
byte.  After a deliberate change to a check or to the answers it reads,
rewrite it from the repository root with

    PYTHONPATH=src python -m tests.test_conformance

and commit it together with the change that moved it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.conformance import (
    ConformanceRunner,
    generate_cases,
    get_invariant,
    get_relation,
    invariant_registry,
    relation_registry,
)
from repro.conformance.generator import simplicity_order
from repro.engine.cache import ResultCache
from repro.engine.executor import PointSpec, grid_for
from repro.experiments.common import SWEEP_PANELS
from repro.models.registry import get_model, model_catalog

_RUNNER_KWARGS = dict(
    seed=7,
    budget=12,
    jobs=1,
    include_grid=True,
    deep_limit=4,
    scaling_probes=(("resnet-50", "mxnet"),),
)

EXPECTED_REPORT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected", "conformance_report.json"
)


@pytest.fixture(scope="module")
def conformance_run(tmp_path_factory):
    """One full harness run over the paper grid + fuzz budget, with its
    result cache kept for the determinism rerun."""
    cache_dir = str(tmp_path_factory.mktemp("conformance-cache"))
    runner = ConformanceRunner(cache=ResultCache(cache_dir), **_RUNNER_KWARGS)
    report = runner.run()
    return report, cache_dir


class TestRegistries:
    def test_at_least_fifteen_invariants(self):
        registry = invariant_registry()
        assert len(registry) >= 15
        assert len({inv.name for inv in registry}) == len(registry)
        assert {inv.scope for inv in registry} == {"point", "sweep", "scaling"}

    def test_every_invariant_documented_and_resolvable(self):
        for inv in invariant_registry():
            assert inv.description
            assert get_invariant(inv.name) is inv

    def test_relations_registered(self):
        names = {rel.name for rel in relation_registry()}
        assert {
            "double-batch",
            "swap-gpu-more-memory",
            "drop-fault-events",
            "replay-determinism",
        } <= names

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            get_invariant("no-such-law")
        with pytest.raises(KeyError):
            get_relation("no-such-relation")

    def test_simplicity_order_covers_catalog(self):
        order = simplicity_order()
        assert sorted(order) == sorted(model_catalog())
        counts = [model_catalog()[key].paper_layer_count for key in order]
        assert counts == sorted(counts)


class TestGenerator:
    def test_cases_deterministic_in_seed(self):
        assert generate_cases(7, 25) == generate_cases(7, 25)
        assert generate_cases(7, 25) != generate_cases(8, 25)

    def test_generated_cases_are_valid(self):
        for case in generate_cases(3, 40):
            entry = get_model(case.spec.model)
            assert entry.supports(case.spec.framework)
            assert case.spec.batch_size in entry.batch_sizes
            relation = get_relation(case.relation)
            assert relation.applies(case.spec, case.gpu)

    def test_fault_free_twin(self):
        relation = get_relation("drop-fault-events")
        spec = PointSpec(
            "resnet-50", "mxnet", 16, "seed=4; straggler=0x1.5@2:6; cluster=2M1G:1gbe"
        )
        assert relation.applies(spec, "p4000")
        twin, gpu = relation.perturb(spec, "p4000")
        # Same cluster, steps and seed, defaults explicit, no events.
        assert twin == PointSpec(
            "resnet-50", "mxnet", 16, "cluster=2M1G:1gbe; steps=50; seed=4"
        )
        assert gpu == "p4000"
        assert not relation.applies(twin, gpu)
        assert not relation.applies(PointSpec("resnet-50", "mxnet", 16), gpu)


@pytest.mark.slow
class TestFullHarness:
    def test_zero_violations_on_grid_and_fuzz(self, conformance_run):
        report, _ = conformance_run
        assert report.ok, report.render()
        assert report.grid_points == len(grid_for(SWEEP_PANELS))
        assert report.deep_points == 4
        assert report.fuzz_cases == 12

    def test_every_check_exercised(self, conformance_run):
        report, _ = conformance_run
        for inv in invariant_registry():
            assert report.checks[inv.name]["checked"] > 0, inv.name
        exercised_relations = [
            rel.name
            for rel in relation_registry()
            if report.checks[rel.name]["checked"] > 0
        ]
        assert exercised_relations  # the budget hit at least one relation

    def test_report_json_round_trips(self, conformance_run):
        report, _ = conformance_run
        doc = json.loads(report.to_json())
        assert doc["schema"] == 2
        assert doc["violations"] == []
        assert doc["checks"]["roofline-kernel-floor"]["violations"] == 0

    def test_report_equals_the_record(self, conformance_run):
        report, _ = conformance_run
        with open(EXPECTED_REPORT, encoding="utf-8") as handle:
            assert report.to_json() == handle.read()

    def test_cache_warm_rerun_is_byte_identical(self, conformance_run):
        report, cache_dir = conformance_run
        rerun = ConformanceRunner(
            cache=ResultCache(cache_dir), **_RUNNER_KWARGS
        ).run()
        assert rerun.to_json() == report.to_json()


class TestRecheck:
    def test_clean_spec_has_no_point_violations(self):
        runner = ConformanceRunner(jobs=1, cache=None, include_grid=False, budget=0)
        spec = PointSpec("a3c", "mxnet", 8, "")
        for name in ("roofline-kernel-floor", "memory-breakdown-additivity"):
            assert not runner.violates(name, spec, "p4000")

    def test_relation_recheck_skips_inapplicable(self):
        runner = ConformanceRunner(jobs=1, cache=None, include_grid=False, budget=0)
        # swap-gpu only perturbs off the default GPU
        spec = PointSpec("a3c", "mxnet", 8, "")
        assert not runner.violates("swap-gpu-more-memory", spec, "titan xp")


class TestConformanceCLI:
    def test_list_prints_registries(self, capsys):
        assert main(["conformance", "list"]) == 0
        out = capsys.readouterr().out
        assert "roofline-kernel-floor" in out
        assert "metamorphic relations:" in out
        assert "double-batch" in out

    def test_run_fuzz_only_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "violations.json"
        code = main(
            [
                "conformance",
                "run",
                "--no-grid",
                "--budget",
                "3",
                "--seed",
                "11",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zero violations" in out
        doc = json.loads(report_path.read_text())
        assert doc["fuzz_cases"] == 3
        assert doc["include_grid"] is False

    def test_shrink_reports_clean_configuration(self, capsys):
        code = main(
            ["conformance", "shrink", "roofline-kernel-floor", "a3c", "mxnet", "8"]
        )
        assert code == 0
        assert "nothing to shrink" in capsys.readouterr().out


if __name__ == "__main__":
    record = ConformanceRunner(cache=None, **_RUNNER_KWARGS).run()
    record.write(EXPECTED_REPORT)
    print(
        f"wrote {record.checked_total} checks to {os.path.relpath(EXPECTED_REPORT)}"
    )
