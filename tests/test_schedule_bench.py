"""The ``schedule`` bench suite and its CLI surfaces.

The suite is fully deterministic (no wall-clock anywhere), so its gate
holds the adaptive-vs-fixed *comparison* itself, and two runs must
digest-dedup onto one trajectory record.  The CLI half covers
``tbd schedule show|compare``, ``tbd sweep --schedule``, and
``tbd bench run|gate|history schedule``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.schedule_suite import (
    ADAPTIVE_SPEC,
    SCHEDULE_CASES,
    SUITE_NAME,
    build_schedule_record,
    gate_doc_for,
    run_and_record,
    run_schedule_suite,
)
from repro.bench.store import BenchStore
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestScheduleSuite:
    @pytest.fixture(scope="class")
    def results(self):
        return run_schedule_suite()

    def test_covers_two_gpus_with_and_without_faults(self, results):
        cases = {(r.gpu, r.fault_label) for r in results}
        assert cases == {
            ("p4000", "none"),
            ("p4000", "crash+straggler"),
            ("titan xp", "none"),
            ("titan xp", "crash+straggler"),
        }

    def test_every_guard_holds_on_every_case(self, results):
        for result in results:
            assert result.adaptive_beats_fixed, result.name
            assert result.conservation_ok, result.name
            assert result.fixed_matches_scaling, result.name
            assert result.guards_ok
            assert result.speedup > 1.0
            assert result.final_batch == 64
        assert gate_doc_for(results) == {"passed": True, "failures": []}

    def test_faulted_cases_lose_a_machine_both_ways(self, results):
        for result in results:
            expected = 1 if result.fault_label == "crash+straggler" else 2
            assert result.fixed_final_machines == expected, result.name
            assert result.adaptive_final_machines == expected, result.name

    def test_gate_reports_guard_failures_by_name(self, results):
        broken = dataclasses.replace(results[0], adaptive_beats_fixed=False)
        gate = gate_doc_for([broken] + list(results[1:]))
        assert not gate["passed"]
        assert gate["failures"] == [broken.name]

    def test_two_runs_dedup_onto_one_trajectory_record(self, tmp_path):
        _, gate_a, path_a = run_and_record(str(tmp_path))
        _, gate_b, path_b = run_and_record(str(tmp_path))
        assert gate_a["passed"] and gate_b["passed"]
        assert path_a == path_b
        records = BenchStore(str(tmp_path)).records(SUITE_NAME)
        assert len(records) == 1
        record = records[0]
        assert record["suite"] == SUITE_NAME
        assert record["schedule"] == ADAPTIVE_SPEC
        assert len(record["results"]) == len(SCHEDULE_CASES)

    def test_record_round_trips_through_json(self):
        results = run_schedule_suite(cases=SCHEDULE_CASES[:1])
        record = build_schedule_record(results)
        assert json.loads(json.dumps(record)) == record


class TestScheduleCli:
    def test_show_prints_the_segment_tiling(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "show", "gns:ceiling=64,every=50", "resnet-50"
        )
        assert code == 0
        assert "canonical: gns:ceiling=64,every=50" in out
        assert "seg 0: b=32" in out
        assert "seg 1: b=64" in out

    def test_show_rejects_bad_spec(self, capsys):
        code, out = run_cli(capsys, "schedule", "show", "bogus", "resnet-50")
        assert code == 2
        assert "bad schedule spec" in out

    def test_show_rejects_model_without_a_curve(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "show", "gns:ceiling=64", "deep-speech-2"
        )
        assert code == 2
        assert "cannot integrate" in out

    def test_compare_prints_the_speedup(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "compare", "gns:ceiling=64,every=50", "resnet-50"
        )
        assert code == 0
        assert "speedup vs fixed" in out

    def test_compare_with_faults(self, capsys):
        code, out = run_cli(
            capsys,
            "schedule",
            "compare",
            "gns:ceiling=64,every=50",
            "resnet-50",
            "--faults",
            "crash=1@30; straggler=0x1.5@10:40",
        )
        assert code == 0
        assert "speedup vs fixed" in out

    def test_compare_needs_an_adaptive_schedule(self, capsys):
        code, out = run_cli(capsys, "schedule", "compare", "fixed", "resnet-50")
        assert code == 2
        assert "adaptive" in out

    def test_sweep_accepts_a_schedule(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep",
            "resnet-50",
            "-f",
            "mxnet",
            "--schedule",
            "gns:ceiling=64,every=50",
        )
        assert code == 0
        assert "ResNet-50" in out

    def test_sweep_rejects_bad_schedule(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "resnet-50", "-f", "mxnet", "--schedule", "nope"
        )
        assert code == 2


class TestBenchCli:
    def test_bench_run_and_gate_and_history(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "bench", "run", SUITE_NAME, "--dir", str(tmp_path)
        )
        assert code == 0
        assert "resnet-50/p4000/faults=none" in out
        assert "x1." in out

        code, out = run_cli(
            capsys, "bench", "gate", SUITE_NAME, "--dir", str(tmp_path)
        )
        assert code == 0

        code, out = run_cli(
            capsys, "bench", "history", SUITE_NAME, "--dir", str(tmp_path)
        )
        assert code == 0
        assert "adaptive" in out
        assert "fixed=scaling=True" in out

    def test_history_reads_the_committed_trajectory(self, capsys):
        trajectory = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
            "trajectory",
        )
        code, out = run_cli(
            capsys, "bench", "history", SUITE_NAME, "--dir", trajectory
        )
        assert code == 0
        assert "fixed=scaling=True" in out
        assert "fixed=scaling=False" not in out

    def test_bench_list_mentions_the_suite(self, capsys):
        code, out = run_cli(capsys, "bench", "history", "--list")
        assert code == 0
        assert SUITE_NAME in out
