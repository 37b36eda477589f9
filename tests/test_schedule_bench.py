"""Adaptive batch schedules vs the fixed baseline, and the schedule CLI.

The comparison is fully simulated, hence deterministic, so the tests hold
the comparison itself — adaptive ``gns`` growth beats training at fixed
batch 32 on two GPUs, with and without a fault plan — and pin every
number to a committed expectation.  The CLI half covers
``tbd schedule show|compare`` and ``tbd sweep --schedule``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.distributed.time_to_accuracy import scaling_point
from repro.faults.plan import FaultPlan, StragglerFault, WorkerCrash
from repro.hardware.cluster import parse_configuration
from repro.hardware.devices import get_gpu
from repro.schedule.accuracy import scheduled_time_to_accuracy
from repro.schedule.integrator import integrate_schedule, tiling_violation

_EXPECTED = os.path.join(os.path.dirname(__file__), "expected")

MODEL = "resnet-50"
FRAMEWORK = "mxnet"
#: The fixed side: the paper's reference batch.
BASE_BATCH = 32
#: The adaptive side: noise-driven growth capped below the P4000's OOM
#: boundary for resnet-50.
ADAPTIVE_SPEC = "gns:ceiling=64,every=50"

#: One machine crash plus a straggler window, deterministic under seed 0.
FAULTED_PLAN = FaultPlan(
    events=(
        StragglerFault(worker=1, factor=1.5, start_step=10, end_step=40),
        WorkerCrash(step=30, machines=1),
    ),
    seed=0,
)

#: Two GPUs x {no faults, the crash+straggler plan}.
SCHEDULE_CASES = [
    (gpu_key, fault_label, plan)
    for gpu_key in ("p4000", "titan xp")
    for fault_label, plan in (("none", None), ("crash+straggler", FAULTED_PLAN))
]


def _case_doc(gpu_key, fault_label, plan) -> dict:
    """One adaptive-vs-fixed comparison on two machines over 10GbE (the
    Fig. 10 configuration where communication dominates)."""
    cluster = parse_configuration("2M1G", fabric="ethernet", gpu=get_gpu(gpu_key))
    fixed = scheduled_time_to_accuracy(MODEL, FRAMEWORK, cluster, BASE_BATCH, plan=plan)
    adaptive = scheduled_time_to_accuracy(
        MODEL, FRAMEWORK, cluster, BASE_BATCH, ADAPTIVE_SPEC, plan=plan
    )
    scaling = scaling_point(MODEL, FRAMEWORK, cluster, BASE_BATCH)
    integration = integrate_schedule(MODEL, ADAPTIVE_SPEC, BASE_BATCH)
    return {
        "name": f"{MODEL}/{gpu_key}/faults={fault_label}",
        "gpu": gpu_key,
        "faults": fault_label,
        "schedule": ADAPTIVE_SPEC,
        "fixed_s": fixed.time_to_accuracy_s,
        "adaptive_s": adaptive.time_to_accuracy_s,
        "speedup": fixed.time_to_accuracy_s / adaptive.time_to_accuracy_s,
        "adaptive_segments": adaptive.segment_count,
        "final_batch": adaptive.final_per_gpu_batch,
        "fixed_final_machines": fixed.final_machines,
        "adaptive_final_machines": adaptive.final_machines,
        "adaptive_beats_fixed": adaptive.time_to_accuracy_s < fixed.time_to_accuracy_s,
        "conservation_ok": tiling_violation(integration) is None,
        "fixed_matches_scaling": fixed.baseline_time_s == scaling.time_to_accuracy_s,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


with open(os.path.join(_EXPECTED, "schedule_results.json"), encoding="utf-8") as _f:
    #: The committed results, keyed by case name.
    EXPECTED = {doc["name"]: doc for doc in json.load(_f)}


class TestAdaptiveVsFixed:
    @pytest.fixture(scope="class")
    def results(self):
        docs = [_case_doc(*case) for case in SCHEDULE_CASES]
        return {doc["name"]: doc for doc in docs}

    def test_covers_two_gpus_with_and_without_faults(self, results):
        assert list(results) == list(EXPECTED)
        assert {(r["gpu"], r["faults"]) for r in results.values()} == {
            ("p4000", "none"),
            ("p4000", "crash+straggler"),
            ("titan xp", "none"),
            ("titan xp", "crash+straggler"),
        }

    @pytest.mark.parametrize("name", EXPECTED)
    def test_every_guard_holds(self, results, name):
        result = results[name]
        assert result["adaptive_beats_fixed"]
        assert result["conservation_ok"]
        assert result["fixed_matches_scaling"]
        assert result["speedup"] > 1.0
        assert result["final_batch"] == 64

    @pytest.mark.parametrize("name", EXPECTED)
    def test_faulted_cases_lose_a_machine_both_ways(self, results, name):
        result = results[name]
        expected = 1 if result["faults"] == "crash+straggler" else 2
        assert result["fixed_final_machines"] == expected
        assert result["adaptive_final_machines"] == expected

    @pytest.mark.parametrize("name", EXPECTED)
    def test_result_equals_the_committed_expectation(self, results, name):
        assert results[name] == EXPECTED[name]


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
