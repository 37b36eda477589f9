"""The ``schedule`` suite: adaptive batch schedules vs the fixed baseline.

Answers the question the schedule dimension exists for: *does growing the
batch along the convergence curve beat training at fixed batch 32*, on
two GPUs (Quadro P4000 and Titan Xp), with and without a fault plan.
Every number here is simulated and therefore deterministic, so — unlike
the wall-clock suites — the whole record is digest-keyed and the gate
can hold the comparison itself, not just its preconditions:

- **adaptive_beats_fixed**: the adaptive run's time-to-accuracy is
  strictly below the fixed run's on every case.
- **conservation**: the adaptive integration's segments tile
  ``[0, total_samples]`` exactly
  (:func:`~repro.schedule.integrator.tiling_violation`, the check the
  ``schedule-sample-conservation`` invariant runs).
- **fixed_matches_scaling**: the fixed run's fault-free baseline through
  :func:`~repro.schedule.accuracy.scheduled_time_to_accuracy` equals the
  Fig. 10 study's
  :func:`~repro.distributed.time_to_accuracy.scaling_point`
  time-to-accuracy bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.store import BenchStore, environment_fingerprint
from repro.distributed.time_to_accuracy import scaling_point
from repro.faults.plan import FaultPlan, StragglerFault, WorkerCrash
from repro.hardware.cluster import parse_configuration
from repro.hardware.devices import QUADRO_P4000, get_gpu
from repro.observability.tracer import trace_span
from repro.schedule.accuracy import scheduled_time_to_accuracy
from repro.schedule.integrator import integrate_schedule, tiling_violation

SUITE_NAME = "schedule"

#: The question's fixed side: the paper's reference batch.
BASE_BATCH = 32
#: The adaptive side: noise-driven growth capped below the P4000's OOM
#: boundary for resnet-50.
ADAPTIVE_SPEC = "gns:ceiling=64,every=50"
MODEL = "resnet-50"
FRAMEWORK = "mxnet"
#: Two machines on 10GbE — the Fig. 10 configuration where communication
#: dominates, which is exactly where batch growth pays.
CLUSTER_LABEL = "2M1G"
CLUSTER_FABRIC = "ethernet"

#: One machine crash plus a straggler window — the same shape the fault
#: harness's elastic demo uses, deterministic under seed 0.
FAULTED_PLAN = FaultPlan(
    events=(
        StragglerFault(worker=1, factor=1.5, start_step=10, end_step=40),
        WorkerCrash(step=30, machines=1),
    ),
    seed=0,
)

#: (gpu key, fault label, plan) — the suite's four cases are the cross
#: product of two GPUs and {no faults, the crash+straggler plan}.
SCHEDULE_CASES = tuple(
    (gpu_key, fault_label, plan)
    for gpu_key in ("p4000", "titan xp")
    for fault_label, plan in (("none", None), ("crash+straggler", FAULTED_PLAN))
)


@dataclass(frozen=True)
class ScheduleCaseResult:
    """One adaptive-vs-fixed comparison; fully deterministic."""

    gpu: str
    fault_label: str
    fixed_s: float
    adaptive_s: float
    adaptive_segments: int
    final_batch: int
    fixed_final_machines: int
    adaptive_final_machines: int
    #: The three deterministic guards (see the module docstring).
    adaptive_beats_fixed: bool
    conservation_ok: bool
    fixed_matches_scaling: bool

    @property
    def name(self) -> str:
        return f"{MODEL}/{self.gpu}/faults={self.fault_label}"

    @property
    def speedup(self) -> float:
        return self.fixed_s / self.adaptive_s if self.adaptive_s > 0 else 0.0

    @property
    def guards_ok(self) -> bool:
        return (
            self.adaptive_beats_fixed
            and self.conservation_ok
            and self.fixed_matches_scaling
        )

    def guard_doc(self) -> dict:
        return {
            "name": self.name,
            "gpu": self.gpu,
            "faults": self.fault_label,
            "schedule": ADAPTIVE_SPEC,
            "fixed_s": self.fixed_s,
            "adaptive_s": self.adaptive_s,
            "speedup": self.speedup,
            "adaptive_segments": self.adaptive_segments,
            "final_batch": self.final_batch,
            "fixed_final_machines": self.fixed_final_machines,
            "adaptive_final_machines": self.adaptive_final_machines,
            "adaptive_beats_fixed": self.adaptive_beats_fixed,
            "conservation_ok": self.conservation_ok,
            "fixed_matches_scaling": self.fixed_matches_scaling,
        }

    def format_row(self) -> str:
        status = "ok" if self.guards_ok else "GUARD-FAIL"
        return (
            f"{self.name:<40} fixed {self.fixed_s:>11.0f}s  adaptive "
            f"{self.adaptive_s:>11.0f}s  x{self.speedup:.3f} "
            f"({self.adaptive_segments} seg, final b{self.final_batch}) "
            f"{status}"
        )


def _run_case(gpu_key: str, fault_label: str, plan) -> ScheduleCaseResult:
    cluster = parse_configuration(
        CLUSTER_LABEL, fabric=CLUSTER_FABRIC, gpu=get_gpu(gpu_key)
    )
    fixed = scheduled_time_to_accuracy(
        MODEL, FRAMEWORK, cluster, BASE_BATCH, plan=plan
    )
    adaptive = scheduled_time_to_accuracy(
        MODEL, FRAMEWORK, cluster, BASE_BATCH, ADAPTIVE_SPEC, plan=plan
    )
    scaling = scaling_point(MODEL, FRAMEWORK, cluster, BASE_BATCH)
    integration = integrate_schedule(MODEL, ADAPTIVE_SPEC, BASE_BATCH)
    return ScheduleCaseResult(
        gpu=gpu_key,
        fault_label=fault_label,
        fixed_s=fixed.time_to_accuracy_s,
        adaptive_s=adaptive.time_to_accuracy_s,
        adaptive_segments=adaptive.segment_count,
        final_batch=adaptive.final_per_gpu_batch,
        fixed_final_machines=fixed.final_machines,
        adaptive_final_machines=adaptive.final_machines,
        adaptive_beats_fixed=adaptive.time_to_accuracy_s
        < fixed.time_to_accuracy_s,
        conservation_ok=tiling_violation(integration) is None,
        fixed_matches_scaling=(
            fixed.baseline_time_s == scaling.time_to_accuracy_s
        ),
    )


def run_schedule_suite(cases=SCHEDULE_CASES):
    """Run every case; returns the :class:`ScheduleCaseResult` list."""
    results = []
    with trace_span("bench.schedule", cases=len(cases)):
        for gpu_key, fault_label, plan in cases:
            results.append(_run_case(gpu_key, fault_label, plan))
    return results


def gate_doc_for(results) -> dict:
    """The gate verdict: every guard on every case, no exceptions —
    the suite is fully deterministic, so even the comparison is gated."""
    failures = [result.name for result in results if not result.guards_ok]
    return {"passed": not failures, "failures": sorted(failures)}


def build_schedule_record(results, gpu=QUADRO_P4000) -> dict:
    return {
        "suite": SUITE_NAME,
        "schedule": ADAPTIVE_SPEC,
        "base_batch": BASE_BATCH,
        "cluster": f"{CLUSTER_LABEL}:{CLUSTER_FABRIC}",
        "environment": environment_fingerprint(gpu=gpu),
        "results": [result.guard_doc() for result in results],
        "gate": gate_doc_for(results),
    }


def run_and_record(store_dir: str):
    """Run the suite and append one trajectory record; returns
    ``(results, gate_doc, path)``."""
    results = run_schedule_suite()
    store = BenchStore(store_dir)
    store.append(SUITE_NAME, build_schedule_record(results))
    return results, gate_doc_for(results), store.path(SUITE_NAME)
