"""``scheduled_time_to_accuracy``: segment pricing, faults, elasticity.

Every fixed spelling must price the same single segment, whose
fault-free baseline is exactly the Fig. 10 ``scaling_point``; the
adaptive path must beat fixed on the bench cluster, elastic shrinks must
carry across segment boundaries, and ``FaultPlan.window`` — the plumbing
that threads one plan through per-segment trainers — gets its own unit
battery here.
"""

from __future__ import annotations

import pytest

from repro.distributed.time_to_accuracy import (
    samples_to_accuracy,
    scaling_point,
)
from repro.faults import (
    AllReduceTimeout,
    FaultPlan,
    LinkFault,
    StragglerFault,
    WorkerCrash,
)
from repro.hardware.cluster import parse_configuration
from repro.schedule import parse_schedule_spec, scheduled_time_to_accuracy

MODEL, FRAMEWORK, BATCH = "resnet-50", "mxnet", 32
ADAPTIVE = "gns:ceiling=64,every=50"

CRASH_PLAN = FaultPlan(
    events=(
        StragglerFault(worker=1, factor=1.5, start_step=10, end_step=40),
        WorkerCrash(step=30, machines=1),
    ),
    seed=0,
)


@pytest.fixture(scope="module")
def cluster():
    return parse_configuration("2M1G", fabric="ethernet")


class TestFixedIsOneSegment:
    """A fixed (or absent) schedule is one segment at the starting batch,
    whatever its spelling."""

    @pytest.mark.parametrize("plan", [None, CRASH_PLAN])
    def test_every_fixed_spelling_gives_the_same_point(self, cluster, plan):
        reference = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, None, plan=plan
        )
        for spelling in ("", "fixed", "constant", parse_schedule_spec("fixed")):
            assert (
                scheduled_time_to_accuracy(
                    MODEL, FRAMEWORK, cluster, BATCH, spelling, plan=plan
                )
                == reference
            ), spelling
        assert reference.schedule == ""
        assert reference.segment_count == 1
        assert reference.final_per_gpu_batch == BATCH
        [run] = reference.segment_runs
        # The one segment covers the whole curve; its real samples carry
        # the critical-batch penalty at the cluster's global batch.
        assert run.curve_samples == samples_to_accuracy(MODEL)
        assert run.samples_needed == reference.samples_needed
        assert run.samples_needed > run.curve_samples
        assert run.wall_clock_s == reference.time_to_accuracy_s
        assert run.machines_after == reference.final_machines

    @pytest.mark.parametrize("plan", [None, CRASH_PLAN])
    def test_fault_free_baseline_equals_scaling_point(self, cluster, plan):
        point = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, plan=plan
        )
        scaling = scaling_point(MODEL, FRAMEWORK, cluster, BATCH)
        assert point.baseline_time_s == scaling.time_to_accuracy_s
        assert point.samples_needed == scaling.samples_needed
        assert point.global_batch == scaling.global_batch
        if plan is None:
            assert point.time_to_accuracy_s == scaling.time_to_accuracy_s

    def test_fixed_overhead_is_time_over_baseline(self, cluster):
        scheduled = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, "fixed", plan=CRASH_PLAN
        )
        assert scheduled.overhead == pytest.approx(
            scheduled.time_to_accuracy_s / scheduled.baseline_time_s
        )


class TestAdaptiveRuns:
    def test_adaptive_beats_fixed_on_the_bench_cluster(self, cluster):
        fixed = scheduled_time_to_accuracy(MODEL, FRAMEWORK, cluster, BATCH)
        adaptive = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, ADAPTIVE
        )
        assert adaptive.schedule == ADAPTIVE
        assert adaptive.segment_count == 2
        assert adaptive.final_per_gpu_batch == 64
        assert adaptive.time_to_accuracy_s < fixed.time_to_accuracy_s

    def test_segments_are_priced_at_their_own_global_batch(self, cluster):
        adaptive = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, ADAPTIVE
        )
        first, last = adaptive.segment_runs[0], adaptive.segment_runs[-1]
        assert first.per_gpu_batch == BATCH
        assert last.per_gpu_batch == 64
        assert last.global_batch > first.global_batch
        # The growing batch pays a statistical penalty: real samples in
        # the grown segment exceed its curve-axis samples.
        assert last.samples_needed > last.curve_samples
        assert adaptive.samples_needed == pytest.approx(
            sum(run.samples_needed for run in adaptive.segment_runs)
        )
        assert adaptive.time_to_accuracy_s == pytest.approx(
            sum(run.wall_clock_s for run in adaptive.segment_runs)
        )

    def test_elastic_shrink_carries_across_segments(self, cluster):
        adaptive = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, ADAPTIVE, plan=CRASH_PLAN
        )
        first, last = adaptive.segment_runs[0], adaptive.segment_runs[-1]
        # The crash at step 30 lands in segment 0; segment 1 must start on
        # the shrunk cluster, not the full one.
        assert first.machines_before == cluster.machine_count == 2
        assert first.machines_after == 1
        assert last.machines_before == 1
        assert adaptive.final_machines == 1
        # And the shrunk segment's global batch reflects the lost machine.
        assert last.global_batch == 64 * 1

    def test_faulted_run_never_beats_its_own_clean_run(self, cluster):
        clean = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, ADAPTIVE
        )
        faulted = scheduled_time_to_accuracy(
            MODEL, FRAMEWORK, cluster, BATCH, ADAPTIVE, plan=CRASH_PLAN
        )
        # This plan costs time on this cluster, and replaying faults can
        # only inflate a run relative to its own per-segment baseline
        # (which is priced on the same, possibly shrunk, cluster path).
        assert faulted.time_to_accuracy_s > clean.time_to_accuracy_s
        assert faulted.overhead > 1.0
        assert clean.overhead == pytest.approx(1.0)

    def test_oom_ceiling_is_reported_not_crashed(self, cluster):
        from repro.hardware.memory import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            scheduled_time_to_accuracy(
                MODEL, FRAMEWORK, cluster, BATCH, "gns:ceiling=512"
            )


class TestFaultPlanWindow:
    def test_empty_plan_windows_to_itself(self):
        windowed = FaultPlan.none().window(100, 200)
        assert windowed.is_empty

    def test_point_events_kept_iff_inside_and_rebased(self):
        plan = FaultPlan(
            events=(
                WorkerCrash(step=5),
                WorkerCrash(step=30, machines=1),
                AllReduceTimeout(step=45),
            ),
            seed=3,
        )
        windowed = plan.window(10, 40)
        assert [type(e).__name__ for e in windowed.events] == ["WorkerCrash"]
        assert windowed.events[0].step == 20
        assert windowed.seed == 3

    def test_interval_events_are_clipped_and_rebased(self):
        plan = FaultPlan(
            events=(
                StragglerFault(worker=0, factor=2.0, start_step=5, end_step=50),
                LinkFault(bandwidth_factor=0.5, start_step=0, end_step=8),
            )
        )
        windowed = plan.window(10, 30)
        [straggler] = windowed.events  # the link fault closed before 10
        assert isinstance(straggler, StragglerFault)
        assert (straggler.start_step, straggler.end_step) == (0, 20)

    def test_open_ended_intervals_stay_open_without_an_end(self):
        plan = FaultPlan(
            events=(StragglerFault(worker=0, factor=2.0, start_step=0),)
        )
        windowed = plan.window(100)
        assert windowed.events[0].start_step == 0
        assert windowed.events[0].end_step is None

    def test_window_end_closes_open_intervals(self):
        plan = FaultPlan(
            events=(StragglerFault(worker=0, factor=2.0, start_step=0),)
        )
        windowed = plan.window(0, 25)
        assert windowed.events[0].end_step == 25

    def test_window_validation(self):
        with pytest.raises(ValueError, match="before step 0"):
            FaultPlan.none().window(-1)
        with pytest.raises(ValueError, match="before it starts"):
            FaultPlan.none().window(10, 5)

    def test_consecutive_windows_partition_the_events(self):
        # The schedule path's exact usage: windows [0, k) and [k, None)
        # must split the plan without losing or duplicating an event.
        plan = CRASH_PLAN
        cut = 20
        head = plan.window(0, cut)
        tail = plan.window(cut)
        point_events = [e for e in plan.events if isinstance(e, WorkerCrash)]
        head_points = [e for e in head.events if isinstance(e, WorkerCrash)]
        tail_points = [e for e in tail.events if isinstance(e, WorkerCrash)]
        assert len(head_points) + len(tail_points) == len(point_events)
        rebased = [e.step for e in head_points] + [
            e.step + cut for e in tail_points
        ]
        assert sorted(rebased) == sorted(e.step for e in point_events)
