"""Fault-matrix regression tests: every nasty corner of the fault space
must end in a defined result or a typed ``UnrecoverableFaultError`` —
never a hang, never a silent garbage number.

The matrix: crash at step 0, crash at the final step, every worker
straggling at once, total (100%) packet loss both bounded and
open-ended, timeout storms beyond the retry budget, back-to-back
faults, and a crash that takes the whole cluster.
"""

import math

import pytest

from repro.core.metrics import cpu_utilization, gpu_utilization
from repro.faults import (
    AllReduceTimeout,
    FaultPlan,
    FaultSpecError,
    FaultTolerantTrainer,
    LinkFault,
    StragglerFault,
    UnrecoverableFaultError,
    WorkerCrash,
    parse_fault_spec,
)
from repro.faults.recovery import (
    CHECKPOINT_INTERVAL_STEPS,
    DETECTION_S,
    EXCHANGE_TIMEOUT_S,
    MAX_RETRIES,
    RESTORE_S,
    backoff_delay_s,
)
from repro.hardware.cluster import parse_configuration


def _trainer(plan, configuration="4M1G", batch=16):
    cluster = parse_configuration(configuration, fabric="infiniband")
    return FaultTolerantTrainer("resnet-50", "mxnet", cluster, batch, plan=plan)


def _assert_sane(result, steps):
    assert result.steps_completed == steps
    assert math.isfinite(result.wall_clock_s)
    assert result.wall_clock_s > 0
    assert result.samples > 0


class TestCrashCorners:
    def test_crash_at_step_zero_recovers_and_shrinks(self):
        plan = FaultPlan(events=(WorkerCrash(step=0),))
        result = _trainer(plan).run(steps=20)
        _assert_sane(result, 20)
        assert result.final_machines == 3
        assert result.shrank
        assert any(event.kind == "crash" for event in result.events)

    def test_crash_at_the_final_step_still_finishes(self):
        plan = FaultPlan(events=(WorkerCrash(step=19),))
        result = _trainer(plan).run(steps=20)
        _assert_sane(result, 20)
        assert result.final_machines == 3

    def test_crash_taking_every_machine_is_unrecoverable(self):
        plan = FaultPlan(events=(WorkerCrash(step=5, machines=4),))
        with pytest.raises(UnrecoverableFaultError) as excinfo:
            _trainer(plan).run(steps=20)
        assert excinfo.value.kind == "crash"
        assert excinfo.value.step == 5

    def test_back_to_back_crashes_shrink_twice(self):
        plan = FaultPlan(events=(WorkerCrash(step=5), WorkerCrash(step=6)))
        result = _trainer(plan).run(steps=20)
        _assert_sane(result, 20)
        assert result.final_machines == 2
        assert sum(1 for event in result.events if event.kind == "crash") == 2

    def test_crash_rollback_never_loses_progress_permanently(self):
        # Rollback to the checkpoint replays steps; the run still reaches
        # the requested step count and costs more wall-clock than clean.
        plan = FaultPlan(events=(WorkerCrash(step=13),))
        faulted = _trainer(plan).run(steps=20)
        clean = _trainer(None).run(steps=20)
        _assert_sane(faulted, 20)
        assert faulted.wall_clock_s > clean.wall_clock_s
        assert faulted.lost_s > 0


class TestStragglerCorners:
    def test_every_worker_straggling_is_just_a_slow_run(self):
        events = tuple(
            StragglerFault(worker=worker, factor=2.0, start_step=0)
            for worker in range(4)
        )
        result = _trainer(FaultPlan(events=events)).run(steps=20)
        clean = _trainer(None).run(steps=20)
        _assert_sane(result, 20)
        assert result.wall_clock_s > clean.wall_clock_s
        assert result.final_machines == 4

    def test_extreme_straggler_factor_stays_finite(self):
        plan = FaultPlan(
            events=(StragglerFault(worker=0, factor=1000.0, start_step=0),)
        )
        result = _trainer(plan).run(steps=10)
        _assert_sane(result, 10)

    def test_straggler_factor_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            StragglerFault(worker=0, factor=0.5)


class TestLinkOutageCorners:
    def test_bounded_total_loss_drains_and_recovers(self):
        plan = FaultPlan(
            events=(LinkFault(packet_loss=1.0, start_step=5, end_step=7),)
        )
        result = _trainer(plan).run(steps=20)
        _assert_sane(result, 20)
        assert result.lost_s > 0
        assert any(event.kind == "link-outage" for event in result.events)

    def test_open_ended_total_loss_is_unrecoverable(self):
        plan = FaultPlan(events=(LinkFault(packet_loss=1.0, start_step=5),))
        with pytest.raises(UnrecoverableFaultError) as excinfo:
            _trainer(plan).run(steps=20)
        assert excinfo.value.kind == "link-outage"

    def test_severe_but_partial_loss_is_survivable(self):
        plan = FaultPlan(
            events=(LinkFault(packet_loss=0.99, start_step=0),)
        )
        result = _trainer(plan).run(steps=10)
        _assert_sane(result, 10)

    def test_huge_step_count_past_last_fault_uses_the_closed_form(self):
        # A million steps after the fault window must return immediately
        # via the closed-form tail — this test hanging IS the failure.
        plan = FaultPlan(
            events=(LinkFault(packet_loss=1.0, start_step=2, end_step=4),)
        )
        result = _trainer(plan).run(steps=1_000_000)
        _assert_sane(result, 1_000_000)


class TestTimeoutCorners:
    def test_timeout_within_budget_backs_off_and_recovers(self):
        plan = FaultPlan(events=(AllReduceTimeout(step=3, failures=2),))
        result = _trainer(plan).run(steps=10)
        _assert_sane(result, 10)
        assert any(event.action == "backoff" for event in result.events)

    def test_timeout_storm_beyond_retry_budget_is_unrecoverable(self):
        plan = FaultPlan(events=(AllReduceTimeout(step=3, failures=9),))
        with pytest.raises(UnrecoverableFaultError) as excinfo:
            _trainer(plan).run(steps=10)
        assert excinfo.value.kind == "timeout"
        assert excinfo.value.step == 3

    def test_timeouts_fire_exactly_once(self):
        plan = FaultPlan(events=(AllReduceTimeout(step=3, failures=1),))
        result = _trainer(plan).run(steps=10)
        assert sum(1 for event in result.events if event.kind == "timeout") == 1


class TestBackToBackEverything:
    def test_crash_outage_timeout_and_straggler_together(self):
        plan = FaultPlan(
            events=(
                StragglerFault(worker=1, factor=1.5, start_step=0, end_step=15),
                LinkFault(packet_loss=1.0, start_step=4, end_step=6),
                AllReduceTimeout(step=8, failures=2),
                WorkerCrash(step=10),
            ),
            seed=7,
        )
        result = _trainer(plan).run(steps=25)
        _assert_sane(result, 25)
        assert result.final_machines == 3
        kinds = {event.kind for event in result.events}
        assert {"link-outage", "timeout", "crash"} <= kinds

    def test_run_until_samples_terminates_under_faults(self):
        plan = FaultPlan(
            events=(WorkerCrash(step=4), AllReduceTimeout(step=8, failures=1))
        )
        trainer = _trainer(plan)
        target = trainer.baseline.samples_per_iteration * 40
        result = trainer.run_until_samples(target)
        assert result.samples >= target
        assert math.isfinite(result.wall_clock_s)


class TestSpecParsingErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "straggler=banana",
            "crash=@",
            "degrade=bw0@0",
            "steps=-5",
            "cluster=",
            "unknown=1@2",
            "timeout=2x@3",
        ],
    )
    def test_malformed_specs_raise_typed_errors(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(text)

    def test_valid_spec_round_trips_through_describe(self):
        scenario = parse_fault_spec(
            "cluster=4M1G:infiniband; steps=30; seed=9; "
            "straggler=1x1.5@5:20; crash=1@25"
        )
        assert scenario.steps == 30
        assert scenario.plan.seed == 9
        assert len(scenario.plan.events) == 2
        assert "straggler" in scenario.describe().lower()


class TestRecoveryPosture:
    """The one recovery posture, read through the costs a run reports."""

    def test_backoff_starts_at_half_a_second_and_doubles(self):
        assert backoff_delay_s(0) == 0.0
        assert backoff_delay_s(1) == 0.5
        assert backoff_delay_s(3) == 0.5 + 1.0 + 2.0

    def test_timeout_costs_its_attempts_plus_backoff(self):
        timeout = AllReduceTimeout(step=3, failures=2, timeout_s=0.5)
        (event,) = _trainer(FaultPlan(events=(timeout,))).run(steps=10).events
        assert event.cost_s == 2 * 0.5 + backoff_delay_s(2)

    def test_the_retry_budget_is_five(self):
        within = FaultPlan(events=(AllReduceTimeout(step=3, failures=MAX_RETRIES),))
        _assert_sane(_trainer(within).run(steps=10), 10)
        beyond = FaultPlan(events=(AllReduceTimeout(step=3, failures=MAX_RETRIES + 1),))
        with pytest.raises(UnrecoverableFaultError, match="5-retry budget"):
            _trainer(beyond).run(steps=10)

    def test_outage_probes_each_step_until_the_link_returns(self):
        plan = FaultPlan(
            events=(LinkFault(packet_loss=1.0, start_step=20, end_step=23),)
        )
        (event,) = _trainer(plan).run(steps=40).events
        assert event.action == "backoff"
        assert event.cost_s == 3 * EXCHANGE_TIMEOUT_S + backoff_delay_s(3)

    def test_outage_longer_than_the_budget_is_unrecoverable(self):
        plan = FaultPlan(
            events=(LinkFault(packet_loss=1.0, start_step=20, end_step=26),)
        )
        with pytest.raises(UnrecoverableFaultError) as excinfo:
            _trainer(plan).run(steps=40)
        assert excinfo.value.kind == "link-outage"
        assert excinfo.value.step == 20

    @pytest.mark.parametrize("crash_step,checkpoint", [(7, 0), (13, 10), (29, 20)])
    def test_crash_rolls_back_to_the_last_checkpoint(self, crash_step, checkpoint):
        assert CHECKPOINT_INTERVAL_STEPS == 10
        plan = FaultPlan(events=(WorkerCrash(step=crash_step),))
        (event,) = _trainer(plan).run(steps=40).events
        assert event.detail.endswith(f"rolled back to step {checkpoint}")
        # Detection and restore on top of the partial step the crash wasted.
        assert event.cost_s >= DETECTION_S + RESTORE_S

    def test_a_crash_replays_the_steps_since_the_checkpoint(self):
        clean = _trainer(None).run(steps=20)
        faulted = _trainer(FaultPlan(events=(WorkerCrash(step=13),))).run(steps=20)
        # Steps 0-9 ran on four machines and were checkpointed; steps 10-19
        # ran again on the three survivors after the crash at step 13.
        per_machine_step = clean.samples / 20 / 4
        assert faulted.samples == pytest.approx(
            10 * 4 * per_machine_step + 10 * 3 * per_machine_step, rel=1e-12
        )

    def test_a_straggler_on_a_multi_machine_cluster_is_always_rebalanced(self):
        plan = FaultPlan(
            events=(StragglerFault(worker=1, factor=1.5, start_step=5, end_step=15),)
        )
        (event,) = _trainer(plan).run(steps=20).events
        assert (event.kind, event.action) == ("straggler", "rebalance")

    def test_fault_metrics_use_eq_1_and_eq_3(self):
        trainer = _trainer(FaultPlan(events=(WorkerCrash(step=13),)))
        result = trainer.run(steps=20)
        metrics = trainer.iteration_metrics(result)
        local = trainer.baseline.replica
        assert metrics.gpu_utilization == gpu_utilization(
            local.gpu_busy_time_s, result.mean_step_s
        )
        assert metrics.cpu_utilization == cpu_utilization(
            local.cpu_core_seconds, local.cpu_core_count, result.mean_step_s
        )
