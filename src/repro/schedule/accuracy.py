"""Time-to-accuracy under a batch schedule, faults included.

This is the one time-to-accuracy model for a run threaded through a
cluster and a fault plan.  It composes three existing models segment by
segment:

- the **convergence curve** tiles the run into batch segments
  (:func:`~repro.schedule.integrator.integrate_schedule`),
- the **critical-batch statistical model** prices each segment's real
  sample cost at that segment's *global* batch
  (:func:`~repro.distributed.time_to_accuracy.batch_penalty`, the same
  penalty :func:`~repro.distributed.time_to_accuracy.\
adjusted_samples_needed` charges), and
- the **fault-tolerant trainer** replays each segment against its window
  of the fault plan (:meth:`~repro.faults.plan.FaultPlan.window`),
  carrying elastic shrinks across segment boundaries.

A fixed (or absent) schedule is the single segment ``[0, total]`` at the
starting batch, priced by the same loop; fault-free, its baseline equals
:func:`~repro.distributed.time_to_accuracy.scaling_point`'s
time-to-accuracy exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.cluster import ClusterSpec
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.schedule.integrator import integrate_schedule
from repro.schedule.spec import parse_schedule_spec


@dataclass(frozen=True)
class SegmentRun:
    """One schedule segment resolved against the cluster and fault plan."""

    index: int
    per_gpu_batch: int
    global_batch: int
    #: Base-axis (curve) samples this segment covers.
    curve_samples: float
    #: Real samples after the critical-batch penalty at ``global_batch``.
    samples_needed: float
    wall_clock_s: float
    start_step: int
    machines_before: int
    machines_after: int
    result: object


@dataclass(frozen=True)
class ScheduledPoint:
    """Time-to-accuracy for a run driven by a batch schedule.

    ``schedule`` is the canonical spec text (empty for a fixed run,
    which has exactly one segment).
    """

    configuration: str
    schedule: str
    per_gpu_batch: int
    final_per_gpu_batch: int
    global_batch: int
    samples_needed: float
    time_to_accuracy_s: float
    baseline_time_s: float
    final_machines: int
    segment_runs: tuple

    @property
    def overhead(self) -> float:
        """Wall-clock inflation versus the fault-free scheduled run."""
        if self.baseline_time_s <= 0:
            return float("inf")
        return self.time_to_accuracy_s / self.baseline_time_s

    @property
    def segment_count(self) -> int:
        return len(self.segment_runs)


def scheduled_time_to_accuracy(
    model_key: str,
    framework: str,
    cluster: ClusterSpec,
    per_gpu_batch: int,
    schedule=None,
    plan=None,
) -> ScheduledPoint:
    """Wall-clock time-to-accuracy for a schedule-driven elastic run.

    The schedule grows the *per-GPU* batch; each segment's statistical
    cost is priced at its realized global batch, its hardware cost comes
    from a :class:`~repro.faults.trainer.FaultTolerantTrainer` replaying
    that segment's window of ``plan``, and elastic shrinks (crashed
    machines) carry forward into later segments.  ``schedule`` accepts a
    :class:`~repro.schedule.spec.BatchSchedule`, spec text, or ``None``.

    Raises:
        OutOfMemoryError: when a grown per-GPU batch no longer fits the
            GPU — pick the schedule ceiling below the OOM boundary.
        UnrecoverableFaultError: propagated from the trainer.
    """
    from repro.distributed.time_to_accuracy import batch_penalty
    from repro.faults.plan import FaultPlan
    from repro.faults.trainer import FaultTolerantTrainer

    if isinstance(schedule, str):
        schedule = parse_schedule_spec(schedule)
    spec_text = (
        "" if schedule is None or schedule.is_fixed else schedule.canonical
    )
    plan = plan if plan is not None else FaultPlan.none()
    with trace_span(
        "schedule.tta",
        model=model_key,
        framework=framework,
        schedule=spec_text or "fixed",
        configuration=cluster.name,
    ) as span:
        integration = integrate_schedule(model_key, schedule, per_gpu_batch)
        runs = []
        active_cluster = cluster
        machines = cluster.machine_count
        cursor_step = 0
        total_time = 0.0
        baseline_time = 0.0
        total_samples = 0.0
        for segment in integration.segments:
            if segment.samples == 0.0:
                continue
            trainer = FaultTolerantTrainer(
                model_key,
                framework,
                active_cluster,
                segment.batch_size,
                plan=plan.window(cursor_step),
            )
            global_batch = segment.batch_size * trainer.baseline.worker_count
            needed = segment.samples * batch_penalty(
                model_key, global_batch, per_gpu_batch
            )
            result = trainer.run_until_samples(needed)
            runs.append(
                SegmentRun(
                    index=segment.index,
                    per_gpu_batch=segment.batch_size,
                    global_batch=global_batch,
                    curve_samples=segment.samples,
                    samples_needed=needed,
                    wall_clock_s=result.wall_clock_s,
                    start_step=cursor_step,
                    machines_before=machines,
                    machines_after=result.final_machines,
                    result=result,
                )
            )
            total_time += result.wall_clock_s
            baseline_time += needed / trainer.baseline.throughput
            total_samples += needed
            cursor_step += int(math.ceil(result.steps_completed))
            if result.final_machines < machines:
                active_cluster = active_cluster.shrink(
                    machines - result.final_machines
                )
                machines = result.final_machines
        get_metrics().counter("schedule_tta_runs_total").inc()
        get_metrics().counter("schedule_tta_segments_total").inc(len(runs))
        span.set_attribute("segments", len(runs))
        span.set_attribute("final_machines", machines)
        first = runs[0] if runs else None
        return ScheduledPoint(
            configuration=cluster.name,
            schedule=spec_text,
            per_gpu_batch=per_gpu_batch,
            final_per_gpu_batch=(
                runs[-1].per_gpu_batch if runs else per_gpu_batch
            ),
            global_batch=first.global_batch if first else 0,
            samples_needed=total_samples,
            time_to_accuracy_s=total_time,
            baseline_time_s=baseline_time,
            final_machines=machines,
            segment_runs=tuple(runs),
        )
