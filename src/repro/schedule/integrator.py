"""Curve-driven segmentation and closed-form integration of schedules.

A schedule plus a convergence curve induces *segments*: maximal runs of
steps at one batch size.  This module materializes them without ever
stepping the optimizer — boundaries come from closed-form curve inverses
(:meth:`~repro.training.convergence.ConvergenceModel.samples_to_fraction`)
or bounded checkpoint scans, so a run needing 10^12 samples costs the
same to integrate as one needing 10^4.  The segment list is the single
source of truth downstream: the schedule-aware ``time_to_metric``
integrates time over it, ``scheduled_time_to_accuracy`` prices each
segment's statistical penalty and fault window over it, and the engine
aggregates per-segment iteration profiles over it.

Conservation contract (checked by the ``schedule-sample-conservation``
invariant): segments tile ``[0, total_samples]`` exactly — the first
starts at 0, each starts where its predecessor ends, the last ends at
``total_samples``, and every segment's ``samples`` equals its span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.schedule.spec import (
    BatchSchedule,
    GeometricSchedule,
    GnsSchedule,
    MAX_SEGMENTS,
    PLATEAU_REL_IMPROVEMENT,
    PlateauSchedule,
)
from repro.training.convergence import ConvergenceModel, FIG2_MODELS

#: Cap on checkpoint evaluations while scanning for a plateau trigger in
#: one segment; each evaluation is two closed-form curve points, so this
#: bounds work per segment at microseconds regardless of run length.
_MAX_BOUNDARY_EVALS = 4096


@dataclass(frozen=True)
class Segment:
    """A maximal run of optimizer steps at one batch size.

    ``start_samples``/``end_samples`` index the *base-equivalent* sample
    axis of the convergence curve; ``steps`` may be fractional in the
    final segment (the run stops mid-window when the target is hit).
    """

    index: int
    batch_size: int
    start_samples: float
    end_samples: float

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("segment batch size must be positive")
        if self.end_samples < self.start_samples:
            raise ValueError("segment cannot end before it starts")

    @property
    def samples(self) -> float:
        """Samples consumed in this segment (its accounting weight)."""
        return self.end_samples - self.start_samples

    @property
    def steps(self) -> float:
        """Optimizer steps in this segment (fractional at the tail)."""
        return self.samples / self.batch_size


def _remaining_gap(model: ConvergenceModel, samples: float) -> float:
    """The un-closed fraction of the metric gap — strictly positive, and
    affine-invariant in the metric axis."""
    return 1.0 - model.fraction_at(samples)


def _grown_batch(batch: int, factor: float, ceiling: int) -> int:
    """One growth event: multiply, round, force strict progress, cap."""
    return min(ceiling, max(batch + 1, int(round(batch * factor))))


def _next_change(schedule, model, batch, base_batch, start, horizon):
    """The next ``(boundary_samples, new_batch)`` after ``start``, or
    ``(None, batch)`` when the batch never changes again.  Boundaries are
    snapped to whole evaluation windows (``every``/``patience`` steps at
    the *current* batch) from the segment start."""
    if isinstance(schedule, GeometricSchedule):
        if batch >= schedule.ceiling or schedule.factor == 1.0:
            return None, batch
        boundary = start + float(batch * schedule.every)
        return boundary, _grown_batch(batch, schedule.factor, schedule.ceiling)

    if isinstance(schedule, PlateauSchedule):
        if batch >= schedule.ceiling or schedule.factor == 1.0:
            return None, batch
        window = float(batch * schedule.patience)
        grown = _grown_batch(batch, schedule.factor, schedule.ceiling)
        if not model.logistic:
            # Power-law curves decelerate monotonically, so the window
            # improvement r(n) = 1 - (1 + w/(n_half+n))^-gamma decays and
            # the first stalled checkpoint solves r(n) < threshold in
            # closed form: n > w/c - n_half with
            # c = (1-threshold)^(-1/gamma) - 1.
            c = (1.0 - PLATEAU_REL_IMPROVEMENT) ** (-1.0 / model.gamma) - 1.0
            stall = max(0.0, window / c - model.samples_to_half)
            windows = (
                math.ceil((stall - start) / window) + 1
                if stall > start
                else 1
            )
            return start + windows * window, grown
        # Logistic (game-score) curves stall *early* — the ramp is flat
        # before samples_to_half — so a bounded checkpoint scan finds the
        # trigger almost immediately; the cap guards the late tail.
        previous = start
        for _ in range(_MAX_BOUNDARY_EVALS):
            checkpoint = previous + window
            if previous >= horizon:
                return checkpoint, batch  # caller truncates at the horizon
            gap_before = _remaining_gap(model, previous)
            gap_after = _remaining_gap(model, checkpoint)
            improvement = (gap_before - gap_after) / gap_before
            if improvement < PLATEAU_REL_IMPROVEMENT:
                return checkpoint, grown
            previous = checkpoint
        return None, batch

    if isinstance(schedule, GnsSchedule):
        if batch >= schedule.ceiling:
            return None, batch
        window = float(batch * schedule.every)
        # Noise-scale proxy: base_batch / remaining_gap(n), which grows as
        # the gradient signal shrinks.  Growth fires when the proxy has at
        # least doubled the current batch (adadamp-style doubling, so the
        # segment count stays logarithmic); the crossing point is a
        # closed-form curve inverse, snapped up to a whole window.
        threshold_fraction = 1.0 - base_batch / (2.0 * batch)
        trigger = model.samples_to_fraction(threshold_fraction)
        windows = max(1, math.ceil((trigger - start) / window))
        boundary = start + windows * window
        proxy = base_batch / _remaining_gap(model, boundary)
        grown = max(2 * batch, int(proxy))
        return boundary, max(base_batch, min(schedule.ceiling, grown))

    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def build_segments(
    schedule,
    base_batch: int,
    total_samples: float,
    model: ConvergenceModel | None = None,
) -> tuple:
    """Tile ``[0, total_samples]`` with the schedule's segments.

    ``schedule=None`` and the fixed schedule produce the single legacy
    segment.  Adaptive schedules need ``model`` (the curve that drives
    plateau/gns triggers and, for uniformity, bounds every schedule's
    horizon).  The result always has at least one segment — a zero-length
    run (``total_samples == 0``) is one zero-length segment, which every
    consumer must price at zero.
    """
    if int(base_batch) < 1:
        raise ValueError("base batch must be a positive integer")
    if total_samples < 0:
        raise ValueError("total samples cannot be negative")
    base_batch = int(base_batch)
    if schedule is None or schedule.is_fixed:
        return (Segment(0, base_batch, 0.0, float(total_samples)),)
    if model is None:
        raise ValueError(
            f"adaptive schedule {schedule.canonical!r} is driven by a "
            f"convergence curve; pass the model's ConvergenceModel"
        )
    segments = []
    batch = base_batch
    start = 0.0
    while len(segments) < MAX_SEGMENTS - 1:
        boundary, next_batch = _next_change(
            schedule, model, batch, base_batch, start, total_samples
        )
        if boundary is None or boundary >= total_samples:
            break
        segments.append(Segment(len(segments), batch, start, boundary))
        start = boundary
        batch = next_batch
    segments.append(Segment(len(segments), batch, start, float(total_samples)))
    return tuple(segments)


@dataclass(frozen=True)
class ScheduleIntegration:
    """One schedule resolved against one curve: the segment tiling plus
    the closed-form totals every consumer integrates over."""

    model_key: str
    schedule: BatchSchedule | None
    base_batch: int
    target: float
    total_samples: float
    segments: tuple

    @property
    def total_steps(self) -> float:
        """Optimizer steps across all segments (fractional tail included)."""
        return math.fsum(segment.steps for segment in self.segments)

    @property
    def final_batch(self) -> int:
        """The batch size the run ends at."""
        return self.segments[-1].batch_size

    @property
    def batch_sizes(self) -> tuple:
        """Distinct batch sizes, in first-use order (one session plan
        compile each, memoized in the session's plan cache)."""
        seen = []
        for segment in self.segments:
            if segment.batch_size not in seen:
                seen.append(segment.batch_size)
        return tuple(seen)

    def time_with(self, throughput_for_batch) -> float:
        """Wall-clock seconds: each segment priced at its own batch's
        throughput (samples/s)."""
        total = 0.0
        for segment in self.segments:
            if segment.samples == 0.0:
                continue
            throughput = throughput_for_batch(segment.batch_size)
            if throughput <= 0:
                raise ValueError(
                    f"throughput for batch {segment.batch_size} must be "
                    f"positive, got {throughput}"
                )
            total += segment.samples / throughput
        return total

    def describe(self) -> str:
        """Human-readable segment table (``tbd schedule show``)."""
        spec_text = "fixed" if self.schedule is None else self.schedule.canonical
        lines = [
            f"schedule {spec_text} on {self.model_key}, base batch "
            f"{self.base_batch} -> target {self.target:g} "
            f"({self.total_samples:.4g} samples, "
            f"{len(self.segments)} segment(s))"
        ]
        for segment in self.segments:
            lines.append(
                f"  seg {segment.index}: b={segment.batch_size:<5d} "
                f"samples [{segment.start_samples:.4g}, "
                f"{segment.end_samples:.4g})  steps {segment.steps:.1f}"
            )
        return "\n".join(lines)


def integrate_schedule(
    model_key: str,
    schedule,
    base_batch: int,
    target: float | None = None,
    target_fraction: float = 0.95,
) -> ScheduleIntegration:
    """Resolve ``schedule`` against ``model_key``'s convergence curve.

    ``target`` defaults to ``target_fraction`` of the asymptotic metric
    gap (matching :func:`repro.distributed.time_to_accuracy.\
samples_to_accuracy`'s convention).  Accepts a schedule object, spec
    text, or ``None``/empty for the fixed baseline.
    """
    from repro.schedule.spec import parse_schedule_spec

    if isinstance(schedule, str):
        schedule = parse_schedule_spec(schedule)
    if model_key not in FIG2_MODELS:
        known = ", ".join(sorted(FIG2_MODELS))
        raise KeyError(
            f"no convergence model for {model_key!r} (schedules integrate "
            f"against the convergence curve); known: {known}"
        )
    model = FIG2_MODELS[model_key]
    if target is None:
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target fraction must be in (0, 1)")
        target = model.initial + target_fraction * (model.final - model.initial)
    spec_text = (
        "" if schedule is None or schedule.is_fixed else schedule.canonical
    )
    with trace_span(
        "schedule.integrate",
        model=model_key,
        schedule=spec_text or "fixed",
        base_batch=int(base_batch),
    ) as span:
        total_samples = model.samples_to(target)
        segments = build_segments(
            schedule, base_batch, total_samples, model=model
        )
        span.set_attribute("segments", len(segments))
        get_metrics().counter("schedule_integrations_total").inc()
        get_metrics().counter("schedule_segments_total").inc(len(segments))
        return ScheduleIntegration(
            model_key=model_key,
            schedule=None if schedule is None or schedule.is_fixed else schedule,
            base_batch=int(base_batch),
            target=float(target),
            total_samples=total_samples,
            segments=segments,
        )
