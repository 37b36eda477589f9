"""Adaptive batch-size schedules as a first-class sweep dimension.

The paper's grid fixes the mini-batch per point; this package makes the
batch a *trajectory*: a declarative :class:`~repro.schedule.spec.\
BatchSchedule` (``fixed`` / ``geometric`` / ``plateau`` / ``gns``) with a
``parse_schedule_spec`` mini-language, a curve-driven closed-form
segment integrator, a fault-composable ``scheduled_time_to_accuracy``,
and engine threading that caches adaptive points content-addressed while
keeping ``fixed`` byte-identical to the legacy grid.
"""

from repro.schedule.accuracy import (
    ScheduledPoint,
    SegmentRun,
    scheduled_time_to_accuracy,
)
from repro.schedule.integrator import (
    ScheduleIntegration,
    Segment,
    build_segments,
    integrate_schedule,
)
from repro.schedule.spec import (
    BatchSchedule,
    FixedSchedule,
    GeometricSchedule,
    GnsSchedule,
    PlateauSchedule,
    ScheduleSpecError,
    canonical_schedule_spec,
    parse_schedule_spec,
    schedule_names,
)

__all__ = [
    "BatchSchedule",
    "FixedSchedule",
    "GeometricSchedule",
    "GnsSchedule",
    "PlateauSchedule",
    "ScheduleIntegration",
    "ScheduleSpecError",
    "ScheduledPoint",
    "Segment",
    "SegmentRun",
    "build_segments",
    "canonical_schedule_spec",
    "integrate_schedule",
    "parse_schedule_spec",
    "schedule_names",
    "scheduled_time_to_accuracy",
]
