"""Adaptive batch-size schedules as a first-class sweep dimension.

The paper's grid fixes the mini-batch per point; this package makes the
batch a *trajectory*: a declarative :class:`~repro.schedule.spec.\
BatchSchedule` (``fixed`` / ``geometric`` / ``plateau`` / ``gns``) with a
``parse_schedule_spec`` mini-language, a curve-driven closed-form
segment integrator, a fault-composable ``scheduled_time_to_accuracy``,
and engine threading that caches adaptive points content-addressed while
keeping ``fixed`` byte-identical to the legacy grid.
"""

import importlib

#: Names imported on first use (PEP 562): ``tbd`` builds its parser, the
#: ``schedule`` subcommand included, without loading the integrator.
_LAZY = {
    "ScheduledPoint": "repro.schedule.accuracy",
    "SegmentRun": "repro.schedule.accuracy",
    "scheduled_time_to_accuracy": "repro.schedule.accuracy",
    "ScheduleIntegration": "repro.schedule.integrator",
    "Segment": "repro.schedule.integrator",
    "build_segments": "repro.schedule.integrator",
    "integrate_schedule": "repro.schedule.integrator",
    "BatchSchedule": "repro.schedule.spec",
    "FixedSchedule": "repro.schedule.spec",
    "GeometricSchedule": "repro.schedule.spec",
    "GnsSchedule": "repro.schedule.spec",
    "PlateauSchedule": "repro.schedule.spec",
    "ScheduleSpecError": "repro.schedule.spec",
    "parse_schedule_spec": "repro.schedule.spec",
    "schedule_names": "repro.schedule.spec",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


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
    "integrate_schedule",
    "parse_schedule_spec",
    "schedule_names",
    "scheduled_time_to_accuracy",
]
