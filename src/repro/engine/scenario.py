"""One point's scenario: the faults, transforms and batch schedule it
runs under, parsed once.

The paper's grid has three axes (model, framework, batch).  A
:class:`Scenario` is the fourth: three orthogonal dimensions, each with
its own spec grammar, applied in a fixed order — transforms rewrite the
compiled plan, the schedule splits the run into per-segment batches,
faults replay the run on a cluster.  Everything downstream (cache keys,
the payload path, exports, the CLI boundary) reads the parsed value
instead of re-parsing text, and every rule about which dimensions may
combine lives in :meth:`Scenario.validate`.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plan.pipeline import TransformPipeline, parse_transform_spec

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
    from repro.schedule.spec import BatchSchedule


class ScenarioError(ValueError):
    """A scenario whose dimensions cannot run together on a model."""


@dataclass(frozen=True)
class Scenario:
    """The parsed scenario of one sweep point.

    ``faults`` is ``None`` for a fault-free point, ``pipeline`` is empty
    for an untransformed one, and ``schedule`` is ``None`` for a
    fixed-batch one (every spelling of ``fixed`` included).
    """

    faults: FaultScenario | None
    pipeline: TransformPipeline
    schedule: BatchSchedule | None

    @functools.cached_property
    def canonical(self) -> types.MappingProxyType:
        """Each dimension's canonical text, ``""`` when unused, in
        key-document and export order: what keys and exports carry, so
        two spellings of one scenario share both."""
        return types.MappingProxyType(
            {
                "faults": self.faults.canonical if self.faults else "",
                "transforms": self.pipeline.canonical,
                "schedule": self.schedule.canonical if self.schedule else "",
            }
        )

    @functools.cached_property
    def used(self) -> types.MappingProxyType:
        """The canonical texts of the dimensions in use only: what
        exported records and cache-entry metadata carry."""
        return types.MappingProxyType(
            {name: text for name, text in self.canonical.items() if text}
        )

    @functools.cached_property
    def dimensions(self) -> tuple:
        """The names of the dimensions in use (each widens the point's
        code dependencies by its :data:`~repro.engine.keys.DIMENSION_CODE`
        entry)."""
        return tuple(self.used)

    def validate(self, model: str) -> None:
        """Reject a scenario that cannot run on ``model``.

        Raises:
            ScenarioError: for faults combined with transforms or an
                adaptive schedule (the fault trainer builds its own
                multi-GPU session from the untransformed, fixed-batch
                plan), or an adaptive schedule on a model without a
                convergence curve to integrate against.
        """
        if self.faults is not None and len(self.dimensions) > 1:
            raise ScenarioError(
                f"faults cannot combine with {' or '.join(self.dimensions[1:])}: "
                f"the fault trainer builds its own multi-GPU session from "
                f"the untransformed, fixed-batch plan"
            )
        if self.schedule is not None:
            from repro.training.convergence import FIG2_MODELS

            if model not in FIG2_MODELS:
                known = ", ".join(sorted(FIG2_MODELS))
                raise ScenarioError(
                    f"adaptive schedules integrate against a convergence "
                    f"curve, and {model!r} has none (models with curves: "
                    f"{known})"
                )


@functools.lru_cache(maxsize=1024)
def parse_scenario(faults: str = "", transforms: str = "", schedule: str = "") -> Scenario:
    """Parse one ``(faults, transforms, schedule)`` text triple, memoized
    so the per-point cost of a repeated triple is one dict lookup.

    Raises:
        FaultSpecError / TransformSpecError / ScheduleSpecError: from the
            dimension whose text does not parse.
    """
    # The fault and schedule layers import only when a point uses them,
    # so plain sweeps never pay for loading them.
    fault_scenario = batch_schedule = None
    if faults:
        from repro.faults.spec import parse_fault_spec

        fault_scenario = parse_fault_spec(faults)
    if schedule.strip():
        from repro.schedule.spec import parse_schedule_spec

        batch_schedule = parse_schedule_spec(schedule)
        if batch_schedule.is_fixed:
            batch_schedule = None
    return Scenario(fault_scenario, parse_transform_spec(transforms), batch_schedule)
