"""The engine-free reference sweep, shared by the differential tests (via
``conftest.py``'s ``direct_sweep`` fixture) and by the paper-answer record,
which must also run where no test runner is installed."""

from __future__ import annotations

from repro.core.metrics import IterationMetrics
from repro.core.suite import SweepPoint
from repro.hardware.memory import OutOfMemoryError


def sweep_directly(suite, model: str, framework: str) -> list:
    """The sweep's ``SweepPoint`` list, computed by one ``TrainingSession``
    driven directly over the model's batch sizes, OOM batches recorded:
    the engine-free reference that engine sweeps are checked against."""
    session = suite.session(model, framework)
    points = []
    for batch in session.spec.batch_sizes:
        try:
            profile = session.run_iteration(batch)
        except OutOfMemoryError:
            points.append(SweepPoint(batch_size=batch, oom=True))
            continue
        metrics = IterationMetrics.from_profile(
            profile, throughput_unit=session.spec.throughput_unit
        )
        points.append(SweepPoint(batch_size=batch, metrics=metrics))
    return points
