"""Shared helpers for the mini-batch sweep experiments (Figs. 4-6)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.suite import TBDSuite, standard_suite

#: The (model, framework) panels of Figs. 4-6, in the paper's panel order.
SWEEP_PANELS = (
    ("resnet-50", ("tensorflow", "mxnet", "cntk")),
    ("inception-v3", ("mxnet", "tensorflow", "cntk")),
    ("nmt", ("tensorflow",)),
    ("sockeye", ("mxnet",)),
    ("transformer", ("tensorflow",)),
    ("wgan", ("tensorflow",)),
    ("deep-speech-2", ("mxnet",)),
    ("a3c", ("mxnet",)),
)


@dataclass(frozen=True)
class SweepSeries:
    """One line of one panel: metric values over the batch sweep."""

    model: str
    framework: str
    batch_sizes: tuple
    values: tuple  # None marks an OOM point

    def finite(self) -> list:
        """(batch, value) pairs that did not OOM."""
        return [
            (batch, value)
            for batch, value in zip(self.batch_sizes, self.values)
            if value is not None
        ]


def run_sweeps(
    metric: str, suite: TBDSuite | None = None, engine=None, panels=None
) -> list:
    """Run every Figs. 4-6 panel and extract ``metric`` from each point.

    Args:
        metric: attribute of :class:`~repro.core.metrics.IterationMetrics`
            (``throughput``, ``gpu_utilization``, ``fp32_utilization``).
        suite: the suite whose :meth:`~repro.core.suite.TBDSuite.engine`
            runs the grid when no ``engine`` is given (default: the
            standard suite).
        engine: the :class:`~repro.engine.executor.SweepEngine` to run
            on; the *whole* grid (every panel, every batch size) is
            handed to it as one flat work list, so worker processes draw
            from all panels at once and memoized points are skipped.
        panels: panel tuples ``(model, (framework, ...))``; defaults to
            the paper's :data:`SWEEP_PANELS`.
    """
    from repro.engine.executor import grid_for

    panels = panels if panels is not None else SWEEP_PANELS
    if engine is None:
        engine = (suite if suite is not None else standard_suite()).engine()
    specs = grid_for(panels)
    points_by_spec = dict(zip(specs, engine.run_grid(specs)))
    series = []
    for model, frameworks in panels:
        for framework in frameworks:
            points = [
                points_by_spec[spec]
                for spec in specs
                if spec.model == model and spec.framework == framework
            ]
            series.append(_series_from_points(model, framework, points, metric))
    return series


def _series_from_points(model: str, framework: str, points, metric: str) -> SweepSeries:
    """Collapse one panel's sweep points into a :class:`SweepSeries`."""
    return SweepSeries(
        model=model,
        framework=framework,
        batch_sizes=tuple(point.batch_size for point in points),
        values=tuple(
            None if point.oom else getattr(point.metrics, metric) for point in points
        ),
    )
