"""Fig. 6: GPU FP32 utilization vs. mini-batch size (paper Eq. 2)."""

from __future__ import annotations

from repro.core.report import render_series
from repro.core.suite import standard_suite
from repro.experiments.common import run_sweeps


def generate(suite=None, engine=None) -> dict:
    """Run every Fig. 6 sweep plus the Faster R-CNN point.

    ``engine`` (see :meth:`TBDSuite.engine`) parallelizes and memoizes
    the whole grid."""
    suite = suite if suite is not None else standard_suite()
    sweeps = run_sweeps("fp32_utilization", engine or suite.engine())
    faster_rcnn = {
        framework: suite.run(
            "faster-rcnn", framework, 1, engine=engine
        ).fp32_utilization
        for framework in ("tensorflow", "mxnet")
    }
    return {"sweeps": sweeps, "faster_rcnn": faster_rcnn}


def render(data=None) -> str:
    """Format the Fig. 6 utilization series as aligned text."""
    data = data if data is not None else generate()
    lines = ["Fig. 6: GPU FP32 utilization vs mini-batch size"]
    for series in data["sweeps"]:
        values = [None if v is None else v * 100 for v in series.values]
        lines.append(
            render_series(
                f"{series.model} ({series.framework})",
                series.batch_sizes,
                values,
                x_label="b",
                y_fmt="{:.0f}%",
            )
        )
    for framework, value in data["faster_rcnn"].items():
        lines.append(f"faster-rcnn ({framework}): {value * 100:.1f}%")
    return "\n".join(lines)
