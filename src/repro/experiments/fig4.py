"""Fig. 4: training throughput vs. mini-batch size, all models.

The paper also reports Faster R-CNN inline (no sweep; one image per
iteration; ~2.3 images/s on both frameworks) — included here as the
``faster_rcnn`` entry.
"""

from __future__ import annotations

from repro.core.report import render_series
from repro.core.suite import standard_suite
from repro.experiments.common import run_sweeps


def generate(suite=None, engine=None) -> dict:
    """Run every Fig. 4 sweep plus the Faster R-CNN point.

    ``engine`` (see :meth:`TBDSuite.engine`) parallelizes and memoizes
    the whole grid."""
    suite = suite if suite is not None else standard_suite()
    sweeps = run_sweeps("throughput", engine or suite.engine())
    faster_rcnn = {
        framework: suite.run("faster-rcnn", framework, 1, engine=engine).throughput
        for framework in ("tensorflow", "mxnet")
    }
    return {"sweeps": sweeps, "faster_rcnn": faster_rcnn}


def render(data=None) -> str:
    """Format the Fig. 4 throughput series as aligned text."""
    data = data if data is not None else generate()
    lines = ["Fig. 4: DNN training throughput vs mini-batch size"]
    for series in data["sweeps"]:
        lines.append(
            render_series(
                f"{series.model} ({series.framework})",
                series.batch_sizes,
                series.values,
                x_label="b",
            )
        )
    for framework, value in data["faster_rcnn"].items():
        lines.append(f"faster-rcnn ({framework}): {value:.1f} images/s (batch fixed at 1)")
    return "\n".join(lines)
