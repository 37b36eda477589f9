"""repro — a full reproduction of *TBD: Benchmarking and Analyzing Deep
Neural Network Training* (Zhu et al., IISWC 2018).

The package provides:

- :mod:`repro.core` — the TBD benchmark suite and end-to-end analysis
  toolchain (the paper's primary contribution).
- :mod:`repro.hardware` — simulated GPUs/CPUs/interconnects with the paper's
  exact device specifications (Table 4).
- :mod:`repro.frameworks` — TensorFlow/MXNet/CNTK execution personalities.
- :mod:`repro.models` — layer-graph definitions of all eight TBD models.
- :mod:`repro.data` — synthetic stand-ins for the six datasets (Table 3).
- :mod:`repro.training` — the simulated training loop and convergence models.
- :mod:`repro.distributed` — data-parallel multi-GPU / multi-machine training.
- :mod:`repro.profiling` — nvprof-like kernel traces, vTune-like CPU sampling,
  and the paper's memory profiler with the five-way breakdown.
- :mod:`repro.observability` — the telemetry runtime: structured spans,
  a metrics registry, deterministic exporters, and the run archive behind
  ``tbd trace`` / ``tbd runs``.
- :mod:`repro.experiments` — generators for every table and figure.
- :mod:`repro.tensor` — a real numpy autodiff engine used to run genuine
  (miniature) training end-to-end.

Quickstart::

    from repro import standard_suite

    suite = standard_suite()
    result = suite.run("resnet-50", framework="mxnet", batch_size=32)
    print(result.throughput, result.gpu_utilization, result.fp32_utilization)
"""

import importlib

from repro.core.metrics import IterationMetrics
from repro.core.suite import TBDSuite, standard_suite

__version__ = "1.0.0"

#: Names imported on first use (PEP 562): the analysis pipeline loads
#: all of :mod:`repro.profiling`, which no sweep needs.
_LAZY = {"AnalysisPipeline": "repro.core.analysis"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "TBDSuite",
    "standard_suite",
    "AnalysisPipeline",
    "IterationMetrics",
    "__version__",
]
