"""The TBD benchmark suite and analysis pipeline — the paper's primary
contribution, as a library.

- :mod:`repro.core.suite` — the suite object: Table 2's models x frameworks
  x datasets, runnable end to end.
- :mod:`repro.core.metrics` — the paper's metric definitions (Eqs. 1-3 and
  throughput, Section 3.4.3).
- :mod:`repro.core.analysis` — the end-to-end analysis pipeline of Fig. 3:
  comparability checks, warm-up exclusion, sampled profiling, merged report.
- :mod:`repro.core.observations` — the paper's 13 numbered observations as
  executable checks against simulator output.
- :mod:`repro.core.report` — text renderers for every table and figure.
"""

import importlib

from repro.core.metrics import IterationMetrics, cpu_utilization, gpu_utilization
from repro.core.suite import TBDSuite, standard_suite

#: Names imported on first use (PEP 562): the analysis pipeline loads
#: all of :mod:`repro.profiling`, which no sweep needs.
_LAZY = {
    "AnalysisPipeline": "repro.core.analysis",
    "AnalysisReport": "repro.core.analysis",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "TBDSuite",
    "standard_suite",
    "AnalysisPipeline",
    "AnalysisReport",
    "IterationMetrics",
    "gpu_utilization",
    "cpu_utilization",
]
