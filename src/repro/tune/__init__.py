"""Cost-model-guided transform autotuning (``tbd tune``).

- :mod:`repro.tune.search` enumerates applicable transform pipelines per
  (model, framework, GPU, batch), scores each candidate's compiled plan
  (makespan, allocation peak, analytic memory fit), and confirms the
  winner with the interleaved A/B runner;
- :mod:`repro.tune.store` persists winners in the content-addressed
  result cache so retuning an unchanged workload is free;
- :mod:`repro.tune.cli` is the ``tbd tune`` subcommand.
"""

import importlib

#: Names imported on first use (PEP 562): ``tbd`` builds its parser, the
#: ``tune`` subcommand included, without loading the search.
_LAZY = {
    "Autotuner": "repro.tune.search",
    "Candidate": "repro.tune.search",
    "DEPTH_BLOCKS": "repro.tune.search",
    "OFFLOAD_FRACTIONS": "repro.tune.search",
    "TuneResult": "repro.tune.search",
    "TUNED_SCHEMA": "repro.tune.store",
    "load_tuned": "repro.tune.store",
    "store_tuned": "repro.tune.store",
    "tuned_key": "repro.tune.store",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "Autotuner",
    "Candidate",
    "DEPTH_BLOCKS",
    "OFFLOAD_FRACTIONS",
    "TUNED_SCHEMA",
    "TuneResult",
    "load_tuned",
    "store_tuned",
    "tuned_key",
]
