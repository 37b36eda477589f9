"""``repro.bench`` — statistical differential benchmarking.

The paper's core contribution is measurement you can trust; this package
supplies the cross-run half of that trust.  A seeded :class:`NoiseModel`
makes repeated executions of a :class:`~repro.plan.compiled.CompiledPlan`
exhibit machine-like variance (jittered kernel times, dispatch gaps and
interconnect latency), an :class:`InterleavedRunner` alternates baseline
and treatment runs in randomized order so slow drift cancels out of the
A/B difference, and the verdict is statistical: median speedup, bootstrap
confidence interval, and one-sided Welch p-values both ways.  It is the
one A/B path: ``tbd bench``, the tuner's confirmation and ``tbd compare``
(:func:`repro.profiling.comparison.ab_compare`) all measure
:class:`PlanSubject` values through this runner.

Results append to a schema-versioned ``BENCH_<suite>.json`` trajectory
(:class:`BenchStore`) keyed by the environment fingerprint from
:mod:`repro.engine.keys`, and :func:`evaluate_gate` turns one run into a
CI pass/fail: every case must come back with the verdict its suite
expects.  ``tbd bench run|compare|history|gate`` is the CLI.
"""

from repro.bench.gate import GateReport, evaluate_gate
from repro.bench.noise import NoiseModel, NoiseStream
from repro.bench.runner import BenchResult, InterleavedRunner
from repro.bench.store import BENCH_SCHEMA, BenchStore, environment_fingerprint
from repro.bench.subjects import PlanSubject, Subject, subject_for
from repro.bench.suites import BenchSuite, get_suite, run_suite, suite_catalog
from repro.bench.symbolic_sweep import (
    SweepCaseResult,
    run_symbolic_sweep,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "BenchStore",
    "BenchSuite",
    "GateReport",
    "InterleavedRunner",
    "NoiseModel",
    "NoiseStream",
    "PlanSubject",
    "Subject",
    "SweepCaseResult",
    "run_symbolic_sweep",
    "environment_fingerprint",
    "evaluate_gate",
    "get_suite",
    "run_suite",
    "subject_for",
    "suite_catalog",
]
