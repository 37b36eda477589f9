"""``repro.bench`` — statistical differential benchmarking.

The paper's core contribution is measurement you can trust; this package
supplies the cross-run half of that trust.  A seeded :class:`NoiseModel`
makes repeated executions of a :class:`~repro.plan.compiled.CompiledPlan`
exhibit machine-like variance (jittered kernel times, dispatch gaps and
interconnect latency), an :class:`InterleavedRunner` alternates baseline
and treatment runs in randomized order so slow drift cancels out of the
A/B difference, and the verdict is statistical: median speedup, bootstrap
confidence interval, and one-sided Welch p-values both ways.  It is the
one A/B path: ``tbd compare``
(:func:`repro.profiling.comparison.ab_compare`), the tuner's confirmation
and the ``noise-median-convergence`` invariant all measure
:class:`PlanSubject` values through this runner.
"""

from repro.bench.noise import NoiseModel, NoiseStream
from repro.bench.runner import BenchResult, InterleavedRunner
from repro.bench.subjects import PlanSubject, Subject, subject_for

__all__ = [
    "BenchResult",
    "InterleavedRunner",
    "NoiseModel",
    "NoiseStream",
    "PlanSubject",
    "Subject",
    "subject_for",
]
