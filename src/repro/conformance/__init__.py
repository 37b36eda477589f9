"""Conformance harness: the paper's physics as executable invariants.

The simulator's five metric families obey physical laws — kernel times sit
on the roofline, memory breakdowns add up, multi-GPU scaling never beats
linear.  This package turns those laws into a declarative registry of
checks (:mod:`~repro.conformance.invariants`), metamorphic relations
between perturbed runs (:mod:`~repro.conformance.relations`), a seeded
spec fuzzer with a greedy counterexample shrinker
(:mod:`~repro.conformance.generator`), and a parallel runner that drives
everything through the sweep engine and emits a machine-readable
violation report (:mod:`~repro.conformance.runner`).
"""

import importlib

#: Names imported on first use (PEP 562): ``tbd`` builds its parser, the
#: ``conformance`` subcommand included, without loading the harness.
_LAZY = {
    "FuzzCase": "repro.conformance.generator",
    "generate_cases": "repro.conformance.generator",
    "shrink": "repro.conformance.generator",
    "Invariant": "repro.conformance.invariants",
    "PointEvidence": "repro.conformance.invariants",
    "ScalingEvidence": "repro.conformance.invariants",
    "SweepEvidence": "repro.conformance.invariants",
    "Violation": "repro.conformance.invariants",
    "get_invariant": "repro.conformance.invariants",
    "invariant_registry": "repro.conformance.invariants",
    "Relation": "repro.conformance.relations",
    "get_relation": "repro.conformance.relations",
    "relation_registry": "repro.conformance.relations",
    "ConformanceReport": "repro.conformance.runner",
    "ConformanceRunner": "repro.conformance.runner",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name]), name)


__all__ = [
    "ConformanceReport",
    "ConformanceRunner",
    "FuzzCase",
    "Invariant",
    "PointEvidence",
    "Relation",
    "ScalingEvidence",
    "SweepEvidence",
    "Violation",
    "generate_cases",
    "get_invariant",
    "get_relation",
    "invariant_registry",
    "relation_registry",
    "shrink",
]
