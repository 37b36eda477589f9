"""The conformance harness end to end: laws, fuzzing, shrinking.

``tbd conformance run|list|shrink`` drives the same machinery from the
shell; this example walks it programmatically:

1. list the registered invariants and metamorphic relations;
2. run a reduced harness (two paper panels, a small fuzz budget, one
   scaling probe) and print the violation report;
3. rerun with the same seed against the warm cache and show the JSON
   report is byte-identical — the acceptance property CI relies on;
4. demonstrate the shrinker on a clean configuration.
"""

import os

from repro.conformance import (
    ConformanceRunner,
    invariant_registry,
    relation_registry,
)
from repro.engine import ResultCache
from repro.engine.executor import PointSpec

CACHE_DIR = os.path.join("artifacts", "conformance-cache")

#: A reduced panel set: one CNN across two frameworks, one RNN.
PANELS = (
    ("resnet-50", ("tensorflow", "mxnet")),
    ("nmt", ("tensorflow",)),
)


def main() -> None:
    print("== the registered laws ==")
    for inv in invariant_registry():
        print(f"  [{inv.scope:>7}] {inv.name}")
    for rel in relation_registry():
        print(f"  [relation] {rel.name}")

    print("\n== reduced conformance run (cold cache) ==")
    kwargs = dict(
        seed=7,
        budget=8,
        jobs=2,
        panels=PANELS,
        deep_limit=2,
        scaling_probes=(("resnet-50", "mxnet"),),
    )
    runner = ConformanceRunner(cache=ResultCache(CACHE_DIR), **kwargs)
    report = runner.run()
    print(report.render())

    print("\n== same seed, warm cache: byte-identical report ==")
    rerun = ConformanceRunner(cache=ResultCache(CACHE_DIR), **kwargs).run()
    assert rerun.to_json() == report.to_json()
    print(f"  {len(report.to_json())} bytes, identical across runs")

    print("\n== the shrinker on a clean configuration ==")
    recheck = ConformanceRunner(jobs=1, cache=None, include_grid=False, budget=0)
    spec = PointSpec("a3c", "mxnet", 8, "")
    fires = recheck.violates("roofline-kernel-floor", spec, "p4000")
    print(f"  roofline-kernel-floor on a3c/mxnet b8: violated={fires}")
    print("  (inject a bug — see tests/test_conformance_mutants.py — and the")
    print("   shrinker walks any failure down to exactly this spec)")


if __name__ == "__main__":
    main()
