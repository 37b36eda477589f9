"""The parallel sweep engine end to end: fan out, memoize, prove equality.

``tbd sweep --jobs/--cache-dir`` and ``tbd cache stats|clear`` drive the
same machinery from the shell; this example walks it programmatically:

1. run a reduced Figs. 4-6 grid serially, one ``TrainingSession`` per
   panel with no engine (the reference result);
2. run the same grid through the engine with two worker processes and a
   cold content-addressed cache, then again warm — the warm pass computes
   nothing;
3. show all three agree field-by-field and export byte-identical JSONL;
4. print the cache's ``tbd cache stats`` report.
"""

import os

from repro.core.metrics import IterationMetrics
from repro.core.suite import SweepPoint, standard_suite
from repro.engine import SweepEngine, grid_for, write_grid_jsonl

CACHE_DIR = os.path.join("artifacts", "sweep-cache")

#: A reduced panel set (two image models, one RNN) at small batch sizes.
PANELS = (
    ("resnet-50", ("tensorflow", "mxnet")),
    ("nmt", ("tensorflow",)),
)
BATCHES = (4, 8, 16)


def main() -> None:
    suite = standard_suite()
    grid = grid_for(PANELS, batch_sizes=BATCHES)
    print(f"== parallel sweep engine: {len(grid)} grid points ==")

    print("\n-- serial reference (TrainingSession driven directly, no engine) --")
    sessions = {}
    reference = []
    for spec in grid:
        key = (spec.model, spec.framework)
        if key not in sessions:
            sessions[key] = suite.session(*key)
        session = sessions[key]
        profile = session.run_iteration(spec.batch_size)
        metrics = IterationMetrics.from_profile(profile, session.spec.throughput_unit)
        reference.append(SweepPoint(batch_size=spec.batch_size, metrics=metrics))
    for point in reference[:3]:
        print(f"  {point.metrics.format_row()}")
    print(f"  ... {len(reference)} points")

    print("\n-- cold run: jobs=2, content-addressed cache --")
    cold = SweepEngine(jobs=2, cache=CACHE_DIR)
    cold_points = cold.run_grid(grid)
    stats = cold.stats
    print(f"  computed {stats.points_computed}, hits {stats.cache_hits}")

    print("\n-- warm run: same grid, nothing recomputed --")
    warm = SweepEngine(jobs=2, cache=CACHE_DIR)
    warm_points = warm.run_grid(grid)
    stats = warm.stats
    print(f"  computed {stats.points_computed}, hits {stats.cache_hits}")

    print("\n-- differential check --")
    print(f"  parallel == serial: {cold_points == reference}")
    print(f"  cached   == cold:   {warm_points == cold_points}")

    os.makedirs("artifacts", exist_ok=True)
    cold_path = os.path.join("artifacts", "sweep_cold.jsonl")
    warm_path = os.path.join("artifacts", "sweep_warm.jsonl")
    write_grid_jsonl(cold_path, grid, cold_points)
    write_grid_jsonl(warm_path, grid, warm_points)
    with open(cold_path, "rb") as a, open(warm_path, "rb") as b:
        identical = a.read() == b.read()
    print(f"  exported JSONL byte-identical: {identical}")

    print("\n-- tbd cache stats --")
    print(warm.cache.stats().format_report())


if __name__ == "__main__":
    main()
