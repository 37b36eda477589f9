"""Statistical differential benchmarking end to end.

``tbd bench run|compare|history|gate`` drives the same machinery from the
shell; this example walks it programmatically:

1. measure the fused-RNN transform against baseline with the interleaved
   A/B runner under a seeded noise model and read the verdict;
2. show the gate's two controls — a no-op A/B stays indistinguishable, a
   deterministic 5% kernel-time slowdown is caught with p < alpha;
3. record a suite run into a ``BENCH_<suite>.json`` trajectory, rerun at
   the same seed, and show the file is byte-identical — the acceptance
   property CI relies on.
"""

import os

from repro.bench import (
    BenchStore,
    InterleavedRunner,
    NoiseModel,
    evaluate_gate,
    get_suite,
    run_suite,
    subject_for,
)
from repro.bench.store import build_record

TRAJECTORY_DIR = os.path.join("artifacts", "bench-trajectory")
SEED = 7


def main() -> None:
    noise = NoiseModel(seed=SEED)
    runner = InterleavedRunner(noise=noise)

    print("== fused-RNN transform vs baseline (nmt/tensorflow b=64) ==")
    baseline = subject_for("baseline", "nmt", "tensorflow", 64)
    fused = subject_for("fused-rnn", "nmt", "tensorflow", 64)
    result = runner.run(baseline, fused)
    print(f"  {result.format_row()}")
    print(
        f"  medians {result.median_baseline_s * 1e3:.2f} -> "
        f"{result.median_treatment_s * 1e3:.2f} ms across "
        f"{result.samples_per_side} samples/side"
    )
    assert result.verdict == "improvement"

    print("\n== the gate's controls ==")
    noop = runner.run(
        subject_for("baseline", "nmt", "tensorflow", 64),
        subject_for("baseline", "nmt", "tensorflow", 64),
        name="noop-control",
    )
    print(f"  {noop.format_row()}")
    assert noop.verdict == "indistinguishable"

    slow = runner.run(
        subject_for("baseline", "nmt", "tensorflow", 64),
        subject_for("slowdown:5", "nmt", "tensorflow", 64),
        name="slowdown-control",
    )
    print(f"  {slow.format_row()}")
    assert slow.verdict == "regression" and slow.p_regression < 0.05

    print("\n== trajectory: suite run -> BENCH_*.json, byte-identical rerun ==")
    suite = get_suite("noop")
    store = BenchStore(TRAJECTORY_DIR)

    def record_once() -> bytes:
        results = run_suite(suite, runner, samples=30)
        gate = evaluate_gate(suite, results)
        store.append(
            suite.name,
            build_record(suite.name, SEED, noise.to_doc(), results, gate.to_doc()),
        )
        assert gate.passed
        with open(store.path(suite.name), "rb") as handle:
            return handle.read()

    first = record_once()
    second = record_once()
    assert first == second
    print(
        f"  {store.path(suite.name)}: {len(first)} bytes, "
        "identical across same-seed runs"
    )
    print("\nbench compare done.")


if __name__ == "__main__":
    main()
