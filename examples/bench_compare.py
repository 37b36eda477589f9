"""Statistical differential benchmarking end to end.

``tbd compare nmt tensorflow fused-rnn -b 64 --seed 7`` drives the same
machinery from the shell; this example walks it programmatically:

1. measure the fused-RNN transform against baseline with the interleaved
   A/B runner under a seeded noise model and read the verdict;
2. show the runner's two controls — a no-op A/B stays indistinguishable,
   a deterministic 5% kernel-time slowdown is caught with p < alpha.
"""

from repro.bench import InterleavedRunner, NoiseModel, subject_for

SEED = 7


def main() -> None:
    runner = InterleavedRunner(noise=NoiseModel(seed=SEED))

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

    print("\n== the runner's controls ==")
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

    print("\nbench compare done.")


if __name__ == "__main__":
    main()
