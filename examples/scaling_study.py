"""Beyond Fig. 10: time-to-accuracy, not just throughput.

The paper measures distributed *throughput*; practitioners optimize
*time-to-accuracy*, which also depends on statistical efficiency — large
global batches need learning-rate scaling (Goyal et al., cited as [43])
and, past the critical batch size, more samples.  This example runs the
combined study over the Fig. 10 configurations and then pushes past them
to show where throughput scaling and time-to-accuracy scaling part ways.
"""

from repro.distributed.time_to_accuracy import (
    adjusted_samples_needed,
    scaling_study,
)


def main() -> None:
    print("time-to-accuracy across the Fig. 10 configurations")
    print("(ResNet-50/MXNet, per-GPU batch 32, target: 95% of final top-1)\n")
    study = scaling_study("resnet-50", "mxnet", per_gpu_batch=32)
    baseline = next(p for p in study if p.configuration == "1M1G")
    for point in study:
        days = point.time_to_accuracy_s / 86400.0
        print(
            f"  {point.configuration:26s} global batch {point.global_batch:<5d} "
            f"lr {point.learning_rate:5.2f}  {point.throughput:7.1f} img/s  "
            f"-> {days:5.2f} days "
            f"({baseline.time_to_accuracy_s / point.time_to_accuracy_s:4.2f}x)"
        )
    print()

    print("where statistical efficiency bites (hypothetical larger clusters):")
    base_needed = adjusted_samples_needed("resnet-50", 32, 32)
    for workers in (4, 16, 64, 256, 1024):
        global_batch = 32 * workers
        needed = adjusted_samples_needed("resnet-50", global_batch, 32)
        penalty = needed / base_needed
        ideal_speedup = workers / penalty
        print(
            f"  {workers:5d} GPUs: global batch {global_batch:6d}, "
            f"{penalty:5.2f}x more samples needed, best-case speedup "
            f"{ideal_speedup:7.1f}x (vs {workers}x hardware)"
        )


if __name__ == "__main__":
    main()
