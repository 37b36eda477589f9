"""Benchmarks for the beyond-the-paper studies: time-to-accuracy scaling
and the optimization what-ifs, with their shapes asserted."""

from conftest import run_once

from repro.distributed.time_to_accuracy import scaling_study
from repro.plan.pipeline import parse_transform_spec
from repro.plan.transform import deepest_fitting_depth
from repro.training.session import TrainingSession


def test_time_to_accuracy_scaling(benchmark):
    points = run_once(benchmark, scaling_study, "resnet-50", "mxnet", 32)
    print()
    for point in points:
        print(
            f"  {point.configuration:26s} {point.throughput:7.1f} img/s  "
            f"{point.time_to_accuracy_s / 86400:5.2f} days to 95% of final"
        )
    by_label = {p.configuration: p for p in points}
    benchmark.extra_info["speedup_1m4g"] = round(
        by_label["1M1G"].time_to_accuracy_s / by_label["1M4G"].time_to_accuracy_s, 2
    )
    assert by_label["1M4G"].time_to_accuracy_s < by_label["1M1G"].time_to_accuracy_s
    slow = next(p for l, p in by_label.items() if "GbE" in l)
    assert slow.time_to_accuracy_s > by_label["1M1G"].time_to_accuracy_s


def test_fused_rnn_whatif(benchmark):
    session = TrainingSession("nmt", "tensorflow")

    def study():
        return (
            session.run_iteration(128),
            session.run_iteration(128, parse_transform_spec("fused_rnn")),
        )

    baseline, fused = run_once(benchmark, study)
    speedup = fused.throughput / baseline.throughput
    print(
        f"\n  NMT b=128 fused-RNN: {speedup:.2f}x, kernels "
        f"{len(baseline.kernel_timings)} -> {len(fused.kernel_timings)}"
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup > 1.3


def test_offload_whatif(benchmark):
    session = TrainingSession("sockeye", "mxnet")
    offload = parse_transform_spec("offload:0.6")

    def study():
        baseline = session.run_iteration(64)
        offloaded = session.run_iteration(64, offload)
        new_max = session.max_batch_size((64, 128, 256), pipeline=offload)
        return baseline, offloaded, new_max

    baseline, offloaded, new_max = run_once(benchmark, study)
    saved = baseline.memory.peak_total - offloaded.memory.peak_total
    cost = 1.0 - offloaded.throughput / baseline.throughput
    print(
        f"\n  Sockeye offload 60%: frees {saved / 2**30:.1f} GiB for "
        f"{cost * 100:.1f}% throughput; max batch 64 -> {new_max}"
    )
    benchmark.extra_info["new_max_batch"] = new_max
    assert new_max > 64
    assert cost < 0.25


def test_depth_for_batch_tradeoff(benchmark):
    session = TrainingSession("resnet-50", "mxnet")
    batches = (8, 16, 32)
    depths = run_once(
        benchmark,
        lambda: [deepest_fitting_depth(session, batch) for batch in batches],
    )
    print()
    for batch, blocks in zip(batches, depths):
        plan = session.compile_transformed(
            batch, parse_transform_spec(f"depth:{blocks}")
        )
        print(
            f"  b={batch:<4d} deepest fit: {plan.graph.model_name} "
            f"({plan.memory.peak_total / 2**30:.1f} GiB)"
        )
    assert depths == sorted(depths, reverse=True)
    assert depths[-1] >= 23  # >= ResNet-101 at batch 32
