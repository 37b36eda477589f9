"""From diagnosis to fix: the advisor plus the optimization what-ifs.

For each of three representative workloads this example (1) runs the full
analysis pipeline, (2) prints the advisor's ranked recommendations, and
(3) *quantifies* the recommended fixes with the plan transforms (the same
ones ``tbd sweep --transforms`` and ``tbd tune`` apply):

- NMT: fuse RNN cells (``fused_rnn``);
- Sockeye: offload feature maps to stretch the batch axis
  (``offload:<fraction>``) and store maps in FP16 (``fp16``);
- ResNet-50: reinvest freed memory in depth (``depth:<conv4 blocks>``).
"""

from repro.core.analysis import AnalysisPipeline
from repro.core.recommendations import advise
from repro.plan.pipeline import parse_transform_spec
from repro.plan.transform import deepest_fitting_depth
from repro.training.session import TrainingSession


def diagnose(model: str, framework: str, batch: int):
    report = AnalysisPipeline(model, framework).run(batch)
    print(f"--- {model} on {framework}, batch {batch} ---")
    print(
        f"throughput {report.metrics.throughput:.0f} "
        f"{report.metrics.throughput_unit}, GPU util "
        f"{report.metrics.gpu_utilization * 100:.0f}%, feature maps "
        f"{report.memory.feature_map_fraction * 100:.0f}% of "
        f"{report.memory.total_gib:.1f} GiB"
    )
    for recommendation in advise(report):
        print(f"  {recommendation}")
    print()
    return report


def main() -> None:
    # 1. NMT: the advisor says "fuse RNN cells"; how much does it buy?
    diagnose("nmt", "tensorflow", 128)
    session = TrainingSession("nmt", "tensorflow")
    baseline = session.run_iteration(128)
    fused = session.run_iteration(128, parse_transform_spec("fused_rnn"))
    print(
        f"=> applying the fused-RNN rewrite: {baseline.throughput:.0f} "
        f"-> {fused.throughput:.0f} sentences/s "
        f"({fused.throughput / baseline.throughput:.2f}x), "
        f"{len(baseline.kernel_timings)} -> {len(fused.kernel_timings)} kernels, "
        f"GPU util {baseline.gpu_utilization * 100:.0f}% -> "
        f"{fused.gpu_utilization * 100:.0f}%\n"
    )

    # 2. Sockeye: memory-bound at batch 64; stretch the axis two ways.
    diagnose("sockeye", "mxnet", 64)
    session = TrainingSession("sockeye", "mxnet")
    fp32 = session.compile(64)
    candidates = (64, 128, 256)
    offload = parse_transform_spec("offload:0.6")
    offloaded = session.compile_transformed(64, offload)
    cost = 1.0 - (
        session.run_iteration(64, offload).throughput
        / session.run_iteration(64).throughput
    )
    print(
        f"=> offloading 60% of feature maps: footprint "
        f"{fp32.memory.peak_total / 2**30:.1f} -> "
        f"{offloaded.memory.peak_total / 2**30:.1f} GiB for {cost * 100:.1f}% "
        f"throughput; max batch 64 -> "
        f"{session.max_batch_size(candidates, pipeline=offload)}"
    )
    fp16 = parse_transform_spec("fp16")
    halved = session.compile_transformed(64, fp16)
    print(
        f"=> FP16 map storage: footprint "
        f"{fp32.memory.peak_total / 2**30:.1f} -> "
        f"{halved.memory.peak_total / 2**30:.1f} GiB; max batch "
        f"64 -> {session.max_batch_size(candidates, pipeline=fp16)}\n"
    )

    # 3. ResNet-50: throughput saturates at batch 32; spend memory on depth.
    diagnose("resnet-50", "mxnet", 32)
    print("=> Obs. 12 reinvestment: deepest residual net that fits per batch")
    session = TrainingSession("resnet-50", "mxnet")
    for batch in (8, 16, 32, 64):
        depth = parse_transform_spec(f"depth:{deepest_fitting_depth(session, batch)}")
        plan = session.compile_transformed(batch, depth)
        profile = session.run_iteration(batch, depth)
        print(
            f"   b={batch:<4d} {plan.graph.model_name:12s} "
            f"({plan.memory.peak_total / 2**30:.1f} GiB, "
            f"{profile.throughput:.0f} img/s)"
        )


if __name__ == "__main__":
    main()
