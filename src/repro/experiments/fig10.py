"""Fig. 10: ResNet-50 on MXNet across multi-GPU / multi-machine
configurations (data parallelism, parameter-server exchange)."""

from __future__ import annotations

from repro.core.report import render_series
from repro.distributed import DataParallelTrainer
from repro.distributed.topology import standard_configurations

MODEL = "resnet-50"
FRAMEWORK = "mxnet"
PER_GPU_BATCHES = (8, 16, 32)


def generate() -> dict:
    """Label -> list of DistributedProfile over the per-GPU batch sweep."""
    results = {}
    for label, cluster in standard_configurations().items():
        trainer = DataParallelTrainer(MODEL, FRAMEWORK, cluster)
        results[label] = trainer.sweep(PER_GPU_BATCHES)
    return results


def render(data=None) -> str:
    """Format the Fig. 10 series as aligned text."""
    data = data if data is not None else generate()
    lines = ["Fig. 10: ResNet-50 on MXNet with multiple GPUs/machines"]
    for label, profiles in data.items():
        lines.append(
            render_series(
                label,
                [p.per_gpu_batch for p in profiles],
                [p.throughput for p in profiles],
                x_label="b/gpu",
            )
        )
    return "\n".join(lines)

