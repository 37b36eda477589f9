"""Time-to-accuracy under data-parallel scaling.

The paper's throughput-centric Fig. 10 deliberately brackets statistical
efficiency, citing Goyal et al. [43] and You et al. [101] for the
observation that scaling the global mini-batch requires learning-rate
adjustments and, past a point, *more samples* to reach the same accuracy.
This module closes that loop: it combines

- **hardware efficiency** — aggregate throughput from
  :class:`~repro.distributed.data_parallel.DataParallelTrainer`, and
- **statistical efficiency** — the critical-batch-size model
  ``samples_needed(B) = N0 * (1 + B / B_crit)`` (McCandlish et al.'s
  gradient-noise-scale form, which matches the [43]/[101] regimes: free
  scaling below ``B_crit``, diminishing returns above),

into wall-clock time-to-accuracy per cluster configuration — the quantity
a practitioner actually optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.data_parallel import DataParallelTrainer
from repro.hardware.cluster import ClusterSpec
from repro.training.convergence import FIG2_MODELS
from repro.training.hyperparams import defaults_for

#: Critical global batch sizes (samples) per model family: beyond this,
#: extra batch buys little statistical progress.  ResNet-class ImageNet
#: training tolerates ~8k (Goyal et al. trained at 8192 with warmup).
CRITICAL_BATCH = {
    "resnet-50": 8192.0,
    "inception-v3": 8192.0,
    "nmt": 4096.0,
    "sockeye": 4096.0,
    "transformer": 60000.0,  # tokens
}


@dataclass(frozen=True)
class ScalingPoint:
    """One (configuration, per-GPU batch) point of the scaling study."""

    configuration: str
    worker_count: int
    per_gpu_batch: int
    global_batch: int
    throughput: float
    learning_rate: float
    samples_needed: float
    time_to_accuracy_s: float


def samples_to_accuracy(model_key: str, target_fraction: float = 0.95) -> float:
    """Samples a single worker needs to reach ``target_fraction`` of the
    model's asymptotic metric: the calibrated curve's closed-form inverse."""
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target fraction must be in (0, 1)")
    model = FIG2_MODELS[model_key]
    target = model.initial + target_fraction * (model.final - model.initial)
    return model.samples_to(target)


def batch_penalty(model_key: str, global_batch: float, base_batch: float) -> float:
    """The critical-batch sample inflation at ``global_batch``, normalized
    so the single-GPU ``base_batch`` costs exactly 1."""
    critical = CRITICAL_BATCH.get(model_key, 8192.0)
    return (1.0 + global_batch / critical) / (1.0 + base_batch / critical)


def adjusted_samples_needed(
    model_key: str, global_batch: int, base_batch: int, target_fraction: float = 0.95
) -> float:
    """Samples needed at ``global_batch``, via the critical-batch model
    (normalized so the single-GPU ``base_batch`` is the baseline)."""
    if global_batch <= 0 or base_batch <= 0:
        raise ValueError("batch sizes must be positive")
    base = samples_to_accuracy(model_key, target_fraction)
    return base * batch_penalty(model_key, global_batch, base_batch)


def linear_scaled_learning_rate(model_key: str, global_batch: int, base_batch: int) -> float:
    """Goyal et al.'s linear-scaling rule: LR grows with the global batch."""
    base = defaults_for(model_key).learning_rate
    return base * (global_batch / base_batch)


def scaling_point(
    model_key: str, framework: str, cluster: ClusterSpec, per_gpu_batch: int
) -> ScalingPoint:
    """Evaluate one configuration's time-to-accuracy, normalized so one
    GPU at ``per_gpu_batch`` is the statistical baseline."""
    trainer = DataParallelTrainer(model_key, framework, cluster)
    profile = trainer.run_iteration(per_gpu_batch)
    global_batch = per_gpu_batch * profile.worker_count
    samples = adjusted_samples_needed(model_key, global_batch, per_gpu_batch)
    return ScalingPoint(
        configuration=cluster.name,
        worker_count=profile.worker_count,
        per_gpu_batch=per_gpu_batch,
        global_batch=global_batch,
        throughput=profile.throughput,
        learning_rate=linear_scaled_learning_rate(
            model_key, global_batch, per_gpu_batch
        ),
        samples_needed=samples,
        time_to_accuracy_s=samples / profile.throughput,
    )


def scaling_study(
    model_key: str = "resnet-50", framework: str = "mxnet", per_gpu_batch: int = 32
) -> list:
    """Time-to-accuracy across the Fig. 10 configurations."""
    from repro.distributed.topology import standard_configurations

    return [
        scaling_point(model_key, framework, cluster, per_gpu_batch)
        for cluster in standard_configurations().values()
    ]
