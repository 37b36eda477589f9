"""The :class:`Kernel` description record that the roofline model consumes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

_FP32_BYTES = 4


class KernelCategory(enum.Enum):
    """Coarse kernel families, used for trace aggregation and for the memory
    profiler's workspace accounting."""

    GEMM = "gemm"
    CONV = "conv"
    NORM = "norm"
    ELEMENTWISE = "elementwise"
    POOLING = "pooling"
    RNN_POINTWISE = "rnn_pointwise"
    ATTENTION = "attention"
    EMBEDDING = "embedding"
    OPTIMIZER = "optimizer"
    LOSS = "loss"
    MEMCPY = "memcpy"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class Kernel:
    """Analytic description of one GPU kernel launch.

    Attributes:
        name: nvprof-style kernel name (e.g. ``magma_lds128_sgemm_kernel``).
        category: coarse family, see :class:`KernelCategory`.
        flops: single-precision floating point operations performed.
        bytes_accessed: DRAM bytes read plus written.
        max_compute_efficiency: ceiling on the fraction of peak FLOP/s this
            kernel family can reach at infinite size (e.g. ~0.85 for large
            SGEMM, ~0.3 for batch-norm whose FLOPs ride along a
            bandwidth-bound pass).
        max_memory_efficiency: ceiling on achievable fraction of peak DRAM
            bandwidth (stream-like kernels reach ~0.85, scattered access
            patterns less).
    """

    name: str
    category: KernelCategory
    flops: float
    bytes_accessed: float
    max_compute_efficiency: float = 0.80
    max_memory_efficiency: float = 0.80
    #: The framework must observe this kernel's result on the host before it
    #: can issue the next one (``tf.while_loop`` step boundaries, Python-side
    #: recurrence): the CPU dispatch pipeline drains and pays the framework's
    #: sync latency.  This is the serialization that keeps LSTM models from
    #: driving up GPU utilization (paper Observation 5).
    host_sync: bool = False

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"kernel {self.name!r} has negative flops")
        if self.bytes_accessed < 0:
            raise ValueError(f"kernel {self.name!r} has negative byte count")
        if not 0.0 < self.max_compute_efficiency <= 1.0:
            raise ValueError(
                f"kernel {self.name!r}: max_compute_efficiency must be in (0, 1]"
            )
        if not 0.0 < self.max_memory_efficiency <= 1.0:
            raise ValueError(
                f"kernel {self.name!r}: max_memory_efficiency must be in (0, 1]"
            )

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per DRAM byte; the roofline x-axis."""
        if self.bytes_accessed <= 0:
            return float("inf") if self.flops > 0 else 0.0
        return self.flops / self.bytes_accessed

    def scaled(self, factor: float) -> "Kernel":
        """Return a copy with work scaled by ``factor`` (used by data-parallel
        splitting, where each worker runs the same kernel on 1/n the batch)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self, flops=self.flops * factor, bytes_accessed=self.bytes_accessed * factor
        )


def fp32_bytes(elements: float) -> float:
    """DRAM bytes for ``elements`` FP32 values."""
    return elements * _FP32_BYTES


def map_distinct(kernels, memo: dict, function) -> list:
    """``[function(kernel) for kernel in kernels]``, calling ``function``
    once per distinct kernel value.

    Each kernel is looked up by identity first, then in the value-keyed
    ``memo`` (filled here; a caller may keep it across calls): a recurrent
    layer repeats one object per launch, so most lookups skip hashing the
    frozen dataclass.  The identity map lives only for this call, while
    ``kernels`` keeps its ids alive.  Kernels must be hashable (concrete).
    """
    if not isinstance(kernels, (list, tuple)):
        kernels = list(kernels)  # the id map needs every kernel alive
    by_id: dict = {}
    results = []
    for kernel in kernels:
        result = by_id.get(id(kernel))
        if result is None:
            result = memo.get(kernel)
            if result is None:
                result = memo[kernel] = function(kernel)
            by_id[id(kernel)] = result
        results.append(result)
    return results
