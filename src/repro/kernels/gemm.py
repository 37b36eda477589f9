"""Dense matrix-multiplication kernels (cuBLAS / MAGMA sgemm)."""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelCategory, fp32_bytes

#: Large well-tiled SGEMM reaches ~85% of peak on Pascal-class parts.
_GEMM_MAX_COMPUTE_EFF = 0.85
_GEMM_MAX_MEMORY_EFF = 0.85
#: min(m, n) at which the tiling reaches half its peak efficiency.  SGEMM
#: tiles are ~128x64; a GEMM whose output matrix is narrower than a tile
#: leaves most of each SM's threads idle — the mechanism behind the low
#: FP32 utilization of per-timestep RNN GEMMs (paper Observation 7).
#: Read when a graph is built: whoever patches it clears
#: :func:`repro.models.registry.shared_graph`.
_TILE_HALF_DIM = 192


def _shape_efficiency(m: int, n: int) -> float:
    """Fraction of the efficiency ceiling reachable for this output shape."""
    narrow = min(m, n)
    return narrow / (narrow + _TILE_HALF_DIM)


def gemm(m: int, n: int, k: int, name: str = "magma_lds128_sgemm_kernel") -> Kernel:
    """C[m,n] = A[m,k] @ B[k,n].

    FLOPs: 2*m*n*k.  DRAM traffic assumes each operand is streamed once
    (cache-blocked implementation): A + B read, C written.
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ValueError(f"gemm dims must be positive, got m={m} n={n} k={k}")
    flops = 2.0 * m * n * k
    traffic = fp32_bytes(m * k + k * n + m * n)
    return Kernel(
        name=name,
        category=KernelCategory.GEMM,
        flops=flops,
        bytes_accessed=traffic,
        max_compute_efficiency=_GEMM_MAX_COMPUTE_EFF * _shape_efficiency(m, n),
        max_memory_efficiency=_GEMM_MAX_MEMORY_EFF,
    )


def batched_gemm(
    batch: int, m: int, n: int, k: int, name: str = "cublas_sgemm_batched"
) -> Kernel:
    """``batch`` independent GEMMs fused into one launch (used by attention
    and by cuDNN's fused RNN implementations)."""
    if batch <= 0:
        raise ValueError("batch must be positive")
    base = gemm(m, n, k, name=name)
    return base.scaled(batch)
