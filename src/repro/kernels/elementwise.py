"""Element-wise, pooling and softmax kernels.

All of these are bandwidth-bound streaming kernels: a few FLOPs per element,
one or two reads and a write per element.  In nvprof traces they appear under
framework-specific names (``Eigen::internal::EigenMetaKernel`` for
TensorFlow, ``mxnet_generic_kernel`` for MXNet) — the names are injected by
the framework personality, see :mod:`repro.frameworks`.
"""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelCategory, fp32_bytes

_EW_MAX_COMPUTE_EFF = 0.30
_EW_MAX_MEMORY_EFF = 0.85


def elementwise(
    elements: int,
    flops_per_element: float = 1.0,
    reads: int = 1,
    writes: int = 1,
    name: str = "elementwise_kernel",
) -> Kernel:
    """Generic element-wise map over ``elements`` values."""
    if elements <= 0:
        raise ValueError("elementwise kernel needs positive element count")
    if reads < 0 or writes < 0:
        raise ValueError("reads/writes must be non-negative")
    return Kernel(
        name=name,
        category=KernelCategory.ELEMENTWISE,
        flops=flops_per_element * elements,
        bytes_accessed=fp32_bytes((reads + writes) * elements),
        max_compute_efficiency=_EW_MAX_COMPUTE_EFF,
        max_memory_efficiency=_EW_MAX_MEMORY_EFF,
    )


def activation_forward(elements: int, kind: str = "relu") -> Kernel:
    """Forward activation (ReLU/sigmoid/tanh)."""
    flops = {"relu": 1.0, "sigmoid": 4.0, "tanh": 5.0}.get(kind, 2.0)
    return elementwise(
        elements,
        flops_per_element=flops,
        name=f"cudnn::detail::activation_fw_4d_kernel<{kind}>",
    )


def activation_backward(elements: int, kind: str = "relu") -> Kernel:
    """Backward activation: reads activation + incoming grad, writes grad."""
    flops = {"relu": 1.0, "sigmoid": 3.0, "tanh": 3.0}.get(kind, 2.0)
    kernel = elementwise(
        elements,
        flops_per_element=flops,
        reads=2,
        writes=1,
        name=f"cudnn::detail::activation_bw_4d_kernel<{kind}>",
    )
    return kernel


def bias_add(elements: int, name: str = "BiasNHWCKernel") -> Kernel:
    """Broadcast bias addition."""
    return elementwise(elements, flops_per_element=1.0, name=name)


def dropout(elements: int) -> Kernel:
    """Dropout forward (mask generation + multiply)."""
    return elementwise(
        elements, flops_per_element=3.0, reads=1, writes=2, name="dropout_kernel"
    )


def pooling_forward(in_elements: int, out_elements: int, window: int = 9) -> Kernel:
    """Max/average pooling forward."""
    if in_elements <= 0 or out_elements <= 0:
        raise ValueError("pooling needs positive element counts")
    return Kernel(
        name="cudnn::detail::pooling_fw_4d_kernel",
        category=KernelCategory.POOLING,
        flops=float(out_elements) * window,
        bytes_accessed=fp32_bytes(in_elements + out_elements),
        max_compute_efficiency=_EW_MAX_COMPUTE_EFF,
        max_memory_efficiency=_EW_MAX_MEMORY_EFF,
    )


def pooling_backward(in_elements: int, out_elements: int, window: int = 9) -> Kernel:
    """Pooling backward (scatter of gradients through the window argmax)."""
    if in_elements <= 0 or out_elements <= 0:
        raise ValueError("pooling needs positive element counts")
    return Kernel(
        name="cudnn::detail::pooling_bw_4d_kernel",
        category=KernelCategory.POOLING,
        flops=float(out_elements) * window,
        bytes_accessed=fp32_bytes(2 * in_elements + out_elements),
        max_compute_efficiency=_EW_MAX_COMPUTE_EFF,
        max_memory_efficiency=0.6,  # scattered writes
    )


def softmax(rows: int, cols: int) -> Kernel:
    """Row-wise softmax (max, exp, sum, divide — four passes)."""
    if rows <= 0 or cols <= 0:
        raise ValueError("softmax needs positive dims")
    elements = rows * cols
    return Kernel(
        name="softmax_warp_forward",
        category=KernelCategory.ELEMENTWISE,
        flops=5.0 * elements,
        bytes_accessed=fp32_bytes(2.0 * elements),
        max_compute_efficiency=_EW_MAX_COMPUTE_EFF,
        max_memory_efficiency=_EW_MAX_MEMORY_EFF,
    )
