"""2-D convolution kernels (cuDNN) and their workspace requirements.

All three passes needed by training are modelled: forward, backward-data
(gradients w.r.t. the input feature map) and backward-filter (gradients
w.r.t. the weights).  FLOP counts follow the direct-convolution arithmetic;
the algorithm choice (implicit GEMM vs. Winograd) changes the efficiency
ceiling and the workspace bytes, mirroring cuDNN's auto-tuning behaviour
(paper Section 3.4.2: the auto-tuning warm-up phase picks algorithms and
workspace sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.base import Kernel, KernelCategory, fp32_bytes


@dataclass(frozen=True)
class ConvShape:
    """Geometry of one convolution layer application."""

    batch: int
    in_channels: int
    out_channels: int
    in_h: int
    in_w: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    #: Per-axis padding overrides (asymmetric kernels like Inception's 1x7 /
    #: 7x1 factorized convolutions); ``None`` falls back to ``padding``.
    padding_h: int = None
    padding_w: int = None
    #: Per-axis stride overrides (Deep Speech 2 strides (2, 1) over
    #: frequency/time); ``None`` falls back to ``stride``.
    stride_h: int = None
    stride_w: int = None

    def __post_init__(self) -> None:
        if (
            self.batch <= 0
            or self.in_channels <= 0
            or self.out_channels <= 0
            or self.in_h <= 0
            or self.in_w <= 0
            or self.kernel_h <= 0
            or self.kernel_w <= 0
            or self.stride <= 0
        ):
            raise ValueError(f"invalid convolution shape: {self}")
        if self.out_h <= 0 or self.out_w <= 0:
            raise ValueError(f"convolution produces empty output: {self}")

    @property
    def pad_h(self) -> int:
        return self.padding if self.padding_h is None else self.padding_h

    @property
    def pad_w(self) -> int:
        return self.padding if self.padding_w is None else self.padding_w

    @property
    def str_h(self) -> int:
        return self.stride if self.stride_h is None else self.stride_h

    @property
    def str_w(self) -> int:
        return self.stride if self.stride_w is None else self.stride_w

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.pad_h - self.kernel_h) // self.str_h + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.pad_w - self.kernel_w) // self.str_w + 1

    @property
    def output_elements(self) -> int:
        return self.batch * self.out_channels * self.out_h * self.out_w

    @property
    def input_elements(self) -> int:
        return self.batch * self.in_channels * self.in_h * self.in_w

    @property
    def weight_elements(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w

    @property
    def macs(self) -> float:
        """Multiply-accumulates of the direct algorithm."""
        return (
            float(self.output_elements)
            * self.in_channels
            * self.kernel_h
            * self.kernel_w
        )


def _conv_kernel(shape: ConvShape, name: str, algorithm: str) -> Kernel:
    flops = 2.0 * shape.macs
    traffic = fp32_bytes(
        shape.input_elements + shape.weight_elements + shape.output_elements
    )
    if algorithm == "winograd":
        # Winograd F(2x2, 3x3) cuts multiplies by ~2.25x but its transforms
        # are bandwidth-hungry; net effect is a higher *effective* compute
        # efficiency w.r.t. direct-conv FLOPs.
        compute_eff = 0.95
        memory_eff = 0.70
    elif algorithm == "implicit_gemm":
        compute_eff = 0.75
        memory_eff = 0.80
    elif algorithm == "gemm":
        # Explicit im2col + GEMM: extra traffic for the lowered matrix.
        traffic += fp32_bytes(shape.macs / max(shape.out_channels, 1))
        compute_eff = 0.70
        memory_eff = 0.80
    else:
        raise ValueError(f"unknown convolution algorithm {algorithm!r}")
    return Kernel(
        name=name,
        category=KernelCategory.CONV,
        flops=flops,
        bytes_accessed=traffic,
        max_compute_efficiency=compute_eff,
        max_memory_efficiency=memory_eff,
    )


def _default_algorithm(shape: ConvShape) -> str:
    """Mimic cuDNN auto-tuning: 3x3 stride-1 convs pick Winograd, 1x1 convs
    are plain GEMMs, everything else uses implicit GEMM."""
    if shape.kernel_h == 3 and shape.kernel_w == 3 and shape.str_h == 1 and shape.str_w == 1:
        return "winograd"
    if shape.kernel_h == 1 and shape.kernel_w == 1:
        return "implicit_gemm"
    return "implicit_gemm"


def conv2d_forward(shape: ConvShape, algorithm: str | None = None) -> Kernel:
    """cuDNN forward convolution."""
    algo = algorithm or _default_algorithm(shape)
    name = _FORWARD_NAMES.get(algo)
    if name is None:
        raise ValueError(f"unknown convolution algorithm {algo!r}")
    return _conv_kernel(shape, name, algo)


_FORWARD_NAMES = {
    "winograd": "cudnn::winograd_nonfused::winogradForwardFilter4x4",
    "implicit_gemm": "cudnn::detail::implicit_convolve_sgemm",
    "gemm": "cudnn::detail::explicit_convolve_sgemm",
}


def conv2d_backward_data(shape: ConvShape, algorithm: str | None = None) -> Kernel:
    """cuDNN backward pass w.r.t. the input feature map (dgrad)."""
    algo = algorithm or _default_algorithm(shape)
    name = {
        "winograd": "cudnn::winograd_nonfused::winogradWgradData4x4",
        "implicit_gemm": "cudnn::detail::dgrad_engine",
        "gemm": "cudnn::detail::dgrad_explicit_gemm",
    }[algo]
    return _conv_kernel(shape, name, algo)


def conv2d_backward_filter(shape: ConvShape, algorithm: str | None = None) -> Kernel:
    """cuDNN backward pass w.r.t. the weights (wgrad).

    wgrad reduces over the batch which serialises part of the accumulation;
    its efficiency ceiling is a notch below forward.
    """
    algo = algorithm or _default_algorithm(shape)
    name = {
        "winograd": "cudnn::winograd_nonfused::winogradWgradDelta4x4",
        "implicit_gemm": "cudnn::detail::wgrad_alg0_engine",
        "gemm": "cudnn::detail::wgrad_explicit_gemm",
    }[algo]
    kernel = _conv_kernel(shape, name, algo)
    return Kernel(
        name=kernel.name,
        category=kernel.category,
        flops=kernel.flops,
        bytes_accessed=kernel.bytes_accessed,
        max_compute_efficiency=kernel.max_compute_efficiency * 0.9,
        max_memory_efficiency=kernel.max_memory_efficiency,
    )


def conv_workspace_bytes(shape: ConvShape, algorithm: str | None = None) -> float:
    """Scratch memory cuDNN requests for this layer (the *workspace* class of
    the paper's memory breakdown, Fig. 9).

    Winograd needs transformed-tile buffers proportional to the lowered
    input; explicit GEMM needs the full im2col matrix; implicit GEMM needs a
    small column buffer.
    """
    algo = algorithm or _default_algorithm(shape)
    lowered = shape.macs / max(shape.out_channels, 1)  # im2col elements
    if algo == "winograd":
        return fp32_bytes(lowered * 0.25)
    if algo == "gemm":
        return fp32_bytes(lowered * 0.6)
    return fp32_bytes(lowered * 0.05)
