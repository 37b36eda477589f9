"""The :class:`Framework` personality record and its execution hooks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.kernels.base import Kernel, KernelCategory, map_distinct


class MomentumAllocation(enum.Enum):
    """When a framework allocates optimizer state.

    The paper's memory profiler observes that MXNet allocates momentum
    buffers *during* training iterations (classified as "dynamic"), whereas
    TensorFlow and CNTK allocate them statically before training starts.
    """

    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class Framework:
    """One deep-learning framework's execution personality.

    Attributes:
        name: display name (``TensorFlow``…); ``version`` is the paper's.
        dispatch_cost_s: CPU time to issue one GPU kernel (session runtime,
            op scheduling, cuLaunchKernel).  This is the knob that makes
            small-kernel workloads (RNNs, small batches) framework-bound.
        frontend_cost_s: fixed per-iteration CPU time (feed/fetch, Python
            frontend, graph bookkeeping).
        pool_overhead: memory-allocator slack factor; requests are charged
            ``bytes * pool_overhead`` against GPU capacity.
        workspace_factor: scales cuDNN workspace requests (greedy
            auto-tuning asks for bigger, faster algorithms' scratch).
        momentum_allocation: see :class:`MomentumAllocation`.
        kernel_efficiency: per-:class:`KernelCategory` multipliers applied to
            kernels' efficiency ceilings — encodes library/kernel selection
            quality differences between frameworks.
        elementwise_kernel_name: the name this framework's generated
            elementwise kernels carry in traces (Tables 5/6 show
            ``Eigen::internal::EigenMetaKernel`` for TensorFlow vs.
            ``mxnet_op::mxnet_generic_kernel`` for MXNet).
        data_pipeline_efficiency: fraction of input-pipeline work the
            framework successfully overlaps with GPU compute.
    """

    name: str
    version: str
    dispatch_cost_s: float
    frontend_cost_s: float
    pool_overhead: float
    workspace_factor: float
    momentum_allocation: MomentumAllocation
    kernel_efficiency: dict = field(default_factory=dict)
    elementwise_kernel_name: str = "elementwise_kernel"
    data_pipeline_efficiency: float = 0.9
    #: Multiplier on the dataset's per-sample decode cost: how much CPU this
    #: framework's input pipeline burns relative to a plain decoder.  CNTK's
    #: pre-packed readers spend almost nothing (the paper measures 0.05-0.08%
    #: CPU utilization for CNTK image models).
    pipeline_cost_factor: float = 1.0
    #: CPU time to observe a kernel result and re-enter the issue loop at a
    #: ``host_sync`` boundary (control-flow ops of a ``tf.while_loop`` step,
    #: Python-side recurrence in imperative frameworks).
    sync_latency_s: float = 200e-6

    def __post_init__(self) -> None:
        if self.dispatch_cost_s <= 0 or self.frontend_cost_s < 0:
            raise ValueError(f"{self.name}: bad CPU cost parameters")
        if self.pool_overhead < 1.0:
            raise ValueError(f"{self.name}: pool_overhead must be >= 1.0")
        if self.workspace_factor <= 0:
            raise ValueError(f"{self.name}: workspace_factor must be positive")
        if not 0.0 < self.data_pipeline_efficiency <= 1.0:
            raise ValueError(f"{self.name}: pipeline efficiency must be in (0, 1]")
        if self.pipeline_cost_factor < 0:
            raise ValueError(f"{self.name}: pipeline_cost_factor cannot be negative")

    @property
    def key(self) -> str:
        """Canonical lowercase lookup key."""
        return self.name.lower()

    def specialize_kernel(self, kernel: Kernel) -> Kernel:
        """Apply this framework's library/kernel selection to one kernel:
        rename generated elementwise kernels and scale efficiency ceilings."""
        factor = self.kernel_efficiency.get(kernel.category, 1.0)
        name = kernel.name
        if kernel.category == KernelCategory.ELEMENTWISE and name.startswith(
            ("elementwise", "residual", "bias", "dropout")
        ):
            name = f"{self.elementwise_kernel_name}<{kernel.name}>"
        if factor == 1.0 and name == kernel.name:
            return kernel
        return replace(
            kernel,
            name=name,
            max_compute_efficiency=min(1.0, kernel.max_compute_efficiency * factor),
            max_memory_efficiency=min(1.0, kernel.max_memory_efficiency * factor),
        )

    def specialize_kernels(self, kernels) -> list:
        """:meth:`specialize_kernel` over a kernel stream, once per
        distinct kernel value in the stream (the per-timestep kernels of a
        recurrent layer repeat; :func:`~repro.kernels.base.map_distinct`
        with a per-call memo).  Kernels must be hashable."""
        return map_distinct(kernels, {}, self.specialize_kernel)
