"""Roofline kernel-timing model.

Every GPU kernel is characterised by its FLOP count, its DRAM traffic and an
*efficiency profile* (how close it gets to peak compute / peak bandwidth as a
function of how much work it carries).  The execution time of a kernel on a
device is then

    t = max(flops / (peak_flops * eff_c), bytes / (peak_bw * eff_m))
        + launch_latency

which is the standard roofline model plus a fixed launch cost.  This model is
deliberately simple: the paper's phenomena — batch-size scaling, launch-bound
RNNs, memory-bound batch-normalization kernels, Titan Xp under-utilization —
are all first-order consequences of exactly these terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.devices import GPUSpec
from repro.kernels.base import Kernel, map_distinct


@dataclass(frozen=True)
class KernelTiming:
    """Resolved timing of one kernel launch on a specific device."""

    kernel: Kernel
    duration_s: float
    compute_time_s: float
    memory_time_s: float
    launch_latency_s: float

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_time_s >= self.compute_time_s

    @property
    def fp32_utilization(self) -> float:
        """Fraction of the device's peak FLOP/s this kernel achieved while
        running (paper Eq. 2, applied per-kernel)."""
        if self.duration_s <= 0.0:
            return 0.0
        achieved = self.kernel.flops / self.duration_s
        return achieved / self._peak_flops

    # Stored at construction so the property needs no device handle.
    _peak_flops: float = 0.0


class RooflineModel:
    """Maps :class:`~repro.kernels.base.Kernel` descriptions to execution
    times on a :class:`~repro.hardware.devices.GPUSpec`.

    The occupancy model: a kernel pays a fixed *ramp* before its blocks fill
    every SM and the roofline rate is reached,

        t = max(flops / (peak_flops * eff_c), bytes / (peak_bw * eff_m))
            + ramp + launch_latency

    The ramp scales with the device's parallel width relative to the P4000
    baseline: a wider, faster GPU (Titan Xp) needs more wavefronts in flight
    before it saturates, so the same kernel stream utilizes it *less* — the
    mechanism behind the paper's Observation 10.  The additive form keeps
    execution time strictly monotone in work (a kernel with more FLOPs and
    traffic is never faster), which the multiplicative "efficiency ramps"
    commonly used for this are not.
    """

    #: Occupancy ramp of the P4000 (seconds); wider devices scale it up.
    _BASE_OCCUPANCY_RAMP_S = 10e-6
    _BASE_PEAK_FLOPS = 1792 * 1480.0e6 * 2.0  # the P4000 reference width

    def __init__(self, device: GPUSpec):
        self.device = device
        self._ramp_s = self._BASE_OCCUPANCY_RAMP_S * (
            device.peak_fp32_flops / self._BASE_PEAK_FLOPS
        ) ** 0.5
        #: :meth:`time_kernels` memo, keyed by kernel value (kernels are
        #: frozen, and a recurrent model repeats each timestep's kernels).
        self._timings: dict = {}

    def time_kernel(self, kernel: Kernel) -> KernelTiming:
        """Resolve one kernel's execution time on this device."""
        eff_c = kernel.max_compute_efficiency
        eff_m = kernel.max_memory_efficiency

        if kernel.flops > 0 and eff_c > 0:
            t_compute = kernel.flops / (self.device.peak_fp32_flops * eff_c)
        else:
            t_compute = 0.0
        if kernel.bytes_accessed > 0 and eff_m > 0:
            t_memory = kernel.bytes_accessed / (
                self.device.memory_bandwidth_bytes * eff_m
            )
        else:
            t_memory = 0.0

        launch = self.device.kernel_launch_latency_s
        duration = max(t_compute, t_memory) + self._ramp_s + launch
        return KernelTiming(
            kernel=kernel,
            duration_s=duration,
            compute_time_s=t_compute,
            memory_time_s=t_memory,
            launch_latency_s=launch,
            _peak_flops=self.device.peak_fp32_flops,
        )

    def time_kernels(self, kernels) -> list:
        """Time a sequence of kernels, each distinct kernel value once per
        model instance (:func:`~repro.kernels.base.map_distinct` over the
        ``_timings`` memo): equal kernels get the same
        :class:`KernelTiming`.  Kernels must be hashable."""
        return map_distinct(kernels, self._timings, self.time_kernel)

    def arithmetic_intensity_breakeven(self) -> float:
        """FLOP/byte ratio above which kernels are compute bound on this
        device (at max efficiency); useful for analysis and tests."""
        return self.device.peak_fp32_flops / self.device.memory_bandwidth_bytes


def speed_of_light_time(kernel: Kernel, device: GPUSpec) -> float:
    """Lower bound on a kernel's time assuming perfect efficiency and zero
    launch cost.  The conformance invariants use it as the floor no timed
    kernel may beat (paper Section 3.4.3, FP32-utilization discussion)."""
    t_c = kernel.flops / device.peak_fp32_flops if kernel.flops else 0.0
    t_m = (
        kernel.bytes_accessed / device.memory_bandwidth_bytes
        if kernel.bytes_accessed
        else 0.0
    )
    return max(t_c, t_m)
