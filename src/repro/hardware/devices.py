"""Device specifications (the paper's Table 4) and a device catalog.

Peak single-precision throughput is derived the standard way for NVidia
parts: ``cores x boost clock x 2`` (one fused multiply-add per core per
cycle counts as two FLOPs).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU.

    Field values for the built-in devices are taken verbatim from Table 4 of
    the paper; derived quantities (peak FLOP/s) follow from them.
    """

    name: str
    multiprocessors: int
    core_count: int
    max_clock_mhz: float
    memory_gb: float
    llc_mb: float
    memory_bus: str
    memory_bandwidth_gbs: float
    bus_interface: str
    memory_speed_mhz: float
    #: Fixed device-side cost of starting one kernel, seconds.  ~5 us is the
    #: commonly measured CUDA launch latency of this hardware generation.
    kernel_launch_latency_s: float = 5e-6

    @property
    def peak_fp32_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s (cores x clock x 2 FLOP/cycle)."""
        return self.core_count * self.max_clock_mhz * 1e6 * 2.0

    @property
    def memory_bytes(self) -> int:
        """Usable device memory in bytes."""
        return int(self.memory_gb * 1024**3)

    @property
    def memory_bandwidth_bytes(self) -> float:
        """Peak memory bandwidth in bytes/s."""
        return self.memory_bandwidth_gbs * 1e9

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.core_count} cores @ {self.max_clock_mhz} MHz, "
            f"{self.memory_gb} GB {self.memory_bus}, "
            f"{self.memory_bandwidth_gbs} GB/s"
        )


@dataclass(frozen=True)
class CPUSpec:
    """Static description of a host CPU (Table 4, rightmost column)."""

    name: str
    core_count: int
    max_clock_mhz: float
    memory_gb: float
    llc_mb: float
    memory_bus: str
    memory_bandwidth_gbs: float
    memory_speed_mhz: float
    #: Sustained FLOP/s per core for the numpy/Eigen/MKL style code the
    #: framework frontend runs (not the theoretical AVX peak).
    flops_per_core: float = 2.0e10

    @property
    def peak_flops(self) -> float:
        return self.core_count * self.flops_per_core


#: NVidia Quadro P4000 — the paper's primary evaluation GPU (Table 4).
QUADRO_P4000 = GPUSpec(
    name="Quadro P4000",
    multiprocessors=14,
    core_count=1792,
    max_clock_mhz=1480.0,
    memory_gb=8.0,
    llc_mb=2.0,
    memory_bus="GDDR5",
    memory_bandwidth_gbs=243.0,
    bus_interface="PCIe 3.0",
    memory_speed_mhz=3802.0,
)

#: NVidia Titan Xp — the paper's hardware-sensitivity GPU (Table 4).
TITAN_XP = GPUSpec(
    name="TITAN Xp",
    multiprocessors=30,
    core_count=3840,
    max_clock_mhz=1582.0,
    memory_gb=12.0,
    llc_mb=3.0,
    memory_bus="GDDR5X",
    memory_bandwidth_gbs=547.6,
    bus_interface="PCIe 3.0",
    memory_speed_mhz=5705.0,
)

#: NVidia GTX 580 — the GPU that trained AlexNet in 2012 (Section 2.2);
#: included for the historical single-GPU comparison example.
GTX_580 = GPUSpec(
    name="GeForce GTX 580",
    multiprocessors=16,
    core_count=512,
    max_clock_mhz=1544.0,
    memory_gb=1.5,
    llc_mb=0.75,
    memory_bus="GDDR5",
    memory_bandwidth_gbs=192.4,
    bus_interface="PCIe 2.0",
    memory_speed_mhz=4008.0,
    kernel_launch_latency_s=8e-6,
)

#: Intel Xeon E5-2680 (28 cores across both sockets) — the paper's host CPU.
XEON_E5_2680 = CPUSpec(
    name="Intel Xeon E5-2680",
    core_count=28,
    max_clock_mhz=2900.0,
    memory_gb=128.0,
    llc_mb=35.0,
    memory_bus="DDR4",
    memory_bandwidth_gbs=76.8,
    memory_speed_mhz=2400.0,
)

_GPU_CATALOG = {
    "p4000": QUADRO_P4000,
    "quadro p4000": QUADRO_P4000,
    "titan xp": TITAN_XP,
    "titanxp": TITAN_XP,
    "gtx 580": GTX_580,
    "gtx580": GTX_580,
}


def gpu_catalog() -> dict:
    """Return the known GPUs keyed by canonical name."""
    return {spec.name: spec for spec in (QUADRO_P4000, TITAN_XP, GTX_580)}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU by (case-insensitive) name.

    Raises:
        KeyError: if the name does not match any catalog entry.
    """
    key = name.strip().lower()
    if key not in _GPU_CATALOG:
        known = ", ".join(sorted(set(s.name for s in _GPU_CATALOG.values())))
        raise KeyError(f"unknown GPU {name!r}; known devices: {known}")
    return _GPU_CATALOG[key]
