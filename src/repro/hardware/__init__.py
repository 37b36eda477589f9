"""Simulated hardware substrate: devices, roofline timing, memory,
interconnects, and cluster topologies.

The paper evaluates on a 16-machine cluster of 28-core Xeon E5-2680 hosts
with 1-4 NVidia Quadro P4000 GPUs each (plus a Titan Xp sensitivity study),
connected by Ethernet and 100 Gb/s InfiniBand.  This package models those
components at the granularity the paper's metrics need: per-kernel execution
time, GPU memory capacity, and link bandwidth/latency.
"""

from repro.hardware.devices import (
    CPUSpec,
    GPUSpec,
    GTX_580,
    QUADRO_P4000,
    TITAN_XP,
    XEON_E5_2680,
    get_gpu,
    gpu_catalog,
)
from repro.hardware.interconnect import (
    ETHERNET_10G,
    ETHERNET_1G,
    INFINIBAND_100G,
    NVLINK_1,
    PCIE_3_X16,
    Interconnect,
    get_interconnect,
)
from repro.hardware.memory import AllocationTag, GPUMemoryAllocator, OutOfMemoryError
from repro.hardware.roofline import KernelTiming, RooflineModel
from repro.hardware.cluster import ClusterSpec, MachineSpec

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "QUADRO_P4000",
    "TITAN_XP",
    "GTX_580",
    "XEON_E5_2680",
    "gpu_catalog",
    "get_gpu",
    "Interconnect",
    "PCIE_3_X16",
    "ETHERNET_1G",
    "ETHERNET_10G",
    "INFINIBAND_100G",
    "NVLINK_1",
    "get_interconnect",
    "GPUMemoryAllocator",
    "AllocationTag",
    "OutOfMemoryError",
    "RooflineModel",
    "KernelTiming",
    "ClusterSpec",
    "MachineSpec",
]
