"""Embedding, optimizer, loss, and host/device transfer kernels."""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelCategory, fp32_bytes


def embedding_lookup(tokens: int, embed_dim: int, backward: bool = False) -> Kernel:
    """Gather rows of an embedding table (forward) or scatter-add gradients
    into it (backward).  Gather/scatter access patterns cap bandwidth."""
    if tokens <= 0 or embed_dim <= 0:
        raise ValueError("embedding lookup needs positive dims")
    elements = tokens * embed_dim
    direction = "bw" if backward else "fw"
    return Kernel(
        name=f"embedding_{direction}_kernel",
        category=KernelCategory.EMBEDDING,
        flops=1.0 * elements if backward else 0.0,
        bytes_accessed=fp32_bytes(2.0 * elements),
        max_compute_efficiency=0.2,
        max_memory_efficiency=0.45,
    )


def sgd_update(parameters: int, momentum: bool = True) -> Kernel:
    """SGD (+momentum) weight update: read weight, grad (and velocity),
    write weight (and velocity)."""
    if parameters <= 0:
        raise ValueError("sgd update needs positive parameter count")
    passes = 5.0 if momentum else 3.0
    flops = (4.0 if momentum else 2.0) * parameters
    return Kernel(
        name="sgd_momentum_update_kernel" if momentum else "sgd_update_kernel",
        category=KernelCategory.OPTIMIZER,
        flops=flops,
        bytes_accessed=fp32_bytes(passes * parameters),
        max_compute_efficiency=0.25,
        max_memory_efficiency=0.85,
    )


def adam_update(parameters: int) -> Kernel:
    """Adam update: weight, grad, first and second moments in and out."""
    if parameters <= 0:
        raise ValueError("adam update needs positive parameter count")
    return Kernel(
        name="adam_update_kernel",
        category=KernelCategory.OPTIMIZER,
        flops=12.0 * parameters,
        bytes_accessed=fp32_bytes(7.0 * parameters),
        max_compute_efficiency=0.30,
        max_memory_efficiency=0.85,
    )


def cross_entropy_loss(batch: int, classes: int, backward: bool = False) -> Kernel:
    """Softmax cross-entropy over the output layer."""
    if batch <= 0 or classes <= 0:
        raise ValueError("loss needs positive dims")
    elements = batch * classes
    direction = "bw" if backward else "fw"
    return Kernel(
        name=f"softmax_cross_entropy_{direction}",
        category=KernelCategory.LOSS,
        flops=6.0 * elements,
        bytes_accessed=fp32_bytes(2.0 * elements),
        max_compute_efficiency=0.30,
        max_memory_efficiency=0.80,
    )


def ctc_loss(batch: int, time_steps: int, labels: int, vocab: int) -> Kernel:
    """Connectionist temporal classification loss (Deep Speech 2).

    The alpha-beta dynamic program is sequential over time — intrinsically
    low parallelism, hence the very low compute ceiling.
    """
    if batch <= 0 or time_steps <= 0 or labels <= 0 or vocab <= 0:
        raise ValueError("ctc loss needs positive dims")
    flops = 10.0 * batch * time_steps * labels
    traffic = fp32_bytes(batch * time_steps * (vocab + 2.0 * labels))
    return Kernel(
        name="ctc_loss_alpha_beta_kernel",
        category=KernelCategory.LOSS,
        flops=flops,
        bytes_accessed=traffic,
        max_compute_efficiency=0.10,
        max_memory_efficiency=0.40,
    )


def memcpy_h2d(num_bytes: float, pcie_bandwidth_gbs: float = 16.0) -> Kernel:
    """Host-to-device copy of one mini-batch of input data.

    Modelled as a memory-category kernel whose effective bandwidth is the
    PCIe link, expressed through the bytes/efficiency terms relative to the
    GPU's DRAM bandwidth at timing time; we approximate by scaling traffic
    so that ``bytes / (bw * eff)`` equals the PCIe transfer time for a
    243 GB/s-class device.
    """
    if num_bytes < 0:
        raise ValueError("memcpy needs non-negative byte count")
    # A P4000-class device: DRAM 243 GB/s, PCIe 3.0 x16 ~ 12.8 GB/s effective.
    dram_over_pcie = 243.0 / pcie_bandwidth_gbs
    return Kernel(
        name="[CUDA memcpy HtoD]",
        category=KernelCategory.MEMCPY,
        flops=0.0,
        bytes_accessed=num_bytes * dram_over_pcie,
        max_compute_efficiency=1.0,
        max_memory_efficiency=0.80,
    )
