"""Calibration-sensitivity analysis: are the reproduced findings robust?

A simulator's conclusions are only as good as its constants are
non-critical: if Observation 5 held solely at ``sync_latency = 260 µs`` and
vanished at 200 µs, the "reproduction" would be a curve fit.  This module
sweeps the most influential calibration constants across wide ranges and
checks, at every point, whether the associated paper finding still holds —
reporting the *robust range* per (constant, finding) pair.

Swept constants and the findings they could break:

- framework ``sync_latency_s`` (x0.25 .. x4)  -> Obs. 5 (LSTM utilization
  gap) and Obs. 3 (TF > MXNet on Seq2Seq);
- GEMM tile half-dimension (x0.5 .. x3)       -> Obs. 7 (RNN FP32 floor);
- MXNet ``pool_overhead`` (1.05 .. 1.35)      -> the Sockeye-64 memory
  limit's *direction* (Sockeye max <= NMT max);
- occupancy-ramp scaling exponent (0.25 .. 1) -> Obs. 10 (Titan Xp less
  utilized).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import repro.kernels.gemm as gemm_module
from repro.frameworks.registry import MXNET, TENSORFLOW
from repro.hardware.devices import TITAN_XP
from repro.models.registry import shared_graph
from repro.training.session import TrainingSession


@dataclass(frozen=True)
class SensitivityPoint:
    """One swept value and whether the finding held there."""

    value: float
    holds: bool
    evidence: str


@dataclass(frozen=True)
class SensitivityResult:
    """One (constant, finding) sweep."""

    constant: str
    finding: str
    points: tuple

    @property
    def robust(self) -> bool:
        """True if the finding held at every swept value."""
        return all(point.holds for point in self.points)

    @property
    def robust_fraction(self) -> float:
        if not self.points:
            return 0.0
        return sum(1 for p in self.points if p.holds) / len(self.points)


def _session_with(model: str, framework) -> TrainingSession:
    session = TrainingSession(model, framework.key)
    session.framework = framework
    return session


def sweep_sync_latency(factors=(0.25, 0.5, 1.0, 2.0, 4.0)) -> SensitivityResult:
    """Obs. 5: NMT's GPU utilization stays well below ResNet-50's across a
    16x range of per-step sync latency."""
    cnn = TrainingSession("resnet-50", "mxnet").run_iteration(32).gpu_utilization
    points = []
    for factor in factors:
        framework = dataclasses.replace(
            TENSORFLOW, sync_latency_s=260e-6 * factor
        )
        lstm = _session_with("nmt", framework).run_iteration(128).gpu_utilization
        holds = lstm < cnn - 0.10
        points.append(
            SensitivityPoint(
                value=factor,
                holds=holds,
                evidence=f"NMT {lstm * 100:.0f}% vs ResNet {cnn * 100:.0f}%",
            )
        )
    return SensitivityResult(
        constant="framework.sync_latency_s (x factor)",
        finding="Obs. 5: LSTM GPU utilization below CNN",
        points=tuple(points),
    )


def sweep_gemm_tile(factors=(0.5, 1.0, 2.0, 3.0)) -> SensitivityResult:
    """Obs. 7: Sockeye's FP32 utilization stays below ResNet-50's across a
    6x range of the SGEMM tile half-dimension."""
    original = gemm_module._TILE_HALF_DIM
    points = []
    try:
        for factor in factors:
            gemm_module._TILE_HALF_DIM = int(original * factor)
            shared_graph.cache_clear()
            rnn = TrainingSession("sockeye", "mxnet").run_iteration(64).fp32_utilization
            cnn = TrainingSession("resnet-50", "mxnet").run_iteration(32).fp32_utilization
            holds = rnn < cnn
            points.append(
                SensitivityPoint(
                    value=factor,
                    holds=holds,
                    evidence=f"Sockeye {rnn * 100:.0f}% vs ResNet {cnn * 100:.0f}%",
                )
            )
    finally:
        gemm_module._TILE_HALF_DIM = original
        shared_graph.cache_clear()
    return SensitivityResult(
        constant="kernels.gemm._TILE_HALF_DIM (x factor)",
        finding="Obs. 7: RNN FP32 utilization below CNN",
        points=tuple(points),
    )


def sweep_pool_overhead(values=(1.05, 1.15, 1.22, 1.30, 1.35)) -> SensitivityResult:
    """The Seq2Seq memory asymmetry's *direction*: Sockeye's maximum batch
    never exceeds NMT's, whatever the allocator slack."""
    nmt_max = TrainingSession("nmt", "tensorflow").max_batch_size((32, 64, 128, 256))
    points = []
    for value in values:
        framework = dataclasses.replace(MXNET, pool_overhead=value)
        sockeye_max = _session_with("sockeye", framework).max_batch_size(
            (32, 64, 128, 256)
        )
        holds = sockeye_max <= nmt_max
        points.append(
            SensitivityPoint(
                value=value,
                holds=holds,
                evidence=f"Sockeye max {sockeye_max} vs NMT max {nmt_max}",
            )
        )
    return SensitivityResult(
        constant="MXNet pool_overhead",
        finding="Sockeye memory ceiling <= NMT's",
        points=tuple(points),
    )


def sweep_ramp_exponent(values=(0.25, 0.5, 0.75, 1.0)) -> SensitivityResult:
    """Obs. 10: the Titan Xp utilization drop holds for any positive ramp
    scaling exponent (the calibrated value is 0.5)."""
    import repro.hardware.roofline as roofline_module

    points = []
    original_init = roofline_module.RooflineModel.__init__
    for exponent in values:

        def patched_init(self, device, _exp=exponent):
            original_init(self, device)
            self._ramp_s = roofline_module.RooflineModel._BASE_OCCUPANCY_RAMP_S * (
                device.peak_fp32_flops / roofline_module.RooflineModel._BASE_PEAK_FLOPS
            ) ** _exp

        roofline_module.RooflineModel.__init__ = patched_init
        try:
            p4 = TrainingSession("resnet-50", "mxnet").run_iteration(32)
            xp = TrainingSession("resnet-50", "mxnet", gpu=TITAN_XP).run_iteration(32)
        finally:
            roofline_module.RooflineModel.__init__ = original_init
        holds = (
            xp.fp32_utilization < p4.fp32_utilization
            and xp.throughput > p4.throughput
        )
        points.append(
            SensitivityPoint(
                value=exponent,
                holds=holds,
                evidence=f"fp32 {p4.fp32_utilization * 100:.0f}%->"
                f"{xp.fp32_utilization * 100:.0f}%, "
                f"x{xp.throughput / p4.throughput:.2f}",
            )
        )
    return SensitivityResult(
        constant="occupancy-ramp device exponent",
        finding="Obs. 10: Titan Xp faster but less utilized",
        points=tuple(points),
    )


def run_all() -> list:
    """All sensitivity sweeps."""
    return [
        sweep_sync_latency(),
        sweep_gemm_tile(),
        sweep_pool_overhead(),
        sweep_ramp_exponent(),
    ]


def render(results=None) -> str:
    """Printable sensitivity report."""
    results = results if results is not None else run_all()
    lines = ["calibration-sensitivity analysis"]
    for result in results:
        status = "ROBUST" if result.robust else (
            f"holds at {result.robust_fraction * 100:.0f}% of swept values"
        )
        lines.append(f"\n{result.finding}")
        lines.append(f"  swept: {result.constant} -> {status}")
        for point in result.points:
            mark = "ok " if point.holds else "BRK"
            lines.append(f"    [{mark}] {point.value:g}: {point.evidence}")
    return "\n".join(lines)
