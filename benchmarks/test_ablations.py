"""Ablation benchmarks: each mechanism DESIGN.md credits for a paper
phenomenon is switched off or swept, and the phenomenon must appear/vanish
accordingly.  This is the evidence that the reproduction's findings emerge
from modelled mechanisms, not from baked-in outputs.
"""

import dataclasses

import pytest
from conftest import run_once

from repro.frameworks.registry import MXNET, TENSORFLOW
from repro.hardware.devices import QUADRO_P4000, TITAN_XP
from repro.hardware.roofline import RooflineModel
from repro.kernels.gemm import gemm
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession


def _session_with_framework(model, framework):
    session = TrainingSession(model, framework.key if hasattr(framework, "key") else framework)
    session.framework = framework
    return session


class TestHostSyncAblation:
    """Mechanism behind Obs. 5: per-step host syncs cause the LSTM
    utilization gap.  Remove them (fused-RNN rewrite) and it must close."""

    def test_fusing_rnn_closes_the_utilization_gap(self, benchmark):
        session = TrainingSession("nmt", "tensorflow")

        def study():
            return (
                session.run_iteration(128),
                session.run_iteration(128, parse_transform_spec("fused_rnn")),
            )

        baseline, fused = run_once(benchmark, study)
        speedup = fused.throughput / baseline.throughput
        print(
            f"\nfused-RNN ablation (NMT b=128): throughput "
            f"{baseline.throughput:.0f} -> {fused.throughput:.0f} "
            f"({speedup:.2f}x), GPU util "
            f"{baseline.gpu_utilization * 100:.0f}% -> "
            f"{fused.gpu_utilization * 100:.0f}%, kernels "
            f"{len(baseline.kernel_timings)} -> {len(fused.kernel_timings)}"
        )
        benchmark.extra_info["speedup"] = round(speedup, 2)
        assert speedup > 1.3
        assert fused.gpu_utilization > baseline.gpu_utilization + 0.1

    def test_sync_latency_sweep(self, benchmark):
        """LSTM utilization degrades monotonically with sync latency."""

        def sweep():
            utilizations = []
            for latency in (0.0, 130e-6, 260e-6, 520e-6):
                framework = dataclasses.replace(TENSORFLOW, sync_latency_s=max(latency, 1e-9))
                session = _session_with_framework("nmt", framework)
                utilizations.append(session.run_iteration(128).gpu_utilization)
            return utilizations

        utilizations = run_once(benchmark, sweep)
        print(f"\nsync-latency sweep (NMT): {[round(u, 3) for u in utilizations]}")
        assert utilizations == sorted(utilizations, reverse=True)
        assert utilizations[0] - utilizations[-1] > 0.1


class TestGemmTileAblation:
    """Mechanism behind Obs. 7: narrow per-timestep GEMMs cannot fill SGEMM
    tiles.  The efficiency ceiling must fall sharply with the batch (m)
    dimension at fixed work shape."""

    def test_narrow_gemm_efficiency_cliff(self, benchmark):
        def sweep():
            model = RooflineModel(QUADRO_P4000)
            return [
                model.time_kernel(gemm(m, 2048, 1024)).fp32_utilization
                for m in (4, 16, 64, 256, 1024)
            ]

        utilizations = run_once(benchmark, sweep)
        print(f"\nGEMM m-sweep fp32: {[round(u, 3) for u in utilizations]}")
        assert utilizations == sorted(utilizations)
        assert utilizations[0] < 0.1 * utilizations[-1]


class TestOccupancyRampAblation:
    """Mechanism behind Obs. 10: the Titan Xp's wider occupancy ramp eats
    more of each kernel, so the same stream utilizes it less."""

    def test_ramp_scales_with_device_width(self, benchmark):
        def measure():
            p4 = RooflineModel(QUADRO_P4000)
            xp = RooflineModel(TITAN_XP)
            kernel = gemm(256, 256, 256)
            return (
                p4._ramp_s,
                xp._ramp_s,
                p4.time_kernel(kernel).fp32_utilization,
                xp.time_kernel(kernel).fp32_utilization,
            )

        p4_ramp, xp_ramp, p4_util, xp_util = run_once(benchmark, measure)
        print(
            f"\nramp P4000 {p4_ramp * 1e6:.1f}us vs Titan {xp_ramp * 1e6:.1f}us; "
            f"fp32 {p4_util * 100:.1f}% vs {xp_util * 100:.1f}%"
        )
        assert xp_ramp > p4_ramp
        assert xp_util < p4_util


class TestAllocatorAblation:
    """Mechanism behind the Seq2Seq memory story (Obs. 3): Sockeye's
    bucket over-allocation plus MXNet's pool slack cause its batch-64 limit.
    Remove either and batch 128 fits."""

    def test_bucketing_overallocation_drives_the_limit(self, benchmark):
        def measure():
            session = TrainingSession("sockeye", "mxnet")
            baseline_max = session.max_batch_size((32, 64, 128, 256))
            # Ablate the allocator slack: a hypothetical MXNet with
            # TensorFlow's tight BFC packing.
            tight = dataclasses.replace(MXNET, pool_overhead=1.0)
            ablated = _session_with_framework("sockeye", tight)
            ablated_max = ablated.max_batch_size((32, 64, 128, 256))
            return baseline_max, ablated_max

        baseline_max, ablated_max = run_once(benchmark, measure)
        print(f"\nSockeye max batch: pool=1.22 -> {baseline_max}; pool=1.00 -> {ablated_max}")
        assert baseline_max == 64
        assert ablated_max >= 128

    def test_gradient_map_factor_moves_cnn_limit(self, benchmark):
        import repro.training.session as session_module

        def measure():
            session = TrainingSession("resnet-50", "mxnet")
            baseline = session.max_batch_size((32, 64, 128))
            original = session_module.GRADIENT_MAP_FACTOR
            session_module.GRADIENT_MAP_FACTOR = 1.5
            try:
                inflated = session.max_batch_size((32, 64, 128))
            finally:
                session_module.GRADIENT_MAP_FACTOR = original
            return baseline, inflated

        baseline, inflated = run_once(benchmark, measure)
        print(f"\nResNet-50 max batch: grad-map 0.10 -> {baseline}; 1.5 -> {inflated}")
        assert inflated < baseline


class TestPipelineAblation:
    """Mechanism behind Fig. 7's CNTK bars: the pre-packed reader.  Give
    TensorFlow the same reader and its CPU utilization collapses too."""

    def test_packed_reader_collapses_cpu_utilization(self, benchmark):
        def measure():
            baseline = TrainingSession("resnet-50", "tensorflow").run_iteration(32)
            packed = dataclasses.replace(TENSORFLOW, pipeline_cost_factor=0.02)
            ablated = _session_with_framework("resnet-50", packed).run_iteration(32)
            return baseline.cpu_utilization, ablated.cpu_utilization

        baseline, ablated = run_once(benchmark, measure)
        print(f"\nTF CPU util: tf.data {baseline * 100:.2f}% -> packed {ablated * 100:.2f}%")
        assert ablated < 0.15 * baseline


class TestCalibrationSensitivity:
    """The reproduction's headline findings hold across wide ranges of the
    calibration constants (see repro.experiments.sensitivity)."""

    def test_all_findings_robust_across_constant_sweeps(self, benchmark):
        from repro.experiments import sensitivity

        results = run_once(benchmark, sensitivity.run_all)
        print()
        print(sensitivity.render(results))
        for result in results:
            assert result.robust, result.finding
        benchmark.extra_info["sweeps"] = len(results)
