"""Unit tests for the profiling toolchain (kernel traces, CPU sampler,
memory profiler, stable-phase sampling)."""

import numpy as np
import pytest

from repro.engine import grid_for
from repro.experiments.common import SWEEP_PANELS
from repro.hardware.devices import QUADRO_P4000
from repro.hardware.memory import AllocationTag
from repro.profiling.cpu_sampler import CPUSampler
from repro.profiling.kernel_trace import KernelTrace, trace_from_profile
from repro.profiling.memory_profiler import MemoryProfiler
from repro.profiling.sampling import (
    IterationTimeline,
    SampleWindow,
    WINDOW,
    StablePhaseSampler,
)
from repro.training.session import TrainingSession


class TestKernelTrace:
    def test_totals(self, resnet_mxnet_32):
        trace = trace_from_profile(resnet_mxnet_32)
        assert len(trace.timings) == len(resnet_mxnet_32.kernel_timings)
        assert trace.total_flops == pytest.approx(resnet_mxnet_32.gpu_flops)
        assert 0 < trace.average_fp32_utilization < 1

    def test_by_name_aggregates_launches(self, resnet_mxnet_32):
        stats = trace_from_profile(resnet_mxnet_32).by_name()
        bn = stats["cudnn::detail::bn_bw_1C11_kernel_new"]
        assert bn.launches > 40  # one per BN layer
        assert bn.total_time_s > 0

    def test_by_name_covers_every_launch_and_second(self, resnet_mxnet_32):
        trace = trace_from_profile(resnet_mxnet_32)
        stats = trace.by_name().values()
        assert sum(entry.launches for entry in stats) == len(trace.timings)
        assert sum(entry.total_time_s for entry in stats) == pytest.approx(
            trace.total_time_s, rel=1e-12
        )

    def test_table_5_6_query(self, resnet_mxnet_32):
        trace = trace_from_profile(resnet_mxnet_32)
        rows = trace.longest_low_utilization_kernels(5)
        assert len(rows) == 5
        average = trace.average_fp32_utilization
        assert all(row.fp32_utilization < average for row in rows)
        # Duration shares sorted descending.
        shares = [row.duration_share for row in rows]
        assert shares == sorted(shares, reverse=True)
        # Batch-normalization kernels lead the list (Obs. 8).
        assert any("bn_" in row.kernel_name for row in rows[:2])

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelTrace([], peak_fp32_flops=0.0)
        trace = KernelTrace([], peak_fp32_flops=1.0)
        assert trace.average_fp32_utilization == 0.0
        with pytest.raises(ValueError):
            trace.longest_low_utilization_kernels(0)


#: Every point of the Figs. 4-6 sweep grid (all 60 fit in memory).
SWEEP_GRID = [
    (spec.model, spec.framework, spec.batch_size) for spec in grid_for(SWEEP_PANELS)
]


class TestCPUSampler:
    @pytest.mark.parametrize("model,framework,batch", SWEEP_GRID)
    def test_sample_matches_session_utilization(self, model, framework, batch):
        """The sampler's decomposition and the session's CPU model are one
        model: their core-seconds agree to rounding at every grid point."""
        session = TrainingSession(model, framework)
        profile = session.run_iteration(batch)
        sample = CPUSampler(session).sample(batch)
        assert sample.total_core_seconds == pytest.approx(
            profile.cpu_core_seconds, rel=1e-12
        )
        assert sample.utilization == pytest.approx(profile.cpu_utilization, rel=1e-12)

    def test_hotspots_ranked(self):
        session = TrainingSession("a3c", "mxnet")
        sample = CPUSampler(session).sample(128)
        hotspots = sample.hotspots()
        assert hotspots[0][0] == "environment simulation"  # A3C's emulator
        values = [v for _, v in hotspots]
        assert values == sorted(values, reverse=True)

    def test_rnn_sync_time_visible(self):
        session = TrainingSession("nmt", "tensorflow")
        sample = CPUSampler(session).sample(64)
        assert sample.sync_s > 0

    def test_cnn_has_no_sync_time(self):
        session = TrainingSession("resnet-50", "tensorflow")
        sample = CPUSampler(session).sample(16)
        assert sample.sync_s == 0


class TestMemoryProfiler:
    def test_profile_fields(self):
        profile = MemoryProfiler().profile("resnet-50", "mxnet", 16)
        assert profile.model == "ResNet-50"
        assert profile.total_gib > 1.0
        assert 0.5 < profile.feature_map_fraction < 0.95

    def test_breakdown_keys(self):
        profile = MemoryProfiler().profile("resnet-50", "tensorflow", 16)
        breakdown = profile.breakdown()
        assert set(breakdown) == {
            "feature maps",
            "weights",
            "weight gradients",
            "dynamic",
            "workspace",
        }

    def test_sweep_stops_at_oom(self):
        profiles = MemoryProfiler().sweep("sockeye", "mxnet", (16, 32, 64, 128, 256))
        assert [p.batch_size for p in profiles] == [16, 32, 64]

    def test_format_row_mentions_model(self):
        profile = MemoryProfiler().profile("wgan", "tensorflow", 16)
        assert "WGAN" in profile.format_row()


class TestStablePhaseSampling:
    def test_timeline_shape(self):
        timeline = IterationTimeline(stable_iteration_s=0.1)
        durations = timeline.durations(400)
        # Warm-up is much slower than stable phase.
        assert durations[0] > 5 * durations[-1]
        # Auto-tuning decays toward stability.
        assert durations[10] > durations[150]

    def test_detect_stable_start_after_warmup(self):
        timeline = IterationTimeline(
            stable_iteration_s=0.1, warmup_iterations=3, autotune_iterations=100
        )
        sampler = StablePhaseSampler()
        start = sampler.detect_stable_start(timeline.durations(600))
        assert 30 <= start <= 200

    def test_unstable_series_rejected(self):
        rng = np.random.default_rng(0)
        noisy = rng.uniform(0.1, 10.0, size=300)
        with pytest.raises(ValueError, match="never reached"):
            StablePhaseSampler().detect_stable_start(noisy)

    def test_window_clamped_to_paper_range(self):
        timeline = IterationTimeline(stable_iteration_s=0.1)
        durations = timeline.durations(3000)
        window = StablePhaseSampler().choose_window(durations, sample_iterations=5000)
        assert window.length <= 1000
        small = StablePhaseSampler().choose_window(durations, sample_iterations=10)
        assert small.length >= 50

    def test_stable_throughput_close_to_truth(self):
        timeline = IterationTimeline(stable_iteration_s=0.1, jitter=0.01)
        durations = timeline.durations(1000)
        throughput = StablePhaseSampler().stable_throughput(durations, 32.0)
        assert throughput == pytest.approx(320.0, rel=0.05)

    def test_naive_average_overestimates_iteration_time(self):
        """Why warm-up exclusion matters: averaging the whole run
        underestimates throughput."""
        timeline = IterationTimeline(stable_iteration_s=0.1)
        durations = timeline.durations(500)
        naive = 32.0 / durations.mean()
        stable = StablePhaseSampler().stable_throughput(durations, 32.0)
        assert stable > 1.05 * naive

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            StablePhaseSampler().detect_stable_start(np.ones(2 * WINDOW - 1))

    def test_shortest_series_accepted(self):
        # 2 * WINDOW iterations is the least the detector reads.
        assert StablePhaseSampler().detect_stable_start(np.ones(2 * WINDOW)) == 0

    def test_sample_window_validation(self):
        with pytest.raises(ValueError):
            SampleWindow(start_iteration=5, end_iteration=5)

    def test_timeline_validation(self):
        with pytest.raises(ValueError):
            IterationTimeline(stable_iteration_s=0.1).durations(0)
