"""Unit tests for the roofline kernel-timing model."""

import pytest

from repro.hardware.devices import QUADRO_P4000, TITAN_XP
from repro.hardware.roofline import (
    RooflineModel,
    speed_of_light_time,
)
from repro.kernels.base import Kernel, KernelCategory
from repro.kernels.elementwise import activation_forward
from repro.kernels.gemm import gemm
from repro.kernels.misc import ctc_loss, embedding_lookup, memcpy_h2d
from repro.kernels.norm import batchnorm_forward


@pytest.fixture
def model():
    return RooflineModel(QUADRO_P4000)


class TestKernelTiming:
    def test_duration_includes_launch_latency(self, model):
        tiny = Kernel("tiny", KernelCategory.ELEMENTWISE, flops=1.0, bytes_accessed=4.0)
        timing = model.time_kernel(tiny)
        assert timing.duration_s >= QUADRO_P4000.kernel_launch_latency_s

    def test_large_gemm_is_compute_bound(self, model):
        timing = model.time_kernel(gemm(2048, 2048, 2048))
        assert not timing.is_memory_bound
        assert timing.compute_time_s > timing.memory_time_s

    def test_batchnorm_is_memory_bound(self, model):
        timing = model.time_kernel(batchnorm_forward(10_000_000, 64))
        assert timing.is_memory_bound

    def test_time_scales_with_work(self, model):
        small = model.time_kernel(gemm(256, 256, 256))
        large = model.time_kernel(gemm(2048, 2048, 2048))
        assert large.duration_s > small.duration_s

    def test_more_work_never_faster(self, model):
        durations = [
            model.time_kernel(gemm(size, size, size)).duration_s
            for size in (64, 128, 256, 512, 1024, 2048)
        ]
        assert durations == sorted(durations)

    def test_fp32_utilization_below_one(self, model):
        timing = model.time_kernel(gemm(4096, 4096, 4096))
        assert 0.0 < timing.fp32_utilization < 1.0

    def test_small_gemm_has_low_fp32_utilization(self, model):
        small = model.time_kernel(gemm(4, 2048, 2048))
        large = model.time_kernel(gemm(2048, 2048, 2048))
        assert small.fp32_utilization < 0.25 * large.fp32_utilization

    def test_faster_device_runs_kernels_faster(self, model):
        kernel = gemm(1024, 1024, 1024)
        p4 = model.time_kernel(kernel)
        xp = RooflineModel(TITAN_XP).time_kernel(kernel)
        assert xp.duration_s < p4.duration_s

    def test_faster_device_less_efficient_on_same_kernel(self, model):
        """Observation 10's mechanism: a wider GPU needs more work to
        saturate, so the same kernel achieves a lower fraction of peak."""
        kernel = gemm(512, 512, 512)
        p4 = model.time_kernel(kernel)
        xp = RooflineModel(TITAN_XP).time_kernel(kernel)
        assert xp.fp32_utilization < p4.fp32_utilization

    def test_time_kernels_batches(self, model):
        kernels = [gemm(64, 64, 64) for _ in range(5)]
        timings = model.time_kernels(kernels)
        assert len(timings) == 5


def _timing_rows(timings) -> list:
    return [
        (
            t.kernel,
            t.kernel.host_sync,
            repr(t.duration_s),
            repr(t.compute_time_s),
            repr(t.memory_time_s),
            repr(t.launch_latency_s),
        )
        for t in timings
    ]


class TestTimeKernelsMemo:
    def test_mixed_stream_equals_kernel_by_kernel(self, model):
        def fresh():
            return [gemm(64, 256, 96), batchnorm_forward(4096, 16), gemm(8, 8, 8)]

        shared = fresh()
        # Repeated objects interleaved with equal-but-distinct copies.
        stream = shared * 3 + fresh() + shared[::-1] + fresh()
        got = model.time_kernels(stream)
        reference = RooflineModel(QUADRO_P4000)
        assert _timing_rows(got) == _timing_rows(
            reference.time_kernel(k) for k in stream
        )

    def test_repeated_object_maps_to_one_timing(self, model):
        shared = [gemm(64, 256, 96), batchnorm_forward(4096, 16)]
        stream = shared * 5
        got = model.time_kernels(stream)
        for position, kernel in enumerate(stream):
            assert got[position] is got[stream.index(kernel)]

    def test_short_lived_streams_equal_fresh_references(self, model):
        # Each call's kernels die with it, so later calls reuse their ids;
        # an identity map that outlived its call would serve stale timings.
        for round_ in range(200):
            # Equal-but-distinct copies: only the first of each value stays
            # alive in the value memo, the others free their ids.
            stream = [
                kernel
                for _ in range(3)
                for kernel in (
                    gemm(8 + round_, 64, 32),
                    batchnorm_forward(64 * (round_ + 1), 8),
                )
            ]
            got = model.time_kernels(stream)
            fresh = RooflineModel(QUADRO_P4000)
            assert _timing_rows(got) == _timing_rows(
                fresh.time_kernel(k) for k in stream
            )

    def test_generator_stream_equals_references(self, model):
        # Fresh kernels alternate with copies of five values; a copy hits
        # the value memo and dies mid-call unless the stream is held, and a
        # later kernel can then reuse its id.
        def stream():
            for i in range(200):
                flops = float(i % 5 + 1) if i % 3 else float(i + 10)
                yield Kernel("k", KernelCategory.GEMM, flops, 4.0)

        got = model.time_kernels(stream())
        fresh = RooflineModel(QUADRO_P4000)
        assert _timing_rows(got) == _timing_rows(fresh.time_kernel(k) for k in stream())


class TestHelpers:
    def test_speed_of_light_lower_bound(self, model):
        kernel = gemm(1024, 1024, 1024)
        assert speed_of_light_time(kernel, QUADRO_P4000) <= model.time_kernel(
            kernel
        ).duration_s

    @pytest.mark.parametrize(
        "kernel",
        [
            gemm(64, 64, 64),
            batchnorm_forward(1 << 20, 64),
            activation_forward(1 << 20),
            embedding_lookup(4096, 512),
            ctc_loss(4, 600, 180, 29),
            memcpy_h2d(1e6),
        ],
        ids=lambda kernel: kernel.category.value,
    )
    @pytest.mark.parametrize("gpu", [QUADRO_P4000, TITAN_XP], ids=lambda g: g.name)
    def test_speed_of_light_bounds_every_kernel_family(self, kernel, gpu):
        """The conformance floor: no timed kernel beats its speed of light."""
        floor = speed_of_light_time(kernel, gpu)
        assert 0.0 < floor <= RooflineModel(gpu).time_kernel(kernel).duration_s

    def test_speed_of_light_is_the_slower_roof(self):
        compute_bound = gemm(2048, 2048, 2048)
        memory_bound = batchnorm_forward(1 << 22, 64)
        assert speed_of_light_time(compute_bound, QUADRO_P4000) == (
            compute_bound.flops / QUADRO_P4000.peak_fp32_flops
        )
        assert speed_of_light_time(memory_bound, QUADRO_P4000) == (
            memory_bound.bytes_accessed / QUADRO_P4000.memory_bandwidth_bytes
        )
