"""Unit and behaviour tests for the simulated training session."""

import pytest

from repro.hardware.devices import TITAN_XP
from repro.hardware.memory import AllocationTag, OutOfMemoryError
from repro.training.session import IterationProfile, TrainingSession


def _synthetic_profile(gpu_flops, busy_s, peak_flops):
    return IterationProfile(
        model="m",
        framework="f",
        device="d",
        batch_size=1,
        iteration_time_s=1.0,
        gpu_busy_time_s=busy_s,
        gpu_flops=gpu_flops,
        effective_samples=1.0,
        cpu_core_seconds=0.0,
        cpu_core_count=1,
        peak_fp32_flops=peak_flops,
    )


class TestFP32UtilizationClamp:
    """Eq. 2 is a fraction of peak: it must never report > 1, even when
    rounding in the roofline model nudges achieved FLOP/s past peak."""

    def test_exact_boundary_is_one(self):
        profile = _synthetic_profile(gpu_flops=2.0e12, busy_s=0.5, peak_flops=4.0e12)
        assert profile.fp32_utilization == 1.0

    def test_above_peak_clamps_to_one(self):
        profile = _synthetic_profile(gpu_flops=3.0e12, busy_s=0.5, peak_flops=4.0e12)
        assert profile.fp32_utilization == 1.0

    def test_below_peak_is_untouched(self):
        profile = _synthetic_profile(gpu_flops=1.0e12, busy_s=0.5, peak_flops=4.0e12)
        assert profile.fp32_utilization == 0.5

    def test_zero_busy_time_is_zero(self):
        profile = _synthetic_profile(gpu_flops=1.0e12, busy_s=0.0, peak_flops=4.0e12)
        assert profile.fp32_utilization == 0.0


class TestConstruction:
    def test_accepts_model_key_and_framework_alias(self):
        session = TrainingSession("resnet", "tf")
        assert session.spec.key == "resnet-50"
        assert session.framework.name == "TensorFlow"

    def test_rejects_unimplemented_pairs(self):
        # Table 2: WGAN exists only on TensorFlow.
        with pytest.raises(ValueError, match="no MXNet implementation"):
            TrainingSession("wgan", "mxnet")
        with pytest.raises(ValueError, match="no CNTK implementation"):
            TrainingSession("a3c", "cntk")


class TestIterationProfile:
    def test_metrics_are_consistent(self, resnet_mxnet_32):
        profile = resnet_mxnet_32
        assert profile.throughput == pytest.approx(
            profile.effective_samples / profile.iteration_time_s
        )
        assert 0 < profile.gpu_utilization <= 1
        assert 0 < profile.fp32_utilization < 1
        assert 0 < profile.cpu_utilization < 1
        assert profile.gpu_busy_time_s <= profile.iteration_time_s

    def test_default_batch_is_reference(self):
        profile = TrainingSession("resnet-50", "mxnet").run_iteration()
        assert profile.batch_size == 32

    def test_kernel_timings_attached(self, resnet_mxnet_32):
        assert len(resnet_mxnet_32.kernel_timings) > 300
        assert resnet_mxnet_32.gpu_flops == pytest.approx(
            sum(t.kernel.flops for t in resnet_mxnet_32.kernel_timings)
        )

    def test_memory_snapshot_attached(self, resnet_mxnet_32):
        snapshot = resnet_mxnet_32.memory
        assert snapshot.peak_total > 1024**3

    def test_oom_raises_with_checking(self):
        session = TrainingSession("resnet-50", "mxnet")
        with pytest.raises(OutOfMemoryError):
            session.run_iteration(128)


class TestBatchScaling:
    def test_throughput_monotone_in_batch(self):
        session = TrainingSession("inception-v3", "tensorflow")
        values = [session.run_iteration(b).throughput for b in (4, 8, 16, 32)]
        assert values == sorted(values)

    def test_cnn_saturates(self):
        session = TrainingSession("resnet-50", "cntk")
        t32 = session.run_iteration(32).throughput
        t64 = session.run_iteration(64).throughput
        assert t64 / t32 < 1.10  # Observation 2

    def test_rnn_does_not_saturate(self):
        session = TrainingSession("nmt", "tensorflow")
        t64 = session.run_iteration(64).throughput
        t128 = session.run_iteration(128).throughput
        assert t128 / t64 > 1.4  # Observation 2


class TestDeviceSensitivity:
    def test_titan_xp_faster_but_less_utilized(self):
        p4 = TrainingSession("inception-v3", "mxnet").run_iteration(32)
        xp = TrainingSession("inception-v3", "mxnet", gpu=TITAN_XP).run_iteration(32)
        assert xp.throughput > 1.5 * p4.throughput
        assert xp.fp32_utilization < p4.fp32_utilization
        assert xp.gpu_utilization < p4.gpu_utilization

    def test_rnn_gains_less_from_titan_than_cnn(self):
        cnn_gain = (
            TrainingSession("resnet-50", "mxnet", gpu=TITAN_XP).run_iteration(32).throughput
            / TrainingSession("resnet-50", "mxnet").run_iteration(32).throughput
        )
        rnn_gain = (
            TrainingSession("sockeye", "mxnet", gpu=TITAN_XP).run_iteration(64).throughput
            / TrainingSession("sockeye", "mxnet").run_iteration(64).throughput
        )
        assert rnn_gain < cnn_gain


class TestMemoryProfile:
    def test_five_way_breakdown_present(self):
        snapshot = TrainingSession("resnet-50", "mxnet").profile_memory(16)
        for tag in AllocationTag:
            assert tag in snapshot.peak_by_tag
        assert snapshot.peak_by_tag[AllocationTag.FEATURE_MAPS] > 0
        assert snapshot.peak_by_tag[AllocationTag.WEIGHTS] > 0
        assert snapshot.peak_by_tag[AllocationTag.WORKSPACE] > 0

    def test_momentum_dynamic_on_mxnet_static_on_tf(self):
        mxnet = TrainingSession("resnet-50", "mxnet").profile_memory(16)
        tf = TrainingSession("resnet-50", "tensorflow").profile_memory(16)
        assert mxnet.peak_by_tag[AllocationTag.DYNAMIC] > 0
        assert tf.peak_by_tag[AllocationTag.DYNAMIC] == 0

    def test_max_batch_size(self):
        session = TrainingSession("sockeye", "mxnet")
        assert session.max_batch_size((16, 32, 64, 128)) == 64

    def test_max_batch_size_custom_candidates(self):
        session = TrainingSession("deep-speech-2", "mxnet")
        assert session.max_batch_size((1, 2, 3, 4, 5, 6)) == 4


class TestPaperMaxBatches:
    """The memory-capacity limits the paper reports, exactly."""

    def test_nmt_tensorflow_max_128(self):
        session = TrainingSession("nmt", "tensorflow")
        session.profile_memory(128)
        with pytest.raises(OutOfMemoryError):
            session.profile_memory(256)

    def test_sockeye_mxnet_max_64(self):
        session = TrainingSession("sockeye", "mxnet")
        session.profile_memory(64)
        with pytest.raises(OutOfMemoryError):
            session.profile_memory(128)

    def test_image_models_fit_64(self):
        for framework in ("tensorflow", "mxnet", "cntk"):
            TrainingSession("resnet-50", framework).profile_memory(64)
            TrainingSession("inception-v3", framework).profile_memory(64)
