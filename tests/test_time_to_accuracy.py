"""Tests for the time-to-accuracy scaling study."""

import pytest

from repro.distributed.time_to_accuracy import (
    adjusted_samples_needed,
    batch_penalty,
    linear_scaled_learning_rate,
    samples_to_accuracy,
    scaling_point,
    scaling_study,
)
from repro.distributed.topology import configuration
from repro.training.convergence import FIG2_MODELS


def _bisect_samples(model, target: float) -> float:
    """Reference: the 100-step sample bisection ``samples_to_accuracy``
    used before it inverted the curve in closed form."""
    low, high = 1.0, 1.0
    while model.value_at(high) < target:
        high *= 2.0
    for _ in range(100):
        mid = 0.5 * (low + high)
        if model.value_at(mid) < target:
            low = mid
        else:
            high = mid
    return high


class TestStatisticalEfficiencyModel:
    @pytest.mark.parametrize("model_key", sorted(FIG2_MODELS))
    def test_closed_form_agrees_with_reference_bisection(self, model_key):
        model = FIG2_MODELS[model_key]
        for fraction in (0.5, 0.9, 0.95, 0.99):
            target = model.initial + fraction * (model.final - model.initial)
            samples = samples_to_accuracy(model_key, fraction)
            assert samples == model.samples_to(target)
            assert samples == pytest.approx(
                _bisect_samples(model, target), rel=1e-13, abs=0.0
            )

    def test_samples_to_accuracy_inverts_the_curve(self):
        samples = samples_to_accuracy("resnet-50", 0.95)
        model = FIG2_MODELS["resnet-50"]
        target = model.initial + 0.95 * (model.final - model.initial)
        assert model.value_at(samples) == pytest.approx(target, abs=0.05)

    def test_higher_target_needs_more_samples(self):
        assert samples_to_accuracy("resnet-50", 0.97) > samples_to_accuracy(
            "resnet-50", 0.90
        )

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_target_fraction_validation(self, fraction):
        with pytest.raises(ValueError, match=r"in \(0, 1\)"):
            samples_to_accuracy("resnet-50", fraction)

    def test_batch_penalty_is_one_at_the_base_batch(self):
        assert batch_penalty("resnet-50", 32, 32) == 1.0
        assert adjusted_samples_needed("resnet-50", 32, 32) == samples_to_accuracy(
            "resnet-50"
        )
        assert adjusted_samples_needed(
            "resnet-50", 256, 32
        ) == samples_to_accuracy("resnet-50") * batch_penalty("resnet-50", 256, 32)

    def test_small_batches_scale_freely(self):
        base = adjusted_samples_needed("resnet-50", 32, 32)
        doubled = adjusted_samples_needed("resnet-50", 64, 32)
        assert doubled / base < 1.01  # far below the 8192 critical batch

    def test_huge_batches_pay_a_penalty(self):
        base = adjusted_samples_needed("resnet-50", 32, 32)
        huge = adjusted_samples_needed("resnet-50", 32768, 32)
        assert huge > 2.0 * base

    def test_penalty_monotone_in_batch(self):
        values = [
            adjusted_samples_needed("resnet-50", batch, 32)
            for batch in (32, 256, 2048, 16384)
        ]
        assert values == sorted(values)

    def test_linear_scaling_rule(self):
        base = linear_scaled_learning_rate("resnet-50", 32, 32)
        scaled = linear_scaled_learning_rate("resnet-50", 256, 32)
        assert scaled == pytest.approx(8 * base)

    def test_validation(self):
        with pytest.raises(ValueError):
            adjusted_samples_needed("resnet-50", 0, 32)


class TestScalingStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return scaling_study("resnet-50", "mxnet", per_gpu_batch=32)

    def test_covers_fig10_configurations(self, study):
        assert len(study) == 5
        labels = {point.configuration for point in study}
        assert "1M1G" in labels

    def test_single_machine_scaling_still_wins_on_time_to_accuracy(self, study):
        """At these scales (<= 4 GPUs, global batch 128 << 8192), hardware
        efficiency dominates: more GPUs reach accuracy sooner."""
        by_label = {point.configuration: point for point in study}
        assert (
            by_label["1M4G"].time_to_accuracy_s
            < by_label["1M2G"].time_to_accuracy_s
            < by_label["1M1G"].time_to_accuracy_s
        )

    def test_slow_ethernet_loses_despite_more_hardware(self, study):
        by_label = {point.configuration: point for point in study}
        eth = next(p for l, p in by_label.items() if "GbE" in l)
        assert eth.time_to_accuracy_s > by_label["1M1G"].time_to_accuracy_s

    def test_learning_rate_scales_with_workers(self, study):
        by_label = {point.configuration: point for point in study}
        assert by_label["1M4G"].learning_rate == pytest.approx(
            4 * by_label["1M1G"].learning_rate
        )

    def test_statistical_penalty_erodes_scaling_at_extreme_batch(self):
        """Past the critical batch, doubling GPUs stops halving
        time-to-accuracy even with a perfect network."""
        small = scaling_point("resnet-50", "mxnet", configuration("1M1G"), 32)
        # Hypothetical: same throughput per GPU at an enormous global batch.
        huge_global = adjusted_samples_needed("resnet-50", 65536, 32)
        base_needed = small.samples_needed
        assert huge_global > 5.0 * base_needed
