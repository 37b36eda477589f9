"""Tests for measurement statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiling.sampling import IterationTimeline, StablePhaseSampler
from repro.profiling.statistics import (
    bootstrap_ci,
    required_sample_count,
    summarize,
    welch_p_value,
    welch_statistic,
)


class TestSummarize:
    def test_basic_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_ci_narrows_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(100, 5, 20))
        large = summarize(rng.normal(100, 5, 2000))
        assert large.ci_half_width_fraction < small.ci_half_width_fraction

    def test_ci_covers_truth_usually(self):
        rng = np.random.default_rng(1)
        covered = 0
        for trial in range(100):
            summary = summarize(rng.normal(50.0, 4.0, 60))
            if summary.ci_low <= 50.0 <= summary.ci_high:
                covered += 1
        assert covered >= 88  # ~95% nominal coverage

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0, 2.0], confidence=0.5)
        with pytest.raises(ValueError):
            summarize([1.0], confidence=0.5)

    def test_single_sample_is_a_defined_zero_width_interval(self):
        summary = summarize([3.5])
        assert summary.count == 1
        assert summary.mean == 3.5
        assert summary.std == 0.0
        assert (summary.ci_low, summary.ci_high) == (3.5, 3.5)
        assert summary.ci_half_width_fraction == 0.0

    def test_zero_variance_series(self):
        summary = summarize([2.0] * 10)
        assert (summary.ci_low, summary.ci_high) == (2.0, 2.0)
        assert summary.coefficient_of_variation == 0.0
        assert summary.ci_half_width_fraction == 0.0

    def test_zero_mean_degenerate_fractions(self):
        assert summarize([0.0, 0.0]).coefficient_of_variation == 0.0
        spread = summarize([-1.0, 1.0])
        assert spread.coefficient_of_variation == float("inf")
        assert spread.ci_half_width_fraction == float("inf")

    @given(
        values=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, values):
        summary = summarize(values)
        eps = 1e-9 * max(1.0, abs(summary.mean))
        assert summary.minimum - eps <= summary.mean <= summary.maximum + eps
        assert summary.ci_low - eps <= summary.mean <= summary.ci_high + eps


class TestBootstrap:
    def test_agrees_with_normal_theory_on_gaussian_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(100, 5, 400)
        summary = summarize(data)
        low, high = bootstrap_ci(data, seed=1)
        assert low == pytest.approx(summary.ci_low, abs=0.5)
        assert high == pytest.approx(summary.ci_high, abs=0.5)

    def test_deterministic_by_seed(self):
        data = np.arange(50, dtype=float)
        assert bootstrap_ci(data, seed=3) == bootstrap_ci(data, seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], resamples=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_degenerate_inputs_give_zero_width_intervals(self):
        assert bootstrap_ci([4.0]) == (4.0, 4.0)
        assert bootstrap_ci([7.0] * 25) == (7.0, 7.0)


class TestRequiredSamples:
    def test_tighter_precision_needs_more_samples(self):
        rng = np.random.default_rng(0)
        pilot = rng.normal(100, 10, 50)
        loose = required_sample_count(pilot, relative_precision=0.05)
        tight = required_sample_count(pilot, relative_precision=0.01)
        assert tight > 20 * loose * 0.9  # ~(5x)^2

    def test_noisier_measurements_need_more_samples(self):
        rng = np.random.default_rng(0)
        quiet = required_sample_count(rng.normal(100, 1, 50))
        noisy = required_sample_count(rng.normal(100, 10, 50))
        assert noisy > quiet

    def test_paper_rule_of_thumb_is_justified(self):
        """With the stable phase's ~2% iteration jitter, the paper's
        50-1000 sample window achieves ~1% reporting precision."""
        timeline = IterationTimeline(stable_iteration_s=0.1, jitter=0.02)
        durations = timeline.durations(1500)
        sampler = StablePhaseSampler()
        window = sampler.choose_window(durations, 500)
        stable = durations[window.start_iteration : window.end_iteration]
        needed = required_sample_count(stable, relative_precision=0.01)
        assert needed <= 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            required_sample_count([1.0, 2.0], relative_precision=0.0)


class TestWelch:
    def test_statistic_signs(self):
        rng = np.random.default_rng(0)
        high = rng.normal(110, 5, 100)
        low = rng.normal(100, 5, 100)
        assert welch_statistic(high, low) > 0
        assert welch_statistic(low, high) < 0

    def test_zero_variance_sides_are_exact(self):
        assert welch_statistic([1.0, 1.0], [1.0, 1.0]) == 0.0
        assert welch_statistic([2.0, 2.0], [1.0, 1.0]) == float("inf")
        assert welch_p_value([2.0, 2.0], [1.0, 1.0], "greater") == 0.0
        assert welch_p_value([2.0, 2.0], [1.0, 1.0], "less") == 1.0

    def test_one_sided_pair_sums_to_one(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(100, 5, 50), rng.normal(101, 5, 50)
        greater = welch_p_value(a, b, "greater")
        less = welch_p_value(a, b, "less")
        assert greater + less == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            welch_statistic([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_p_value([1.0, 2.0], [1.0, 2.0], "sideways")

    def test_p_values_uniform_under_null(self):
        """Seeded property: with no real difference, p-values must be
        ~Uniform(0,1) — the false-positive rate at any alpha equals alpha.
        Checked at three cut points over 400 null comparisons."""
        rng = np.random.default_rng(7)
        p_values = np.array(
            [
                welch_p_value(rng.normal(100, 5, 40), rng.normal(100, 5, 40))
                for _ in range(400)
            ]
        )
        for cut in (0.1, 0.5, 0.9):
            observed = float((p_values <= cut).mean())
            # Binomial(400, cut) three-sigma band.
            band = 3.0 * math.sqrt(cut * (1.0 - cut) / p_values.size)
            assert abs(observed - cut) <= band, (cut, observed)

    def test_detects_5pct_slowdown_with_power(self):
        """Seeded property: at the sample count `required_sample_count`
        chooses from a pilot, a one-sided Welch test at alpha=0.05 detects
        a 5% mean slowdown in >= 90% of trials."""
        rng = np.random.default_rng(11)
        pilot = rng.normal(1.0, 0.02, 50)
        n = required_sample_count(pilot, relative_precision=0.005)
        detected = 0
        trials = 100
        for _ in range(trials):
            baseline = rng.normal(1.0, 0.02, n)
            slowed = rng.normal(1.05, 0.02 * 1.05, n)
            if welch_p_value(slowed, baseline, "greater") < 0.05:
                detected += 1
        assert detected >= 0.9 * trials, f"power {detected}/{trials} at n={n}"
