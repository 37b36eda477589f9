"""Measurement statistics for sampled training runs.

The paper (a Sigmetrics-community submission) samples 50-1000 stable-phase
iterations and reports point estimates; this module supplies the rigor
around those estimates: summary statistics, normal-theory and bootstrap
confidence intervals for mean throughput, sample sizing, and the Welch
test the bench harness's A/B verdicts use for "is framework A really
faster than framework B" questions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    """Summary of one sampled measurement series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def coefficient_of_variation(self) -> float:
        if self.mean:
            return self.std / self.mean
        # A zero mean with zero spread is a perfectly precise measurement
        # of zero, not an infinitely noisy one.
        return 0.0 if self.std == 0.0 else float("inf")

    @property
    def ci_half_width_fraction(self) -> float:
        """CI half-width relative to the mean (reporting precision).

        Zero-variance (or single-sample) series have a zero-width interval
        and report 0.0; a nonzero-width interval around a zero mean has no
        finite relative precision and reports ``inf``.
        """
        half_width = (self.ci_high - self.ci_low) / 2.0
        if self.mean:
            return half_width / self.mean
        return 0.0 if half_width == 0.0 else float("inf")


def _z_value(confidence: float) -> float:
    """Two-sided normal quantile for common confidence levels."""
    table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    if confidence not in table:
        raise ValueError(f"supported confidence levels: {sorted(table)}")
    return table[confidence]


def summarize(samples, confidence: float = 0.95) -> SampleSummary:
    """Normal-theory summary of a sample series.

    A single sample is a defined (degenerate) series: zero spread and a
    zero-width confidence interval at the observed value.

    Raises:
        ValueError: for an empty series.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 1:
        raise ValueError("need at least 1 sample")
    _z_value(confidence)  # validate even on the degenerate path
    mean = float(data.mean())
    std = float(data.std(ddof=1)) if data.size > 1 else 0.0
    half = _z_value(confidence) * std / math.sqrt(data.size)
    return SampleSummary(
        count=int(data.size),
        mean=mean,
        std=std,
        minimum=float(data.min()),
        maximum=float(data.max()),
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )


def bootstrap_ci(
    samples, confidence: float = 0.95, resamples: int = 2000, seed: int = 0
) -> tuple:
    """Percentile-bootstrap confidence interval for the mean — robust to
    the skew that warm-up leakage introduces into iteration-time samples.

    Degenerate inputs stay defined: a single sample, or a series with zero
    variance, resamples to itself on every draw, so the interval collapses
    to the zero-width ``(mean, mean)`` without running the resampler.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.size < 1:
        raise ValueError("need at least 1 sample")
    if resamples <= 0:
        raise ValueError("resamples must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if data.size == 1 or float(data.std()) == 0.0:
        mean = float(data.mean())
        return (mean, mean)
    rng = np.random.default_rng(seed)
    means = rng.choice(data, size=(resamples, data.size), replace=True).mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, alpha)),
        float(np.quantile(means, 1.0 - alpha)),
    )


def required_sample_count(
    pilot_samples, relative_precision: float = 0.02, confidence: float = 0.95
) -> int:
    """How many iterations must be sampled for the mean's CI half-width to
    reach ``relative_precision`` of the mean — the principled answer to the
    paper's 50-1000-iteration rule of thumb."""
    if relative_precision <= 0:
        raise ValueError("precision must be positive")
    summary = summarize(pilot_samples, confidence)
    z = _z_value(confidence)
    needed = (z * summary.coefficient_of_variation / relative_precision) ** 2
    return max(2, int(math.ceil(needed)))


def _normal_sf(z: float) -> float:
    """Standard-normal survival function P(Z >= z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def welch_statistic(samples_a, samples_b) -> float:
    """Welch's z statistic ``(mean_a - mean_b) / se`` for two series.

    A zero pooled standard error (both sides variance-free) yields 0.0
    when the means agree and ±inf when they differ — the comparison is
    then exact, not statistical.
    """
    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 samples per side")
    difference = float(a.mean() - b.mean())
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    if se == 0.0:
        if difference == 0.0:
            return 0.0
        return math.copysign(float("inf"), difference)
    return difference / se


def welch_p_value(samples_a, samples_b, alternative: str = "two-sided") -> float:
    """Welch (normal-approximation) p-value for a difference in means.

    ``alternative`` picks the hypothesis being tested against the null of
    equal means: ``"two-sided"`` (means differ), ``"greater"`` (mean of
    ``samples_a`` is larger), or ``"less"`` (it is smaller).
    """
    z = welch_statistic(samples_a, samples_b)
    if alternative == "two-sided":
        return min(1.0, 2.0 * _normal_sf(abs(z)))
    if alternative == "greater":
        return _normal_sf(z)
    if alternative == "less":
        return _normal_sf(-z)
    raise ValueError("alternative must be 'two-sided', 'greater' or 'less'")
