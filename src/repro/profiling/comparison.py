"""Statistically sound A/B comparison of benchmark configurations.

"Is MXNet really faster than TensorFlow on ResNet-50, or is that noise?"
The paper answers with single sampled numbers; this harness answers with
measurement statistics: it synthesizes per-iteration throughput samples
for each side (the simulated stable-phase iteration time plus the observed
~2% stable-phase jitter, via :class:`IterationTimeline`), then runs the
Welch comparison from :mod:`repro.profiling.statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.profiling.sampling import IterationTimeline, StablePhaseSampler
from repro.profiling.statistics import (
    ComparisonResult,
    compare,
    required_sample_count,
    summarize,
)
from repro.training.session import TrainingSession

#: Pilot window used to estimate the variance before auto-sizing.
_PILOT_SAMPLES = 50
#: Target CI half-width (relative to the mean) for the auto-sized run.
_DEFAULT_PRECISION = 0.005


@dataclass(frozen=True)
class ABReport:
    """Outcome of one A/B throughput comparison."""

    label_a: str
    label_b: str
    mean_a: float
    mean_b: float
    ci_a: tuple
    ci_b: tuple
    result: ComparisonResult
    #: Iterations actually sampled per side (auto-sized unless overridden).
    samples: int = 0

    @property
    def verdict(self) -> str:
        """Human-readable outcome."""
        if not self.result.significant:
            return (
                f"{self.label_a} and {self.label_b} are statistically "
                "indistinguishable at this sample size"
            )
        return (
            f"{self.result.faster} is faster "
            f"(difference {abs(self.result.mean_difference):.1f}, 95% CI "
            f"[{self.result.ci_low:.1f}, {self.result.ci_high:.1f}])"
        )


def _throughput_samples(
    model: str, framework: str, batch: int, iterations: int, seed: int
):
    session = TrainingSession(model, framework)
    profile = session.run_iteration(batch)
    timeline = IterationTimeline(
        stable_iteration_s=profile.iteration_time_s, jitter=0.02, seed=seed
    )
    durations = timeline.durations(max(600, iterations * 3))
    sampler = StablePhaseSampler()
    window = sampler.choose_window(durations, iterations)
    stable = durations[window.start_iteration : window.end_iteration]
    return profile.effective_samples / stable


def _auto_sample_count(
    model: str,
    framework_a: str,
    framework_b: str,
    batch: int,
    relative_precision: float,
) -> int:
    """Sample count sized to the *observed* variance: draw a short pilot
    window per side, ask :func:`required_sample_count` what each needs for
    the target precision, and take the worse of the two (clamped to the
    paper's 50-1000 sampling range)."""
    needed = max(
        required_sample_count(
            _throughput_samples(model, framework_a, batch, _PILOT_SAMPLES, seed=1),
            relative_precision=relative_precision,
        ),
        required_sample_count(
            _throughput_samples(model, framework_b, batch, _PILOT_SAMPLES, seed=2),
            relative_precision=relative_precision,
        ),
    )
    return max(50, min(1000, needed))


def ab_compare(
    model: str,
    framework_a: str,
    framework_b: str,
    batch: int,
    samples: int | None = None,
    relative_precision: float = _DEFAULT_PRECISION,
) -> ABReport:
    """Compare two frameworks on one model with sampled iterations.

    By default the sample count adapts to the observed variance: a pilot
    window per side feeds :func:`required_sample_count` at
    ``relative_precision``, so noisy configurations sample more and quiet
    ones stop early.  Pass an explicit ``samples=`` to pin the
    caller-fixed count instead.
    """
    if samples is None:
        samples = _auto_sample_count(
            model, framework_a, framework_b, batch, relative_precision
        )
    samples_a = _throughput_samples(model, framework_a, batch, samples, seed=1)
    samples_b = _throughput_samples(model, framework_b, batch, samples, seed=2)
    summary_a = summarize(samples_a)
    summary_b = summarize(samples_b)
    result = compare(samples_a, samples_b, (framework_a, framework_b))
    return ABReport(
        label_a=framework_a,
        label_b=framework_b,
        mean_a=summary_a.mean,
        mean_b=summary_b.mean,
        ci_a=(summary_a.ci_low, summary_a.ci_high),
        ci_b=(summary_b.ci_low, summary_b.ci_high),
        result=result,
        samples=int(samples),
    )
