"""The interleaved A/B runner.

Benchmarking baseline-then-treatment in two blocks confounds the
comparison with everything that drifts between the blocks — thermal
state, background load, allocator fragmentation.  The TorchDynamo harness
defeats that by *interleaving*: baseline and treatment alternate run by
run, in randomized order within each pair, so any slow drift lands on
both sides equally and cancels out of the difference.  This runner is
that idea against the simulated noise model.

Sample sizing is adaptive: a pilot block per side feeds
:func:`repro.profiling.statistics.required_sample_count`, so quiet
configurations stop early and noisy ones keep sampling until the target
CI half-width is met (bounded by :data:`MAX_SAMPLES`).  The verdict is
deliberately conservative — a *regression* requires both a one-sided
Welch p-value below alpha **and** a median slowdown above the
``min_effect`` noise floor, which is what lets a test assert a verdict
without flaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.noise import NoiseModel
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.profiling.statistics import required_sample_count, welch_p_value

#: Salt separating the interleaving-order RNG from the measurement
#: streams (which are seeded ``(seed, run_index)``).
_ORDER_SALT = 0xBE9C

#: Adaptive sample sizing: a pilot of ``PILOT_SAMPLES`` pairs sizes the
#: run to reach ``RELATIVE_PRECISION`` of the mean, clamped to
#: ``[MIN_SAMPLES, MAX_SAMPLES]`` per side.
MIN_SAMPLES = 30
MAX_SAMPLES = 300
PILOT_SAMPLES = 20
RELATIVE_PRECISION = 0.005
#: Coverage of the bootstrap speedup interval.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class BenchResult:
    """One A/B comparison's statistical outcome."""

    name: str
    baseline: dict  # subject identity documents (Subject.describe)
    treatment: dict
    samples_per_side: int
    median_baseline_s: float
    median_treatment_s: float
    mean_baseline_s: float
    mean_treatment_s: float
    #: median_baseline / median_treatment — > 1 means the treatment is
    #: faster, matching the optimization literature's convention.
    speedup: float
    speedup_ci: tuple
    #: One-sided Welch p-value for "the treatment is *slower*".
    p_regression: float
    #: One-sided Welch p-value for "the treatment is *faster*".
    p_improvement: float
    alpha: float
    min_effect: float
    verdict: str  # "improvement" | "regression" | "indistinguishable"

    @property
    def slowdown_fraction(self) -> float:
        """Relative median slowdown of the treatment (negative = faster)."""
        return self.median_treatment_s / self.median_baseline_s - 1.0

    def to_doc(self) -> dict:
        """Canonical-JSON-ready record of this result."""
        return {
            "name": self.name,
            "baseline": dict(sorted(self.baseline.items())),
            "treatment": dict(sorted(self.treatment.items())),
            "samples_per_side": self.samples_per_side,
            "median_baseline_s": self.median_baseline_s,
            "median_treatment_s": self.median_treatment_s,
            "mean_baseline_s": self.mean_baseline_s,
            "mean_treatment_s": self.mean_treatment_s,
            "speedup": self.speedup,
            "speedup_ci": list(self.speedup_ci),
            "p_regression": self.p_regression,
            "p_improvement": self.p_improvement,
            "alpha": self.alpha,
            "min_effect": self.min_effect,
            "verdict": self.verdict,
        }

    def format_row(self) -> str:
        """One printable summary row: speedup, its interval, p-value,
        sample count and verdict."""
        low, high = self.speedup_ci
        return (
            f"{self.name:28s} speedup x{self.speedup:6.3f} "
            f"[{low:6.3f}, {high:6.3f}]  p(slower)={self.p_regression:7.4f} "
            f"n={self.samples_per_side:<4d} {self.verdict}"
        )


def _bootstrap_speedup_ci(
    baseline, treatment, seed: int, resamples: int = 1000
) -> tuple:
    """Percentile-bootstrap :data:`CONFIDENCE` interval for the ratio of
    medians."""
    a = np.asarray(baseline, dtype=float)
    b = np.asarray(treatment, dtype=float)
    if float(a.std()) == 0.0 and float(b.std()) == 0.0:
        ratio = float(np.median(a) / np.median(b))
        return (ratio, ratio)
    rng = np.random.default_rng(seed)
    medians_a = np.median(
        rng.choice(a, size=(resamples, a.size), replace=True), axis=1
    )
    medians_b = np.median(
        rng.choice(b, size=(resamples, b.size), replace=True), axis=1
    )
    ratios = medians_a / medians_b
    alpha = (1.0 - CONFIDENCE) / 2.0
    return (
        float(np.quantile(ratios, alpha)),
        float(np.quantile(ratios, 1.0 - alpha)),
    )


def _target_samples(baseline_times, treatment_times) -> int:
    """Per-side sample count the pilot's variance calls for, clamped."""
    needed = max(
        required_sample_count(baseline_times, relative_precision=RELATIVE_PRECISION),
        required_sample_count(treatment_times, relative_precision=RELATIVE_PRECISION),
    )
    return max(MIN_SAMPLES, min(MAX_SAMPLES, needed))


class InterleavedRunner:
    """Alternates baseline and treatment measurements under one seeded
    noise model and returns a :class:`BenchResult`."""

    def __init__(
        self,
        noise: NoiseModel | None = None,
        alpha: float = 0.05,
        min_effect: float = 0.01,
    ):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if min_effect < 0.0:
            raise ValueError("min_effect must be non-negative")
        self.noise = noise if noise is not None else NoiseModel()
        self.alpha = alpha
        self.min_effect = min_effect

    def run(self, baseline, treatment, name: str | None = None, samples=None):
        """Measure ``baseline`` vs ``treatment`` interleaved.

        ``samples`` pins the per-side count explicitly; by default a pilot
        of :data:`PILOT_SAMPLES` pairs decides it from the observed variance.
        Every measurement consumes its own noise stream (seeded by the
        model seed and a global run index), and the within-pair order is
        randomized by a separate seeded RNG so neither side systematically
        sees the earlier index.
        """
        if baseline is treatment:
            raise ValueError(
                "baseline and treatment must be distinct subjects (build a "
                "second 'baseline' subject for a no-op A/B)"
            )
        label = name if name is not None else f"{baseline.label}-vs-{treatment.label}"
        span = trace_span(
            "bench.run",
            case=label,
            baseline=baseline.label,
            treatment=treatment.label,
            seed=self.noise.seed,
        )
        with span:
            order_rng = np.random.default_rng((self.noise.seed, _ORDER_SALT))
            times_a: list = []
            times_b: list = []
            run_index = 0

            def measure_pair() -> None:
                nonlocal run_index
                first, second = (
                    (baseline, treatment)
                    if order_rng.integers(0, 2) == 0
                    else (treatment, baseline)
                )
                for subject in (first, second):
                    value = subject.measure(self.noise.stream(run_index))
                    run_index += 1
                    (times_a if subject is baseline else times_b).append(value)

            target = samples
            if target is None:
                while len(times_a) < PILOT_SAMPLES:
                    measure_pair()
                target = _target_samples(times_a, times_b)
            if target < 2:
                raise ValueError("need at least 2 samples per side")
            while len(times_a) < target:
                measure_pair()
            times_a = times_a[:target]
            times_b = times_b[:target]

            result = self._verdict(label, baseline, treatment, times_a, times_b)
            span.set_attributes(
                samples_per_side=result.samples_per_side,
                speedup=result.speedup,
                p_regression=result.p_regression,
                verdict=result.verdict,
            )
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("bench_samples_total").inc(
                    2 * result.samples_per_side
                )
                metrics.counter(
                    "bench_verdicts_total", {"verdict": result.verdict}
                ).inc()
        return result

    def _verdict(self, label, baseline, treatment, times_a, times_b) -> BenchResult:
        a = np.asarray(times_a, dtype=float)
        b = np.asarray(times_b, dtype=float)
        median_a = float(np.median(a))
        median_b = float(np.median(b))
        speedup = median_a / median_b
        slowdown = median_b / median_a - 1.0
        p_regression = welch_p_value(b, a, "greater")
        p_improvement = welch_p_value(b, a, "less")
        if p_regression < self.alpha and slowdown > self.min_effect:
            verdict = "regression"
        elif p_improvement < self.alpha and -slowdown > self.min_effect:
            verdict = "improvement"
        else:
            verdict = "indistinguishable"
        return BenchResult(
            name=label,
            baseline=baseline.describe(),
            treatment=treatment.describe(),
            samples_per_side=int(a.size),
            median_baseline_s=median_a,
            median_treatment_s=median_b,
            mean_baseline_s=float(a.mean()),
            mean_treatment_s=float(b.mean()),
            speedup=speedup,
            speedup_ci=_bootstrap_speedup_ci(a, b, seed=self.noise.seed),
            p_regression=p_regression,
            p_improvement=p_improvement,
            alpha=self.alpha,
            min_effect=self.min_effect,
            verdict=verdict,
        )
