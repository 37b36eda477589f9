"""Statistically sound A/B comparison of two frameworks.

"Is MXNet really faster than TensorFlow on ResNet-50, or is that noise?"
The paper answers with single sampled numbers; this answers with the
bench harness's measurement statistics.  Each framework becomes one
:class:`~repro.bench.subjects.PlanSubject` whose noiseless value is the
session's full iteration time (plan makespan plus host-side costs), and
the :class:`~repro.bench.runner.InterleavedRunner` measures the two
interleaved under the seeded noise model — the same runner, noise model
and verdict rule as the tuner's confirmation.  ``tbd compare`` prints it,
and measures a treatment against its framework's baseline with the same
runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.training.session import TrainingSession


@dataclass(frozen=True)
class ABReport:
    """Outcome of one A/B throughput comparison: a view over the runner's
    :class:`~repro.bench.runner.BenchResult` (side A is its baseline,
    side B its treatment)."""

    label_a: str
    label_b: str
    #: Samples per second, ``effective_samples / median iteration time``.
    throughput_a: float
    throughput_b: float
    result: object  # repro.bench.runner.BenchResult

    @property
    def samples(self) -> int:
        """Iterations sampled per side (adaptive unless pinned)."""
        return self.result.samples_per_side

    @property
    def faster(self) -> str:
        """The faster side's label, or ``"indistinguishable"``."""
        return {
            "regression": self.label_a,
            "improvement": self.label_b,
        }.get(self.result.verdict, "indistinguishable")

    @property
    def verdict(self) -> str:
        """Human-readable outcome."""
        if self.faster == "indistinguishable":
            return (
                f"{self.label_a} and {self.label_b} are statistically "
                "indistinguishable at this sample size"
            )
        throughputs = (self.throughput_a, self.throughput_b)
        ratio = max(throughputs) / min(throughputs)
        return f"{self.faster} is faster (x{ratio:.3f} the throughput)"


def ab_compare(
    model: str,
    framework_a: str,
    framework_b: str,
    batch: int,
    samples: int | None = None,
    runner=None,
) -> ABReport:
    """Compare two frameworks on one model with sampled iterations.

    ``runner`` is the :class:`~repro.bench.runner.InterleavedRunner` to
    measure with (default: one at its defaults).  By default it sizes the
    sample count from a pilot block, so noisy configurations sample more
    and quiet ones stop early; pass ``samples=`` to pin the per-side count.
    """
    # Imported here: repro.bench imports repro.profiling.statistics, and
    # this module is part of the repro.profiling package.
    from repro.bench.runner import InterleavedRunner
    from repro.bench.subjects import PlanSubject

    subjects = []
    effective_samples = []
    for framework in (framework_a, framework_b):
        session = TrainingSession(model, framework)
        profile = session.run_iteration(batch)
        plan = session.compile(batch)
        subjects.append(
            PlanSubject(
                framework,
                plan,
                host_s=profile.iteration_time_s - plan.makespan_s,
            )
        )
        effective_samples.append(profile.effective_samples)
    runner = runner if runner is not None else InterleavedRunner()
    result = runner.run(
        *subjects,
        name=f"{model}/b{batch}:{framework_a}-vs-{framework_b}",
        samples=samples,
    )
    return ABReport(
        label_a=framework_a,
        label_b=framework_b,
        throughput_a=effective_samples[0] / result.median_baseline_s,
        throughput_b=effective_samples[1] / result.median_treatment_s,
        result=result,
    )
