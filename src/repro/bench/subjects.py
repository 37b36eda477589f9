"""Benchmark subjects: the things an A/B run measures.

A *subject* owns everything deterministic about one side of a comparison
— a compiled plan, or a distributed configuration — and exposes exactly
one operation: ``measure(stream)``, one noisy iteration time drawn under
one :class:`~repro.bench.noise.NoiseStream`.  All expensive work (graph
build, lowering, roofline timing) happens once in the constructor; the
per-sample path is the fast makespan recurrence from
:mod:`repro.plan.executor`.

``subject_for`` builds the standard subjects the CLI and suites use:
``baseline`` (the plan as compiled), a named plan transform
(``fused-rnn``, ``fp16-storage``), a full transform pipeline
(``pipeline:fused_rnn+fp16+offload:0.5`` — how the tune suite measures
autotuner winners), or ``slowdown:<pct>`` — a biased baseline used as
the harness's own negative control.
"""

from __future__ import annotations

from repro.plan.compiled import CompiledPlan
from repro.plan.executor import makespan_under_noise, plan_arrays
from repro.plan.transform import FusedRNNTransform, HalfPrecisionStorageTransform
from repro.training.session import TrainingSession


class Subject:
    """Base class: a label plus a ``measure(stream) -> seconds`` method."""

    def __init__(self, label: str):
        self.label = label

    def measure(self, stream) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        """Canonical-JSON-ready identity for the trajectory record."""
        return {"kind": type(self).__name__, "label": self.label}


class PlanSubject(Subject):
    """One compiled plan measured through the noisy dispatch/execute
    recurrence, plus the plan's offload stall (host-link traffic) on the
    interconnect channel.  ``kernel_bias`` layers a deterministic slowdown
    on top of whatever bias the noise model itself carries (their product
    is what the executor sees) — the injected-regression probe."""

    def __init__(self, label: str, plan: CompiledPlan, kernel_bias: float = 1.0):
        super().__init__(label)
        if kernel_bias <= 0.0:
            raise ValueError("kernel_bias must be positive")
        self.plan = plan
        self.kernel_bias = kernel_bias
        self._durations, self._host_syncs = plan_arrays(plan.timings)
        if kernel_bias != 1.0:
            self._durations = [d * kernel_bias for d in self._durations]

    @property
    def noiseless_s(self) -> float:
        """The closed-form (noise-free) iteration time of this subject."""
        return self.plan.makespan_s * self.kernel_bias

    def measure(self, stream) -> float:
        makespan = makespan_under_noise(
            self._durations, self._host_syncs, self.plan.framework, stream
        )
        stall = self.plan.execution.offload_stall_s
        if stall:
            makespan += stall * stream.interconnect_factor()
        return makespan

    def describe(self) -> dict:
        doc = super().describe()
        doc.update(
            {
                "model": self.plan.graph.model_name,
                "framework": self.plan.framework.key,
                "batch_size": self.plan.graph.batch_size,
                "gpu": self.plan.gpu.name,
                "kernels": len(self.plan.kernels),
                "kernel_bias": self.kernel_bias,
            }
        )
        return doc


class ClusterSubject(Subject):
    """A distributed data-parallel iteration under interconnect noise.

    The deterministic profile is computed once; per sample, the compute
    share rides the kernel-jitter channel and the communication share the
    interconnect channel — the measurement-layer view of a fabric whose
    latency wobbles under contention.
    """

    def __init__(self, label: str, profile):
        super().__init__(label)
        iteration = profile.iteration_time_s
        comm = iteration * profile.communication_fraction
        self._compute_s = iteration - comm
        self._comm_s = comm

    @property
    def noiseless_s(self) -> float:
        return self._compute_s + self._comm_s

    def measure(self, stream) -> float:
        compute_factor = float(stream.kernel_factors(1)[0])
        return (
            self._compute_s * compute_factor
            + self._comm_s * stream.interconnect_factor()
        )


#: Named treatments ``subject_for`` understands.
TRANSFORMS = {
    "fused-rnn": FusedRNNTransform,
    "fp16-storage": HalfPrecisionStorageTransform,
}


def subject_for(
    treatment: str,
    model: str,
    framework: str,
    batch_size: int | None = None,
    gpu=None,
) -> Subject:
    """Build one measurable subject for a ``(model, framework, batch)``
    point.

    ``treatment`` is ``"baseline"``, a :data:`TRANSFORMS` name,
    ``"pipeline:<spec>"`` (a full transform pipeline in
    :func:`~repro.plan.pipeline.parse_transform_spec` syntax), or
    ``"slowdown:<percent>"`` (e.g. ``slowdown:5`` for a deterministic 5%
    kernel-time regression — the gate's negative control).
    """
    kwargs = {"gpu": gpu} if gpu is not None else {}
    session = TrainingSession(model, framework, **kwargs)
    plan = session.compile(batch_size)
    if treatment == "baseline":
        return PlanSubject("baseline", plan)
    if treatment.startswith("slowdown:"):
        percent = float(treatment.split(":", 1)[1])
        if percent <= -100.0:
            raise ValueError("slowdown percent must exceed -100")
        return PlanSubject(treatment, plan, kernel_bias=1.0 + percent / 100.0)
    if treatment.startswith("pipeline:"):
        from repro.plan.pipeline import parse_transform_spec

        pipeline = parse_transform_spec(treatment.split(":", 1)[1])
        return PlanSubject(
            treatment, session.compile_transformed(batch_size, pipeline)
        )
    if treatment in TRANSFORMS:
        transformed = TRANSFORMS[treatment]().apply(plan)
        return PlanSubject(treatment, transformed)
    known = ", ".join(sorted(TRANSFORMS))
    raise ValueError(
        f"unknown treatment {treatment!r}; expected 'baseline', "
        f"'pipeline:<spec>', 'slowdown:<pct>', or one of: {known}"
    )
