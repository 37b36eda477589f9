"""Benchmark subjects: the things an A/B run measures.

A *subject* owns everything deterministic about one side of a comparison
— a compiled plan, plus any host-side time the session adds on top — and
exposes exactly one operation: ``measure(stream)``, one noisy iteration
time drawn under one :class:`~repro.bench.noise.NoiseStream`.  All
expensive work (graph build, lowering, roofline timing, and the plan's
duration and host-sync arrays) happens once in the constructor; the
per-sample path draws the noise factors and runs
:func:`repro.plan.executor.replay_arrays`: one prefix sum while the GPU
never waits, or the kernel-by-kernel :func:`~repro.plan.executor.replay`
for a stream with host syncs or an idle gap.

``subject_for`` builds the standard subjects ``tbd compare`` measures:
``baseline`` (the plan as compiled), any transform pipeline in
:func:`~repro.plan.pipeline.parse_transform_spec` syntax (``fused-rnn``,
``fused_rnn+fp16+offload:0.5``), or ``slowdown:<pct>`` — a biased
baseline used as the harness's own negative control.
"""

from __future__ import annotations

import numpy as np

from repro.plan.compiled import CompiledPlan
from repro.plan.executor import replay_arrays
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession


class Subject:
    """Base class: a label plus a ``measure(stream) -> seconds`` method."""

    def __init__(self, label: str):
        self.label = label

    def measure(self, stream) -> float:
        """One noisy iteration time, in seconds, drawn from ``stream``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Canonical-JSON-ready identity of this side of an A/B."""
        return {"kind": type(self).__name__, "label": self.label}


class PlanSubject(Subject):
    """One compiled plan measured through the noisy dispatch/execute
    recurrence, plus the plan's offload stall (host-link traffic) on the
    interconnect channel.  ``kernel_bias`` is a deterministic kernel-time
    slowdown — the injected-regression probe.  ``host_s`` is host-side
    time the session adds on top of the plan (so the subject measures
    ``run_iteration().iteration_time_s``); it rides the stream's
    correlated run factor, which moves a whole iteration together."""

    def __init__(
        self,
        label: str,
        plan: CompiledPlan,
        kernel_bias: float = 1.0,
        host_s: float = 0.0,
    ):
        super().__init__(label)
        if kernel_bias <= 0.0:
            raise ValueError("kernel_bias must be positive")
        if host_s < 0.0:
            raise ValueError("host_s must be non-negative")
        self.plan = plan
        self.kernel_bias = kernel_bias
        self.host_s = host_s
        self._durations = np.array(plan.execution.durations)
        if kernel_bias != 1.0:
            self._durations *= kernel_bias
        self._host_syncs = np.array(plan.execution.host_syncs, dtype=bool)

    @property
    def noiseless_s(self) -> float:
        """The closed-form (noise-free) iteration time of this subject."""
        return self.plan.makespan_s * self.kernel_bias + self.host_s

    def measure(self, stream) -> float:
        """One iteration of the plan replayed under ``stream``'s kernel
        and dispatch noise (one busy-period scan of
        :func:`~repro.plan.executor.replay_arrays`, which falls back to
        ``replay`` for host syncs or an idle gap), plus
        offload stall and host time, in seconds."""
        count = len(self._durations)
        makespan = replay_arrays(
            self._durations,
            self._host_syncs,
            self.plan.framework,
            stream.kernel_factors(count),
            stream.dispatch_factors(count),
        )
        stall = self.plan.execution.offload_stall_s
        if stall:
            makespan += stall * stream.interconnect_factor()
        if self.host_s:
            makespan += self.host_s * stream.run_factor
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


def subject_for(
    treatment: str,
    model: str,
    framework: str,
    batch_size: int | None = None,
    gpu=None,
) -> PlanSubject:
    """Build one measurable subject for a ``(model, framework, batch)``
    point.

    ``treatment`` is ``"baseline"``, ``"slowdown:<percent>"`` (e.g.
    ``slowdown:5`` for a deterministic 5% kernel-time regression — the
    harness's negative control), or a transform pipeline spec such as
    ``fused-rnn`` or ``fused_rnn+fp16``.

    Raises:
        ValueError: for a spec naming no known transform.
    """
    kwargs = {"gpu": gpu} if gpu is not None else {}
    session = TrainingSession(model, framework, **kwargs)
    if treatment == "baseline":
        return PlanSubject("baseline", session.compile(batch_size))
    if treatment.startswith("slowdown:"):
        percent = float(treatment.split(":", 1)[1])
        if percent <= -100.0:
            raise ValueError("slowdown percent must exceed -100")
        return PlanSubject(
            treatment,
            session.compile(batch_size),
            kernel_bias=1.0 + percent / 100.0,
        )
    pipeline = parse_transform_spec(treatment)
    return PlanSubject(treatment, session.compile_transformed(batch_size, pipeline))
