"""Mutant self-test for the schedule conformance invariants.

Following ``test_conformance_mutants``: inject one deliberate bug into
the schedule layer, then assert that *exactly* the intended invariant
fires and that the shrinker reduces the counterexample to the minimal
spec.  The clean simulator must fire nothing, including the two new
schedule invariants.

Every runner uses ``jobs=1`` and ``cache=None``: patches are not visible
to pool workers, and a warm cache would mask the injected bug.
"""

from __future__ import annotations

import pytest

import repro.schedule.integrator as integrator
from repro.conformance import ConformanceRunner, invariant_registry, shrink
from repro.conformance.generator import simplicity_order
from repro.engine.executor import PointSpec
from repro.models.registry import get_model


def _fresh_runner() -> ConformanceRunner:
    # Built AFTER the patch is applied: the runner memoizes sessions, so a
    # pre-patch runner would carry clean evidence.
    return ConformanceRunner(jobs=1, cache=None, include_grid=False, budget=0)


def _fired_point(spec: PointSpec, gpu: str = "p4000") -> list:
    runner = _fresh_runner()
    evidence = runner._gather_point(spec.model, spec.framework, spec.batch_size, gpu)
    assert evidence is not None
    return sorted(
        inv.name for inv in invariant_registry("point") if inv.check(evidence)
    )


def _patch_segment_accounting(monkeypatch):
    """Bug class: an off-by-one in segment sample accounting — each
    non-final segment's recorded end drifts one sample below the next
    segment's start, so the tiling leaks samples at every boundary."""
    import dataclasses

    orig = integrator.build_segments

    def leaky(schedule, base_batch, total_samples, model=None):
        segments = orig(schedule, base_batch, total_samples, model=model)
        broken = []
        for segment in segments:
            if segment.index < len(segments) - 1:
                segment = dataclasses.replace(
                    segment, end_samples=segment.end_samples - 1.0
                )
            broken.append(segment)
        return tuple(broken)

    monkeypatch.setattr(integrator, "build_segments", leaky)


class TestScheduleInvariantsRegistered:
    def test_both_schedule_invariants_are_point_scope(self):
        names = {inv.name for inv in invariant_registry("point")}
        assert "schedule-sample-conservation" in names
        assert "schedule-fixed-equivalence" in names


class TestScheduleMutants:
    def test_clean_baseline_fires_nothing(self):
        assert _fired_point(PointSpec("resnet-50", "mxnet", 32, "")) == []

    def test_clean_baseline_fires_nothing_on_the_simplest_model(self):
        assert _fired_point(PointSpec("a3c", "mxnet", 8, "")) == []

    def test_models_without_curves_are_exempt(self):
        # deep-speech-2 has no convergence curve, so the schedule
        # invariants must pass vacuously rather than error.
        assert _fired_point(PointSpec("deep-speech-2", "mxnet", 4, "")) == []

    def test_segment_accounting_mutant_fires_exactly_conservation(
        self, monkeypatch
    ):
        _patch_segment_accounting(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 32, ""))
        assert fired == ["schedule-sample-conservation"]

    def test_segment_accounting_mutant_fires_on_the_simplest_model_too(
        self, monkeypatch
    ):
        _patch_segment_accounting(monkeypatch)
        fired = _fired_point(PointSpec("a3c", "mxnet", 8, ""))
        assert fired == ["schedule-sample-conservation"]


class TestScheduleShrinker:
    def test_accounting_mutant_shrinks_to_minimal_spec(self, monkeypatch):
        _patch_segment_accounting(monkeypatch)
        runner = _fresh_runner()
        # A deliberately baroque starting point: big model, faulted
        # scenario, the bigger GPU.
        start = PointSpec(
            "inception-v3",
            "tensorflow",
            32,
            "cluster=2M1G:infiniband; steps=10; seed=3; crash=1@5",
        )
        assert runner.violates("schedule-sample-conservation", start, "titan xp")

        minimal, gpu, evals = shrink(
            start,
            "titan xp",
            lambda spec, g: runner.violates(
                "schedule-sample-conservation", spec, g
            ),
        )
        # The bug is global to the integrator, so the search must land on
        # THE simplest configuration: first model in the simplicity order,
        # its first framework, the smallest declared batch, no faults,
        # default GPU.
        simplest = simplicity_order()[0]
        assert minimal.model == simplest == "a3c"
        assert minimal.framework == get_model(simplest).frameworks[0]
        assert minimal.batch_size == min(get_model(simplest).batch_sizes)
        assert minimal.faults == ""
        assert gpu == "p4000"
        assert evals <= 24
        # And the minimal spec still reproduces the violation.
        assert runner.violates("schedule-sample-conservation", minimal, gpu)

    def test_shrink_is_identity_on_clean_simulator(self):
        runner = _fresh_runner()
        spec = PointSpec("a3c", "mxnet", 8, "")
        assert not runner.violates("schedule-sample-conservation", spec, "p4000")
        assert not runner.violates("schedule-fixed-equivalence", spec, "p4000")


class TestConservationMessages:
    """The invariant reports the precise boundary it caught, so a fuzzing
    report names the broken segment rather than just 'conservation'."""

    def test_messages_name_the_probe_and_the_leak(self, monkeypatch):
        _patch_segment_accounting(monkeypatch)
        runner = _fresh_runner()
        evidence = runner._gather_point("resnet-50", "mxnet", 32, "p4000")
        [invariant] = [
            inv
            for inv in invariant_registry("point")
            if inv.name == "schedule-sample-conservation"
        ]
        messages = invariant.check(evidence)
        assert messages
        for message in messages:
            assert message.startswith("schedule ")
