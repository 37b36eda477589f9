"""Mutant self-test: the harness must catch the bugs it was built for.

Each test monkeypatches one deliberate bug into the simulator (a
mis-scaled roofline, an inflated memory snapshot, a fudged throughput, a
comm-overlap or offload-overlap factor above one), then asserts that
*exactly* the intended invariant fires — no more, no less — and that the
shrinker reduces the counterexample to the minimal spec: simplest model,
smallest ladder batch, no faults, default GPU.

Every runner here uses ``jobs=1`` and ``cache=None``: patches are not
visible to pool workers, and a warm cache would mask the injected bug.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.conformance.invariants as conf_invariants
import repro.core.metrics as core_metrics
import repro.distributed.data_parallel as data_parallel
import repro.hardware.memory as hwmem
import repro.hardware.roofline as roofline
import repro.plan.transform as plan_transform
import repro.training.session as training_session
from repro.conformance import ConformanceRunner, invariant_registry, shrink
from repro.conformance.generator import simplicity_order
from repro.engine.executor import PointSpec
from repro.models.registry import get_model
from repro.tune.search import Autotuner


@pytest.fixture(autouse=True)
def _clear_tune_rank_memo():
    # The tuned-config-dominance invariant memoizes rank results per
    # (point, rank function); a patched-simulator result leaking across
    # tests would be compared against a differently-patched baseline.
    conf_invariants._TUNE_RANK_MEMO.clear()
    yield
    conf_invariants._TUNE_RANK_MEMO.clear()


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


def _patch_roofline(monkeypatch):
    """Bug class: kernel timing model loses its bandwidth term."""
    orig = roofline.RooflineModel.time_kernel

    def fast_kernel(self, kernel):
        timing = orig(self, kernel)
        return replace(timing, duration_s=timing.duration_s * 0.1)

    monkeypatch.setattr(roofline.RooflineModel, "time_kernel", fast_kernel)


def _patch_memory(monkeypatch):
    """Bug class: allocator reports a peak the tag ledger can't explain."""
    orig = hwmem.GPUMemoryAllocator.snapshot

    def inflated(self):
        snap = orig(self)
        return hwmem.MemorySnapshot(
            peak_by_tag=snap.peak_by_tag, peak_total=snap.peak_total * 1.5
        )

    monkeypatch.setattr(hwmem.GPUMemoryAllocator, "snapshot", inflated)


def _patch_metrics(monkeypatch):
    """Bug class: derived throughput drifts from the profile it summarizes."""
    orig = core_metrics.IterationMetrics.from_profile.__func__

    def inflated(cls, profile, throughput_unit="samples/s"):
        metrics = orig(cls, profile, throughput_unit)
        return replace(metrics, throughput=metrics.throughput * 1.01)

    monkeypatch.setattr(
        core_metrics.IterationMetrics, "from_profile", classmethod(inflated)
    )


def _patch_rank_order(monkeypatch):
    """Bug class: the autotuner's total order inverts makespan, so the
    slowest fitting candidate ranks first and "wins"."""
    monkeypatch.setattr(
        Autotuner,
        "_rank_key",
        staticmethod(lambda c: (-c.makespan_s, c.peak_bytes, c.spec)),
    )


def _patch_offload_overlap(monkeypatch):
    """Bug class: offload hides more traffic than it moves (overlap above
    one), so its priced PCIe time goes negative and offloading more makes
    the iteration faster."""
    monkeypatch.setattr(plan_transform.FeatureMapOffloadTransform, "overlap", 1.5)


def _patch_analytic_fits(monkeypatch):
    """Bug class: the session's bisecting max-batch search declares that
    nothing fits, while the linear probe still compiles and fits."""
    orig = training_session.TrainingSession.max_batch_size

    def nothing_fits(self, candidates=None, *, search=False, pipeline=()):
        if search:
            return orig(self, candidates, search=True, pipeline=pipeline)
        return 0

    monkeypatch.setattr(
        training_session.TrainingSession, "max_batch_size", nothing_fits
    )


class TestPointMutants:
    """Each point-scope bug fires exactly its intended invariant."""

    def test_clean_baseline_fires_nothing(self):
        assert _fired_point(PointSpec("resnet-50", "mxnet", 32, "")) == []

    def test_roofline_mutant(self, monkeypatch):
        _patch_roofline(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 32, ""))
        assert fired == ["roofline-kernel-floor"]

    def test_analytic_fits_mutant(self, monkeypatch):
        _patch_analytic_fits(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 32, ""))
        assert fired == ["analytic-oom-agreement"]

    def test_memory_mutant(self, monkeypatch):
        _patch_memory(monkeypatch)
        # Batch 4 keeps the inflated peak under the P4000's capacity, so
        # only the additivity law — not the capacity law — can fire.
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 4, ""))
        assert fired == ["memory-breakdown-additivity"]

    def test_metrics_mutant(self, monkeypatch):
        _patch_metrics(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 32, ""))
        assert fired == ["throughput-identity"]

    def test_offload_overlap_mutant(self, monkeypatch):
        _patch_offload_overlap(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 32, ""))
        assert fired == ["transform-conservation"]

    def test_rank_order_mutant(self, monkeypatch):
        # Inverted ranking crowns the slow depth:36 pipeline on a residual
        # network; only the dominance law sees through the cost model.
        _patch_rank_order(monkeypatch)
        fired = _fired_point(PointSpec("resnet-50", "mxnet", 4, ""))
        assert fired == ["tuned-config-dominance"]


class TestScalingMutant:
    def test_comm_overlap_above_one(self, monkeypatch):
        monkeypatch.setattr(data_parallel, "COMM_OVERLAP", 1.5)
        runner = _fresh_runner()
        evidence = runner._gather_scaling(
            "resnet-50", "mxnet", 32, "2M1G (infiniband)"
        )
        assert evidence is not None
        fired = sorted(
            inv.name for inv in invariant_registry("scaling") if inv.check(evidence)
        )
        assert fired == ["scaling-at-most-linear"]


class TestShrinker:
    def test_roofline_mutant_shrinks_to_minimal_spec(self, monkeypatch):
        _patch_roofline(monkeypatch)
        runner = _fresh_runner()
        # A deliberately baroque starting point: big model, faulted
        # scenario, the bigger GPU.
        start = PointSpec(
            "inception-v3",
            "tensorflow",
            32,
            "cluster=2M1G:infiniband; steps=10; seed=3; crash=1@5",
        )
        assert runner.violates("roofline-kernel-floor", start, "titan xp")

        minimal, gpu, evals = shrink(
            start,
            "titan xp",
            lambda spec, g: runner.violates("roofline-kernel-floor", spec, g),
        )
        # The bug is global, so the search must land on THE simplest
        # configuration: first model in the simplicity order, its first
        # framework, the smallest declared batch, no faults, default GPU.
        simplest = simplicity_order()[0]
        assert minimal.model == simplest == "a3c"
        assert minimal.framework == get_model(simplest).frameworks[0]
        assert minimal.batch_size == min(get_model(simplest).batch_sizes)
        assert minimal.faults == ""
        assert gpu == "p4000"
        assert evals <= 24
        # And the minimal spec still reproduces the violation.
        assert runner.violates("roofline-kernel-floor", minimal, gpu)

    def test_analytic_fits_mutant_shrinks_to_minimal_spec(self, monkeypatch):
        _patch_analytic_fits(monkeypatch)
        runner = _fresh_runner()
        start = PointSpec("inception-v3", "tensorflow", 32, "")
        assert runner.violates("analytic-oom-agreement", start, "titan xp")
        minimal, gpu, evals = shrink(
            start,
            "titan xp",
            lambda spec, g: runner.violates("analytic-oom-agreement", spec, g),
        )
        simplest = simplicity_order()[0]
        assert minimal.model == simplest == "a3c"
        assert minimal.batch_size == min(get_model(simplest).batch_sizes)
        assert minimal.faults == ""
        assert gpu == "p4000"
        assert runner.violates("analytic-oom-agreement", minimal, gpu)

    def test_rank_order_mutant_shrinks_to_minimal_spec(self, monkeypatch):
        _patch_rank_order(monkeypatch)
        runner = _fresh_runner()
        start = PointSpec(
            "resnet-50", "cntk", 32, "cluster=2M1G:infiniband; crash=1@5"
        )
        assert runner.violates("tuned-config-dominance", start, "titan xp")
        minimal, gpu, evals = shrink(
            start,
            "titan xp",
            lambda spec, g: runner.violates("tuned-config-dominance", spec, g),
        )
        # Offload candidates cost PCIe time on every model, so the
        # inverted order crowns a slower pipeline everywhere and every leg
        # minimizes.
        simplest = simplicity_order()[0]
        assert minimal.model == simplest
        assert minimal.framework == get_model(simplest).frameworks[0]
        assert minimal.batch_size == min(get_model(simplest).batch_sizes)
        assert minimal.faults == ""
        assert gpu == "p4000"
        assert runner.violates("tuned-config-dominance", minimal, gpu)

    def test_shrink_is_identity_on_clean_simulator(self):
        runner = _fresh_runner()
        spec = PointSpec("a3c", "mxnet", 8, "")
        assert not runner.violates("roofline-kernel-floor", spec, "p4000")


class TestRunnerCatchesMutantEndToEnd:
    @pytest.mark.slow
    def test_fuzz_run_reports_and_shrinks(self, monkeypatch):
        _patch_roofline(monkeypatch)
        runner = ConformanceRunner(
            jobs=1,
            cache=None,
            budget=0,
            include_grid=True,
            panels=(("resnet-50", ("mxnet",)),),
            deep_limit=1,
            scaling_probes=(),
            max_shrinks=1,
        )
        report = runner.run()
        assert not report.ok
        fired = {v.check for v in report.violations}
        assert "roofline-kernel-floor" in fired
        shrunk = [v for v in report.violations if v.shrunk]
        assert shrunk, "first violation should carry a minimal reproduction"
        minimal = shrunk[0].shrunk
        assert minimal["model"] == "a3c"
        assert minimal["faults"] == ""
        assert minimal["gpu"] == "p4000"
        doc = report.to_doc()
        assert doc["violations"][0]["shrunk"] == minimal
