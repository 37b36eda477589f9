"""The cost-model-guided transform autotuner.

TorchDynamo's optimization pipeline enumerates candidate rewrites, times
each against a baseline, and picks winners per workload.  This module is
that loop against the simulated stack, where "timing a candidate" is
nearly free:

1. **Enumerate.**  Every combination of at most one transform per family
   (fused RNN, ResNet depth, feature-map offload, FP16 storage),
   restricted to families that *apply* to the workload — fusing buys
   nothing without recurrent layers, and the depth rewrite only makes
   sense on a residual network.
2. **Cost-model.**  Each candidate pipeline compiles through
   :meth:`~repro.training.session.TrainingSession.compile_transformed`
   (one concrete compile of the base plan, rewrite per pipeline,
   shared-prefix plans memoized), and is scored by the compiled plan's
   makespan with its allocation-replay peak as the tie-break.  Candidates
   whose transformed plan exceeds GPU memory are pruned — the same
   analytic boundary :meth:`CompiledPlan.fits` gives the OOM sweeps.
3. **Confirm.**  The best candidate that strictly beats the baseline is
   re-measured by the interleaved A/B runner under the seeded noise
   model, so the recorded winner carries a p-value, not just a model
   prediction.
4. **Persist.**  Winners land in the content-addressed result cache
   (:mod:`repro.tune.store`), keyed over everything the tuned choice
   depends on — so retuning an unchanged workload is a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.models.registry import ModelSpec, get_model
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession

#: Offload stash fractions the search tries (coarse ladder: a light and a
#: heavy stash; finer fractions move peak bytes, not makespan).
OFFLOAD_FRACTIONS = (0.25, 0.5)
#: Conv4 block counts the depth search tries (the paper's Observation 12
#: reinvests freed memory in depth; 6 is stock ResNet-50, 23 is
#: ResNet-101, 36 is ResNet-152).
DEPTH_BLOCKS = (23, 36)
#: Layer kinds the fused-RNN rewrite can act on.
_RECURRENT_KINDS = ("lstm", "gru", "rnn")


@dataclass(frozen=True)
class Candidate:
    """One scored pipeline: the canonical spec plus its cost-model read."""

    spec: str
    makespan_s: float
    peak_bytes: float
    fits: bool

    def to_doc(self) -> dict:
        return {
            "spec": self.spec,
            "makespan_s": self.makespan_s,
            "peak_bytes": self.peak_bytes,
            "fits": self.fits,
        }


@dataclass
class TuneResult:
    """Everything one tuning run decided (and why)."""

    model: str
    framework: str
    gpu: str
    batch_size: int
    baseline_makespan_s: float
    baseline_peak_bytes: float
    baseline_fits: bool
    candidates: tuple = ()  # ranked best-first, memory-fitting only
    pruned: int = 0
    winner: Candidate | None = None
    confirmation: dict | None = None
    cached: bool = False

    @property
    def modeled_speedup(self) -> float:
        """baseline/winner makespan ratio (1.0 when nothing won)."""
        if self.winner is None or self.winner.makespan_s <= 0.0:
            return 1.0
        return self.baseline_makespan_s / self.winner.makespan_s

    def to_doc(self) -> dict:
        """Canonical-JSON-ready record (the cached tuned-config point)."""
        return {
            "kind": "tuned-config",
            "model": self.model,
            "framework": self.framework,
            "gpu": self.gpu,
            "batch_size": self.batch_size,
            "baseline_makespan_s": self.baseline_makespan_s,
            "baseline_peak_bytes": self.baseline_peak_bytes,
            "baseline_fits": self.baseline_fits,
            "candidates": [candidate.to_doc() for candidate in self.candidates],
            "pruned": self.pruned,
            "winner": None if self.winner is None else self.winner.to_doc(),
            "confirmation": self.confirmation,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TuneResult":
        """Rebuild a result from its cached record."""
        winner = doc.get("winner")
        return cls(
            model=doc["model"],
            framework=doc["framework"],
            gpu=doc["gpu"],
            batch_size=int(doc["batch_size"]),
            baseline_makespan_s=float(doc["baseline_makespan_s"]),
            baseline_peak_bytes=float(doc["baseline_peak_bytes"]),
            baseline_fits=bool(doc["baseline_fits"]),
            candidates=tuple(
                Candidate(**candidate) for candidate in doc.get("candidates", ())
            ),
            pruned=int(doc.get("pruned", 0)),
            winner=None if winner is None else Candidate(**winner),
            confirmation=doc.get("confirmation"),
            cached=True,
        )

    def format_report(self) -> str:
        source = "cached" if self.cached else "searched"
        lines = [
            f"tune: {self.model} on {self.framework}, b={self.batch_size}, "
            f"{self.gpu} ({source})",
            f"  baseline: {self.baseline_makespan_s * 1e3:8.3f} ms, "
            f"{self.baseline_peak_bytes / 2**30:6.2f} GiB"
            + ("" if self.baseline_fits else "  [does not fit]"),
        ]
        for candidate in self.candidates:
            marker = "*" if self.winner and candidate.spec == self.winner.spec else " "
            lines.append(
                f"  {marker} {candidate.spec:28s} "
                f"{candidate.makespan_s * 1e3:8.3f} ms, "
                f"{candidate.peak_bytes / 2**30:6.2f} GiB"
            )
        if self.pruned:
            lines.append(f"  ({self.pruned} candidate(s) pruned: exceed GPU memory)")
        if self.winner is None:
            lines.append("  no pipeline beats the baseline; keeping it")
        else:
            lines.append(
                f"  winner: {self.winner.spec} "
                f"(modeled speedup x{self.modeled_speedup:.3f})"
            )
            if self.confirmation is not None:
                lines.append(
                    f"  confirmed: speedup x{self.confirmation['speedup']:.3f} "
                    f"p(faster)={self.confirmation['p_improvement']:.4f} "
                    f"n={self.confirmation['samples_per_side']} "
                    f"-> {self.confirmation['verdict']}"
                )
        return "\n".join(lines)


class Autotuner:
    """Cost-model-guided pipeline search for one (model, framework, GPU,
    batch) point."""

    def __init__(
        self,
        model,
        framework: str = "tensorflow",
        gpu: GPUSpec = QUADRO_P4000,
        cpu: CPUSpec = XEON_E5_2680,
        batch_size: int | None = None,
    ):
        self.spec: ModelSpec = get_model(model) if isinstance(model, str) else model
        self.framework = framework
        self.gpu = gpu
        self.cpu = cpu
        self.batch_size = (
            int(batch_size) if batch_size is not None else self.spec.reference_batch
        )
        # Memory checking is the tuner's own job (candidates are *scored*
        # on whether they fit, not rejected by an exception).
        self._session = TrainingSession(
            self.spec, framework, gpu=gpu, cpu=cpu, check_memory=False
        )

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def candidate_specs(self) -> list:
        """Every applicable pipeline: at most one transform per family,
        excluding the empty combination.  Families are emitted in
        canonical rank order, so the joined text is already normalized."""
        graph = self._session.compile(self.batch_size).graph
        recurrent = any(layer.kind in _RECURRENT_KINDS for layer in graph.layers)
        residual = self.spec.key.startswith("resnet")
        families = [
            ["", "fused_rnn"] if recurrent else [""],
            [""] + [f"depth:{blocks}" for blocks in DEPTH_BLOCKS] if residual else [""],
            [""] + [f"offload:{fraction:g}" for fraction in OFFLOAD_FRACTIONS],
            ["", "fp16"],
        ]
        specs = []
        for combination in product(*families):
            tokens = [token for token in combination if token]
            if tokens:
                specs.append("+".join(tokens))
        return specs

    # ------------------------------------------------------------------
    # cost-model ranking
    # ------------------------------------------------------------------

    @staticmethod
    def _rank_key(candidate: Candidate):
        """Total order of the search: makespan first, allocation peak as
        the tie-break (equal-speed candidates should prefer headroom),
        spec text last for determinism."""
        return (candidate.makespan_s, candidate.peak_bytes, candidate.spec)

    def _score(self, spec_text: str) -> Candidate:
        """Compile one candidate pipeline and read its cost model."""
        with trace_span(
            "tune.candidate",
            model=self.spec.key,
            framework=self.framework,
            batch_size=self.batch_size,
            pipeline=spec_text,
        ) as span:
            pipeline = parse_transform_spec(spec_text)
            plan = self._session.compile_transformed(self.batch_size, pipeline)
            peak = plan.memory.peak_total
            candidate = Candidate(
                spec=pipeline.canonical,
                makespan_s=plan.makespan_s,
                peak_bytes=peak,
                fits=plan.fits(self.gpu.memory_bytes),
            )
            span.set_attributes(
                makespan_s=candidate.makespan_s, fits=candidate.fits
            )
        return candidate

    def rank(self, budget: int | None = None) -> TuneResult:
        """Score every candidate pipeline against the baseline plan.

        ``budget`` caps how many candidates are evaluated (the CI smoke
        job runs with a small one); the full enumeration is the default.
        Returns a :class:`TuneResult` whose ``winner`` is the best
        memory-fitting candidate that strictly beats the baseline under
        :meth:`_rank_key` — or ``None``, in which case the untransformed
        plan is the tuned config.
        """
        with trace_span(
            "tune.search",
            model=self.spec.key,
            framework=self.framework,
            batch_size=self.batch_size,
            gpu=self.gpu.name,
        ) as span:
            baseline_plan = self._session.compile(self.batch_size)
            baseline = Candidate(
                spec="",
                makespan_s=baseline_plan.makespan_s,
                peak_bytes=baseline_plan.memory.peak_total,
                fits=baseline_plan.fits(self.gpu.memory_bytes),
            )
            specs = self.candidate_specs()
            if budget is not None:
                specs = specs[: max(0, int(budget))]
            scored = [self._score(spec_text) for spec_text in specs]
            fitting = sorted(
                (candidate for candidate in scored if candidate.fits),
                key=self._rank_key,
            )
            pruned = len(scored) - len(fitting)
            winner = None
            if fitting and self._rank_key(fitting[0]) < self._rank_key(baseline):
                winner = fitting[0]
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "tune_candidates_total", {"model": self.spec.key}
                ).inc(len(scored))
                if pruned:
                    metrics.counter(
                        "tune_oom_pruned_total", {"model": self.spec.key}
                    ).inc(pruned)
            span.set_attributes(
                candidates=len(scored),
                pruned=pruned,
                winner=winner.spec if winner else "",
            )
        return TuneResult(
            model=self.spec.key,
            framework=self.framework,
            gpu=self.gpu.name,
            batch_size=self.batch_size,
            baseline_makespan_s=baseline.makespan_s,
            baseline_peak_bytes=baseline.peak_bytes,
            baseline_fits=baseline.fits,
            candidates=tuple(fitting),
            pruned=pruned,
            winner=winner,
        )

    # ------------------------------------------------------------------
    # confirmation + persistence
    # ------------------------------------------------------------------

    def confirm(self, result: TuneResult, runner=None, samples=None) -> TuneResult:
        """Re-measure the winner against the baseline with the interleaved
        A/B runner; attaches the :class:`~repro.bench.runner.BenchResult`
        document to the result.  A winner the runner cannot distinguish
        from baseline keeps its cost-model rank but records the verdict —
        pure memory wins are expected to look indistinguishable in time.
        """
        if result.winner is None:
            return result
        from repro.bench.runner import InterleavedRunner
        from repro.bench.subjects import PlanSubject

        if runner is None:
            runner = InterleavedRunner()
        baseline_plan = self._session.compile(self.batch_size)
        tuned_plan = self._session.compile_transformed(
            self.batch_size, parse_transform_spec(result.winner.spec)
        )
        comparison = runner.run(
            PlanSubject("baseline", baseline_plan),
            PlanSubject(result.winner.spec, tuned_plan),
            name=f"tune/{self.spec.key}/{self.framework}/b{self.batch_size}",
            samples=samples,
        )
        result.confirmation = comparison.to_doc()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "tune_confirmations_total", {"verdict": comparison.verdict}
            ).inc()
        return result

    def tune(
        self,
        cache=None,
        budget: int | None = None,
        confirm: bool = True,
        retune: bool = False,
        runner=None,
        samples=None,
    ) -> TuneResult:
        """The headline entry point: cached lookup, else rank + confirm +
        persist.

        ``cache`` is a :class:`~repro.engine.cache.ResultCache` (or
        ``None`` to skip persistence); ``retune`` forces a fresh search
        even when a tuned config is cached.
        """
        from repro.tune import store as tune_store

        if cache is not None and not retune:
            cached = tune_store.load_tuned(
                cache,
                self.spec,
                self.framework,
                self.batch_size,
                gpu=self.gpu,
                cpu=self.cpu,
            )
            if cached is not None:
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.counter("tune_cache_hits_total").inc()
                return TuneResult.from_doc(cached)
        result = self.rank(budget=budget)
        if confirm:
            result = self.confirm(result, runner=runner, samples=samples)
        if cache is not None:
            tune_store.store_tuned(
                cache, result, spec=self.spec, gpu=self.gpu, cpu=self.cpu
            )
        return result
