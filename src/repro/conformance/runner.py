"""The conformance runner: every check, through the sweep engine.

One :class:`ConformanceRunner` drives four deterministic phases —

1. **grid** — the paper grid (:data:`~repro.experiments.common.SWEEP_PANELS`)
   through the parallel :class:`~repro.engine.executor.SweepEngine` and its
   result cache, checked against every sweep-scope invariant;
2. **deep** — per-panel reference configurations re-simulated in process,
   checked against every point-scope invariant (roofline floors, FLOP and
   memory conservation, transform contracts);
3. **scaling** — Fig. 10 cluster probes under a ring allreduce, checked
   against the ≤-linear and bandwidth-floor laws;
4. **fuzz** — ``budget`` seeded random specs, each paired with a
   metamorphic relation and executed as engine grids (base + perturbed
   runs batched per GPU, replay cases through a second engine pass).

Failures are shrunk to minimal counterexamples and collected into a
:class:`ConformanceReport` whose JSON rendering is byte-deterministic:
two runs with the same seed/budget produce identical files regardless of
worker count or cache temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.conformance.generator import generate_cases, shrink
from repro.conformance.invariants import (
    PointEvidence,
    ScalingEvidence,
    SweepEvidence,
    Violation,
    get_invariant,
    invariant_registry,
)
from repro.conformance.relations import (
    DEFAULT_GPU,
    get_relation,
    relation_registry,
)
from repro.engine.cache import ResultCache
from repro.engine.executor import PointSpec, SweepEngine, grid_for
from repro.engine.keys import canonical_json
from repro.experiments.common import SWEEP_PANELS
from repro.hardware.devices import get_gpu
from repro.hardware.memory import OutOfMemoryError
from repro.models.registry import get_model
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.training.session import TrainingSession

#: Default distributed probes: one convnet per framework family plus the
#: RNN panel — enough to exercise every scaling law without rerunning the
#: whole Fig. 10 study.
DEFAULT_SCALING_PROBES = (
    ("resnet-50", "mxnet"),
    ("inception-v3", "tensorflow"),
    ("sockeye", "mxnet"),
)

#: Every this-many-th fuzz case (by index) also gets the point-scope
#: deep checks, re-simulated in process.
DEEP_EVERY = 5
#: Predicate evaluations the shrinker may spend on one violation.
MAX_SHRINK_EVALS = 24

REPORT_SCHEMA = 2


def _reference(model: str, framework: str) -> PointSpec:
    """The model's reference-batch point on ``framework``."""
    return PointSpec(model, framework, get_model(model).reference_batch)


def _subject(spec: PointSpec, gpu_key: str) -> dict:
    """The configuration a check ran on, as a violation report names it."""
    return {
        "model": spec.model,
        "framework": spec.framework,
        "batch_size": spec.batch_size,
        "faults": spec.faults,
        "gpu": gpu_key,
    }


@dataclass
class ConformanceReport:
    """Aggregated conformance results; JSON form is byte-deterministic."""

    seed: int
    budget: int
    include_grid: bool
    grid_points: int = 0
    deep_points: int = 0
    scaling_probes: int = 0
    fuzz_cases: int = 0
    checks: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def checked_total(self) -> int:
        return sum(entry["checked"] for entry in self.checks.values())

    def to_doc(self) -> dict:
        """The report as a plain document, checks in name order."""
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "budget": self.budget,
            "include_grid": self.include_grid,
            "grid_points": self.grid_points,
            "deep_points": self.deep_points,
            "scaling_probes": self.scaling_probes,
            "fuzz_cases": self.fuzz_cases,
            "checks": {name: dict(self.checks[name]) for name in sorted(self.checks)},
            "violations": [v.to_doc() for v in self.violations],
        }

    def to_json(self) -> str:
        """The report as canonical JSON, newline-terminated."""
        return canonical_json(self.to_doc()) + "\n"

    def write(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"conformance: seed {self.seed}, fuzz budget {self.budget}",
            f"  grid points {self.grid_points}, deep points {self.deep_points}, "
            f"scaling probes {self.scaling_probes}, fuzz cases {self.fuzz_cases}",
            "",
            f"  {'check':<34} {'checked':>8} {'violations':>11}",
        ]
        for name in sorted(self.checks):
            entry = self.checks[name]
            lines.append(
                f"  {name:<34} {entry['checked']:>8} {entry['violations']:>11}"
            )
        lines.append("")
        if self.ok:
            lines.append(f"  all {self.checked_total} checks passed — zero violations")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for v in self.violations:
                subject = ", ".join(f"{k}={v.subject[k]}" for k in sorted(v.subject))
                lines.append(f"    [{v.check}] {subject}")
                lines.append(f"      {v.message}")
                if v.shrunk:
                    minimal = ", ".join(
                        f"{k}={v.shrunk[k]}" for k in sorted(v.shrunk)
                    )
                    lines.append(f"      minimal: {minimal}")
        return "\n".join(lines)


class ConformanceRunner:
    """Run the registries over the paper grid and a fuzzed spec stream."""

    def __init__(
        self,
        seed: int = 7,
        budget: int = 50,
        jobs: int = 1,
        cache: ResultCache | None = None,
        include_grid: bool = True,
        panels=None,
        deep_limit: int | None = None,
        scaling_probes=None,
        shrink_failures: bool = True,
        max_shrinks: int = 5,
    ):
        self.seed = seed
        self.budget = budget
        self.jobs = jobs
        self.cache = cache
        self.include_grid = include_grid
        self.panels = tuple(panels) if panels is not None else SWEEP_PANELS
        self.deep_limit = deep_limit
        self.scaling_probes = (
            tuple(scaling_probes)
            if scaling_probes is not None
            else DEFAULT_SCALING_PROBES
        )
        self.shrink_failures = shrink_failures
        self.max_shrinks = max_shrinks
        self._checks: dict = {}
        self._violations: list = []
        self._sessions: dict = {}

    # ------------------------------------------------------------------
    # bookkeeping

    def _engine(self, gpu_key: str, jobs: int | None = None) -> SweepEngine:
        return SweepEngine(
            jobs=jobs if jobs is not None else self.jobs,
            cache=self.cache,
            gpu=get_gpu(gpu_key),
        )

    def _record(self, name: str, subject: dict, messages) -> None:
        entry = self._checks.setdefault(name, {"checked": 0, "violations": 0})
        entry["checked"] += 1
        get_metrics().counter("conformance_checks_total", {"check": name}).inc()
        for message in messages:
            entry["violations"] += 1
            get_metrics().counter(
                "conformance_violations_total", {"check": name}
            ).inc()
            self._violations.append(Violation(name, dict(subject), message))

    def _check(self, scope: str, evidence, subject: dict) -> None:
        """Record every ``scope`` invariant over one piece of evidence."""
        for inv in invariant_registry(scope=scope):
            self._record(inv.name, subject, inv.check(evidence))

    def _session(self, model: str, framework: str, gpu_key: str) -> TrainingSession:
        key = (model, framework, gpu_key)
        if key not in self._sessions:
            self._sessions[key] = TrainingSession(
                model, framework, gpu=get_gpu(gpu_key)
            )
        return self._sessions[key]

    # ------------------------------------------------------------------
    # evidence gathering

    def _gather_point(
        self, model: str, framework: str, batch: int, gpu_key: str
    ) -> PointEvidence | None:
        entry = get_model(model)
        session = self._session(model, framework, gpu_key)
        try:
            profile = session.run_iteration(batch)
        except OutOfMemoryError:
            return None
        plan = session.compile(batch)
        small = min(entry.batch_sizes)
        small_plan = session.compile(small) if small != batch else None
        return PointEvidence(
            model=model,
            framework=framework,
            batch_size=batch,
            gpu=session.gpu,
            profile=profile,
            plan=plan,
            small_batch=small if small_plan is not None else None,
            small_plan=small_plan,
            throughput_unit=entry.throughput_unit,
        )

    def _gather_scaling(
        self, model: str, framework: str, batch: int, config_label: str
    ) -> ScalingEvidence | None:
        from repro.distributed.allreduce import RingAllReduceExchange
        from repro.distributed.data_parallel import DataParallelTrainer
        from repro.distributed.topology import standard_configurations

        cluster = standard_configurations()[config_label]
        exchange = RingAllReduceExchange()
        trainer = DataParallelTrainer(model, framework, cluster, exchange=exchange)
        try:
            profile = trainer.run_iteration(batch)
        except OutOfMemoryError:
            return None
        cost = (
            exchange.cost(profile.gradient_bytes, cluster)
            if cluster.total_gpus > 1
            else None
        )
        return ScalingEvidence(
            model=model,
            framework=framework,
            batch_size=batch,
            cluster=cluster,
            profile=profile,
            allreduce_cost=cost,
        )

    def _sweep_evidence(self, specs, gpu_key: str, jobs: int | None = None):
        """Run ``specs`` as one engine grid; yield ``(evidence, subject)``
        per model/framework/faults sweep, batches ascending."""
        by_sweep: dict = {}
        points = self._engine(gpu_key, jobs).run_grid(specs)
        for spec, point in zip(specs, points):
            by_sweep.setdefault((spec.model, spec.framework, spec.faults), []).append(
                (spec.batch_size, point)
            )
        for (model, framework, faults), pairs in by_sweep.items():
            pairs.sort(key=lambda item: item[0])
            evidence = SweepEvidence(
                model=model,
                framework=framework,
                gpu_name=gpu_key,
                batch_sizes=[b for b, _ in pairs],
                points=[p for _, p in pairs],
                faults=faults,
            )
            smallest = PointSpec(model, framework, pairs[0][0], faults)
            yield evidence, _subject(smallest, gpu_key)

    def _evidence(self, scope: str, spec: PointSpec, gpu_key: str):
        """Yield ``(evidence, subject)`` for every ``scope`` check of
        ``(spec, gpu)``: the one gathering path of the phases and of
        :meth:`violates`.  A point or probe that does not fit yields
        nothing; the sweep scope runs the spec's whole batch ladder."""
        if scope == "point":
            evidence = self._gather_point(
                spec.model, spec.framework, spec.batch_size, gpu_key
            )
            if evidence is not None:
                yield evidence, _subject(spec, gpu_key)
        elif scope == "sweep":
            yield from self._sweep_evidence(
                [
                    PointSpec(spec.model, spec.framework, b, spec.faults)
                    for b in sorted(get_model(spec.model).batch_sizes)
                ],
                gpu_key,
                jobs=1,
            )
        else:
            from repro.distributed.topology import standard_configurations

            for label in standard_configurations():
                evidence = self._gather_scaling(
                    spec.model, spec.framework, spec.batch_size, label
                )
                if evidence is not None:
                    yield evidence, {**_subject(spec, DEFAULT_GPU), "cluster": label}

    # ------------------------------------------------------------------
    # phases

    def _run_grid_phase(self) -> int:
        specs = grid_for(self.panels)
        for evidence, subject in self._sweep_evidence(specs, DEFAULT_GPU):
            self._check("sweep", evidence, subject)
        return len(specs)

    def _run_scoped_phase(self, scope: str, specs) -> int:
        """Check every ``scope`` invariant on each spec's evidence; returns
        how many pieces of evidence were checked."""
        count = 0
        for spec in specs:
            for evidence, subject in self._evidence(scope, spec, DEFAULT_GPU):
                self._check(scope, evidence, subject)
                count += 1
        return count

    def _run_fuzz_phase(self) -> int:
        cases = generate_cases(self.seed, self.budget)
        # Two engine passes, each batched per GPU.  Replay cases run their
        # (identical) perturbed spec in the second, *fresh* pass: cache-warm
        # when a cache is configured (round-trip determinism), recomputed
        # when not (pure replay determinism).  Either way the payload bytes
        # must match the first pass.
        perturbed: dict = {}
        queued: tuple = ({}, {})
        for case in cases:
            pert_spec, pert_gpu = get_relation(case.relation).perturb(
                case.spec, case.gpu
            )
            second = case.relation == "replay-determinism"
            perturbed[case.index] = (pert_spec, pert_gpu, second)
            queued[0].setdefault(case.gpu, {}).setdefault(case.spec)
            queued[second].setdefault(pert_gpu, {}).setdefault(pert_spec)
        results: tuple = ({}, {})
        for by_gpu, found in zip(queued, results):
            for gpu_key in sorted(by_gpu):
                specs = list(by_gpu[gpu_key])
                points = self._engine(gpu_key).run_grid(specs)
                for spec, point in zip(specs, points):
                    found[(gpu_key, spec)] = point

        for case in cases:
            relation = get_relation(case.relation)
            pert_spec, pert_gpu, second = perturbed[case.index]
            base_point = results[0][(case.gpu, case.spec)]
            pert_point = results[second][(pert_gpu, pert_spec)]
            messages = relation.relate(case.spec, case.gpu, base_point, pert_point)
            self._record(case.relation, case.subject(), messages)
            if case.index % DEEP_EVERY == 0 and not case.spec.faults:
                for evidence, subject in self._evidence("point", case.spec, case.gpu):
                    self._check("point", evidence, subject)
        return len(cases)

    # ------------------------------------------------------------------
    # recheck + shrink

    def violates(self, check: str, spec: PointSpec, gpu_key: str) -> bool:
        """Does ``check`` fire on ``(spec, gpu)``?  Serial and in-process,
        so monkeypatched bugs and shrink candidates evaluate correctly."""
        try:
            inv = get_invariant(check)
        except KeyError:
            inv = None
        if inv is not None:
            return any(
                inv.check(evidence)
                for evidence, _ in self._evidence(inv.scope, spec, gpu_key)
            )
        relation = get_relation(check)
        if not relation.applies(spec, gpu_key):
            return False
        pert_spec, pert_gpu = relation.perturb(spec, gpu_key)
        (base_point,) = self._engine(gpu_key, jobs=1).run_grid([spec])
        (pert_point,) = self._engine(pert_gpu, jobs=1).run_grid([pert_spec])
        return bool(relation.relate(spec, gpu_key, base_point, pert_point))

    def shrink_violation(self, violation: Violation) -> Violation:
        """Minimize one violation's subject; returns it annotated with the
        smallest reproducing spec the search found."""
        subject = violation.subject
        spec = PointSpec(
            subject["model"],
            subject["framework"],
            int(subject["batch_size"]),
            subject.get("faults", ""),
        )
        gpu_key = subject.get("gpu", DEFAULT_GPU)

        def fails(candidate: PointSpec, candidate_gpu: str) -> bool:
            return self.violates(violation.check, candidate, candidate_gpu)

        if not fails(spec, gpu_key):
            return violation  # not reproducible standalone; leave as-is
        minimal_spec, minimal_gpu, _ = shrink(
            spec, gpu_key, fails, max_evals=MAX_SHRINK_EVALS
        )
        return Violation(
            violation.check,
            violation.subject,
            violation.message,
            _subject(minimal_spec, minimal_gpu),
        )

    def _run_shrink_phase(self) -> None:
        if not self.shrink_failures or not self._violations:
            return
        shrunk = []
        for index, violation in enumerate(self._violations):
            if index < self.max_shrinks:
                shrunk.append(self.shrink_violation(violation))
            else:
                shrunk.append(violation)
        self._violations = shrunk

    # ------------------------------------------------------------------

    def run(self) -> ConformanceReport:
        """Execute every phase and aggregate the report."""
        self._checks = {
            inv.name: {"checked": 0, "violations": 0}
            for inv in invariant_registry()
        }
        for relation in relation_registry():
            self._checks[relation.name] = {"checked": 0, "violations": 0}
        self._violations = []
        report = ConformanceReport(
            seed=self.seed, budget=self.budget, include_grid=self.include_grid
        )
        with trace_span(
            "conformance.run",
            seed=self.seed,
            budget=self.budget,
            jobs=self.jobs,
        ) as span:
            if self.include_grid:
                with trace_span("conformance.grid"):
                    report.grid_points = self._run_grid_phase()
                deep = [
                    _reference(model, framework)
                    for model, frameworks in self.panels
                    for framework in frameworks
                ]
                with trace_span("conformance.deep"):
                    report.deep_points = self._run_scoped_phase(
                        "point", deep[: self.deep_limit]
                    )
                with trace_span("conformance.scaling"):
                    report.scaling_probes = self._run_scoped_phase(
                        "scaling",
                        [_reference(*probe) for probe in self.scaling_probes],
                    )
            if self.budget > 0:
                with trace_span("conformance.fuzz"):
                    report.fuzz_cases = self._run_fuzz_phase()
            self._run_shrink_phase()
            span.set_attributes(
                checks=sum(e["checked"] for e in self._checks.values()),
                violations=len(self._violations),
            )
        report.checks = self._checks
        report.violations = list(self._violations)
        return report
