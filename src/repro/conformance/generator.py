"""Seeded spec fuzzing and greedy counterexample shrinking.

:func:`generate_cases` samples random model/framework/batch/GPU/fault
combinations from a :class:`random.Random` seed — the same seed always
yields the same cases, so a fuzz run is a pure function of
``(seed, budget)`` and every failure reproduces from its case index.

:func:`shrink` is the counterexample minimizer: given a failing subject
and a ``fails`` predicate, it greedily applies simplifying moves — drop
the fault scenario, return to the default GPU, swap in a simpler model,
walk the batch down the model's ladder, fall back to the model's first
framework — keeping each move only if the failure still reproduces, and
repeats until no move sticks.  The result is a smallest reproducing
spec: one model, minimal batch, no faults unless the bug needs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.conformance.relations import DEFAULT_GPU, relation_registry
from repro.engine.executor import PointSpec
from repro.models.registry import get_model, model_catalog
from repro.observability.tracer import trace_span

#: GPU keys the fuzzer draws from; the default testbed card dominates.
GPU_CHOICES = (DEFAULT_GPU, DEFAULT_GPU, DEFAULT_GPU, "titan xp")

_CLUSTERS = ("2M1G:infiniband", "3M1G:infiniband", "1M2G", "2M1G:10gbe")
_STRAGGLER_FACTORS = ("1.2", "1.5", "2.0")


@dataclass(frozen=True)
class FuzzCase:
    """One generated conformance case: a spec, the GPU it runs on, and
    the metamorphic relation to check."""

    index: int
    spec: PointSpec
    gpu: str
    relation: str

    def subject(self) -> dict:
        """The case's configuration, as a violation report names it."""
        return {
            "model": self.spec.model,
            "framework": self.spec.framework,
            "batch_size": self.spec.batch_size,
            "faults": self.spec.faults,
            "gpu": self.gpu,
        }


def _random_scenario(rng: random.Random) -> str:
    """A compact, always-recoverable fault scenario."""
    cluster = rng.choice(_CLUSTERS)
    steps = rng.randint(8, 14)
    seed = rng.randint(0, 9)
    machines = int(cluster[0])
    events = [
        f"straggler=0x{rng.choice(_STRAGGLER_FACTORS)}@2:6",
        "degrade=bw0.5@2:6",
        f"timeout=1x0.5@{rng.randint(2, 5)}",
    ]
    if machines >= 2:
        events.append(f"crash=1@{rng.randint(3, 6)}")
    event = rng.choice(events)
    return f"cluster={cluster}; steps={steps}; seed={seed}; {event}"


def generate_cases(seed: int, budget: int) -> list:
    """``budget`` deterministic fuzz cases for ``seed``."""
    rng = random.Random(seed)
    models = sorted(model_catalog())
    cases = []
    for index in range(budget):
        model = rng.choice(models)
        spec_entry = get_model(model)
        framework = rng.choice(list(spec_entry.frameworks))
        batch = int(rng.choice(list(spec_entry.batch_sizes)))
        gpu = rng.choice(GPU_CHOICES)
        faults = ""
        if rng.random() < 0.25:
            faults = _random_scenario(rng)
            gpu = DEFAULT_GPU  # fault runs execute on the scenario's cluster
        spec = PointSpec(model, framework, batch, faults)
        applicable = [
            rel.name for rel in relation_registry() if rel.applies(spec, gpu)
        ]
        relation = rng.choice(applicable)
        cases.append(FuzzCase(index, spec, gpu, relation))
    return cases


def simplicity_order() -> list:
    """Model keys from simplest to most complex (layer count, then name) —
    the order the shrinker walks when swapping models."""
    catalog = model_catalog()
    return sorted(catalog, key=lambda key: (catalog[key].paper_layer_count, key))


def _model_moves(spec: PointSpec):
    """Candidate specs on strictly simpler models, simplest first."""
    catalog = model_catalog()
    current = catalog[spec.model]
    for key in simplicity_order():
        entry = catalog[key]
        if key == spec.model:
            continue
        if (entry.paper_layer_count, key) >= (
            current.paper_layer_count,
            spec.model,
        ):
            continue
        framework = (
            spec.framework
            if entry.supports(spec.framework)
            else entry.frameworks[0]
        )
        yield replace(
            spec,
            model=key,
            framework=framework,
            batch_size=min(entry.batch_sizes),
        )


def _batch_moves(spec: PointSpec):
    """Smaller batches on the model's ladder, smallest first."""
    for batch in sorted(get_model(spec.model).batch_sizes):
        if batch < spec.batch_size:
            yield replace(spec, batch_size=batch)


def shrink(spec: PointSpec, gpu: str, fails, max_evals: int = 64):
    """Greedily minimize a failing ``(spec, gpu)`` subject.

    ``fails(spec, gpu) -> bool`` must be True for the input (and stay
    True for every accepted move).  Returns ``(spec, gpu, evals)`` — the
    minimal reproducing subject and how many predicate evaluations the
    search spent.  The search is bounded by ``max_evals``; a hit on the
    bound returns the best subject found so far.
    """
    evals = 0

    def attempt(candidate: PointSpec, candidate_gpu: str) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return bool(fails(candidate, candidate_gpu))

    with trace_span(
        "conformance.shrink",
        model=spec.model,
        framework=spec.framework,
        batch_size=spec.batch_size,
    ) as span:
        changed = True
        while changed and evals < max_evals:
            changed = False
            if spec.faults and attempt(replace(spec, faults=""), gpu):
                spec, changed = replace(spec, faults=""), True
            if gpu != DEFAULT_GPU and attempt(spec, DEFAULT_GPU):
                gpu, changed = DEFAULT_GPU, True
            for candidate in _model_moves(spec):
                if attempt(candidate, gpu):
                    spec, changed = candidate, True
                    break
            for candidate in _batch_moves(spec):
                if attempt(candidate, gpu):
                    spec, changed = candidate, True
                    break
            first_framework = get_model(spec.model).frameworks[0]
            if spec.framework != first_framework:
                candidate = replace(spec, framework=first_framework)
                if attempt(candidate, gpu):
                    spec, changed = candidate, True
        span.set_attributes(
            evals=evals,
            shrunk_model=spec.model,
            shrunk_batch=spec.batch_size,
        )
    return spec, gpu, evals
