"""Metamorphic relations: perturb a :class:`PointSpec`, relate two runs.

Each :class:`Relation` is a named triple — an applicability predicate, a
deterministic perturbation of ``(spec, gpu)``, and a ``relate`` check over
the two engine results — registered in the same declarative style as the
invariant registry.  Relations catch bugs no single run can: a batch
doubling that makes iterations *faster*, a bigger GPU that suddenly OOMs,
a fault scenario that beats its own fault-free baseline, a cache replay
that changes bytes.

The subject of a relation is always the *base* spec; the perturbed spec
is derived, never sampled, so every case is reproducible from the base
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.conformance.invariants import REL_TOL
from repro.engine.keys import canonical_json
from repro.engine.merge import point_to_payload
from repro.engine.executor import PointSpec
from repro.hardware.devices import get_gpu
from repro.models.registry import get_model

#: GPU registry keys the conformance harness runs on.  The default device
#: is the paper's testbed card; the alternate has strictly more memory,
#: which is what the swap-gpu relation relies on.
DEFAULT_GPU = "p4000"
BIGGER_GPU = "titan xp"


@dataclass(frozen=True)
class Relation:
    """One metamorphic relation between a base run and its perturbation."""

    name: str
    description: str
    applies: object  # (spec, gpu_key) -> bool
    perturb: object  # (spec, gpu_key) -> (PointSpec, gpu_key)
    relate: object  # (spec, gpu_key, base_point, pert_point) -> list[str]


_REGISTRY: dict = {}


def _register(name: str, description: str, applies, perturb, relate) -> None:
    _REGISTRY[name] = Relation(name, description, applies, perturb, relate)


def relation_registry() -> list:
    """All registered relations, in name order."""
    return sorted(_REGISTRY.values(), key=lambda rel: rel.name)


def get_relation(name: str) -> Relation:
    """The registered relation of this name.

    Raises:
        KeyError: naming the known relations, if there is no such one.
    """
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown relation {name!r}; known: {known}")
    return _REGISTRY[name]


# ----------------------------------------------------------------------
# double-batch


def _double_applies(spec: PointSpec, gpu_key: str) -> bool:
    # Fault scenarios have their own relation; fixed-batch models
    # (Faster R-CNN trains one image per GPU) cannot double.
    return not spec.faults and len(get_model(spec.model).batch_sizes) > 1


def _double_perturb(spec: PointSpec, gpu_key: str):
    return (
        PointSpec(spec.model, spec.framework, spec.batch_size * 2, spec.faults),
        gpu_key,
    )


def _double_relate(spec, gpu_key, base, pert) -> list:
    if base.oom:
        if not pert.oom:
            return [
                f"b{spec.batch_size} OOMs but doubled b{spec.batch_size * 2} fits"
            ]
        return []
    if pert.oom:
        return []  # growing out of memory is allowed
    t1 = base.metrics.iteration_time_s
    t2 = pert.metrics.iteration_time_s
    if t2 < t1 * (1.0 - REL_TOL):
        return [
            f"doubling the batch sped the iteration up: {t1:.6e}s@b"
            f"{spec.batch_size} -> {t2:.6e}s@b{spec.batch_size * 2}"
        ]
    return []


_register(
    "double-batch",
    "doubling the batch never shortens the iteration and never turns an "
    "OOM point into a fitting one",
    _double_applies,
    _double_perturb,
    _double_relate,
)


# ----------------------------------------------------------------------
# swap-gpu (memory-capacity monotonicity)


def _swap_applies(spec: PointSpec, gpu_key: str) -> bool:
    return not spec.faults and gpu_key == DEFAULT_GPU


def _swap_perturb(spec: PointSpec, gpu_key: str):
    return spec, BIGGER_GPU


def _swap_relate(spec, gpu_key, base, pert) -> list:
    small = get_gpu(DEFAULT_GPU)
    big = get_gpu(BIGGER_GPU)
    if not base.oom and pert.oom:
        return [
            f"fits in {small.name} ({small.memory_gb} GB) but OOMs on "
            f"{big.name} ({big.memory_gb} GB)"
        ]
    return []


_register(
    "swap-gpu-more-memory",
    "a configuration that fits the default GPU also fits a GPU with "
    "strictly more memory (note: it may still be *slower* there — launch "
    "overheads scale with the part, paper Observation 10)",
    _swap_applies,
    _swap_perturb,
    _swap_relate,
)


# ----------------------------------------------------------------------
# drop-fault-events


def _drop_applies(spec: PointSpec, gpu_key: str) -> bool:
    faults = spec.scenario.faults
    return faults is not None and not faults.plan.is_empty


def _drop_perturb(spec: PointSpec, gpu_key: str):
    # The fault-free twin: the parsed scenario without its events, so the
    # cluster, steps and seed carry over and only the fault spec's parser
    # reads the text.
    faults = spec.scenario.faults
    twin = replace(faults, plan=replace(faults.plan, events=()))
    return replace(spec, faults=twin.canonical), gpu_key


def _drop_relate(spec, gpu_key, base, pert) -> list:
    if base.oom or pert.oom:
        if base.oom != pert.oom:
            return ["fault events changed the OOM verdict of the same cluster"]
        return []
    faulted = base.metrics.throughput
    clean = pert.metrics.throughput
    if faulted > clean * (1.0 + REL_TOL):
        return [
            f"faulted run beats its fault-free twin: {faulted:.4f} vs "
            f"{clean:.4f} samples/s"
        ]
    return []


_register(
    "drop-fault-events",
    "stripping the injected events from a fault scenario (same cluster, "
    "steps and seed) never lowers throughput",
    _drop_applies,
    _drop_perturb,
    _drop_relate,
)


# ----------------------------------------------------------------------
# replay-determinism


def _replay_applies(spec: PointSpec, gpu_key: str) -> bool:
    return True


def _replay_perturb(spec: PointSpec, gpu_key: str):
    return spec, gpu_key


def _replay_relate(spec, gpu_key, base, pert) -> list:
    a = canonical_json(point_to_payload(base))
    b = canonical_json(point_to_payload(pert))
    if a != b:
        return ["replaying the identical spec produced different payload bytes"]
    return []


_register(
    "replay-determinism",
    "running the identical spec again (cache-warm or recomputed) yields "
    "byte-identical payloads",
    _replay_applies,
    _replay_perturb,
    _replay_relate,
)
