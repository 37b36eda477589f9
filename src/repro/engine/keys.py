"""Content-addressed cache keys for sweep points.

A sweep point's result is a pure function of

- the model architecture (its :class:`~repro.models.registry.ModelSpec`
  and the source of its graph builder),
- the framework personality (dispatch costs, allocator behaviour,
  kernel-efficiency table),
- the device pair (GPU roofline inputs, host CPU),
- the mini-batch size and the model's reference hyper-parameters, and
- the timing-model *code* itself (roofline, kernel library, and the
  plan compiler/executor that lowers and replays the kernel stream).

The key is the SHA-256 of a canonical JSON document over exactly those
inputs, so any change to any of them moves the key — and therefore
invalidates the cached entry — while irrelevant changes (dict insertion
order, field declaration order, unrelated modules) leave it fixed.

Code is fingerprinted at module granularity: every point depends on the
shared timing core (session, roofline, kernels, graph, frameworks, data
pipeline), but only on *its own* model-builder module, so editing
``repro/models/resnet.py`` invalidates ResNet entries and nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.frameworks.base import Framework
from repro.frameworks.registry import get_framework
from repro.models.registry import ModelSpec, get_model
from repro.training.hyperparams import MODEL_DEFAULTS, Hyperparameters

#: Schema version of the key document; bump to invalidate every entry.
#: v2: the document gained a ``faults`` dimension (empty string when the
#: point is fault-free).
#: v3: the document gained a ``transforms`` dimension — but only for
#: transformed points.  Untransformed documents keep the v2 shape (no
#: ``transforms`` field, ``schema: 2``) so every pre-v3 cache entry and
#: JSONL export stays byte-identical, exactly how ``faults`` landed.
#: v4: the document gained a ``schedule`` dimension — again only for
#: points with an *adaptive* batch schedule.  Unscheduled (and
#: ``fixed``-scheduled, which normalizes to empty) documents keep their
#: v2/v3 shapes, so the whole pre-v4 grid stays byte-identical.
KEY_SCHEMA = 4

#: The schema untransformed documents declare (and are byte-identical to).
_UNTRANSFORMED_SCHEMA = 2

#: The schema transformed-but-unscheduled documents declare (the v3 shape).
_TRANSFORMED_SCHEMA = 3

#: Timing-model modules every sweep point depends on, relative to the
#: ``repro`` package root.  Directories mean "every .py file inside".
CORE_CODE = (
    "training/session.py",
    "plan",
    "hardware/roofline.py",
    "hardware/memory.py",
    "hardware/devices.py",
    "kernels",
    "graph",
    "frameworks",
    "data",
)

#: Extra modules a *faulted* point's result additionally depends on:
#: the fault/recovery simulator and the distributed cost models it
#: perturbs.  Fault-free points deliberately exclude these, so editing
#: the fault layer never invalidates the plain paper grid.
FAULT_CODE = (
    "faults",
    "distributed",
    "hardware/cluster.py",
    "hardware/interconnect.py",
)

#: Extra modules a *transformed* point's result additionally depends on:
#: the optimization rewrites a pipeline composes.  (``plan/`` — including
#: the pipeline parser and the transform contracts — is already in
#: :data:`CORE_CODE`.)  Untransformed points deliberately exclude these,
#: so editing an optimization never invalidates the plain paper grid.
TRANSFORM_CODE = ("optimizations",)

#: Extra modules a *scheduled* point's result additionally depends on:
#: the schedule family/integrator and the convergence curves that drive
#: its segment boundaries.  Unscheduled points deliberately exclude
#: these, so editing the schedule layer never invalidates the plain
#: paper grid.
SCHEDULE_CODE = ("schedule", "training/convergence.py")

#: Run dimensions that deliberately do NOT participate in the cache key.
#: The bench noise seed is measurement-layer state: it perturbs *observed*
#: times, never the simulated result a point caches, so two runs at
#: different seeds must hit the same cache entry.  Adding one of these to
#: the key document is a bug (it would shard the cache by measurement
#: configuration); the bench trajectory records them separately in each
#: ``BENCH_*.json`` record instead.
NON_KEY_RUN_DIMENSIONS = ("noise_seed",)

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-file digest cache: absolute path -> sha256 hex of the source bytes.
_FILE_DIGESTS: dict = {}
#: Composite fingerprint cache: model module name (or None) -> hex digest.
_CODE_FINGERPRINTS: dict = {}


def canonical_json(document) -> str:
    """Serialize ``document`` deterministically: keys sorted at every
    level, compact separators, exact (repr-roundtrip) floats."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def digest(document) -> str:
    """SHA-256 hex digest of a document's canonical JSON."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# input fingerprints
# ----------------------------------------------------------------------


def fingerprint_gpu(gpu: GPUSpec) -> dict:
    """Every roofline input the GPU contributes, as a plain dict."""
    return dataclasses.asdict(gpu)


def fingerprint_cpu(cpu: CPUSpec) -> dict:
    """Every host-side input the CPU contributes."""
    return dataclasses.asdict(cpu)


def fingerprint_framework(framework: Framework) -> dict:
    """The framework personality, with enum keys/values made canonical."""
    doc = {}
    for spec_field in dataclasses.fields(framework):
        value = getattr(framework, spec_field.name)
        if spec_field.name == "kernel_efficiency":
            value = {category.value: factor for category, factor in value.items()}
        elif spec_field.name == "momentum_allocation":
            value = value.value
        doc[spec_field.name] = value
    return doc


def fingerprint_model(spec: ModelSpec) -> dict:
    """The model's static description; the ``build`` callable is replaced
    by its defining module (fingerprinted separately as code)."""
    doc = {}
    for spec_field in dataclasses.fields(spec):
        if spec_field.name == "build":
            doc["build_module"] = spec.build.__module__
            continue
        value = getattr(spec, spec_field.name)
        if isinstance(value, tuple):
            value = list(value)
        doc[spec_field.name] = value
    return doc


def fingerprint_hyperparameters(hyperparams: Hyperparameters | None) -> dict | None:
    """The reference hyper-parameters, or ``None`` for models without a
    registered default set."""
    if hyperparams is None:
        return None
    return dataclasses.asdict(hyperparams)


# ----------------------------------------------------------------------
# code fingerprint
# ----------------------------------------------------------------------


def _file_digest(path: str) -> str:
    cached = _FILE_DIGESTS.get(path)
    if cached is None:
        with open(path, "rb") as handle:
            cached = hashlib.sha256(handle.read()).hexdigest()
        _FILE_DIGESTS[path] = cached
    return cached


def _iter_code_files(entry: str):
    """Yield package-relative paths of every source file under ``entry``."""
    absolute = os.path.join(_PACKAGE_ROOT, entry)
    if os.path.isfile(absolute):
        yield entry
        return
    if not os.path.isdir(absolute):
        return
    for name in sorted(os.listdir(absolute)):
        if name.endswith(".py"):
            yield f"{entry}/{name}"


def _module_relpath(module_name: str) -> str | None:
    """``repro.models.resnet`` -> ``models/resnet.py`` (None if outside
    the package, e.g. a test-defined builder)."""
    prefix = "repro."
    if not module_name.startswith(prefix):
        return None
    relative = module_name[len(prefix):].replace(".", "/") + ".py"
    return relative if os.path.isfile(os.path.join(_PACKAGE_ROOT, relative)) else None


def code_fingerprint(
    model_module: str | None = None,
    with_faults: bool = False,
    with_transforms: bool = False,
    with_schedule: bool = False,
) -> str:
    """Fingerprint of the timing-model source a point's result depends on.

    ``model_module`` is the model builder's module name; only that model's
    entries move when it changes.  ``with_faults`` widens the dependency
    set by :data:`FAULT_CODE` for points running under a fault scenario;
    ``with_transforms`` widens it by :data:`TRANSFORM_CODE` for points
    running under a transform pipeline; ``with_schedule`` widens it by
    :data:`SCHEDULE_CODE` for points running an adaptive batch schedule.
    The composite digest hashes the sorted ``(relative path, file
    sha256)`` list so renames count as changes.
    """
    cache_key = (model_module, with_faults, with_transforms, with_schedule)
    cached = _CODE_FINGERPRINTS.get(cache_key)
    if cached is not None:
        return cached
    entries = []
    seen = set()
    sources = list(CORE_CODE)
    if with_faults:
        sources.extend(FAULT_CODE)
    if with_transforms:
        sources.extend(TRANSFORM_CODE)
    if with_schedule:
        sources.extend(SCHEDULE_CODE)
    if model_module is not None:
        relative = _module_relpath(model_module)
        if relative is not None:
            sources.append(relative)
    for source in sources:
        for relative in _iter_code_files(source):
            if relative in seen:
                continue
            seen.add(relative)
            entries.append(
                [relative, _file_digest(os.path.join(_PACKAGE_ROOT, relative))]
            )
    fingerprint = digest(sorted(entries))
    _CODE_FINGERPRINTS[cache_key] = fingerprint
    return fingerprint


def modules_fingerprint(entries) -> str:
    """Composite digest of arbitrary package-relative source entries
    (files or directories), for subsystems with their own code-dependency
    sets — e.g. the bench harness fingerprints itself on top of
    :data:`CORE_CODE` so trajectory records can tell "the timing model
    changed" apart from "the measurement harness changed"."""
    digests = []
    seen = set()
    for entry in entries:
        for relative in _iter_code_files(entry):
            if relative in seen:
                continue
            seen.add(relative)
            digests.append(
                [relative, _file_digest(os.path.join(_PACKAGE_ROOT, relative))]
            )
    return digest(sorted(digests))


def clear_fingerprint_caches() -> None:
    """Drop memoized file/code digests (tests, or long-lived processes
    that edit source on the fly)."""
    _FILE_DIGESTS.clear()
    _CODE_FINGERPRINTS.clear()


# ----------------------------------------------------------------------
# the point key
# ----------------------------------------------------------------------


def key_document(
    model,
    framework,
    batch_size: int,
    gpu: GPUSpec = QUADRO_P4000,
    cpu: CPUSpec = XEON_E5_2680,
    hyperparams: Hyperparameters | None = None,
    code: str | None = None,
    faults: str = "",
    transforms: str = "",
    schedule: str = "",
) -> dict:
    """The full canonical document a point key hashes.

    ``model``/``framework`` accept registry keys or resolved spec objects;
    ``hyperparams`` defaults to the model's registered reference set;
    ``code`` defaults to :func:`code_fingerprint` of the timing model plus
    the model's builder module (widened by :data:`FAULT_CODE` when the
    point carries a ``faults`` scenario, by :data:`TRANSFORM_CODE` when
    it carries a ``transforms`` pipeline, and by :data:`SCHEDULE_CODE`
    when it carries an adaptive ``schedule``); ``faults``, ``transforms``
    and ``schedule`` are the raw scenario/pipeline/schedule strings —
    hashed as text because the text *is* the deterministic input (same
    text + same code = same result).  ``schedule`` must already be
    normalized (``fixed`` collapses to the empty string — the executor
    does this via :func:`repro.schedule.spec.normalized_schedule`).  An
    unscheduled document omits the ``schedule`` field and declares the
    v2/v3 schema its other dimensions imply, keeping every pre-v4 key
    byte-identical.
    """
    spec = get_model(model) if isinstance(model, str) else model
    personality = (
        get_framework(framework) if isinstance(framework, str) else framework
    )
    if hyperparams is None:
        hyperparams = MODEL_DEFAULTS.get(spec.key)
    if code is None:
        code = code_fingerprint(
            spec.build.__module__,
            with_faults=bool(faults),
            with_transforms=bool(transforms),
            with_schedule=bool(schedule),
        )
    if schedule:
        schema = KEY_SCHEMA
    elif transforms:
        schema = _TRANSFORMED_SCHEMA
    else:
        schema = _UNTRANSFORMED_SCHEMA
    document = {
        "schema": schema,
        "model": fingerprint_model(spec),
        "framework": fingerprint_framework(personality),
        "gpu": fingerprint_gpu(gpu),
        "cpu": fingerprint_cpu(cpu),
        "batch_size": int(batch_size),
        "hyperparameters": fingerprint_hyperparameters(hyperparams),
        "code": code,
        "faults": faults,
    }
    if transforms:
        document["transforms"] = transforms
    if schedule:
        document["schedule"] = schedule
    return document


def point_key(
    model,
    framework,
    batch_size: int,
    gpu: GPUSpec = QUADRO_P4000,
    cpu: CPUSpec = XEON_E5_2680,
    hyperparams: Hyperparameters | None = None,
    code: str | None = None,
    faults: str = "",
    transforms: str = "",
    schedule: str = "",
) -> str:
    """Content address of one sweep point: SHA-256 over every input the
    simulated result depends on."""
    return digest(
        key_document(
            model,
            framework,
            batch_size,
            gpu=gpu,
            cpu=cpu,
            hyperparams=hyperparams,
            code=code,
            faults=faults,
            transforms=transforms,
            schedule=schedule,
        )
    )
