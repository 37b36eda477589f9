"""Content-addressed cache keys for sweep points.

A sweep point's result is a pure function of

- the model architecture (its :class:`~repro.models.registry.ModelSpec`
  and the source of its graph builder),
- the framework personality (dispatch costs, allocator behaviour,
  kernel-efficiency table),
- the device pair (GPU roofline inputs, host CPU),
- the mini-batch size and the model's reference hyper-parameters,
- the scenario it runs under (faults, transforms, batch schedule), each
  as canonical text, and
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

from repro.engine.scenario import parse_scenario
from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.frameworks.base import Framework
from repro.frameworks.registry import get_framework
from repro.models.registry import ModelSpec, get_model
from repro.training.hyperparams import MODEL_DEFAULTS, Hyperparameters

#: Schema version of the key document; bump to invalidate every entry.
#: v5: one document shape for every point — ``faults``, ``transforms``
#: and ``schedule`` always present, each the dimension's canonical text
#: (empty when unused), so two spellings of one scenario share a key.
KEY_SCHEMA = 5

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

#: Extra modules a point's result depends on per scenario dimension it
#: uses (:attr:`repro.engine.scenario.Scenario.dimensions`).  Plain
#: points exclude them all, so editing one dimension's layer never
#: invalidates the plain paper grid.  (``plan/``, home of the transform
#: parser and contracts, is already in :data:`CORE_CODE`.)
DIMENSION_CODE = {
    # The fault/recovery simulator and the distributed cost models it
    # perturbs.
    "faults": (
        "faults",
        "distributed",
        "hardware/cluster.py",
        "hardware/interconnect.py",
    ),
    # The host link offload prices its transfers on (the rewrites
    # themselves live in ``plan/``).
    "transforms": ("hardware/interconnect.py",),
    # The schedule family/integrator and the convergence curves that
    # drive its segment boundaries.
    "schedule": ("schedule", "training/convergence.py"),
}

#: The A/B measurement code: the interleaved runner, its subjects and
#: noise model, and the Welch/sample-sizing statistics it uses.  Every
#: noisy answer (a tuned config's confirmation) is a function of these
#: sources, so the tuned-config key covers them.
MEASUREMENT_CODE = (
    "bench/runner.py",
    "bench/subjects.py",
    "bench/noise.py",
    "profiling/statistics.py",
)

#: Run dimensions that deliberately do NOT participate in the cache key.
#: The bench noise seed is measurement-layer state: it perturbs *observed*
#: times, never the simulated result a point caches, so two runs at
#: different seeds must hit the same cache entry.  Adding one of these to
#: the key document is a bug (it would shard the cache by measurement
#: configuration).
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


def _iter_code_files(entry: str) -> list:
    """Package-relative paths of every source file under ``entry``.

    Raises:
        FileNotFoundError: if ``entry`` names no source file — a stale
            dependency entry would otherwise hash nothing and stop the
            keys from tracking the code it was meant to cover.
    """
    absolute = os.path.join(_PACKAGE_ROOT, entry)
    if os.path.isfile(absolute):
        return [entry]
    files = []
    if os.path.isdir(absolute):
        files = [
            f"{entry}/{name}"
            for name in sorted(os.listdir(absolute))
            if name.endswith(".py")
        ]
    if not files:
        raise FileNotFoundError(f"code dependency {entry!r} names no source file")
    return files


def _module_relpath(module_name: str) -> str | None:
    """``repro.models.resnet`` -> ``models/resnet.py`` (None if outside
    the package, e.g. a test-defined builder)."""
    prefix = "repro."
    if not module_name.startswith(prefix):
        return None
    relative = module_name[len(prefix):].replace(".", "/") + ".py"
    return relative if os.path.isfile(os.path.join(_PACKAGE_ROOT, relative)) else None


def code_fingerprint(model_module: str | None = None, dimensions: tuple = ()) -> str:
    """Fingerprint of the timing-model source a point's result depends on.

    ``model_module`` is the model builder's module name; only that model's
    entries move when it changes.  ``dimensions`` names the scenario
    dimensions the point uses, each widening the dependency set by its
    :data:`DIMENSION_CODE` entry.  The composite digest hashes the sorted
    ``(relative path, file sha256)`` list so renames count as changes.
    """
    cache_key = (model_module, dimensions)
    cached = _CODE_FINGERPRINTS.get(cache_key)
    if cached is not None:
        return cached
    entries = []
    seen = set()
    sources = list(CORE_CODE)
    for dimension in dimensions:
        sources.extend(DIMENSION_CODE[dimension])
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
    sets — e.g. the tuned-config key fingerprints the search and the A/B
    measurement code on top of :data:`CORE_CODE`, so editing either
    invalidates tuned configs but no sweep point."""
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
    ``hyperparams`` defaults to the model's registered reference set.
    ``faults``, ``transforms`` and ``schedule`` are spec texts in any
    spelling; the document carries each dimension's canonical text (see
    :class:`~repro.engine.scenario.Scenario`), because the canonical text
    *is* the deterministic input (same scenario + same code = same
    result).  ``code`` defaults to :func:`code_fingerprint` of the timing
    model, the model's builder module and the dimensions in use.
    """
    spec = get_model(model) if isinstance(model, str) else model
    personality = (
        get_framework(framework) if isinstance(framework, str) else framework
    )
    if hyperparams is None:
        hyperparams = MODEL_DEFAULTS.get(spec.key)
    scenario = parse_scenario(faults, transforms, schedule)
    if code is None:
        code = code_fingerprint(spec.build.__module__, scenario.dimensions)
    return {
        "schema": KEY_SCHEMA,
        "model": fingerprint_model(spec),
        "framework": fingerprint_framework(personality),
        "gpu": fingerprint_gpu(gpu),
        "cpu": fingerprint_cpu(cpu),
        "batch_size": int(batch_size),
        "hyperparameters": fingerprint_hyperparameters(hyperparams),
        "code": code,
        **scenario.canonical,
    }


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
