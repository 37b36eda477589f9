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

A sweep asks for many points that share everything but the batch size,
so the per-context work is memoized:

- ``_FILE_DIGESTS`` and ``_CODE_FINGERPRINTS``: the source digests.
- ``_SUB_DOCUMENTS``: each spec object's fingerprint document (model,
  framework, GPU, CPU, hyper-parameters), keyed by identity with the
  object pinned in the entry, so an ``id`` is never reused while its
  entry lives.  The specs are frozen dataclasses.
- ``_CONTEXTS``: per :func:`point_key` context as the caller spelled it
  (string arguments by value, the others by identity, pinned in the
  entry), the resolved context and the canonical JSON of its document
  minus ``batch_size``.  A repeated context skips resolving its specs
  and scenario.  The code fingerprint is still looked up on every call,
  so an edit :func:`code_fingerprint` sees rebuilds the tail.
  ``batch_size`` sorts first among the document's fields, so
  :func:`point_key` hashes ``'{"batch_size":N'`` plus the memoized tail:
  the same bytes as the whole document's canonical JSON.

``_SUB_DOCUMENTS`` and ``_CONTEXTS`` hold at most :data:`_MEMO_SIZE`
entries each, dropping the oldest first.  :func:`clear_fingerprint_caches` empties all
four.
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
#: Entries per memo below, like :func:`parse_scenario`'s
#: ``lru_cache``: conformance fuzzing mints fresh framework
#: personalities, which an unbounded memo would pin for good.
_MEMO_SIZE = 1024
#: (fingerprint function, id(spec)) -> (spec, sub-document).
_SUB_DOCUMENTS: dict = {}
#: :func:`point_key` arguments but the batch (strings as given, other
#: objects by id) -> [resolved context (which pins those objects),
#: canonical JSON of its document after ``batch_size``].
_CONTEXTS: dict = {}


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
    if cached is None:
        sources = list(CORE_CODE)
        for dimension in dimensions:
            sources.extend(DIMENSION_CODE[dimension])
        relative = _module_relpath(model_module) if model_module else None
        if relative is not None:
            sources.append(relative)
        cached = _CODE_FINGERPRINTS[cache_key] = modules_fingerprint(sources)
    return cached


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
    """Drop memoized file/code digests, sub-documents and contexts
    (tests, or long-lived processes that edit source on the fly)."""
    _FILE_DIGESTS.clear()
    _CODE_FINGERPRINTS.clear()
    _SUB_DOCUMENTS.clear()
    _CONTEXTS.clear()


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key``, first dropping the oldest entry of a
    full memo; returns ``value``."""
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _sub_document(fingerprint, spec):
    """``fingerprint(spec)``, built once per spec object.  The result is
    shared: read it, never mutate it."""
    entry = _SUB_DOCUMENTS.get((fingerprint, id(spec)))
    if entry is None:
        entry = _remember(
            _SUB_DOCUMENTS, (fingerprint, id(spec)), (spec, fingerprint(spec))
        )
    return entry[1]


# ----------------------------------------------------------------------
# the point key
# ----------------------------------------------------------------------


def _resolve(
    model, framework, gpu, cpu, hyperparams, code, faults, transforms, schedule
):
    """The context of a point: its spec objects, resolved code fingerprint
    and parsed scenario (see :func:`key_document` for the defaults)."""
    spec = get_model(model) if isinstance(model, str) else model
    personality = (
        get_framework(framework) if isinstance(framework, str) else framework
    )
    if hyperparams is None:
        hyperparams = MODEL_DEFAULTS.get(spec.key)
    scenario = parse_scenario(faults, transforms, schedule)
    if code is None:
        code = code_fingerprint(spec.build.__module__, scenario.dimensions)
    return spec, personality, gpu, cpu, hyperparams, code, scenario


def _context_document(spec, personality, gpu, cpu, hyperparams, code, scenario) -> dict:
    """The key document of a context: every field but ``batch_size``."""
    return {
        "schema": KEY_SCHEMA,
        "model": _sub_document(fingerprint_model, spec),
        "framework": _sub_document(fingerprint_framework, personality),
        "gpu": _sub_document(fingerprint_gpu, gpu),
        "cpu": _sub_document(fingerprint_cpu, cpu),
        "hyperparameters": _sub_document(fingerprint_hyperparameters, hyperparams),
        "code": code,
        **scenario.canonical,
    }


def _context_tail(context) -> str:
    """The canonical JSON of a context's document after its opening
    brace, with a leading comma: what follows ``'{"batch_size":N'``."""
    return "," + canonical_json(_context_document(*context))[1:]


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
    context = _resolve(
        model, framework, gpu, cpu, hyperparams, code, faults, transforms, schedule
    )
    return {"batch_size": int(batch_size), **_context_document(*context)}


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
    simulated result depends on — ``digest(key_document(...))``, with the
    context's part of the canonical JSON memoized."""
    # Strings by value; any other argument by identity, pinned by the
    # resolved context that holds it.
    arguments = (
        model if isinstance(model, str) else id(model),
        framework if isinstance(framework, str) else id(framework),
        id(gpu),
        id(cpu),
        id(hyperparams),
        code,
        faults,
        transforms,
        schedule,
    )
    entry = _CONTEXTS.get(arguments)
    if entry is None:
        context = _resolve(
            model, framework, gpu, cpu, hyperparams, code, faults, transforms, schedule
        )
        entry = _remember(_CONTEXTS, arguments, [context, _context_tail(context)])
    context, tail = entry
    if code is None:
        spec, scenario = context[0], context[6]
        code = code_fingerprint(spec.build.__module__, scenario.dimensions)
        if code != context[5]:
            context = (*context[:5], code, scenario)
            entry[:] = context, _context_tail(context)
            tail = entry[1]
    text = '{"batch_size":%d' % int(batch_size) + tail
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
