"""Tuned-config persistence in the content-addressed result cache.

A tuned config is a *derived* result: "for this exact workload, under
this exact timing-model code, the best transform pipeline is X".  It is
keyed the same way sweep points are — a SHA-256 over every input the
answer depends on (model, framework, device pair, batch, reference
hyper-parameters, the code fingerprint of a transformed point, and the
search and A/B measurement code that chose and confirmed the winner) —
and stored in the same :class:`~repro.engine.cache.ResultCache`.  So
retuning an unchanged workload is a cache hit, and editing a transform,
the compiler, the model, the search or the A/B runner moves the key and
invalidates exactly the stale answers.
"""

from __future__ import annotations

from repro.engine.keys import (
    MEASUREMENT_CODE,
    code_fingerprint,
    digest,
    key_document,
    modules_fingerprint,
)
from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.models.registry import get_model

#: Schema of the cached tuned-config record; bump to invalidate them all.
TUNED_SCHEMA = 2

#: Code a tuned config depends on beyond a transformed point's: the
#: search that picks the winner and the A/B runner that confirms it.
_TUNER_CODE = ("tune/search.py", *MEASUREMENT_CODE)


def tuned_key(
    model,
    framework,
    batch_size: int,
    gpu: GPUSpec = QUADRO_P4000,
    cpu: CPUSpec = XEON_E5_2680,
) -> str:
    """Content address of one workload's tuned config: the sweep point's
    :func:`~repro.engine.keys.key_document` (with the code fingerprint of
    a transformed point) plus the tuner's own code.

    Deliberately distinct from :func:`repro.engine.keys.point_key` (the
    ``kind`` field sees to that): a tuned config and a sweep point about
    the same workload coexist in one cache without colliding.
    """
    spec = get_model(model) if isinstance(model, str) else model
    return digest(
        {
            "kind": "tuned-config",
            "schema": TUNED_SCHEMA,
            "point": key_document(
                spec,
                framework,
                batch_size,
                gpu=gpu,
                cpu=cpu,
                code=code_fingerprint(spec.build.__module__, ("transforms",)),
            ),
            "tuner_code": modules_fingerprint(_TUNER_CODE),
        }
    )


def store_tuned(cache, result, spec=None, gpu: GPUSpec = QUADRO_P4000, cpu: CPUSpec = XEON_E5_2680) -> str:
    """Persist one :class:`~repro.tune.search.TuneResult`; returns its key."""
    model = spec if spec is not None else result.model
    key = tuned_key(model, result.framework, result.batch_size, gpu=gpu, cpu=cpu)
    config = {
        "kind": "tuned-config",
        "model": result.model,
        "framework": result.framework,
        "batch_size": result.batch_size,
        "gpu": gpu.name,
        "cpu": cpu.name,
    }
    cache.store(key, result.to_doc(), config=config)
    return key


def load_tuned(
    cache,
    model,
    framework,
    batch_size: int,
    gpu: GPUSpec = QUADRO_P4000,
    cpu: CPUSpec = XEON_E5_2680,
) -> dict | None:
    """The cached tuned-config record for one workload, or ``None``.

    A record that is not a tuned-config document (key collision,
    corruption the cache's own validation missed) is treated as absent
    rather than trusted.
    """
    if cache is None:
        return None
    doc = cache.load(tuned_key(model, framework, batch_size, gpu=gpu, cpu=cpu))
    if not isinstance(doc, dict) or doc.get("kind") != "tuned-config":
        return None
    return doc
