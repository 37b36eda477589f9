"""Differential tests for :func:`repro.engine.keys.point_key`'s memo.

``point_key`` memoizes each context (every argument but the batch size)
as the caller spelled it, so a repeated context hashes a cached tail.
The reference is ``digest(key_document(...))``, which resolves and
serializes the whole document on every call: the two must agree on every
paper-grid point, under every memo state a sweep can meet.
"""

import dataclasses
import os

import pytest

import repro.engine.keys as keys_module
from repro.engine.keys import digest, key_document, point_key
from repro.hardware.devices import QUADRO_P4000
from repro.models.registry import model_catalog

#: One scenario per way a context's text can reach the key: none, a
#: schedule spelling that means none, a transform, and a transform whose
#: dimension widens the code fingerprint.
SCENARIOS = (
    {},
    {"schedule": "fixed"},
    {"transforms": "fp16"},
    {"transforms": "offload:0.5"},
)

GPUS = {
    "p4000": QUADRO_P4000,
    "equal-copy": dataclasses.replace(QUADRO_P4000),
    "faster-copy": dataclasses.replace(QUADRO_P4000, max_clock_mhz=2000.0),
}


def _grid():
    for spec in model_catalog().values():
        for framework in spec.frameworks:
            for batch in spec.batch_sizes:
                yield spec.key, framework, batch


def _mismatches(gpu, scenario) -> list:
    return [
        (model, framework, batch)
        for model, framework, batch in _grid()
        if point_key(model, framework, batch, gpu=gpu, **scenario)
        != digest(key_document(model, framework, batch, gpu=gpu, **scenario))
    ]


@pytest.fixture(autouse=True)
def _fresh_memos():
    keys_module.clear_fingerprint_caches()
    yield
    keys_module.clear_fingerprint_caches()


@pytest.mark.parametrize("gpu", GPUS.values(), ids=GPUS.keys())
@pytest.mark.parametrize("scenario", SCENARIOS, ids=("plain", "fixed", "fp16", "offload"))
class TestPointKeyIsTheDocumentDigest:
    def test_with_cold_memos(self, gpu, scenario):
        assert _mismatches(gpu, scenario) == []

    def test_with_warm_memos(self, gpu, scenario):
        _mismatches(gpu, scenario)
        assert _mismatches(gpu, scenario) == []

    def test_after_clearing_the_memos(self, gpu, scenario):
        _mismatches(gpu, scenario)
        keys_module.clear_fingerprint_caches()
        assert _mismatches(gpu, scenario) == []

    def test_after_a_core_source_edit(self, monkeypatch, gpu, scenario):
        # Warm contexts, then move the code fingerprint under them.
        _mismatches(gpu, scenario)
        before = point_key("resnet-50", "mxnet", 16, gpu=gpu, **scenario)
        path = os.path.join(keys_module._PACKAGE_ROOT, "hardware", "roofline.py")
        monkeypatch.setitem(keys_module._FILE_DIGESTS, path, "0" * 64)
        keys_module._CODE_FINGERPRINTS.clear()
        assert _mismatches(gpu, scenario) == []
        assert point_key("resnet-50", "mxnet", 16, gpu=gpu, **scenario) != before


def test_an_equal_gpu_copy_shares_keys_and_a_changed_one_does_not():
    for model, framework, batch in _grid():
        key = point_key(model, framework, batch)
        assert point_key(model, framework, batch, gpu=GPUS["equal-copy"]) == key
        assert point_key(model, framework, batch, gpu=GPUS["faster-copy"]) != key


def test_spellings_of_one_context_share_keys():
    # Memo entries are per spelling; the keys are per canonical context.
    spec = model_catalog()["resnet-50"]
    assert point_key("ResNet-50", "MXNet", 32) == point_key("resnet-50", "mxnet", 32)
    assert point_key(spec, "mxnet", 32) == point_key("resnet-50", "mxnet", 32)
    assert point_key("resnet-50", "mxnet", 32, schedule="fixed") == point_key(
        "resnet-50", "mxnet", 32
    )
    assert point_key("resnet-50", "mxnet", 32, transforms="FP16") == point_key(
        "resnet-50", "mxnet", 32, transforms="fp16"
    )
