"""Property-based tests for the engine's content-addressed cache keys.

Hypothesis-free by design: the generators are plain seeded ``random``
instances defined in-repo, so every run explores the same cases and a
failure is reproducible from the seed alone.

The three properties the cache's correctness rests on:

1. **Ordering-insensitive**: the key never depends on dict insertion
   order or field construction order — only on values.
2. **Input-sensitive**: perturbing *any* roofline/device/framework/
   hyper-parameter input, the batch size, the model, or the code
   fingerprint moves the key.
3. **Collision-free in practice**: the full paper grid (every model ×
   framework × batch size × both evaluation GPUs) produces all-distinct
   keys.

Plus the document's one shape (schema 5): every point, plain or not,
carries the same fields, with each scenario dimension's canonical text.
"""

import dataclasses
import importlib
import inspect
import os
import random

import pytest

import repro.engine.keys as keys_module
from repro.engine.keys import (
    CORE_CODE,
    DIMENSION_CODE,
    KEY_SCHEMA,
    canonical_json,
    code_fingerprint,
    digest,
    fingerprint_framework,
    key_document,
    point_key,
)
from repro.frameworks.base import MomentumAllocation
from repro.frameworks.registry import framework_catalog, get_framework
from repro.hardware.devices import (
    GTX_580,
    QUADRO_P4000,
    TITAN_XP,
    XEON_E5_2680,
)
from repro.models.registry import model_catalog
from repro.training.hyperparams import defaults_for

SEED = 20180923  # the paper's venue date; any fixed seed works


def _shuffled_copy(rng, value):
    """Deep copy with every dict rebuilt in a random insertion order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled_copy(rng, value[key]) for key in keys}
    if isinstance(value, list):
        return [_shuffled_copy(rng, item) for item in value]
    return value


def _random_document(rng, depth=0):
    """A random nested JSON-able document."""
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(
            [
                rng.randint(-1000, 1000),
                rng.random() * rng.choice([1e-6, 1.0, 1e6]),
                f"s{rng.randint(0, 99)}",
                None,
                rng.random() < 0.5,
            ]
        )
    if rng.random() < 0.5:
        return {
            f"k{rng.randint(0, 20)}": _random_document(rng, depth + 1)
            for _ in range(rng.randint(1, 5))
        }
    return [_random_document(rng, depth + 1) for _ in range(rng.randint(1, 4))]


class TestOrderingStability:
    def test_canonical_json_ignores_dict_order(self):
        rng = random.Random(SEED)
        for _ in range(50):
            document = _random_document(rng)
            reference = canonical_json(document)
            for _ in range(5):
                assert canonical_json(_shuffled_copy(rng, document)) == reference

    def test_key_document_digest_ignores_dict_order(self):
        rng = random.Random(SEED)
        document = key_document("resnet-50", "mxnet", 32)
        reference = digest(document)
        for _ in range(10):
            assert digest(_shuffled_copy(rng, document)) == reference

    def test_kernel_efficiency_insertion_order_is_irrelevant(self):
        framework = get_framework("mxnet")
        table = dict(framework.kernel_efficiency)
        assert len(table) >= 2, "need a multi-entry table to permute"
        reversed_table = dict(reversed(list(table.items())))
        reordered = dataclasses.replace(framework, kernel_efficiency=reversed_table)
        assert fingerprint_framework(reordered) == fingerprint_framework(framework)
        assert point_key("resnet-50", reordered, 32) == point_key(
            "resnet-50", framework, 32
        )

    def test_point_key_is_stable_across_calls(self):
        keys = {point_key("nmt", "tensorflow", 64) for _ in range(5)}
        assert len(keys) == 1


def _perturb(field_name: str, value):
    """A minimally-different valid value for one fingerprint input."""
    if field_name == "optimizer":
        return "adam" if value == "sgd" else "sgd"
    if field_name == "lr_schedule":
        return "constant" if value != "constant" else "step"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        # Shrink toward zero so constrained fields ((0, 1] efficiencies,
        # [0, 1) rates, >= 1 overheads stay >= 1 via the +tiny guard).
        return value * 0.9995 + (1e-9 if value == 0.0 else 0.0)
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, MomentumAllocation):
        return (
            MomentumAllocation.DYNAMIC
            if value is MomentumAllocation.STATIC
            else MomentumAllocation.STATIC
        )
    if isinstance(value, dict) and value:
        key = sorted(value, key=str)[0]
        changed = dict(value)
        changed[key] = changed[key] * 0.9995
        return changed
    return None  # unperturbable (empty dicts etc.)


class TestInputSensitivity:
    BASE = dict(model="resnet-50", framework="mxnet", batch_size=32)

    def _base_key(self, **overrides):
        return point_key(**{**self.BASE, **overrides})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(QUADRO_P4000)])
    def test_every_gpu_field_moves_the_key(self, field):
        value = getattr(QUADRO_P4000, field)
        perturbed = _perturb(field, value)
        if perturbed is None:
            pytest.skip(f"no perturbation for {field}={value!r}")
        gpu = dataclasses.replace(QUADRO_P4000, **{field: perturbed})
        assert self._base_key(gpu=gpu) != self._base_key()

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(XEON_E5_2680)])
    def test_every_cpu_field_moves_the_key(self, field):
        value = getattr(XEON_E5_2680, field)
        perturbed = _perturb(field, value)
        if perturbed is None:
            pytest.skip(f"no perturbation for {field}={value!r}")
        cpu = dataclasses.replace(XEON_E5_2680, **{field: perturbed})
        assert self._base_key(cpu=cpu) != self._base_key()

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(get_framework("mxnet"))]
    )
    def test_every_framework_field_moves_the_key(self, field):
        framework = get_framework("mxnet")
        value = getattr(framework, field)
        perturbed = _perturb(field, value)
        if perturbed is None:
            pytest.skip(f"no perturbation for {field}={value!r}")
        changed = dataclasses.replace(framework, **{field: perturbed})
        assert self._base_key(framework=changed) != self._base_key()

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(defaults_for("resnet-50"))]
    )
    def test_every_hyperparameter_moves_the_key(self, field):
        reference = defaults_for("resnet-50")
        perturbed = _perturb(field, getattr(reference, field))
        assert perturbed is not None
        changed = dataclasses.replace(reference, **{field: perturbed})
        assert self._base_key(hyperparams=changed) != self._base_key()

    def test_batch_model_framework_move_the_key(self):
        assert self._base_key(batch_size=33) != self._base_key()
        assert self._base_key(model="inception-v3") != self._base_key()
        assert self._base_key(framework="tensorflow") != self._base_key()

    def test_code_fingerprint_moves_the_key(self):
        assert self._base_key(code="0" * 64) != self._base_key()

    def test_code_fingerprint_is_model_specific(self):
        shared = code_fingerprint(None)
        resnet = code_fingerprint("repro.models.resnet")
        a3c = code_fingerprint("repro.models.a3c")
        assert len({shared, resnet, a3c}) == 3


class TestCollisionFreedom:
    def test_full_paper_grid_has_distinct_keys(self):
        keys = []
        for spec in model_catalog().values():
            for framework_key in spec.frameworks:
                for batch in spec.batch_sizes:
                    for gpu in (QUADRO_P4000, TITAN_XP):
                        keys.append(
                            point_key(spec.key, framework_key, batch, gpu=gpu)
                        )
        assert len(keys) == len(set(keys))
        assert len(keys) >= 2 * 40  # the grid really is the paper's scale

    def test_random_framework_personalities_do_not_collide(self):
        rng = random.Random(SEED)
        base = get_framework("tensorflow")
        keys = set()
        for _ in range(100):
            mutated = dataclasses.replace(
                base,
                dispatch_cost_s=rng.uniform(1e-6, 1e-4),
                frontend_cost_s=rng.uniform(0.0, 1e-2),
                pool_overhead=rng.uniform(1.0, 1.5),
                workspace_factor=rng.uniform(0.5, 2.0),
            )
            keys.add(point_key("resnet-50", mutated, 32))
        assert len(keys) == 100

    def test_catalog_frameworks_have_distinct_fingerprints(self):
        fingerprints = {
            canonical_json(fingerprint_framework(fw))
            for fw in framework_catalog().values()
        }
        assert len(fingerprints) == len(framework_catalog())

    def test_key_is_device_aware_even_for_old_hardware(self):
        keys = {
            point_key("resnet-50", "mxnet", 16, gpu=gpu)
            for gpu in (QUADRO_P4000, TITAN_XP, GTX_580)
        }
        assert len(keys) == 3


class TestOneDocumentShape:
    SCENARIOS = (
        {},
        {"faults": "steps=12; crash=1@5"},
        {"transforms": "fused_rnn+fp16"},
        {"schedule": "gns:ceiling=64"},
        {"transforms": "fused_rnn", "schedule": "gns:ceiling=256"},
    )

    def test_every_document_has_the_same_fields_and_schema(self):
        documents = [
            key_document("nmt", "tensorflow", 16, **scenario)
            for scenario in self.SCENARIOS
        ]
        assert {frozenset(document) for document in documents} == {
            frozenset(documents[0])
        }
        assert {document["schema"] for document in documents} == {KEY_SCHEMA}
        assert KEY_SCHEMA == 5

    def test_dimension_fields_carry_canonical_text(self):
        document = key_document(
            "nmt", "tensorflow", 16, transforms="FP16+fused-rnn", schedule="fixed"
        )
        assert document["faults"] == ""
        assert document["transforms"] == "fused_rnn+fp16"
        assert document["schedule"] == ""

    def test_each_dimension_widens_the_code_fingerprint(self):
        plain = code_fingerprint("repro.models.seq2seq")
        widened = {
            code_fingerprint("repro.models.seq2seq", (dimension,))
            for dimension in DIMENSION_CODE
        }
        assert plain not in widened
        assert len(widened) == len(DIMENSION_CODE)

    def test_used_dimensions_pick_the_code_fingerprint(self):
        document = key_document("nmt", "tensorflow", 16, schedule="gns:ceiling=64")
        assert document["code"] == code_fingerprint("repro.models.seq2seq", ("schedule",))
        plain = key_document("nmt", "tensorflow", 16, schedule="fixed")
        assert plain["code"] == code_fingerprint("repro.models.seq2seq")


class TestCodeDependencyCoverage:
    """Every dependency entry must name real source files, and the host
    link offload prices its transfers on is part of transformed keys."""

    @pytest.fixture(autouse=True)
    def _fresh_digests(self):
        keys_module.clear_fingerprint_caches()
        yield
        keys_module.clear_fingerprint_caches()

    def test_editing_interconnect_moves_offload_keys_only(self, monkeypatch):
        offload_before = point_key("resnet-50", "mxnet", 16, transforms="offload:0.5")
        plain_before = point_key("resnet-50", "mxnet", 16)
        path = os.path.join(keys_module._PACKAGE_ROOT, "hardware", "interconnect.py")
        monkeypatch.setitem(keys_module._FILE_DIGESTS, path, "0" * 64)
        keys_module._CODE_FINGERPRINTS.clear()
        assert point_key("resnet-50", "mxnet", 16, transforms="offload:0.5") != (
            offload_before
        )
        assert point_key("resnet-50", "mxnet", 16) == plain_before

    @pytest.mark.parametrize(
        "source", (("tune", "search.py"), ("profiling", "statistics.py"))
    )
    def test_editing_search_or_ab_code_moves_tuned_keys_only(
        self, monkeypatch, source
    ):
        from repro.tune.store import tuned_key

        tuned_before = tuned_key("nmt", "tensorflow", 64)
        offload_before = point_key("nmt", "tensorflow", 64, transforms="offload:0.5")
        plain_before = point_key("nmt", "tensorflow", 64)
        path = os.path.join(keys_module._PACKAGE_ROOT, *source)
        monkeypatch.setitem(keys_module._FILE_DIGESTS, path, "0" * 64)
        keys_module._CODE_FINGERPRINTS.clear()
        assert tuned_key("nmt", "tensorflow", 64) != tuned_before
        assert point_key("nmt", "tensorflow", 64, transforms="offload:0.5") == (
            offload_before
        )
        assert point_key("nmt", "tensorflow", 64) == plain_before

    @pytest.mark.parametrize(
        "dimension, module, function",
        (
            ("faults", "repro.faults.trainer", "faulted_metrics"),
            ("schedule", "repro.schedule.integrator", "scheduled_metrics"),
        ),
    )
    def test_each_dimension_fingerprints_its_point_code(
        self, dimension, module, function
    ):
        # The code that turns a point of this dimension into metrics must be
        # among the files its keys hash, or editing it leaves stale entries.
        source = inspect.getsourcefile(
            getattr(importlib.import_module(module), function)
        )
        code_fingerprint("repro.models.seq2seq", (dimension,))
        assert os.path.abspath(source) in keys_module._FILE_DIGESTS

    @pytest.mark.parametrize("table", ("CORE_CODE", "DIMENSION_CODE"))
    def test_entry_naming_no_file_raises(self, monkeypatch, table):
        if table == "CORE_CODE":
            monkeypatch.setattr(keys_module, "CORE_CODE", CORE_CODE + ("bogus",))
        else:
            monkeypatch.setitem(DIMENSION_CODE, "transforms", ("bogus.py",))
        with pytest.raises(FileNotFoundError, match="bogus"):
            code_fingerprint("repro.models.resnet", ("transforms",))


class TestPinnedBytes:
    """Key bytes pinned to literals, with the code fingerprint held fixed
    so that editing the timing model does not move them.  A change to
    how keys are *built* (memos, splicing) must leave every byte alone;
    only a deliberate ``KEY_SCHEMA`` bump may rewrite these."""

    CODE = "0" * 64

    @pytest.mark.parametrize(
        "model, framework, batch, scenario, expected",
        (
            (
                "resnet-50", "mxnet", 32, {},
                "b81f7cc5855ce7980a7dd83a90bf114572d56f86938a217ab6ce4ce3ba969f94",
            ),
            (
                "nmt", "tensorflow", 64, {"transforms": "fused_rnn+fp16"},
                "12ab0883ecacb44db9ddd3264f1763e4c610d28d8738b36284a395c9764cd87f",
            ),
            (
                "nmt", "tensorflow", 16, {"schedule": "gns:ceiling=256"},
                "99cf16d8b89237bdf302716ca3ade98a222f79a70cdcb68c71353bdff307b8ba",
            ),
            (
                "resnet-50", "mxnet", 16, {"faults": "steps=12; crash=1@5"},
                "db9e82979e84a62745db2132a44f4bd744d16c0a2daec48767c107d218b3c4d7",
            ),
        ),
    )
    def test_point_key_literal(self, model, framework, batch, scenario, expected):
        key = point_key(model, framework, batch, code=self.CODE, **scenario)
        assert key == expected

    def test_tuned_key_literal(self, monkeypatch):
        import repro.tune.store as store

        monkeypatch.setattr(store, "code_fingerprint", lambda *args: "1" * 64)
        monkeypatch.setattr(store, "modules_fingerprint", lambda *args: "2" * 64)
        assert store.tuned_key("nmt", "tensorflow", 64) == (
            "a9f4a25db66889d72d974c1b2e75418ca49e5def6a63f6052ba2b3c66ac0591c"
        )

    def test_point_key_hashes_the_key_document(self):
        for spec in model_catalog().values():
            for framework_key in spec.frameworks:
                for batch in spec.batch_sizes:
                    assert point_key(spec.key, framework_key, batch) == digest(
                        key_document(spec.key, framework_key, batch)
                    )

    def test_batch_size_is_the_first_canonical_field(self):
        # point_key splices the batch size in front of a memoized context.
        text = canonical_json(key_document("resnet-50", "mxnet", 32))
        assert text.startswith('{"batch_size":32,')

    def test_clear_fingerprint_caches_empties_every_memo(self):
        point_key("resnet-50", "mxnet", 32)
        memos = (
            keys_module._FILE_DIGESTS,
            keys_module._CODE_FINGERPRINTS,
            keys_module._SUB_DOCUMENTS,
            keys_module._CONTEXTS,
        )
        assert all(memos)
        keys_module.clear_fingerprint_caches()
        assert not any(memos)

    def test_memos_are_bounded(self, monkeypatch):
        monkeypatch.setattr(keys_module, "_MEMO_SIZE", 4)
        keys_module.clear_fingerprint_caches()
        base = get_framework("tensorflow")
        for index in range(10):
            personality = dataclasses.replace(base, dispatch_cost_s=1e-6 * (index + 1))
            point_key("resnet-50", personality, 32)
        assert len(keys_module._SUB_DOCUMENTS) <= 4
        assert len(keys_module._CONTEXTS) <= 4
        keys_module.clear_fingerprint_caches()
