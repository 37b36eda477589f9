"""The ``BENCH_<suite>.json`` trajectory store.

One file per suite holds the repo's performance trajectory: every record
is one gated suite run — median speedups, CIs, p-values, the noise
configuration, and an *environment fingerprint* (the timing-model code
fingerprint plus device identity from :mod:`repro.engine.keys`).  Records
are keyed by the digest of everything that determines their content, so
re-running the same suite at the same seed against the same code
*replaces* its record instead of appending a duplicate — which is what
makes ``tbd bench run --seed 7`` byte-identical across invocations — while
any code or configuration change appends a new trajectory point.

Files are canonical JSON (sorted keys, compact separators, repr-exact
floats) with no wall-clock fields, so they diff cleanly in review and can
be committed as CI artifacts.
"""

from __future__ import annotations

import json
import os

from repro.engine.keys import (
    KEY_SCHEMA,
    MEASUREMENT_CODE,
    canonical_json,
    code_fingerprint,
    digest,
    modules_fingerprint,
)
from repro.hardware.devices import QUADRO_P4000, XEON_E5_2680

#: Schema version of one BENCH_*.json document; bump on layout changes.
BENCH_SCHEMA = 1

#: Modules whose source participates in the bench environment fingerprint
#: beyond the shared timing core: the harness and the measurement code it
#: runs change what the numbers *mean*, so their edits must start a new
#: trajectory point.
_BENCH_CODE = ("bench", *MEASUREMENT_CODE)


def environment_fingerprint(gpu=QUADRO_P4000, cpu=XEON_E5_2680) -> dict:
    """The deterministic identity of the measurement environment."""
    return {
        "key_schema": KEY_SCHEMA,
        "code": code_fingerprint(),
        "bench_code": modules_fingerprint(_BENCH_CODE),
        "gpu": gpu.name,
        "cpu": cpu.name,
    }


def suite_filename(suite: str) -> str:
    return f"BENCH_{suite}.json"


class BenchStore:
    """Append-or-replace record store over one directory of
    ``BENCH_<suite>.json`` files."""

    def __init__(self, root: str | None = None):
        self.root = root if root is not None else os.getcwd()

    def path(self, suite: str) -> str:
        return os.path.join(self.root, suite_filename(suite))

    def load(self, suite: str) -> dict:
        """The suite's document (an empty skeleton if the file is absent)."""
        path = self.path(suite)
        if not os.path.exists(path):
            return {"schema": BENCH_SCHEMA, "suite": suite, "records": []}
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{path}: unsupported bench schema {document.get('schema')!r} "
                f"(this build reads schema {BENCH_SCHEMA})"
            )
        return document

    def records(self, suite: str) -> list:
        return self.load(suite)["records"]

    def append(self, suite: str, record: dict, volatile=()) -> str:
        """Insert ``record`` (replacing any record with the same key);
        returns the record key.

        The key is the digest of the record *without* the key field, so a
        byte-identical rerun lands on — and is absorbed by — its own
        previous entry.  Top-level fields named in ``volatile`` are stored
        but excluded from the digest: wall-clock measurements jitter
        between runs, and a suite that records them must still converge on
        one trajectory record per (code, configuration) state instead of
        appending a near-duplicate on every rerun.
        """
        body = {k: v for k, v in record.items() if k != "key"}
        key = digest({k: v for k, v in body.items() if k not in set(volatile)})
        stamped = dict(body)
        stamped["key"] = key
        document = self.load(suite)
        replaced = False
        for index, existing in enumerate(document["records"]):
            if existing.get("key") == key:
                document["records"][index] = stamped
                replaced = True
                break
        if not replaced:
            document["records"].append(stamped)
        self._write(suite, document)
        return key

    def _write(self, suite: str, document: dict) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self.path(suite)
        text = canonical_json(document) + "\n"
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)

    def suites(self) -> list:
        """Suite names with a trajectory file under this root, sorted."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                out.append(name[len("BENCH_") : -len(".json")])
        return out


def build_record(
    suite: str,
    seed: int,
    noise_doc: dict,
    results: list,
    gate_doc: dict,
    gpu=QUADRO_P4000,
    cpu=XEON_E5_2680,
) -> dict:
    """Assemble one trajectory record from a suite run's results."""
    return {
        "suite": suite,
        "seed": seed,
        "noise": dict(sorted(noise_doc.items())),
        "environment": environment_fingerprint(gpu=gpu, cpu=cpu),
        "results": [result.to_doc() for result in results],
        "gate": dict(sorted(gate_doc.items())),
    }
