"""The exact memory footprint of every tune plan, on every interpreter.

``tests/expected/memory_peaks.json`` records, for the baseline and every
candidate pipeline of the 12 paper-grid panels' autotuners (126 plans at
each panel's reference batch), the ``repr`` of the unconstrained replay's
peak total, its peak demand and each allocation class's peak (the
quantities Fig. 9 plots and the fit check compares).  The comparison is
exact, so a change in the last bit of any footprint moves the record.

The allocator adds the five class levels left to right in tag order.
CPython 3.12's ``sum()`` compensates float sums and would read some
totals one ulp away from 3.10 and 3.11; the record is the same on every
interpreter.

Rewrite the record from the repository root with

    PYTHONPATH=src python -m tests.test_memory_peaks

and compare against it without pytest (an interpreter without a test
runner) with ``--check``, which exits 1 and names every plan that moved.
"""

from __future__ import annotations

import json
import os
import sys

from repro.experiments.common import SWEEP_PANELS
from repro.plan.pipeline import parse_transform_spec
from repro.tune.search import Autotuner

MEMORY_PEAKS = os.path.join(os.path.dirname(__file__), "expected", "memory_peaks.json")

#: The record's key for the untransformed plan.
BASELINE = "baseline"


def _footprint(plan) -> dict:
    snapshot, peak_demand = plan._unconstrained_replay()
    return {
        "peak_total": repr(snapshot.peak_total),
        "peak_demand": repr(peak_demand),
        "peak_by_tag": {
            tag.value: repr(peak) for tag, peak in snapshot.peak_by_tag.items()
        },
    }


def memory_peaks() -> dict:
    """``{"model/framework": {spec or "baseline": footprint}}`` for every
    tune plan of the paper grid."""
    record = {}
    for model, frameworks in SWEEP_PANELS:
        for framework in frameworks:
            tuner = Autotuner(model, framework)
            record[f"{model}/{framework}"] = {
                spec_text or BASELINE: _footprint(
                    tuner._session.compile_transformed(
                        tuner.batch_size, parse_transform_spec(spec_text)
                    )
                )
                for spec_text in ["", *tuner.candidate_specs()]
            }
    return record


def _load_record() -> dict:
    with open(MEMORY_PEAKS, encoding="utf-8") as handle:
        return json.load(handle)


def _differences(record: dict, computed: dict) -> list:
    """One line per plan whose footprint differs from the record."""
    lines = []
    for panel in sorted(set(record) | set(computed)):
        recorded = record.get(panel, {})
        now = computed.get(panel, {})
        for spec in sorted(set(recorded) | set(now)):
            if recorded.get(spec) != now.get(spec):
                lines.append(f"{panel} {spec}: {recorded.get(spec)} -> {now.get(spec)}")
    return lines


def test_every_footprint_equals_the_record():
    differences = _differences(_load_record(), memory_peaks())
    assert not differences, "\n".join(differences)


def test_record_covers_every_tune_plan():
    record = _load_record()
    assert len(record) == 12
    assert sum(len(plans) for plans in record.values()) == 126


if __name__ == "__main__":
    computed = memory_peaks()
    if sys.argv[1:] == ["--check"]:
        differences = _differences(_load_record(), computed)
        for line in differences:
            print(line)
        print(f"{len(differences)} plan(s) differ from {os.path.relpath(MEMORY_PEAKS)}")
        raise SystemExit(1 if differences else 0)
    with open(MEMORY_PEAKS, "w", encoding="utf-8") as handle:
        json.dump(computed, handle, indent=2, sort_keys=True)
        handle.write("\n")
    plans = sum(len(panel) for panel in computed.values())
    print(
        f"wrote {plans} plans of {len(computed)} panels "
        f"to {os.path.relpath(MEMORY_PEAKS)}"
    )
