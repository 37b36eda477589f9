"""The exact record of the paper's answers.

``tests/expected/paper_answers.json`` records every point of every suite
configuration's mini-batch sweep (Table 2 crossed with the Figs. 4-6 batch
axes): an OOM marker or the full :class:`~repro.core.metrics.IterationMetrics`,
floats as JSON numbers, which round-trip exactly.  The points are computed
engine-free, by one ``TrainingSession`` per configuration.  The comparison is
exact: any change to an answer, however small, fails
:class:`TestPaperAnswers` and names every configuration, batch and metric
that moved, with its relative change.

After a deliberate recalibration, rewrite the record from the repository
root with

    PYTHONPATH=src python -m tests.test_paper_answers

and commit it together with the change that moved it.  ``--check``
compares against the record instead, without pytest (an interpreter with
no test runner), and exits 1 naming every configuration, batch and metric
that moved.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from repro.core.suite import standard_suite
from tests.sweeps import sweep_directly

#: The committed record of every suite configuration's sweep points.
PAPER_ANSWERS = os.path.join(
    os.path.dirname(__file__), "expected", "paper_answers.json"
)

#: Every (model, framework) pair of Table 2.
CONFIGURATIONS = [
    (spec.key, framework.key)
    for spec, framework in standard_suite().configurations()
]


def paper_answers(sweep) -> dict:
    """The record: ``model/framework`` -> the configuration's sweep points
    as plain documents, where ``sweep(model, framework)`` computes them."""
    return {
        f"{model}/{framework}": [
            dataclasses.asdict(point) for point in sweep(model, framework)
        ]
        for model, framework in CONFIGURATIONS
    }


def answer_changes(expected: dict, actual: dict) -> list:
    """One line per configuration, batch and metric whose answer differs
    between two records, numbers with their relative change."""
    changes = []
    for configuration in sorted(set(expected) | set(actual)):
        before = {p["batch_size"]: p for p in expected.get(configuration, [])}
        after = {p["batch_size"]: p for p in actual.get(configuration, [])}
        for batch in sorted(set(before) | set(after)):
            where = f"{configuration} b={batch}"
            old, new = before.get(batch), after.get(batch)
            if old is None or new is None or old["oom"] or new["oom"]:
                if old != new:
                    changes.append(f"{where}: {_outcome(old)} -> {_outcome(new)}")
                continue
            for metric in sorted(set(old["metrics"]) | set(new["metrics"])):
                reference = old["metrics"].get(metric)
                value = new["metrics"].get(metric)
                if reference == value:
                    continue
                line = f"{where} {metric}: {reference!r} -> {value!r}"
                if reference and all(
                    isinstance(side, (int, float)) for side in (reference, value)
                ):
                    line += f" ({(value - reference) / abs(reference):+.3e})"
                changes.append(line)
    return changes


def _outcome(point) -> str:
    if point is None:
        return "absent"
    return "OOM" if point["oom"] else "ran"


def _load_record() -> dict:
    with open(PAPER_ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def pytest_generate_tests(metafunc):
    """Parametrize over every configuration without importing pytest, so
    the module's entry point runs where no test runner is installed."""
    if "model" in metafunc.fixturenames:
        metafunc.parametrize("model,framework", CONFIGURATIONS)


class TestPaperAnswers:
    def test_every_answer_equals_the_record(self, direct_sweep):
        """The calibration gate: every sweep point of every configuration
        is bit for bit the committed one."""
        changes = answer_changes(_load_record(), paper_answers(direct_sweep))
        assert not changes, f"{len(changes)} answer(s) moved:\n" + "\n".join(
            changes
        )

    def test_record_covers_the_suite(self, suite):
        record = _load_record()
        assert sorted(record) == sorted(
            f"{spec.key}/{framework.key}"
            for spec, framework in suite.configurations()
        )
        assert sum(len(points) for points in record.values()) == 62

    def test_reference_batch_equals_a_live_run(self, suite, model, framework):
        live = suite.run(model, framework)
        points = {
            p["batch_size"]: p for p in _load_record()[f"{model}/{framework}"]
        }
        assert live.batch_size in points, "reference batch is not swept"
        assert points[live.batch_size]["metrics"] == dataclasses.asdict(live)

    def test_a_change_names_configuration_batch_metric_and_size(self):
        record = _load_record()
        moved = json.loads(json.dumps(record))
        point = moved["resnet-50/mxnet"][3]
        point["metrics"]["throughput"] *= 1.5
        moved["wgan/tensorflow"][0] = {
            "batch_size": 4, "metrics": None, "oom": True
        }
        assert answer_changes(record, moved) == [
            "resnet-50/mxnet b=32 throughput: "
            f"{record['resnet-50/mxnet'][3]['metrics']['throughput']!r} -> "
            f"{point['metrics']['throughput']!r} (+5.000e-01)",
            "wgan/tensorflow b=4: ran -> OOM",
        ]


if __name__ == "__main__":
    suite = standard_suite()
    answers = paper_answers(
        lambda model, framework: sweep_directly(suite, model, framework)
    )
    if sys.argv[1:] == ["--check"]:
        changes = answer_changes(_load_record(), answers)
        for line in changes:
            print(line)
        print(f"{len(changes)} answer(s) differ from {os.path.relpath(PAPER_ANSWERS)}")
        raise SystemExit(1 if changes else 0)
    with open(PAPER_ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    points = sum(len(configuration) for configuration in answers.values())
    print(
        f"wrote {points} points of {len(answers)} configurations "
        f"to {os.path.relpath(PAPER_ANSWERS)}"
    )
