"""Tests for the energy model, the exact record of the paper's answers,
and graph linting.

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

    PYTHONPATH=src python -m tests.test_energy_regression_validation

and commit it together with the change that moved it.
"""

import dataclasses
import json
import os

import pytest

from repro.core.suite import standard_suite
from repro.graph.layer import Layer, LayerGraph
from repro.graph.validation import assert_valid, lint_graph
from repro.hardware.devices import GTX_580, QUADRO_P4000, TITAN_XP
from repro.hardware.energy import (
    HOST_POWER_WATTS,
    energy_profile,
    energy_to_accuracy_j,
    perf_per_watt_comparison,
    tdp_of,
)
from repro.models.registry import extension_catalog, model_catalog
from repro.training.session import TrainingSession
from tests.conftest import sweep_directly

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


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def resnet_energy(self):
        profile = TrainingSession("resnet-50", "mxnet").run_iteration(32)
        return energy_profile(profile, QUADRO_P4000)

    def test_tdp_lookup(self):
        assert tdp_of(QUADRO_P4000) == 105.0
        assert tdp_of(TITAN_XP) == 250.0
        with pytest.raises(KeyError):
            from repro.hardware.devices import GPUSpec

            tdp_of(
                GPUSpec("H100", 1, 1, 1.0, 1.0, 1.0, "x", 1.0, "x", 1.0)
            )

    def test_power_bounded_by_tdp_plus_host(self, resnet_energy):
        assert resnet_energy.gpu_power_watts <= 105.0
        assert resnet_energy.gpu_power_watts > 0.12 * 105.0  # above idle
        assert resnet_energy.total_power_watts == pytest.approx(
            resnet_energy.gpu_power_watts + HOST_POWER_WATTS
        )

    def test_energy_accounting(self, resnet_energy):
        assert resnet_energy.energy_per_iteration_j > 0
        assert resnet_energy.samples_per_joule == pytest.approx(
            1.0 / resnet_energy.joules_per_sample
        )

    def test_titan_xp_faster_but_not_proportionally_more_efficient(self):
        """The efficiency flip side of Obs. 10: the Titan Xp's 2x throughput
        costs ~2.4x the TDP, so perf/watt does not double."""
        comparison = perf_per_watt_comparison(
            "resnet-50", "mxnet", 32, (QUADRO_P4000, TITAN_XP)
        )
        p4, xp = comparison
        assert xp.throughput > 1.8 * p4.throughput
        assert xp.samples_per_joule < 1.8 * p4.samples_per_joule

    def test_gtx580_era_was_far_less_efficient(self):
        comparison = perf_per_watt_comparison(
            "alexnet", "mxnet", 32, (GTX_580, QUADRO_P4000)
        )
        old, new = comparison
        assert new.samples_per_joule > 2.0 * old.samples_per_joule

    def test_energy_to_accuracy(self):
        profile = TrainingSession("resnet-50", "mxnet").run_iteration(32)
        energy = energy_profile(profile, QUADRO_P4000)
        to_60 = energy_to_accuracy_j("resnet-50", energy, 60.0)
        to_70 = energy_to_accuracy_j("resnet-50", energy, 70.0)
        assert to_70 > to_60 > 0


class TestPaperAnswers:
    @pytest.fixture(scope="class")
    def record(self):
        with open(PAPER_ANSWERS, encoding="utf-8") as handle:
            return json.load(handle)

    def test_every_answer_equals_the_record(self, direct_sweep, record):
        """The calibration gate: every sweep point of every configuration
        is bit for bit the committed one."""
        changes = answer_changes(record, paper_answers(direct_sweep))
        assert not changes, f"{len(changes)} answer(s) moved:\n" + "\n".join(
            changes
        )

    def test_record_covers_the_suite(self, suite, record):
        assert sorted(record) == sorted(
            f"{spec.key}/{framework.key}"
            for spec, framework in suite.configurations()
        )
        assert sum(len(points) for points in record.values()) == 62

    @pytest.mark.parametrize("model,framework", CONFIGURATIONS)
    def test_reference_batch_equals_a_live_run(
        self, suite, record, model, framework
    ):
        live = suite.run(model, framework)
        points = {p["batch_size"]: p for p in record[f"{model}/{framework}"]}
        assert live.batch_size in points, "reference batch is not swept"
        assert points[live.batch_size]["metrics"] == dataclasses.asdict(live)

    def test_a_change_names_configuration_batch_metric_and_size(self, record):
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


class TestGraphLinting:
    def test_whole_zoo_lints_clean(self):
        specs = list(model_catalog().values()) + list(extension_catalog().values())
        for spec in specs:
            for batch in (spec.batch_sizes[0], spec.reference_batch):
                graph = spec.build(batch)
                findings = lint_graph(graph)
                assert not findings, (spec.key, batch, list(map(str, findings)))

    def test_empty_graph_flagged(self):
        findings = lint_graph(LayerGraph("empty", 1))
        rules = {finding.rule for finding in findings}
        assert "empty graph" in rules
        assert "no computation" in rules

    def test_untrainable_weights_flagged(self):
        graph = LayerGraph(
            "bad", 1, layers=[Layer("w", "dense", weight_elements=10)]
        )
        rules = {finding.rule for finding in lint_graph(graph)}
        assert "untrainable weights" in rules

    def test_missing_recurrent_geometry_flagged(self):
        graph = LayerGraph("bad", 1, layers=[Layer("l", "lstm", weight_elements=0)])
        rules = {finding.rule for finding in lint_graph(graph)}
        assert "missing recurrent geometry" in rules

    def test_assert_valid_raises_with_details(self):
        with pytest.raises(ValueError, match="empty graph"):
            assert_valid(LayerGraph("empty", 1))

    def test_assert_valid_passes_for_real_model(self):
        from repro.models.resnet import build_resnet50

        assert_valid(build_resnet50(4))


class TestDeepSpeechCellOption:
    def test_gru_variant_builds_and_costs_more(self):
        from repro.models.deepspeech import build_deep_speech2

        rnn = build_deep_speech2(2, cell="rnn")
        gru = build_deep_speech2(2, cell="gru")
        assert gru.iteration_flops() > 2.0 * rnn.iteration_flops()
        assert any(l.kind == "gru" for l in gru.layers)

    def test_invalid_cell_rejected(self):
        from repro.models.deepspeech import build_deep_speech2

        with pytest.raises(ValueError, match="cell"):
            build_deep_speech2(2, cell="lstm")


if __name__ == "__main__":
    suite = standard_suite()
    answers = paper_answers(
        lambda model, framework: sweep_directly(suite, model, framework)
    )
    with open(PAPER_ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    points = sum(len(configuration) for configuration in answers.values())
    print(
        f"wrote {points} points of {len(answers)} configurations "
        f"to {os.path.relpath(PAPER_ANSWERS)}"
    )
