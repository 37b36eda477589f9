"""Tests for the cost-model-guided autotuner (``tbd tune``).

The tuner's contract, layer by layer: the enumeration only proposes
applicable families; the ranking's winner strictly beats the baseline
under the analytic cost model and the OOM boundary; the A/B confirmation
attaches a seeded statistical verdict; winners persist in the
content-addressed cache so retuning is a hit; and the advisor cites a
cached tuned config ahead of its heuristics.
"""

from __future__ import annotations

import pytest

from repro.bench.noise import NoiseModel
from repro.bench.runner import InterleavedRunner
from repro.cli import main
from repro.core.analysis import AnalysisPipeline
from repro.core.recommendations import advise
from repro.engine.cache import ResultCache
from repro.engine.keys import point_key
from repro.hardware.devices import TITAN_XP
from repro.tune import (
    Autotuner,
    TuneResult,
    load_tuned,
    store_tuned,
    tuned_key,
)


def _runner(seed: int = 7) -> InterleavedRunner:
    return InterleavedRunner(noise=NoiseModel(seed=seed))


class TestEnumeration:
    def test_rnn_workload_gets_fusion_but_not_depth(self):
        specs = Autotuner("nmt", "tensorflow", batch_size=64).candidate_specs()
        assert any("fused_rnn" in spec for spec in specs)
        assert not any("depth" in spec for spec in specs)

    def test_resnet_gets_depth_but_not_fusion(self):
        specs = Autotuner("resnet-50", "mxnet", batch_size=16).candidate_specs()
        assert any("depth:23" in spec for spec in specs)
        assert any("depth:36" in spec for spec in specs)
        assert not any("fused_rnn" in spec for spec in specs)

    def test_specs_are_canonical_and_non_empty(self):
        from repro.plan.pipeline import canonical_transform_spec

        for spec in Autotuner("nmt", "tensorflow", batch_size=64).candidate_specs():
            assert spec
            assert canonical_transform_spec(spec) == spec


class TestRanking:
    @pytest.fixture(scope="class")
    def nmt_result(self):
        return Autotuner("nmt", "tensorflow", batch_size=64).rank()

    def test_winner_is_a_multi_transform_pipeline(self, nmt_result):
        assert nmt_result.winner is not None
        assert "+" in nmt_result.winner.spec
        assert "fused_rnn" in nmt_result.winner.spec

    def test_winner_beats_the_baseline_and_fits(self, nmt_result):
        winner = nmt_result.winner
        assert winner.fits
        assert winner.makespan_s < nmt_result.baseline_makespan_s
        assert nmt_result.modeled_speedup > 1.5

    def test_candidates_are_ranked_best_first(self, nmt_result):
        keys = [Autotuner._rank_key(c) for c in nmt_result.candidates]
        assert keys == sorted(keys)
        assert all(candidate.fits for candidate in nmt_result.candidates)

    def test_budget_truncates_the_enumeration(self):
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        full = tuner.rank()
        capped = tuner.rank(budget=2)
        assert len(capped.candidates) + capped.pruned == 2
        assert len(full.candidates) + full.pruned == len(tuner.candidate_specs())

    def test_zero_budget_keeps_the_baseline(self):
        result = Autotuner("nmt", "tensorflow", batch_size=64).rank(budget=0)
        assert result.winner is None
        assert result.modeled_speedup == 1.0

    def test_oom_candidates_are_pruned_not_ranked(self):
        # depth:36 blows past the P4000 at resnet-50's largest batch.
        result = Autotuner("resnet-50", "mxnet", batch_size=64).rank()
        assert result.pruned > 0
        # The bare depth rewrites bust the P4000; with offload+fp16
        # reclaiming the footprint, the same depths fit again.
        fitting = [c.spec for c in result.candidates]
        assert "depth:36" not in fitting
        assert "depth:36+offload:0.5+fp16" in fitting

    def test_gpu_changes_the_boundary(self):
        p4000 = Autotuner("resnet-50", "mxnet", batch_size=64).rank()
        titan = Autotuner("resnet-50", "mxnet", gpu=TITAN_XP, batch_size=64).rank()
        assert titan.pruned < p4000.pruned


class TestConfirmation:
    def test_confirmation_attaches_a_seeded_verdict(self):
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        result = tuner.confirm(tuner.rank(), runner=_runner(), samples=30)
        assert result.confirmation is not None
        assert result.confirmation["verdict"] == "improvement"
        assert result.confirmation["speedup"] > 1.5
        assert result.confirmation["samples_per_side"] == 30

    def test_confirming_a_winnerless_result_is_a_no_op(self):
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        result = tuner.confirm(tuner.rank(budget=0), runner=_runner())
        assert result.confirmation is None


class TestPersistence:
    def test_tune_persists_and_retunes_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        cold = tuner.tune(cache=cache, runner=_runner(), samples=30)
        assert cold.cached is False
        warm = tuner.tune(cache=cache, runner=_runner(), samples=30)
        assert warm.cached is True
        assert warm.to_doc() == cold.to_doc()

    def test_retune_forces_a_fresh_search(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        tuner.tune(cache=cache, confirm=False)
        fresh = tuner.tune(cache=cache, confirm=False, retune=True)
        assert fresh.cached is False

    def test_from_doc_roundtrips(self):
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        result = tuner.confirm(tuner.rank(), runner=_runner(), samples=30)
        rebuilt = TuneResult.from_doc(result.to_doc())
        assert rebuilt.cached is True
        assert rebuilt.winner == result.winner
        assert rebuilt.to_doc() == result.to_doc()

    def test_tuned_key_moves_with_every_identity_leg(self):
        base = tuned_key("nmt", "tensorflow", 64)
        assert tuned_key("nmt", "tensorflow", 32) != base
        assert tuned_key("nmt", "mxnet", 64) != base
        assert tuned_key("sockeye", "tensorflow", 64) != base
        assert tuned_key("nmt", "tensorflow", 64, gpu=TITAN_XP) != base

    def test_tuned_key_never_collides_with_point_keys(self):
        assert tuned_key("nmt", "tensorflow", 64) != point_key("nmt", "tensorflow", 64)

    def test_load_tuned_misses_cleanly(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert load_tuned(cache, "nmt", "tensorflow", 64) is None

    def test_load_tuned_ignores_non_tuned_documents(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = tuned_key("nmt", "tensorflow", 64)
        cache.store(key, {"oom": False, "metrics": {}}, config={})
        assert load_tuned(cache, "nmt", "tensorflow", 64) is None

    def test_store_tuned_roundtrips_through_load(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        tuner = Autotuner("nmt", "tensorflow", batch_size=64)
        result = tuner.rank()
        store_tuned(cache, result, spec=tuner.spec)
        doc = load_tuned(cache, "nmt", "tensorflow", 64)
        assert doc is not None
        assert doc["winner"]["spec"] == result.winner.spec


class TestAdvisorIntegration:
    @pytest.fixture(scope="class")
    def report(self):
        return AnalysisPipeline("nmt", "tensorflow").run(64)

    def test_advise_cites_the_measured_config_first(self, report, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        Autotuner("nmt", "tensorflow", batch_size=64).tune(
            cache=cache, runner=_runner(), samples=30
        )
        recommendations = advise(report, cache=cache)
        first = recommendations[0]
        assert first.rule == "measured tuned config"
        assert "fused_rnn" in first.advice
        assert "A/B-confirmed" in first.evidence

    def test_advise_falls_back_to_heuristics_without_a_tuned_config(
        self, report, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "empty-cache"))
        recommendations = advise(report, cache=cache)
        rules = [r.rule for r in recommendations]
        assert "measured tuned config" not in rules
        assert rules[0] == "launch-bound recurrence"


class TestCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_tune_searches_and_reports(self, capsys):
        code, out = self.run_cli(
            capsys, "tune", "nmt", "-f", "tensorflow", "-b", "64",
            "--samples", "30", "--seed", "7",
        )
        assert code == 0
        # Offload costs PCIe time, so fp16 alone wins the peak tie-break.
        assert "winner: fused_rnn+fp16" in out
        assert "confirmed:" in out
        assert "improvement" in out

    def test_tune_second_run_is_a_cache_hit(self, capsys):
        argv = ["tune", "nmt", "-f", "tensorflow", "-b", "64", "--no-confirm"]
        assert main(list(argv)) == 0
        capsys.readouterr()
        code, out = self.run_cli(capsys, *argv)
        assert code == 0
        assert "(cached)" in out

    def test_tune_report_file_is_canonical_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "tune.json"
        code, out = self.run_cli(
            capsys, "tune", "nmt", "-f", "tensorflow", "-b", "64",
            "--no-confirm", "--budget", "3", "--no-cache", "--report", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "tuned-config"
        assert doc["model"] == "nmt"

    def test_sweep_accepts_transforms(self, capsys):
        code, out = self.run_cli(
            capsys, "sweep", "nmt", "-f", "tensorflow",
            "--transforms", "fused_rnn+fp16",
        )
        assert code == 0
        assert "NMT" in out


class TestTuneBenchSuite:
    @pytest.mark.slow
    def test_tune_suite_winners_all_verify_as_improvements(self):
        from repro.bench.gate import evaluate_gate
        from repro.bench.suites import get_suite, run_suite

        suite = get_suite("tune")
        assert len(suite.cases) == 6
        assert [case.treatment for case in suite.cases].count("fused_rnn") == 3
        results = run_suite(suite, _runner(), samples=30)
        report = evaluate_gate(suite, results)
        assert report.passed
        assert all(result.verdict == "improvement" for result in results)
