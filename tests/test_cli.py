"""Tests for the ``tbd`` command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCommands:
    def test_run(self, capsys):
        code, out = run_cli(capsys, "run", "resnet-50", "-f", "mxnet", "-b", "16")
        assert code == 0
        assert "ResNet-50" in out and "samples/s" in out

    def test_run_on_other_gpu(self, capsys):
        code, out = run_cli(
            capsys, "run", "resnet-50", "-f", "mxnet", "-b", "16", "-g", "titan xp"
        )
        assert code == 0

    def test_sweep_marks_oom(self, capsys):
        code, out = run_cli(capsys, "sweep", "sockeye", "-f", "mxnet")
        assert code == 0
        assert out.count("b=") >= 0
        assert "Sockeye" in out

    def test_analyze_prints_recommendations(self, capsys):
        code, out = run_cli(capsys, "analyze", "nmt", "-f", "tensorflow", "-b", "64")
        assert code == 0
        assert "throughput" in out
        assert "recommendations" in out

    def test_exhibit_single(self, capsys):
        code, out = run_cli(capsys, "exhibit", "table4")
        assert code == 0
        assert "Quadro P4000" in out

    def test_exhibit_unknown(self, capsys):
        code, out = run_cli(capsys, "exhibit", "fig99")
        assert code == 2

    @pytest.mark.slow
    def test_observations(self, capsys):
        code, out = run_cli(capsys, "observations")
        assert code == 0
        assert out.count("[PASS]") == 13

    def test_memory(self, capsys):
        code, out = run_cli(capsys, "memory", "wgan", "-f", "tensorflow", "-b", "32")
        assert code == 0
        assert "feature maps" in out

    def test_distributed(self, capsys):
        code, out = run_cli(capsys, "distributed")
        assert code == 0
        assert "2M1G (ethernet)" in out

    @pytest.mark.slow
    def test_report(self, capsys, tmp_path):
        out_path = str(tmp_path / "r.html")
        code, out = run_cli(
            capsys, "report", "-o", out_path, "--no-observations"
        )
        assert code == 0
        assert "wrote" in out
        import os

        assert os.path.getsize(out_path) > 10_000

    def test_plan_show(self, capsys):
        code, out = run_cli(
            capsys, "plan", "show", "resnet-50", "-f", "mxnet", "-b", "16"
        )
        assert code == 0
        assert "compiled plan" in out
        assert "ResNet-50" in out and "allocation trace" in out

    def test_plan_show_on_other_gpu(self, capsys):
        code, out = run_cli(
            capsys, "plan", "show", "resnet-50", "-f", "mxnet", "-g", "titan xp"
        )
        assert code == 0
        assert "TITAN Xp" in out

    def test_compare(self, capsys):
        code, out = run_cli(
            capsys, "compare", "resnet-50", "mxnet", "tensorflow", "-b", "32"
        )
        assert code == 0
        assert "faster" in out or "indistinguishable" in out

    def test_catalog_listings(self, capsys):
        for command, needle in (
            ("models", "resnet-50"),
            ("frameworks", "TensorFlow"),
            ("datasets", "imagenet1k"),
        ):
            code, out = run_cli(capsys, command)
            assert code == 0
            assert needle in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def _command_names() -> list:
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(subparsers.choices)


class TestCommandSurface:
    @pytest.mark.parametrize("command", _command_names())
    def test_every_command_renders_its_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: tbd {command}")

    def test_serve_is_not_a_command(self, capsys):
        assert "serve" not in _command_names()
        with pytest.raises(SystemExit) as exc:
            main(["serve", "run"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err


class TestTraceAndRuns:
    def test_trace_archives_and_prints_tree(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "trace", "resnet-50", "-f", "mxnet", "-b", "16",
            "--dir", str(tmp_path),
        )
        assert code == 0
        assert "pipeline.stage.profile" in out
        assert "kernel events" in out  # attached simulated timelines
        assert "archived run resnet-50-mxnet-b16-001" in out
        run_dir = tmp_path / "resnet-50-mxnet-b16-001"
        for artifact in ("manifest.json", "spans.jsonl", "trace.json", "metrics.prom"):
            assert (run_dir / artifact).exists(), artifact

    def test_trace_no_archive(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            "trace", "wgan", "-f", "tensorflow", "-b", "8",
            "--dir", str(tmp_path), "--no-archive",
        )
        assert code == 0
        assert "(not archived)" in out
        assert not (tmp_path / "wgan-tensorflow-b8-001").exists()

    def test_runs_list_empty(self, capsys, tmp_path):
        code, out = run_cli(capsys, "runs", "--dir", str(tmp_path), "list")
        assert code == 0
        assert "no archived runs" in out

    def test_runs_list_show_diff(self, capsys, tmp_path):
        for _ in range(2):
            run_cli(
                capsys,
                "trace", "resnet-50", "-f", "mxnet", "-b", "16",
                "--dir", str(tmp_path),
            )
        code, out = run_cli(capsys, "runs", "--dir", str(tmp_path), "list")
        assert code == 0
        assert "resnet-50-mxnet-b16-001" in out
        assert "resnet-50-mxnet-b16-002" in out
        assert "samples/s" in out

        code, out = run_cli(
            capsys, "runs", "--dir", str(tmp_path), "show", "resnet-50-mxnet-b16-001"
        )
        assert code == 0
        assert '"run_id": "resnet-50-mxnet-b16-001"' in out
        assert '"throughput"' in out

        code, out = run_cli(
            capsys,
            "runs", "--dir", str(tmp_path), "diff",
            "resnet-50-mxnet-b16-001", "resnet-50-mxnet-b16-002",
        )
        assert code == 0  # identical simulated runs never drift
        assert "all headline metrics within tolerance" in out
        assert "throughput" in out

    def test_runs_diff_flags_drift(self, capsys, tmp_path):
        from repro.observability.archive import RunArchive, RunManifest

        archive = RunArchive(str(tmp_path))
        for run_id, throughput in (("x-001", 100.0), ("x-002", 80.0)):
            archive.record(
                RunManifest(
                    run_id=run_id,
                    model="resnet-50",
                    framework="mxnet",
                    device="Quadro P4000",
                    batch_size=16,
                    seed=0,
                    git="test",
                    created_at="2026-08-06T00:00:00+00:00",
                    metrics={"throughput": throughput},
                )
            )
        code, out = run_cli(
            capsys, "runs", "--dir", str(tmp_path), "diff", "x-001", "x-002"
        )
        assert code == 1
        assert "outside tolerance" in out
        assert "-20.0" in out


class TestEngineCli:
    def test_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, cold = run_cli(
            capsys, "sweep", "a3c", "-f", "mxnet", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "0 hit(s)" in cold and "computed" in cold
        code, warm = run_cli(
            capsys, "sweep", "a3c", "-f", "mxnet", "--cache-dir", cache_dir
        )
        assert code == 0
        assert "0 computed" in warm and "hit(s)" in warm
        # The table rows themselves are identical either way.
        rows = lambda out: [l for l in out.splitlines() if not l.startswith("engine:")]
        assert rows(cold) == rows(warm)

    def test_sweep_parallel_matches_serial_output(self, capsys, tmp_path):
        serial_args = ("sweep", "resnet-50", "-f", "tensorflow", "--no-cache")
        code, serial = run_cli(capsys, *serial_args)
        assert code == 0
        code, parallel = run_cli(capsys, *serial_args, "--jobs", "2")
        assert code == 0
        rows = lambda out: [l for l in out.splitlines() if not l.startswith("engine:")]
        assert rows(serial) == rows(parallel)

    def test_sweep_no_cache_reports_cache_off(self, capsys):
        code, out = run_cli(capsys, "sweep", "a3c", "-f", "mxnet", "--no-cache")
        assert code == 0
        assert "(cache off)" in out

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(capsys, "sweep", "a3c", "-f", "mxnet", "--cache-dir", cache_dir)
        code, out = run_cli(capsys, "cache", "--dir", cache_dir, "stats")
        assert code == 0
        assert "entries: 5" in out and "a3c" in out
        code, out = run_cli(capsys, "cache", "--dir", cache_dir, "clear")
        assert code == 0
        assert "cleared 5 cached point(s)" in out
        code, out = run_cli(capsys, "cache", "--dir", cache_dir, "stats")
        assert code == 0
        assert "entries: 0" in out

    def test_cache_defaults_to_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TBD_CACHE_DIR", str(tmp_path / "env-cache"))
        run_cli(capsys, "sweep", "a3c", "-f", "mxnet")
        code, out = run_cli(capsys, "cache", "stats")
        assert code == 0
        assert "entries: 5" in out and "env-cache" in out


class TestBenchCommand:
    def test_compare_prints_verdict(self, capsys):
        code, out = run_cli(
            capsys, "bench", "compare", "nmt", "fused-rnn",
            "-b", "64", "--samples", "20", "--seed", "7",
        )
        assert code == 0
        assert "improvement" in out and "speedup" in out

    def test_run_records_trajectory_and_history_reads_it(self, capsys, tmp_path):
        directory = str(tmp_path)
        code, out = run_cli(
            capsys, "bench", "run", "noop",
            "--seed", "7", "--samples", "20", "--dir", directory,
        )
        assert code == 0
        assert "BENCH_noop.json" in out
        code, out = run_cli(capsys, "bench", "history", "noop", "--dir", directory)
        assert code == 0
        assert "seed=7" in out and "gate=PASS" in out

    def test_history_lists_suites(self, capsys, tmp_path):
        code, out = run_cli(capsys, "bench", "history", "--list", "--dir", str(tmp_path))
        assert code == 0
        assert "fused-rnn" in out and "slowdown5" in out

    def test_gate_exit_codes(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "bench", "gate", "noop",
            "--seed", "7", "--samples", "20", "--dir", str(tmp_path),
        )
        assert code == 0
        assert "gate PASS" in out
        # An alpha of ~1 makes every wobble "significant", but the noop
        # control expects 'indistinguishable' verdicts -- the mismatch
        # must fail the gate.
        code, out = run_cli(
            capsys, "bench", "gate", "noop",
            "--seed", "7", "--samples", "20", "--dir", str(tmp_path),
            "--alpha", "0.999", "--min-effect", "0.0",
        )
        assert code == 1
        assert "gate FAIL" in out
