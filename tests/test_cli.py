"""Tests for the ``tbd`` command-line interface."""

import argparse
import os

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

    def test_plan_show_has_no_symbolic_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "show", "resnet-50", "--symbolic"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --symbolic" in capsys.readouterr().err


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

    @staticmethod
    def _archive_two_runs(tmp_path, first, second):
        from repro.observability.archive import RunArchive, RunManifest

        archive = RunArchive(str(tmp_path))
        for run_id, metrics in (("x-001", first), ("x-002", second)):
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
                    metrics=metrics,
                )
            )

    def test_runs_diff_flags_drift(self, capsys, tmp_path):
        self._archive_two_runs(tmp_path, {"throughput": 100.0}, {"throughput": 80.0})
        code, out = run_cli(
            capsys, "runs", "--dir", str(tmp_path), "diff", "x-001", "x-002"
        )
        assert code == 1
        assert "outside tolerance" in out
        assert "-20.0" in out

    def test_runs_diff_flags_a_missing_metric(self, capsys, tmp_path):
        self._archive_two_runs(
            tmp_path, {"throughput": 1.0, "memory_total_gib": 2.0}, {"throughput": 1.0}
        )
        code, out = run_cli(
            capsys, "runs", "--dir", str(tmp_path), "diff", "x-001", "x-002"
        )
        assert code == 1
        assert "x-001..x-002.memory_total_gib: 2.0000 -> missing" in out


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

    def test_cache_stats_skips_entries_a_sweep_would_not_serve(
        self, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        run_cli(capsys, "sweep", "a3c", "-f", "mxnet", "--cache-dir", cache_dir)
        _code, healthy = run_cli(capsys, "cache", "--dir", cache_dir, "stats")
        entries = sorted(
            os.path.join(directory, name)
            for directory, _dirs, names in os.walk(cache_dir)
            for name in names
        )
        for path, damage in zip(entries, ("[1, 2, 3]", '{"config": null}')):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(damage)
        code, out = run_cli(capsys, "cache", "--dir", cache_dir, "stats")
        assert code == 0
        assert "entries: 3" in out and f"{'a3c':16s} 3 point(s)" in out
        assert "entries: 5" in healthy and f"{'a3c':16s} 5 point(s)" in healthy

    def test_cache_defaults_to_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TBD_CACHE_DIR", str(tmp_path / "env-cache"))
        run_cli(capsys, "sweep", "a3c", "-f", "mxnet")
        code, out = run_cli(capsys, "cache", "stats")
        assert code == 0
        assert "entries: 5" in out and "env-cache" in out


class TestSweepScenarioBoundary:
    """A bad ``--faults``/``--transforms``/``--schedule`` input, or a
    combination the engine rejects, is a usage error: exit 2 with one
    line on stderr, never a traceback, and nothing computed."""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--transforms", "bogus"), "unknown transform 'bogus'"),
            (("--faults", "crash=x"), "bad crash 'x'"),
            (("--schedule", "nope"), "unknown schedule 'nope'"),
            (
                ("--faults", "steps=5", "--transforms", "fp16"),
                "faults cannot combine with transforms",
            ),
        ],
    )
    def test_bad_scenario_exits_2_on_stderr(self, capsys, flags, message):
        code = main(["sweep", "nmt", "-f", "tensorflow", "--no-cache", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("tbd sweep: error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err


class TestCompareCommand:
    """``tbd compare`` prints what both commands it merges printed: the
    framework A/B of ``tbd compare`` and the treatment A/B of the former
    ``tbd bench compare nmt fused-rnn -f tensorflow``."""

    def test_framework_side_output_is_unchanged(self, capsys):
        code, out = run_cli(
            capsys, "compare", "resnet-50", "mxnet", "tensorflow", "-b", "32"
        )
        assert code == 0
        assert out == (
            "resnet-50/b32:mxnet-vs-tensorflow speedup x 0.873 [ 0.869,  0.876]"
            "  p(slower)= 0.0000 n=30   regression\n"
            "  throughput: mxnet 100.8 vs tensorflow 88.0 samples/s\n"
            "mxnet is faster (x1.146 the throughput)\n"
        )

    def test_treatment_side_output_is_unchanged(self, capsys):
        code, out = run_cli(
            capsys, "compare", "nmt", "tensorflow", "fused-rnn",
            "-b", "64", "--seed", "7", "--samples", "20",
        )
        assert code == 0
        assert out == (
            "baseline-vs-fused-rnn        speedup x 2.098 [ 2.088,  2.114]"
            "  p(slower)= 1.0000 n=20   improvement\n"
            "  medians: baseline 268.543 ms, treatment 128.027 ms (-52.33%)\n"
        )

    @pytest.mark.parametrize(
        "side,verdict",
        [
            ("baseline", "indistinguishable"),
            ("fused-rnn", "improvement"),
            ("fused_rnn+fp16", "improvement"),
            ("slowdown:5", "regression"),
        ],
    )
    def test_treatment_side_prints_its_verdict(self, capsys, side, verdict):
        code, out = run_cli(capsys, "compare", "nmt", "tensorflow", side, "-b", "64")
        assert code == 0
        row, medians = out.splitlines()
        assert row.startswith(f"baseline-vs-{side} ")
        assert row.endswith(f" {verdict}")
        assert medians.startswith("  medians: baseline ")

    @pytest.mark.parametrize(
        "flags,row",
        [
            ((), "x 0.996 [ 0.992,  0.998]  p(slower)= 0.0013 n=30   indistinguishable"),
            (("--seed", "3"), "x 0.998 [ 0.994,  1.002]  p(slower)= 0.0705 n=30"),
            (("--samples", "12"), " n=12 "),
            (("--min-effect", "0"), "p(slower)= 0.0013 n=30   regression"),
            (("--min-effect", "0", "--alpha", "0.001"), "n=30   indistinguishable"),
        ],
    )
    def test_runner_flags_reach_the_runner(self, capsys, flags, row):
        # A 1% slowdown at p(slower) = 0.0013: under the default 1% effect
        # floor the verdict is indistinguishable, without it a regression
        # at the default alpha of 0.05 but not at 0.001.
        code, out = run_cli(
            capsys, "compare", "nmt", "tensorflow", "slowdown:1", "-b", "64", *flags
        )
        assert code == 0
        assert row in out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("nmt", "tensorflow", "mxnet", "-b", "64"), "no MXNet implementation"),
            (("resnet-50", "mxnet", "bogus", "-b", "32"), "names no framework"),
            (("resnet-50", "mxnet", "tensorflow", "-b", "0"), "must be positive"),
            (("nmt", "tensorflow", "bogus", "-b", "64"), "unknown transform 'bogus'"),
            (("bogus", "tensorflow", "mxnet", "-b", "32"), "unknown model 'bogus'"),
            (("nmt", "tensorflow", "slowdown:abc", "-b", "64"), "'abc'"),
            (("resnet-50", "mxnet", "tensorflow", "-b", "100000"), "exceeds capacity"),
            (("nmt", "tensorflow", "fused-rnn", "-b", "64", "--samples", "0"),
             "at least 2 samples"),
            (("nmt", "tensorflow", "fused-rnn", "-b", "64", "--alpha", "0"),
             "alpha must be in (0, 1)"),
            (("nmt", "tensorflow", "fused-rnn", "-b", "64", "--min-effect", "-1"),
             "min_effect must be non-negative"),
        ],
    )
    def test_bad_input_exits_2_on_stderr(self, capsys, argv, message):
        code = main(["compare", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("tbd compare: error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err


class TestFaultsBatch:
    """``tbd faults run|demo`` default to a per-GPU batch of 16 and reject
    a non-positive one as a usage error, before any simulation."""

    @pytest.mark.parametrize("batch", ["0", "-4"])
    @pytest.mark.parametrize(
        "argv",
        [("run", "cluster=2M1G; steps=10; crash=1@5", "resnet-50"), ("demo",)],
    )
    def test_non_positive_batch_exits_2_on_stderr(self, capsys, argv, batch):
        code = main(["faults", *argv, "-b", batch])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"tbd faults: error: batch must be a positive integer, got {batch}\n"
        )

    def test_batch_defaults_to_16(self):
        for command in (["run", "steps=1"], ["demo"]):
            args = build_parser().parse_args(["faults", *command])
            assert args.batch == 16


class TestBatchIsPositive:
    """Every command with ``-b`` but ``compare`` rejects a batch below 1
    as a usage error, before any simulation, as ``tbd faults`` does; an
    omitted batch falls back to the command's default."""

    @pytest.mark.parametrize("batch", ["0", "-4"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "resnet-50", "-f", "mxnet"),
            ("memory", "resnet-50", "-f", "mxnet"),
            ("distributed",),
            ("analyze", "resnet-50", "-f", "mxnet"),
            ("inspect", "resnet-50"),
            ("plan", "show", "resnet-50", "-f", "mxnet"),
            ("trace", "resnet-50", "-f", "mxnet", "--no-archive"),
            ("tune", "resnet-50", "-f", "mxnet", "--no-cache", "--no-confirm"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_non_positive_batch_exits_2_on_stderr(self, capsys, argv, batch):
        code = main([*argv, "-b", batch])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"tbd {argv[0]}: error: batch must be a positive integer, got {batch}\n"
        )

    def test_memory_defaults_to_the_reference_batch(self, capsys):
        code, out = run_cli(capsys, "memory", "resnet-50", "-f", "mxnet")
        assert code == 0
        assert "b=32 " in out
