"""Freshness tests: every example script runs to completion in-process.

Examples are documentation that executes; these tests keep them from
rotting.  Each example's module is executed with ``runpy`` (so its
``__main__`` guard fires) with stdout captured, and key output markers are
asserted.
"""

import os
import runpy
import sys

import pytest

_EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


@pytest.fixture(autouse=True)
def _run_in_tmpdir(tmp_path, monkeypatch):
    """Every example executes from a throwaway cwd, so artifact-writing
    scripts can never dirty the repo and tests stay order-independent."""
    monkeypatch.chdir(tmp_path)

#: (script, substring that must appear in its stdout)
_EXAMPLES = (
    ("quickstart.py", "headline metrics"),
    ("memory_planning.py", "memory-vs-throughput planning"),
    ("train_minimodels.py", "image classification"),
    ("distributed_whatif.py", "fabric sweep"),
    ("observations_report.py", "13/13 reproduce"),
    ("optimization_advisor.py", "fused-RNN rewrite"),
    ("hardware_history.py", "memory wall"),
    ("scaling_study.py", "time-to-accuracy"),
    ("plan_inspect.py", "compiled plan"),
    ("fault_sweep.py", "fault injection on the simulated cluster"),
    ("conformance_check.py", "byte-identical report"),
    ("bench_compare.py", "slowdown-control"),
    ("schedule_sweep.py", "adaptive batch schedules as a sweep dimension"),
)


def _run_example(name: str, capsys, argv=None) -> str:
    path = os.path.join(_EXAMPLES_DIR, name)
    old_argv = sys.argv
    sys.argv = [path] + (argv or [])
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.parametrize("script,marker", _EXAMPLES)
def test_example_runs_and_produces_output(script, marker, capsys):
    output = _run_example(script, capsys)
    assert marker in output, f"{script} output missing {marker!r}"
    assert len(output) > 200


def test_full_evaluation_selected_exhibits(capsys):
    output = _run_example("full_evaluation.py", capsys, argv=["table4", "fig10"])
    assert "Quadro P4000" in output
    assert "Fig. 10" in output


def test_full_evaluation_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        _run_example("full_evaluation.py", capsys, argv=["fig99"])


def test_trace_run_archives_and_diffs(tmp_path, capsys):
    output = _run_example("trace_run.py", capsys)
    assert "spans.jsonl byte-identical across runs: True" in output
    assert "all headline metrics within tolerance" in output
    runs_dir = tmp_path / "artifacts" / "runs"
    assert (runs_dir / "resnet-50-mxnet-b16-002" / "trace.json").exists()


def test_parallel_sweep_proves_engine_equality(tmp_path, capsys):
    output = _run_example("parallel_sweep.py", capsys)
    assert "parallel sweep engine" in output
    assert "parallel == serial: True" in output
    assert "cached   == cold:   True" in output
    assert "exported JSONL byte-identical: True" in output
    assert "computed 0, hits 9" in output
    assert (tmp_path / "artifacts" / "sweep_cold.jsonl").exists()
    assert (tmp_path / "artifacts" / "sweep-cache").is_dir()


def test_export_traces_writes_artifacts(tmp_path, capsys):
    output = _run_example("export_traces.py", capsys)
    assert "host sync" in output
    assert (tmp_path / "artifacts" / "resnet50_trace.json").exists()
    assert (tmp_path / "artifacts" / "nmt_trace.json").exists()


def test_quickstart_accepts_arguments(capsys):
    output = _run_example("quickstart.py", capsys, argv=["wgan", "tensorflow", "16"])
    assert "WGAN" in output
