"""Self-tests of the wall-clock benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest -q benchmarks/wall``.
"""

import json
import os
import signal
import statistics
import time
from types import SimpleNamespace

import pytest

import child
import hostclock
import layers
import run

A3C = [("a3c", "mxnet")]


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def test_percentile_rule():
    assert run.tail_percentile(60) == 80  # five sweep-cold or tune runs
    assert run.tail_percentile(18000) == 99.9  # five sweep-warm runs
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(19) is None
    assert run.percentile([4, 1, 3, 2, 5], 50) == 3
    assert run.percentile([0, 10], 80) == pytest.approx(8.0)
    assert run.percentile([7], 80) == 7


def test_self_time_nested_and_recursive():
    # (name, start, end, parent): "a" recurses into itself; "b" nests in both.
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 5.0, 9.0, 0),
        ("b", 6.0, 7.0, 2),
    ]
    totals = layers.self_times(spans)
    assert totals["a"] == (2, pytest.approx((10 - 3 - 4) + (4 - 1)))
    assert totals["b"] == (2, pytest.approx(3 + 1))
    assert sum(seconds for _calls, seconds in totals.values()) == pytest.approx(10.0)


def test_tracer_attributes_recursion_once(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(layers.time, "perf_counter", lambda: float(next(ticks)))
    tracer = layers.Tracer("test")
    leaf = tracer.wrap("leaf", lambda: None)

    def descend(depth):
        leaf()
        if depth:
            descend(depth - 1)

    descend = tracer.wrap("descend", descend)
    descend(2)
    totals = layers.self_times(tracer.spans)
    assert totals["descend"][0] == 3 and totals["leaf"][0] == 3
    root = tracer.spans[0]
    assert sum(s for _c, s in totals.values()) == pytest.approx(root[2] - root[1])
    metrics = layers.layer_metrics(tracer, wall_s=root[2] - root[1] + 1.0)
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert set(metrics) | {"trace_overhead_ratio"} == set(layers.UNITS)
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [s[3] for s in tracer.spans]


def test_perturbed_digest_is_a_failed_operation(tmp_path, monkeypatch):
    spec = {"workload": "sweep-cold", "seed": 1, "panels": A3C, "golden": False,
            "cache": str(tmp_path / "cache-a")}
    digests = child.run(dict(spec))["digests"]
    golden = {key: value[::-1] for key, value in digests.items()}  # perturbed
    golden_path = tmp_path / "golden.json"
    golden_path.write_text(json.dumps(golden))
    monkeypatch.setattr(child, "GOLDEN_PATH", str(golden_path))
    result = child.run(dict(spec, golden=True, cache=str(tmp_path / "cache-b")))
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "differs from golden" in result["failures"][0]


def test_repeated_answers_must_match_the_first():
    check = child.PanelCheck(golden=None)
    assert check("p", [1.0, 2.0]) == (1, [])
    assert check("p", [1.0, 2.0]) == (1, [])
    assert len(check("p", [1.0, 2.5])[1]) == 1


def test_tune_and_conformance_failure_rules():
    def tuned(fits=True, makespan=1.0, verdict="improvement"):
        winner = SimpleNamespace(spec="fp16", fits=fits, makespan_s=makespan)
        return SimpleNamespace(model="m", framework="f", winner=winner,
                               baseline_makespan_s=1.0,
                               confirmation={"verdict": verdict})

    assert child.check_tune(tuned()) == (1, [])
    assert child.check_tune(SimpleNamespace(model="m", framework="f", winner=None)) == (1, [])
    for bad in (tuned(fits=False), tuned(makespan=1.5), tuned(verdict="regression")):
        assert len(child.check_tune(bad)[1]) == 1

    violation = SimpleNamespace(check="law", message="broken")
    assert child.check_conformance(SimpleNamespace(checked_total=325, violations=[])) == (325, [])
    assert len(child.check_conformance(
        SimpleNamespace(checked_total=325, violations=[violation]))[1]) == 1
    assert child.check_conformance(SimpleNamespace(checked_total=0, violations=[]))[0] == 1
    assert len(child.check_conformance(SimpleNamespace(checked_total=0, violations=[]))[1]) == 1


def test_seed_determines_order():
    panels = [("m%d" % i, "fw") for i in range(12)]
    assert child.panel_orders(panels, 5, 3) == child.panel_orders(panels, 5, 3)
    assert child.panel_orders(panels, 5, 1) != child.panel_orders(panels, 6, 1)
    first, second = child.panel_orders(panels, 5, 2)
    assert sorted(first) == sorted(panels) and first != second


def test_metrics_are_medians_and_pooled_percentiles(work_dir):
    wset = run.WorkloadSet("tune", 7, work_dir)
    wset.setups = [0.3, 0.2, 0.4]
    wset.runs = [
        {"questions_ms": [1.0, 30.0, 100.0], "wall_s": 0.131, "raw_wall_s": 0.2, "rss_mb": 9.0},
        {"questions_ms": [2.0, 10.0, 400.0], "wall_s": 0.412, "raw_wall_s": 0.412, "rss_mb": 11.0},
    ]
    metrics = wset.metrics()
    assert metrics["question_p50_ms"] == (20.0, 6)  # of [1, 2, 10, 30, 100, 400]
    assert metrics["question_p80_ms"][0] == pytest.approx(100.0)
    assert metrics["wall_s"][0] == pytest.approx((0.131 + 0.412) / 2)
    assert metrics["setup_s"] == (0.3, 3)
    assert metrics["peak_rss_mb"] == (10.0, 2)
    assert wset.host_slowdown() == pytest.approx((0.2 / 0.131 + 1.0) / 2)


def test_timeline_rescales_by_probe_slowdown():
    # Probes at 0, 10, 20, 30; the last two take twice the fastest.
    at = hostclock.timeline(
        [0.0, 10.0, 20.0, 30.0], [1.0, 11.0, 22.0, 32.0], reference_s=1.0, exponent=1.0
    )
    # 5 s at full speed, a probe, 9 s at the mean slowdown 1.5, a probe,
    # then 3 s at half speed.
    assert at(25.0) - at(5.0) == pytest.approx(5.0 + 9.0 / 1.5 + 3.0 / 2.0)
    assert at(10.5) == at(10.0) == at(11.0)  # probe time counts zero
    assert at(40.0) - at(32.0) == pytest.approx(4.0)  # after the last probe
    assert at(0.0) - at(-2.0) == pytest.approx(2.0)  # before the first
    assert hostclock.timeline([], [])(3.5) == 3.5
    half = hostclock.timeline([0.0, 10.0], [2.0, 12.0], reference_s=1.0, exponent=1.0)
    assert half(9.0) - half(3.0) == pytest.approx(3.0)  # uniformly half speed
    steep = hostclock.timeline([0.0, 10.0], [2.0, 12.0], reference_s=1.0, exponent=1.5)
    assert steep(9.0) - steep(3.0) == pytest.approx(6.0 / 2.0**1.5)


def test_host_clock_probes_the_measured_process():
    clock = hostclock.HostClock()
    clock.start()
    try:
        began = time.perf_counter()
        while time.perf_counter() - began < 0.2:
            pass
        ended = time.perf_counter()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(clock.starts) >= 3
    probes = [end - start for start, end in zip(clock.starts, clock.ends)]
    slowdown = statistics.mean(
        (probe / hostclock.PROBE_REFERENCE_S) ** hostclock.PROBE_EXPONENT for probe in probes
    )
    normalized = clock.timeline()(ended) - clock.timeline()(began)
    assert normalized == pytest.approx((ended - began - sum(probes)) / slowdown, rel=0.3)


def test_tiny_end_to_end_runs(work_dir):
    cold = run.WorkloadSet("sweep-cold", 7, work_dir, panels=A3C)
    cold.run_once()
    metrics = cold.metrics()
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(value > 0 for value, _n in metrics.values())
    assert (cold.attempted, cold.failed) == (1, 0)

    warm = run.WorkloadSet("sweep-warm", 7, work_dir, panels=A3C)
    try:
        warm.run_once()
        assert warm.failed == 0
        assert len(warm.runs[0]["questions_ms"]) == child.WARM_PASSES
        trace_path = os.path.join(work_dir, "trace.json")
        traced = run.traced_layers(warm, trace_path)
    finally:
        warm.close()
    assert set(traced) == set(layers.UNITS)
    assert all(traced[f"{layer}.calls"] == 0 for layer in layers.LAYERS
               if layer.startswith("plan."))
    assert traced["engine.cache.load.hit_ratio"] == 1.0
    assert traced["engine.executor.points_computed"] == 0
    wall = statistics.median(r["raw_wall_s"] for r in warm.runs)
    assert traced["unattributed_s"] <= 0.1 * wall
    with open(trace_path, encoding="utf-8") as handle:
        assert handle.read().startswith('{"traceEvents"')
