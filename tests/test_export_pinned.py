"""Export bytes pinned across commits.

Each expected string below was captured from the exporters before they
were merged into one event emitter.  The inputs are built by hand (no
model, no compiler) so any change to an exported byte shows up here,
not only a difference between two processes of the same commit.
"""

import json

import pytest

from repro.kernels.base import KernelCategory
from repro.observability import Tracer, spans_to_chrome_trace, spans_to_jsonl
from repro.observability.exporters import chrome_trace, timeline_events
from repro.plan.executor import Gap, Timeline, TimelineEvent


def _timeline() -> Timeline:
    """Three kernels (the second a host sync) and two idle gaps."""
    events = [
        TimelineEvent(
            "sgemm_fw", KernelCategory.GEMM, 1.0e-6, 2.5e-6, 12.3456789e-6, False
        ),
        TimelineEvent(
            "lstm_pointwise",
            KernelCategory.RNN_POINTWISE,
            13.0e-6,
            14.0e-6,
            15.0000004e-6,
            True,
        ),
        TimelineEvent(
            "sgd_update", KernelCategory.OPTIMIZER, 30.2e-6, 31.1111111e-6, 40.0e-6, False
        ),
    ]
    gaps = [
        Gap(12.3456789e-6, 14.0e-6, "dispatch"),
        Gap(15.0000004e-6, 31.1111111e-6, "host sync"),
    ]
    return Timeline(events=events, gaps=gaps, makespan_s=40.0e-6)


def _tracer() -> Tracer:
    """Nested spans with float, bool and non-JSON attributes, an error
    span, and timelines attached at two depths."""
    tracer = Tracer(enabled=True, clock=lambda: 0.0)
    with tracer.span("run", model="nmt", ratio=0.1234567891234, fused=True) as run:
        with tracer.span("iteration", batch=64) as iteration:
            iteration.attach_timeline(_timeline())
            with tracer.span("inner", scale=2.5, odd=(1, 2)):
                pass
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        run.attach_timeline(_timeline(), label="tail")
    return tracer


def _canonical(trace: dict) -> str:
    return json.dumps(trace, sort_keys=True, separators=(",", ":"))


TIMELINE_TRACE = (
    '{"displayTimeUnit":"ms","traceEvents":[{"args":{"name":"GPU"},"name":"process_name","ph":"M","pid":0},'
    '{"args":{"host_sync":false},"cat":"gemm","dur":9.846,"name":"sgemm_fw","ph":"X","pid":0,"tid":0,"ts":2.5},'
    '{"args":{"host_sync":true},"cat":"rnn_pointwise","dur":1.0,"name":"lstm_pointwise","ph":"X","pid":0,"tid":0,"ts":14.0},'
    '{"args":{"host_sync":false},"cat":"optimizer","dur":8.889,"name":"sgd_update","ph":"X","pid":0,"tid":0,"ts":31.111},'
    '{"args":{"index":0},"cat":"idle","dur":1.654,"name":"idle (dispatch)","ph":"X","pid":0,"tid":1,"ts":12.346},'
    '{"args":{"index":1},"cat":"idle","dur":16.111,"name":"idle (host sync)","ph":"X","pid":0,"tid":1,"ts":15.0}]}'
)

SPAN_TRACE = (
    '{"displayTimeUnit":"ms","traceEvents":[{"args":{"name":"run"},"name":"process_name","ph":"M","pid":0},'
    '{"args":{"name":"spans + kernels"},"name":"thread_name","ph":"M","pid":0,"tid":0},'
    '{"args":{"name":"GPU idle"},"name":"thread_name","ph":"M","pid":0,"tid":1},'
    '{"args":{"fused":true,"model":"nmt","ratio":0.123456789,"span_id":1},"cat":"span","dur":84.0,"name":"run","ph":"X","pid":0,"tid":0,"ts":0.0},'
    '{"args":{"host_sync":false,"span_id":1,"stream":"tail"},"cat":"gemm","dur":9.846,"name":"sgemm_fw","ph":"X","pid":0,"tid":0,"ts":46.0},'
    '{"args":{"host_sync":true,"span_id":1,"stream":"tail"},"cat":"rnn_pointwise","dur":1.0,"name":"lstm_pointwise","ph":"X","pid":0,"tid":0,"ts":57.5},'
    '{"args":{"host_sync":false,"span_id":1,"stream":"tail"},"cat":"optimizer","dur":8.889,"name":"sgd_update","ph":"X","pid":0,"tid":0,"ts":74.611},'
    '{"args":{"span_id":1},"cat":"idle","dur":1.654,"name":"idle (dispatch)","ph":"X","pid":0,"tid":1,"ts":55.846},'
    '{"args":{"span_id":1},"cat":"idle","dur":16.111,"name":"idle (host sync)","ph":"X","pid":0,"tid":1,"ts":58.5},'
    '{"args":{"batch":64,"parent_id":1,"span_id":2},"cat":"span","dur":42.0,"name":"iteration","ph":"X","pid":0,"tid":0,"ts":0.5},'
    '{"args":{"host_sync":false,"span_id":2,"stream":"kernels"},"cat":"gemm","dur":9.846,"name":"sgemm_fw","ph":"X","pid":0,"tid":0,"ts":3.5},'
    '{"args":{"host_sync":true,"span_id":2,"stream":"kernels"},"cat":"rnn_pointwise","dur":1.0,"name":"lstm_pointwise","ph":"X","pid":0,"tid":0,"ts":15.0},'
    '{"args":{"host_sync":false,"span_id":2,"stream":"kernels"},"cat":"optimizer","dur":8.889,"name":"sgd_update","ph":"X","pid":0,"tid":0,"ts":32.111},'
    '{"args":{"span_id":2},"cat":"idle","dur":1.654,"name":"idle (dispatch)","ph":"X","pid":0,"tid":1,"ts":13.346},'
    '{"args":{"span_id":2},"cat":"idle","dur":16.111,"name":"idle (host sync)","ph":"X","pid":0,"tid":1,"ts":16.0},'
    '{"args":{"odd":"(1, 2)","parent_id":2,"scale":2.5,"span_id":3},"cat":"span","dur":1.0,"name":"inner","ph":"X","pid":0,"tid":0,"ts":41.0},'
    '{"args":{"error.message":"boom","error.type":"ValueError","parent_id":1,"span_id":4,"status":"error"},"cat":"span","dur":1.0,"name":"failing","ph":"X","pid":0,"tid":0,"ts":42.5}]}'
)

SPANS_JSONL = (
    '{"attributes": {"fused": true, "model": "nmt", "ratio": 0.123456789}, "dur_us": 84.0, "event": "span", "name": "run", "parent_id": null, "span_id": 1, "start_us": 0.0, "status": "ok"}\n'
    '{"category": "gemm", "dur_us": 9.846, "event": "kernel", "host_sync": false, "name": "sgemm_fw", "queue_delay_us": 1.5, "span_id": 1, "start_us": 46.0, "stream": "tail"}\n'
    '{"category": "rnn_pointwise", "dur_us": 1.0, "event": "kernel", "host_sync": true, "name": "lstm_pointwise", "queue_delay_us": 1.0, "span_id": 1, "start_us": 57.5, "stream": "tail"}\n'
    '{"category": "optimizer", "dur_us": 8.889, "event": "kernel", "host_sync": false, "name": "sgd_update", "queue_delay_us": 0.911, "span_id": 1, "start_us": 74.611, "stream": "tail"}\n'
    '{"cause": "dispatch", "dur_us": 1.654, "event": "gap", "span_id": 1, "start_us": 55.846, "stream": "tail"}\n'
    '{"cause": "host sync", "dur_us": 16.111, "event": "gap", "span_id": 1, "start_us": 58.5, "stream": "tail"}\n'
    '{"attributes": {"batch": 64}, "dur_us": 42.0, "event": "span", "name": "iteration", "parent_id": 1, "span_id": 2, "start_us": 0.5, "status": "ok"}\n'
    '{"category": "gemm", "dur_us": 9.846, "event": "kernel", "host_sync": false, "name": "sgemm_fw", "queue_delay_us": 1.5, "span_id": 2, "start_us": 3.5, "stream": "kernels"}\n'
    '{"category": "rnn_pointwise", "dur_us": 1.0, "event": "kernel", "host_sync": true, "name": "lstm_pointwise", "queue_delay_us": 1.0, "span_id": 2, "start_us": 15.0, "stream": "kernels"}\n'
    '{"category": "optimizer", "dur_us": 8.889, "event": "kernel", "host_sync": false, "name": "sgd_update", "queue_delay_us": 0.911, "span_id": 2, "start_us": 32.111, "stream": "kernels"}\n'
    '{"cause": "dispatch", "dur_us": 1.654, "event": "gap", "span_id": 2, "start_us": 13.346, "stream": "kernels"}\n'
    '{"cause": "host sync", "dur_us": 16.111, "event": "gap", "span_id": 2, "start_us": 16.0, "stream": "kernels"}\n'
    '{"attributes": {"odd": "(1, 2)", "scale": 2.5}, "dur_us": 1.0, "event": "span", "name": "inner", "parent_id": 2, "span_id": 3, "start_us": 41.0, "status": "ok"}\n'
    '{"attributes": {"error.message": "boom", "error.type": "ValueError"}, "dur_us": 1.0, "event": "span", "name": "failing", "parent_id": 1, "span_id": 4, "start_us": 42.5, "status": "error"}\n'
)


def test_timeline_trace_bytes_are_pinned():
    trace = chrome_trace("GPU", timeline_events(_timeline()))
    assert _canonical(trace) == TIMELINE_TRACE


def test_span_trace_bytes_are_pinned():
    assert _canonical(spans_to_chrome_trace(_tracer())) == SPAN_TRACE


def test_spans_jsonl_bytes_are_pinned():
    assert spans_to_jsonl(_tracer()) == SPANS_JSONL
