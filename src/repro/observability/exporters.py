"""Deterministic exporters for span trees, kernel timelines and metrics.

Three formats:

- **JSONL** — one structured event per line (spans depth-first, each
  followed by its attached kernel events), round-trippable via
  :func:`parse_jsonl`.
- **Chrome trace** — chrome://tracing complete ("X") events.  This module
  is the one place they are built: :func:`timeline_events` lays out one
  simulated timeline (kernels on ``tid=0``, GPU idle gaps on ``tid=1``),
  :func:`spans_to_chrome_trace` puts each span on ``tid=0`` followed by the
  events of the timelines it carries (the viewer nests by time
  containment, making stage spans ancestors of kernel events), and
  :func:`chrome_trace` adds the metadata.
  :func:`repro.profiling.export.timeline_to_chrome_trace` is the bare
  timeline through the same code; :func:`write_trace` writes either.
- **Prometheus text** — ``# TYPE`` headers plus one sample per series.

Determinism is a feature, not an accident: archived runs must diff
cleanly.  All exports therefore use a *synthetic simulated timebase* —
spans are laid out by creation order and sized by the simulated kernel
timelines they carry, never by wall-clock — with sorted JSON keys and
fixed float formatting.  Two identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import SpanRecord, Tracer

_US = 1e6  # exported timestamps are in microseconds
#: Synthetic padding at each span boundary so a parent span strictly
#: contains its children and kernel events (trace viewers nest by time
#: containment); also the minimum visible extent of an empty span.
_SPAN_PAD_S = 5e-7


def _round_us(seconds: float) -> float:
    """Seconds -> microseconds with fixed 3-decimal (nanosecond) precision."""
    return round(seconds * _US, 3)


def _clean_value(value):
    """Coerce an attribute value to a deterministic JSON-safe form."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return round(value, 9)
    return str(value)


def _clean_attributes(attributes: dict) -> dict:
    return {key: _clean_value(attributes[key]) for key in sorted(attributes)}


def layout_spans(roots) -> list:
    """Assign every span a deterministic ``(start_s, end_s)`` in simulated
    time.

    Roots are laid out back to back; within a span, child spans and
    attached timelines occupy consecutive intervals in creation order, a
    timeline taking exactly its simulated makespan.  Returns a flat list of
    ``(span, start_s, end_s, [(label, timeline, timeline_start_s), ...])``
    in depth-first order.
    """
    placed: list = []

    def visit(span: SpanRecord, t0: float) -> float:
        items = [("span", child.sequence, child) for child in span.children]
        items.extend(
            ("timeline", seq, (label, timeline))
            for label, timeline, seq in span.timelines
        )
        items.sort(key=lambda item: item[1])
        entry = [span, t0, t0, []]
        placed.append(entry)
        t = t0 + _SPAN_PAD_S
        for kind, _seq, payload in items:
            if kind == "span":
                t = visit(payload, t)
            else:
                label, timeline = payload
                entry[3].append((label, timeline, t))
                t += timeline.makespan_s
        entry[2] = t + _SPAN_PAD_S
        return entry[2]

    t = 0.0
    for root in sorted(roots, key=lambda span: span.sequence):
        t = visit(root, t)
    return [tuple(entry) for entry in placed]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def spans_to_jsonl(roots_or_tracer) -> str:
    """Serialize span trees as one JSON object per line.

    Accepts a :class:`~repro.observability.tracer.Tracer` or a list of root
    :class:`SpanRecord` objects.  Span events precede their kernel events;
    kernel events carry the owning ``span_id``.
    """
    roots = _roots(roots_or_tracer)
    lines: list = []
    for span, start_s, end_s, timelines in layout_spans(roots):
        lines.append(
            json.dumps(
                {
                    "event": "span",
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    "start_us": _round_us(start_s),
                    "dur_us": _round_us(end_s - start_s),
                    "attributes": _clean_attributes(span.attributes),
                },
                sort_keys=True,
            )
        )
        for label, timeline, t0 in timelines:
            for event in timeline.events:
                lines.append(
                    json.dumps(
                        {
                            "event": "kernel",
                            "span_id": span.span_id,
                            "stream": label,
                            "name": event.name,
                            "category": event.category.value,
                            "start_us": _round_us(t0 + event.start_s),
                            "dur_us": _round_us(event.duration_s),
                            "queue_delay_us": _round_us(event.queue_delay_s),
                            "host_sync": event.host_sync,
                        },
                        sort_keys=True,
                    )
                )
            for gap in timeline.gaps:
                lines.append(
                    json.dumps(
                        {
                            "event": "gap",
                            "span_id": span.span_id,
                            "stream": label,
                            "cause": gap.cause,
                            "start_us": _round_us(t0 + gap.start_s),
                            "dur_us": _round_us(gap.duration_s),
                        },
                        sort_keys=True,
                    )
                )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_jsonl(text: str) -> list:
    """Parse a JSONL event stream back into a list of event dicts."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------


def _complete(
    name: str, cat: str, tid: int, start_s: float, dur_s: float, args: dict
) -> dict:
    """One chrome-trace complete (``"X"``) event."""
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": 0,
        "tid": tid,
        "ts": _round_us(start_s),
        "dur": _round_us(dur_s),
        "args": args,
    }


def timeline_events(
    timeline, t0: float = 0.0, span_id: int | None = None, stream: str = ""
) -> list:
    """Complete events for one simulated timeline placed at ``t0``: its
    kernels on ``tid=0``, then its GPU idle gaps on ``tid=1``.

    Under a span (``span_id`` given) every event names its owning span and
    kernels name their ``stream``; a bare timeline's gaps carry their index.
    """
    owner = {} if span_id is None else {"span_id": span_id, "stream": stream}
    events = [
        _complete(
            event.name,
            event.category.value,
            0,
            t0 + event.start_s,
            event.duration_s,
            {"host_sync": event.host_sync, **owner},
        )
        for event in timeline.events
    ]
    events.extend(
        _complete(
            f"idle ({gap.cause})",
            "idle",
            1,
            t0 + gap.start_s,
            gap.duration_s,
            {"index": index} if span_id is None else {"span_id": span_id},
        )
        for index, gap in enumerate(timeline.gaps)
    )
    return events


def chrome_trace(process_name: str, events: list, thread_names: tuple = ()) -> dict:
    """A chrome://tracing object: process and thread-name metadata (thread
    ``i`` named ``thread_names[i]``), then ``events``."""
    metadata = [
        {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": process_name}}
    ]
    metadata.extend(
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
        for tid, name in enumerate(thread_names)
    )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_trace(trace: dict, path: str) -> None:
    """Serialize a chrome trace as deterministic JSON (sorted keys, no
    whitespace)."""
    with open(path, "w") as handle:
        json.dump(trace, handle, sort_keys=True, separators=(",", ":"))


def spans_to_chrome_trace(roots_or_tracer, process_name: str = "run") -> dict:
    """Convert span trees (plus attached kernel timelines) to a
    chrome://tracing object: each span is followed by the events of the
    timelines it carries."""
    events: list = []
    for span, start_s, end_s, timelines in layout_spans(_roots(roots_or_tracer)):
        args = _clean_attributes(span.attributes)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status != "ok":
            args["status"] = span.status
        events.append(_complete(span.name, "span", 0, start_s, end_s - start_s, args))
        for label, timeline, t0 in timelines:
            events.extend(timeline_events(timeline, t0, span.span_id, label))
    return chrome_trace(process_name, events, ("spans + kernels", "GPU idle"))


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.9g}"


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus-style text dump, one ``# TYPE`` header per metric name."""
    lines: list = []
    seen_types: set = set()
    for key, series in registry.series():
        if series.name not in seen_types:
            lines.append(f"# TYPE {series.name} {series.kind}")
            seen_types.add(series.name)
        if series.kind == "histogram":
            labels = key[len(series.name):]  # "{...}" or ""
            inner = labels[1:-1] if labels else ""
            for bound, cumulative in series.cumulative_buckets():
                le = "+Inf" if bound == "+Inf" else _format_value(bound)
                label_text = f'{inner},le="{le}"' if inner else f'le="{le}"'
                lines.append(
                    f"{series.name}_bucket{{{label_text}}} {cumulative}"
                )
            lines.append(f"{series.name}_sum{labels} {_format_value(series.total)}")
            lines.append(f"{series.name}_count{labels} {series.count}")
        else:
            lines.append(f"{key} {_format_value(series.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _roots(roots_or_tracer) -> list:
    if isinstance(roots_or_tracer, Tracer):
        return roots_or_tracer.roots
    return list(roots_or_tracer)
