"""Hierarchical span tracer for the simulated runtime.

A *span* is one named, attributed interval of work; spans nest, and one
instrumented run produces a single coherent tree: the session span under
the pipeline-stage span under the run span, with the simulated kernel
timeline attached to the span that produced it.

Design constraints, in order:

1. **Free when off.**  Instrumentation points call :func:`trace_span`,
   which costs one attribute load and one branch before returning a shared
   no-op singleton.  The perf-guard test pins this.
2. **Re-entrant.**  The current-span stack lives in a
   :class:`contextvars.ContextVar`, so two sessions tracing concurrently
   (threads, or interleaved generators) each build their own branch of the
   tree without interleaving parents.
3. **Exception-safe.**  A span closed by an exception records
   ``status="error"`` plus the error type/message as attributes, and the
   exception propagates unchanged.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One completed (or in-flight) span."""

    name: str
    span_id: int
    parent_id: int | None
    attributes: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    #: Simulated kernel timelines attached while this span was current,
    #: interleaved with ``children`` in creation order via ``sequence``.
    timelines: list = field(default_factory=list)
    status: str = "ok"
    start_s: float = 0.0
    end_s: float | None = None
    #: Creation order across the whole tracer, used by exporters to
    #: interleave child spans and attached timelines deterministically.
    sequence: int = 0

    @property
    def elapsed_s(self) -> float:
        """Wall-clock time inside the span (diagnostic only — exports use
        the deterministic simulated timebase instead)."""
        end = self.end_s if self.end_s is not None else self.start_s
        return max(0.0, end - self.start_s)

    def walk(self):
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str):
        """First span named ``name`` in this subtree, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class Span:
    """Context-manager handle for one live span."""

    __slots__ = ("_tracer", "record", "_token")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record
        self._token = None

    @property
    def enabled(self) -> bool:
        return True

    def set_attribute(self, key: str, value) -> "Span":
        """Record one attribute on the span; returns the span."""
        self.record.attributes[key] = value
        return self

    def set_attributes(self, **attributes) -> "Span":
        """Record several attributes on the span; returns the span."""
        self.record.attributes.update(attributes)
        return self

    def attach_timeline(self, timeline, label: str = "kernels") -> "Span":
        """Attach a simulated kernel :class:`~repro.plan.executor.Timeline`
        so exporters can overlay kernel events under this span."""
        self._tracer._attach_timeline(self.record, timeline, label)
        return self

    def __enter__(self) -> "Span":
        self._token = self._tracer._push(self.record)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self.record.status = "error"
            self.record.attributes.setdefault("error.type", exc_type.__name__)
            self.record.attributes.setdefault("error.message", str(exc))
        self._tracer._pop(self.record, self._token)
        return False


class _NullSpan:
    """Shared do-nothing span handle: the disabled-telemetry fast path."""

    __slots__ = ()

    enabled = False
    record = None

    def set_attribute(self, _key, _value):
        return self

    def set_attributes(self, **_attributes):
        return self

    def attach_timeline(self, _timeline, _label="kernels"):
        return self

    def __enter__(self):
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees for one or more concurrent instrumented runs.

    ``clock`` defaults to :func:`time.perf_counter`; tests may inject a
    deterministic clock.  Span ids are allocated from an atomic counter and
    a lock guards the shared root list, so concurrent sessions are safe.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.roots: list = []
        self._ids = itertools.count(1)
        self._sequence = itertools.count(1)
        self._lock = threading.Lock()
        self._stack: contextvars.ContextVar = contextvars.ContextVar(
            "repro_span_stack", default=()
        )

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes):
        """Open a span under the current one; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        record = SpanRecord(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attributes=dict(attributes),
            start_s=self.clock(),
            sequence=next(self._sequence),
        )
        return Span(self, record)

    def _push(self, record: SpanRecord):
        stack = self._stack.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(record)
        else:
            with self._lock:
                self.roots.append(record)
        return self._stack.set(stack + (record,))

    def _pop(self, record: SpanRecord, token) -> None:
        record.end_s = self.clock()
        if token is not None:
            self._stack.reset(token)

    def _attach_timeline(self, record: SpanRecord, timeline, label: str) -> None:
        record.timelines.append((label, timeline, next(self._sequence)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def current(self):
        """The innermost open span in this context, or the no-op span."""
        stack = self._stack.get()
        if not stack:
            return NULL_SPAN
        return Span(self, stack[-1])

    def reset(self) -> None:
        """Drop all collected spans (ids keep counting)."""
        with self._lock:
            self.roots = []

    def render_tree(self) -> str:
        """Indented text rendering of every collected span tree."""
        lines: list = []

        def visit(record: SpanRecord, depth: int) -> None:
            mark = "" if record.status == "ok" else "  [ERROR]"
            attrs = ", ".join(
                f"{key}={record.attributes[key]}" for key in sorted(record.attributes)
            )
            suffix = f" ({attrs})" if attrs else ""
            lines.append(f"{'  ' * depth}{record.name}{suffix}{mark}")
            for _label, timeline, _seq in record.timelines:
                lines.append(
                    f"{'  ' * (depth + 1)}[timeline: {len(timeline.events)} kernel "
                    f"events, {timeline.makespan_s * 1e3:.3f} ms simulated]"
                )
            for child in record.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# module-level API: the instrumentation points call these
# ----------------------------------------------------------------------

_GLOBAL = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled by default)."""
    return _GLOBAL


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the global tracer; returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = tracer
    return previous


def telemetry_enabled() -> bool:
    """Cheap check for instrumentation points with non-trivial setup cost."""
    return _GLOBAL.enabled


def trace_span(name: str, **attributes):
    """Open a span on the global tracer (no-op singleton when disabled).

    This is the one call every instrumentation point makes; the lint in
    ``tools/check_instrumentation.py`` asserts it never disappears from the
    core entry points.
    """
    tracer = _GLOBAL
    if not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def current_span():
    """The innermost open span on the global tracer (no-op when disabled)."""
    tracer = _GLOBAL
    if not tracer.enabled:
        return NULL_SPAN
    return tracer.current()


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Install an enabled tracer for the duration of a ``with`` block.

    Yields the tracer; the previous global tracer is restored on exit even
    if the block raises.
    """
    active = tracer if tracer is not None else Tracer(enabled=True)
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
