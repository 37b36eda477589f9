"""In-process memoization of compiled plans.

Compiling a plan (graph build + kernel lowering + roofline timing +
replay) is the dominant cost of every simulated path, and before this
layer existed the same point was compiled two to three times per question
— once for the memory check, once for the timing run, and once more per
profiling query.  ``PlanCache`` collapses those into one compile per key.

The cache is deliberately *per session* rather than global: telemetry
exports must be byte-identical across repeated fresh runs in one process,
so hit/miss sequences (which show up as spans and counters) have to reset
with the session that owns them.  Sessions are themselves reused across a
sweep, the engine's worker payloads, and the analysis pipeline, which is
where the dedup pays off.

The graphs plans are compiled from are shared per *process* instead
(:func:`~repro.models.registry.shared_graph`): a graph depends only on
(model, batch), and builders emit no spans or counters, so sharing one
across sessions and frameworks cannot change an export.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span

#: Plans one session keeps before evicting the least recently used.
CAPACITY = 64


@dataclass(frozen=True)
class PlanCacheStats:
    """Hit/miss accounting of one cache."""

    hits: int
    misses: int
    entries: int

    @property
    def compile_count(self) -> int:
        return self.misses


class PlanCache:
    """An LRU of :data:`CAPACITY` :class:`~repro.plan.compiled.CompiledPlan`
    objects.

    ``get`` is the single entry point: it looks the key up, calls the
    factory on a miss, and publishes the outcome as a span plus the
    ``plan_cache_hits_total`` / ``plan_cache_misses_total`` counters.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, factory):
        """The plan under ``key``, compiling it via ``factory()`` once."""
        span = trace_span("plan.cache.lookup", key=str(key))
        with span:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                outcome = "hit"
            else:
                plan = factory()
                self._entries[key] = plan
                while len(self._entries) > CAPACITY:
                    self._entries.popitem(last=False)
                self.misses += 1
                outcome = "miss"
            span.set_attribute("outcome", outcome)
            metrics = get_metrics()
            if metrics.enabled:
                if outcome == "hit":
                    metrics.counter("plan_cache_hits_total").inc()
                else:
                    metrics.counter("plan_cache_misses_total").inc()
        return plan

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    @property
    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self.hits, misses=self.misses, entries=len(self._entries)
        )
