"""GPU memory allocator with the paper's five-way allocation tagging.

The paper's memory profilers (Section 3.4.3) classify every allocation as
one of: **weights**, **weight gradients**, **feature maps**, **workspace**,
or **dynamic** (data structures a framework allocates *during* iterations,
e.g. MXNet's momentum buffers).  Consumption is reported as the maximum
amount ever allocated per class.  This module implements exactly that
accounting, plus capacity enforcement so that over-large mini-batches fail
with an out-of-memory error just as they do on a real 8 GB card.

:meth:`GPUMemoryAllocator.allocate_trace` is the one accounting loop: it
grants a plan's whole allocation trace, given as parallel columns, in
one scan with its running totals in locals; ``allocate`` is its
one-record case plus a handle for ``free``.  The in-use total is the
five class levels added left to right in tag order, never ``sum()``,
which CPython 3.12 compensates: every footprint reads the same bits on
every interpreter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AllocationTag(enum.Enum):
    """The five data-structure classes of the paper's memory breakdown."""

    WEIGHTS = "weights"
    WEIGHT_GRADIENTS = "weight gradients"
    FEATURE_MAPS = "feature maps"
    WORKSPACE = "workspace"
    DYNAMIC = "dynamic"

    #: Members are singletons, so identity is equality; this keeps the
    #: allocator's per-request dict lookups in C instead of running
    #: ``Enum.__hash__`` (which hashes the member name in Python).
    __hash__ = object.__hash__


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation exceeds the device's memory capacity."""


@dataclass
class MemorySnapshot:
    """Peak bytes per allocation class (what Fig. 9 plots)."""

    peak_by_tag: dict
    peak_total: float

    def fraction(self, tag: AllocationTag) -> float:
        """Peak share of one class relative to the sum of class peaks."""
        total = sum(self.peak_by_tag.values())
        if total <= 0:
            return 0.0
        return self.peak_by_tag.get(tag, 0.0) / total

    @property
    def feature_map_fraction(self) -> float:
        """Convenience accessor for the paper's headline number (Obs. 11)."""
        return self.fraction(AllocationTag.FEATURE_MAPS)


class GPUMemoryAllocator:
    """Capacity-checked allocator with per-tag peak tracking.

    ``pool_overhead`` models a framework's allocator slack (pool rounding,
    fragmentation): each request is charged ``bytes * pool_overhead`` against
    device capacity.  TensorFlow's BFC allocator is tighter than MXNet's
    pooled allocator, which is one mechanism behind the paper's note that
    TensorFlow fits mini-batch 128 for Seq2Seq where MXNet tops out at 64.
    """

    def __init__(self, capacity_bytes: float, pool_overhead: float = 1.0):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if pool_overhead < 1.0:
            raise ValueError("pool overhead cannot be below 1.0")
        self.capacity_bytes = float(capacity_bytes)
        self.pool_overhead = float(pool_overhead)
        #: handle -> ``(charged bytes, tag)`` of each live allocation.
        self._allocations: dict = {}
        self._next_handle = 1
        self._current_by_tag: dict = {tag: 0.0 for tag in AllocationTag}
        self._peak_by_tag: dict = {tag: 0.0 for tag in AllocationTag}
        self._peak_total = 0.0
        #: The largest ``in use + charged`` any granted request reached:
        #: the exact quantity the capacity check compares, so with no
        #: frees a replay fits capacity ``C`` iff not ``peak_demand > C``.
        self.peak_demand = 0.0

    @property
    def allocated_bytes(self) -> float:
        """Bytes currently charged against capacity (incl. pool overhead):
        the five class levels added left to right in tag order."""
        weights, gradients, maps, workspace, dynamic = self._current_by_tag.values()
        return weights + gradients + maps + workspace + dynamic

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, num_bytes: float, tag: AllocationTag, label: str = "") -> int:
        """Reserve ``num_bytes`` (plus pool overhead) or raise
        :class:`OutOfMemoryError`.  Returns an opaque handle for ``free``."""
        self.allocate_trace((num_bytes,), (tag,), (label,))
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = (num_bytes * self.pool_overhead, tag)
        return handle

    def allocate_trace(self, num_bytes, tags, labels) -> None:
        """Reserve each request of a trace's parallel columns in order, as
        that many :meth:`allocate` calls would, without handles: a trace's
        requests are never freed.

        Raises the first request's :class:`ValueError` (a negative size)
        or :class:`OutOfMemoryError`; the requests before it stay granted.
        """
        overhead = self.pool_overhead
        capacity = self.capacity_bytes
        current = self._current_by_tag
        levels = current.values()
        peak_by_tag = self._peak_by_tag
        peak_total = self._peak_total
        peak_demand = self.peak_demand
        # Each request's in-use total is the previous request's new total.
        in_use = self.allocated_bytes
        try:
            for size, tag, label in zip(num_bytes, tags, labels):
                if size < 0:
                    raise ValueError("allocation size cannot be negative")
                charged = size * overhead
                demand = in_use + charged
                if demand > capacity:
                    raise OutOfMemoryError(
                        f"allocating {charged / 1024**2:.1f} MiB ({tag.value}"
                        f"{': ' + label if label else ''}) exceeds capacity: "
                        f"{in_use / 1024**2:.1f} MiB in use of "
                        f"{capacity / 1024**2:.1f} MiB"
                    )
                if demand > peak_demand:
                    peak_demand = demand
                level = current[tag] + charged
                current[tag] = level
                if level > peak_by_tag[tag]:
                    peak_by_tag[tag] = level
                # ``allocated_bytes``, inlined: left to right in tag order.
                weights, gradients, maps, workspace, dynamic = levels
                in_use = weights + gradients + maps + workspace + dynamic
                if in_use > peak_total:
                    peak_total = in_use
        finally:
            self._peak_total = peak_total
            self.peak_demand = peak_demand

    def free(self, handle: int) -> None:
        """Release a previous allocation."""
        allocation = self._allocations.pop(handle, None)
        if allocation is None:
            raise KeyError(f"unknown or already-freed allocation handle {handle}")
        charged, tag = allocation
        self._current_by_tag[tag] -= charged

    def current_bytes(self, tag: AllocationTag) -> float:
        """Live bytes for one class."""
        return self._current_by_tag[tag]

    def snapshot(self) -> MemorySnapshot:
        """Peak-per-class snapshot — the quantity the paper's Fig. 9 plots."""
        return MemorySnapshot(
            peak_by_tag=dict(self._peak_by_tag), peak_total=self._peak_total
        )

    def reset_peaks(self) -> None:
        """Restart peak tracking from the current live state (used after the
        warm-up phase so auto-tuning probes don't pollute the profile)."""
        self._peak_by_tag = dict(self._current_by_tag)
        self._peak_total = self.allocated_bytes
        self.peak_demand = self._peak_total
