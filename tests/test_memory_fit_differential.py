"""Differential tests of the allocator's trace scan and the plan's
one-comparison fit check.

The reference is the allocator's per-request arithmetic written out
here, independent of the code under test: each request recomputes the
in-use total from the five class levels, added left to right in tag
order, before and after it is granted.
:meth:`~repro.hardware.memory.GPUMemoryAllocator.allocate_trace` keeps
its totals in locals and carries one request's new total into the next;
generated traces (every tag, zero, huge and negative sizes, capacities
at and one ulp below the boundary) must read the same error, message,
snapshot and peak demand, including after an error.

``CompiledPlan.fits``/``check_memory`` compare the capacity against the
peak demand of one unconstrained replay and replay again only to raise.
Every tune candidate of every paper-grid panel, at and one ulp below
both its boundaries (peak total and peak demand), at the device's
capacity and at half the peak, must answer exactly as the reference
replay of its allocation trace: the same verdict, the same snapshot, the
same peak demand and the same out-of-memory message.
"""

import math
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import SWEEP_PANELS
from repro.hardware.memory import AllocationTag, GPUMemoryAllocator, OutOfMemoryError
from repro.plan.pipeline import parse_transform_spec
from repro.tune.search import Autotuner

PANELS = [
    (model, framework) for model, frameworks in SWEEP_PANELS for framework in frameworks
]


class _ReferenceAllocator:
    """The allocator's accounting, one request at a time."""

    def __init__(self, capacity, overhead):
        self.capacity = float(capacity)
        self.overhead = float(overhead)
        self.current = {tag: 0.0 for tag in AllocationTag}
        self.peak_by_tag = dict(self.current)
        self.peak_total = 0.0
        self.peak_demand = 0.0

    def in_use(self):
        return reduce(add, self.current.values())

    def allocate(self, size, tag, label=""):
        """Grant one request; returns its charged bytes."""
        if size < 0:
            raise ValueError("allocation size cannot be negative")
        charged = size * self.overhead
        in_use = self.in_use()
        demand = in_use + charged
        if demand > self.capacity:
            raise OutOfMemoryError(
                f"allocating {charged / 1024**2:.1f} MiB ({tag.value}"
                f"{': ' + label if label else ''}) exceeds capacity: "
                f"{in_use / 1024**2:.1f} MiB in use of "
                f"{self.capacity / 1024**2:.1f} MiB"
            )
        if demand > self.peak_demand:
            self.peak_demand = demand
        level = self.current[tag] + charged
        self.current[tag] = level
        if level > self.peak_by_tag[tag]:
            self.peak_by_tag[tag] = level
        total = self.in_use()
        if total > self.peak_total:
            self.peak_total = total
        return charged

    def free(self, tag, charged):
        self.current[tag] -= charged

    def state(self):
        return _state(self.peak_by_tag, self.peak_total, self.peak_demand, self.in_use())


def _state(peak_by_tag, peak_total, peak_demand, in_use):
    """Every accounting float, as its ``repr`` (so inf and the sign of
    zero compare exactly)."""
    return (
        [(tag.value, repr(peak)) for tag, peak in peak_by_tag.items()],
        repr(peak_total),
        repr(peak_demand),
        repr(in_use),
    )


def _allocator_state(allocator):
    snapshot = allocator.snapshot()
    return _state(
        snapshot.peak_by_tag,
        snapshot.peak_total,
        allocator.peak_demand,
        allocator.allocated_bytes,
    )


def _reference_trace(reference, sizes, tags, labels):
    """Grant the requests in order; the first error, or None."""
    try:
        for size, tag, label in zip(sizes, tags, labels):
            reference.allocate(size, tag, label)
    except (ValueError, OutOfMemoryError) as error:
        return error
    return None


def _scanned_trace(allocator, sizes, tags, labels):
    try:
        allocator.allocate_trace(sizes, tags, labels)
    except (ValueError, OutOfMemoryError) as error:
        return error
    return None


def _outcome(error):
    return None if error is None else (type(error), str(error))


def _reference(plan, capacity):
    """The snapshot, or the error, of the reference replaying the plan's
    allocation trace at ``capacity``."""
    reference = _ReferenceAllocator(capacity, plan.framework.pool_overhead)
    trace = plan.allocations
    error = _reference_trace(reference, trace.num_bytes, trace.tags, trace.labels)
    if error is not None:
        return error
    return reference


_SIZES = st.one_of(
    st.sampled_from([0, 0.0, 1, 1e300, 1.7e308]),
    st.integers(min_value=0, max_value=2**40),
    st.floats(min_value=0.0, max_value=1e12),
)
_REQUESTS = st.lists(
    st.tuples(
        _SIZES,
        st.sampled_from(list(AllocationTag)),
        st.sampled_from(["", "conv1", "momentum"]),
    ),
    max_size=40,
)


class TestTraceScanMatchesTheReference:
    """``allocate_trace`` (and ``allocate``, its one-record case) against
    the per-request reference."""

    @given(
        requests=_REQUESTS,
        overhead=st.sampled_from([1.0, 1.05, 1.25, 1.5]),
        negative=st.one_of(
            st.none(),
            st.tuples(st.integers(min_value=0), st.floats(-1e9, -1e-300)),
        ),
        split=st.integers(min_value=0),
        warm=st.lists(
            st.tuples(st.floats(0.0, 1e9), st.sampled_from(list(AllocationTag))),
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_capacity_reads_the_reference(
        self, requests, overhead, negative, split, warm
    ):
        if negative is not None:
            at, size = negative
            requests = list(requests)
            requests.insert(at % (len(requests) + 1), (size, AllocationTag.DYNAMIC, "x"))
        sizes = tuple(size for size, _tag, _label in requests)
        tags = tuple(tag for _size, tag, _label in requests)
        labels = tuple(label for _size, _tag, label in requests)
        unbounded = _ReferenceAllocator(math.inf, overhead)
        _reference_trace(unbounded, sizes, tags, labels)
        boundary = unbounded.peak_demand
        capacities = {math.inf, boundary, math.nextafter(boundary, 0.0), boundary / 2}
        for capacity in sorted(c for c in capacities if c > 0):
            self._check(capacity, overhead, warm, sizes, tags, labels, split)

    @staticmethod
    def _check(capacity, overhead, warm, sizes, tags, labels, split):
        reference = _ReferenceAllocator(capacity, overhead)
        scanned = GPUMemoryAllocator(capacity, pool_overhead=overhead)
        single = GPUMemoryAllocator(capacity, pool_overhead=overhead)
        # A warm start: granted and freed requests leave levels behind
        # that the scan's first in-use total must read.
        for size, tag in warm:
            try:
                charged = reference.allocate(size, tag)
            except OutOfMemoryError:
                continue
            handles = [scanned.allocate(size, tag), single.allocate(size, tag)]
            reference.free(tag, charged)
            scanned.free(handles[0])
            single.free(handles[1])
        expected = _reference_trace(reference, sizes, tags, labels)
        # Two scans split anywhere read as one.
        cut = split % (len(sizes) + 1)
        got = _scanned_trace(scanned, sizes[:cut], tags[:cut], labels[:cut])
        if got is None:
            got = _scanned_trace(scanned, sizes[cut:], tags[cut:], labels[cut:])
        one_by_one = None
        for size, tag, label in zip(sizes, tags, labels):
            one_by_one = _scanned_trace(single, (size,), (tag,), (label,))
            if one_by_one is not None:
                break
        assert _outcome(got) == _outcome(expected), capacity
        assert _outcome(one_by_one) == _outcome(expected), capacity
        assert _allocator_state(scanned) == reference.state(), capacity
        assert _allocator_state(single) == reference.state(), capacity

    def test_a_negative_size_mid_trace_keeps_the_granted_prefix(self):
        tags = tuple(AllocationTag)
        sizes = (1.5, 0, 2**40, 1e300, -1.0)
        labels = ("a", "b", "c", "d", "e")
        reference = _ReferenceAllocator(math.inf, 1.25)
        expected = _reference_trace(reference, sizes, tags, labels)
        allocator = GPUMemoryAllocator(math.inf, pool_overhead=1.25)
        with pytest.raises(ValueError, match="cannot be negative") as raised:
            allocator.allocate_trace(sizes, tags, labels)
        assert str(raised.value) == str(expected)
        assert _allocator_state(allocator) == reference.state()
        assert allocator.snapshot().peak_by_tag[AllocationTag.WORKSPACE] == 1.25e300


def _capacities(plan):
    """The device, both boundaries (peak total and peak demand) and one
    ulp below each, and half the peak."""
    peak = plan.memory.peak_total
    demand = plan._unconstrained_replay()[1]
    return sorted(
        {
            plan.gpu.memory_bytes,
            peak,
            math.nextafter(peak, 0.0),
            demand,
            math.nextafter(demand, 0.0),
            peak / 2.0,
        }
    )


@pytest.mark.parametrize("model, framework", PANELS)
def test_fit_check_matches_a_fresh_replay(model, framework):
    tuner = Autotuner(model, framework)
    verdicts = []
    for spec_text in ["", *tuner.candidate_specs()]:
        plan = tuner._session.compile_transformed(
            tuner.batch_size, parse_transform_spec(spec_text)
        )
        for capacity in _capacities(plan):
            expected = _reference(plan, capacity)
            fits = not isinstance(expected, OutOfMemoryError)
            assert plan.fits(capacity) is fits, (spec_text, capacity)
            if fits:
                snapshot = plan.check_memory(capacity)
                assert snapshot.peak_by_tag == expected.peak_by_tag
                assert snapshot.peak_total == expected.peak_total
                assert plan._unconstrained_replay()[1] == expected.peak_demand
            else:
                with pytest.raises(OutOfMemoryError) as raised:
                    plan.check_memory(capacity)
                assert str(raised.value) == str(expected), (spec_text, capacity)
            verdicts.append(fits)
    # Both verdicts occur: half the peak never fits.
    assert True in verdicts and False in verdicts


def test_non_positive_capacity_is_rejected():
    plan = Autotuner("resnet-50", "mxnet")._session.compile(16)
    for capacity in (0, -1.0):
        with pytest.raises(ValueError):
            plan.fits(capacity)
        with pytest.raises(ValueError):
            plan.check_memory(capacity)
