"""Unit tests for the tagged GPU memory allocator."""

import pytest

from repro.hardware.memory import (
    AllocationTag,
    GPUMemoryAllocator,
    OutOfMemoryError,
)

_MIB = 1024**2


@pytest.fixture
def allocator():
    return GPUMemoryAllocator(capacity_bytes=100 * _MIB)


class TestAllocation:
    def test_allocate_and_free_roundtrip(self, allocator):
        handle = allocator.allocate(10 * _MIB, AllocationTag.WEIGHTS)
        assert allocator.allocated_bytes == 10 * _MIB
        allocator.free(handle)
        assert allocator.allocated_bytes == 0

    def test_capacity_enforced(self, allocator):
        allocator.allocate(90 * _MIB, AllocationTag.FEATURE_MAPS)
        with pytest.raises(OutOfMemoryError, match="exceeds capacity"):
            allocator.allocate(20 * _MIB, AllocationTag.FEATURE_MAPS)

    def test_oom_message_names_tag_and_label(self, allocator):
        with pytest.raises(OutOfMemoryError, match="feature maps: conv1"):
            allocator.allocate(200 * _MIB, AllocationTag.FEATURE_MAPS, "conv1")

    def test_double_free_raises(self, allocator):
        handle = allocator.allocate(_MIB, AllocationTag.WORKSPACE)
        allocator.free(handle)
        with pytest.raises(KeyError):
            allocator.free(handle)

    def test_negative_allocation_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.allocate(-1, AllocationTag.WEIGHTS)

    def test_zero_byte_allocation_allowed(self, allocator):
        handle = allocator.allocate(0, AllocationTag.DYNAMIC)
        assert handle > 0

    def test_free_bytes(self, allocator):
        allocator.allocate(30 * _MIB, AllocationTag.WEIGHTS)
        assert allocator.free_bytes == 70 * _MIB


class TestPoolOverhead:
    def test_overhead_charged_against_capacity(self):
        allocator = GPUMemoryAllocator(100 * _MIB, pool_overhead=1.25)
        allocator.allocate(40 * _MIB, AllocationTag.WEIGHTS)
        assert allocator.allocated_bytes == pytest.approx(50 * _MIB)

    def test_overhead_can_cause_oom(self):
        tight = GPUMemoryAllocator(100 * _MIB, pool_overhead=1.25)
        with pytest.raises(OutOfMemoryError):
            tight.allocate(90 * _MIB, AllocationTag.FEATURE_MAPS)
        exact = GPUMemoryAllocator(100 * _MIB, pool_overhead=1.0)
        exact.allocate(90 * _MIB, AllocationTag.FEATURE_MAPS)

    def test_overhead_below_one_rejected(self):
        with pytest.raises(ValueError):
            GPUMemoryAllocator(_MIB, pool_overhead=0.9)


class TestPeakTracking:
    def test_peak_survives_frees(self, allocator):
        handle = allocator.allocate(50 * _MIB, AllocationTag.FEATURE_MAPS)
        allocator.free(handle)
        allocator.allocate(10 * _MIB, AllocationTag.FEATURE_MAPS)
        snapshot = allocator.snapshot()
        assert snapshot.peak_by_tag[AllocationTag.FEATURE_MAPS] == 50 * _MIB

    def test_peak_is_per_tag(self, allocator):
        allocator.allocate(10 * _MIB, AllocationTag.WEIGHTS)
        allocator.allocate(30 * _MIB, AllocationTag.FEATURE_MAPS)
        snapshot = allocator.snapshot()
        assert snapshot.peak_by_tag[AllocationTag.WEIGHTS] == 10 * _MIB
        assert snapshot.peak_by_tag[AllocationTag.FEATURE_MAPS] == 30 * _MIB

    def test_peak_total_tracks_simultaneous_maximum(self, allocator):
        first = allocator.allocate(40 * _MIB, AllocationTag.WEIGHTS)
        allocator.free(first)
        allocator.allocate(30 * _MIB, AllocationTag.WORKSPACE)
        assert allocator.snapshot().peak_total == 40 * _MIB

    def test_reset_peaks(self, allocator):
        handle = allocator.allocate(50 * _MIB, AllocationTag.FEATURE_MAPS)
        allocator.free(handle)
        allocator.reset_peaks()
        assert allocator.snapshot().peak_total == 0
        assert allocator.peak_demand == 0

    def test_peak_demand_is_the_largest_granted_in_use_plus_charged(self):
        allocator = GPUMemoryAllocator(100 * _MIB, pool_overhead=1.5)
        first = allocator.allocate(20 * _MIB, AllocationTag.WEIGHTS)
        allocator.allocate(10 * _MIB, AllocationTag.WORKSPACE)
        allocator.free(first)
        allocator.allocate(2 * _MIB, AllocationTag.WORKSPACE)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(80 * _MIB, AllocationTag.FEATURE_MAPS)
        # 30 + 15 MiB charged together; the refused request never counts.
        assert allocator.peak_demand == 45 * _MIB

    def test_feature_map_fraction(self, allocator):
        allocator.allocate(75 * _MIB, AllocationTag.FEATURE_MAPS)
        allocator.allocate(25 * _MIB, AllocationTag.WEIGHTS)
        snapshot = allocator.snapshot()
        assert snapshot.feature_map_fraction == pytest.approx(0.75)
        assert snapshot.fraction(AllocationTag.WEIGHTS) == pytest.approx(0.25)

    def test_fraction_of_empty_snapshot_is_zero(self, allocator):
        assert allocator.snapshot().feature_map_fraction == 0.0


class TestTracePin:
    """A hand-made three-tag trace whose values make float summation order
    visible: the in-use total is always the sum over tags in
    :class:`AllocationTag` order, never a running total in allocation
    order (which would give a peak of 1499463.68 here)."""

    def test_peaks_and_oom_message(self):
        allocator = GPUMemoryAllocator(10 * _MIB, pool_overhead=1.1)
        allocator.allocate(0.3 * _MIB, AllocationTag.FEATURE_MAPS, "embed")
        allocator.allocate(0.1 * _MIB, AllocationTag.WEIGHTS, "fc")
        workspace = allocator.allocate(0.7 * _MIB, AllocationTag.WORKSPACE, "conv1")
        allocator.allocate(0.2 * _MIB, AllocationTag.FEATURE_MAPS, "fc")
        snapshot = allocator.snapshot()
        assert snapshot.peak_total == 1499463.6800000002
        assert snapshot.peak_by_tag == {
            AllocationTag.WEIGHTS: 115343.36000000002,
            AllocationTag.WEIGHT_GRADIENTS: 0.0,
            AllocationTag.FEATURE_MAPS: 576716.8,
            AllocationTag.WORKSPACE: 807403.52,
            AllocationTag.DYNAMIC: 0.0,
        }

        allocator.free(workspace)
        allocator.allocate(5 * _MIB, AllocationTag.WORKSPACE, "conv2")
        with pytest.raises(OutOfMemoryError) as raised:
            allocator.allocate(4 * _MIB, AllocationTag.FEATURE_MAPS, "fc")
        assert str(raised.value) == (
            "allocating 4.4 MiB (feature maps: fc) exceeds capacity: "
            "6.2 MiB in use of 10.0 MiB"
        )
        snapshot = allocator.snapshot()
        assert snapshot.peak_total == 6459228.16
        assert snapshot.peak_by_tag[AllocationTag.WORKSPACE] == 5767168.0
        assert snapshot.peak_by_tag[AllocationTag.FEATURE_MAPS] == 576716.8


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GPUMemoryAllocator(0)
