"""Differential test of the plan's one-comparison fit check.

``CompiledPlan.fits``/``check_memory`` compare the capacity against the
peak demand of one unconstrained replay and replay again only to raise.
Every tune candidate of every paper-grid panel, at four capacities
around its boundary, must answer exactly as a replay of its allocation
trace through a fresh allocator: the same verdict, the same snapshot
and the same out-of-memory message.
"""

import math

import pytest

from repro.experiments.common import SWEEP_PANELS
from repro.hardware.memory import GPUMemoryAllocator, OutOfMemoryError
from repro.plan.pipeline import parse_transform_spec
from repro.tune.search import Autotuner

PANELS = [
    (model, framework) for model, frameworks in SWEEP_PANELS for framework in frameworks
]


def _reference(plan, capacity):
    """The snapshot, or the error, of a fresh allocator replaying the
    plan's allocation trace at ``capacity``."""
    allocator = GPUMemoryAllocator(capacity, pool_overhead=plan.framework.pool_overhead)
    try:
        for record in plan.allocations:
            allocator.allocate(record.num_bytes, record.tag, record.label)
    except OutOfMemoryError as error:
        return error
    return allocator.snapshot()


def _capacities(plan):
    peak = plan.memory.peak_total
    return (plan.gpu.memory_bytes, peak, math.nextafter(peak, 0.0), peak / 2.0)


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
