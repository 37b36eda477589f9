"""Integration: the paper's 13 observations all hold on the simulator.

This is the repository's headline correctness gate — every numbered finding
in Section 4 of the paper must emerge from the simulated system, not be
hard-coded into it.
"""

import pytest

from repro.core import observations as obs
from repro.core.suite import standard_suite


@pytest.fixture(scope="module")
def suite():
    return standard_suite()


@pytest.fixture(scope="module")
def results(suite):
    return {result.number: result for result in obs.verify_all(suite)}


def test_all_thirteen_observations_present(results):
    assert sorted(results) == list(range(1, 14))


def test_results_are_memoized_per_gpu_and_returned_as_copies(suite, results):
    first = obs.verify_all(suite)
    first.clear()
    again = obs.verify_all(suite)
    assert [result.number for result in again] == list(range(1, 14))
    assert again[0] is results[1]


@pytest.mark.parametrize("number", range(1, 14))
def test_observation_holds(results, number):
    result = results[number]
    assert result.holds, f"Observation {number} failed: {result.evidence}"


def test_observation_titles_are_descriptive(results):
    for result in results.values():
        assert len(result.title) > 10
        assert result.evidence


def test_observation_11_range_matches_paper(results):
    """The paper reports feature maps at 62-89% of footprint; our span must
    sit inside a slightly widened band."""
    evidence = results[11].evidence
    # evidence like "feature-map share spans 62%-89%"
    import re

    numbers = [int(n) for n in re.findall(r"(\d+)%", evidence)]
    low, high = min(numbers), max(numbers)
    assert 55 <= low <= 70
    assert 80 <= high <= 93
