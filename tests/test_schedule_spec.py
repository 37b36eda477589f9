"""The schedule mini-language: parsing, canonicalization, round-trips.

The canonical text is a cache dimension, so its stability is load-bearing:
``parse_schedule_spec(repr(s)) == s`` must hold for every constructible
schedule (checked here as a seeded-random property), and every spelling
of "don't change the batch" must normalize to the empty string.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.scenario import parse_scenario
from repro.schedule.spec import (
    FixedSchedule,
    GeometricSchedule,
    GnsSchedule,
    PlateauSchedule,
    ScheduleSpecError,
    parse_schedule_spec,
    schedule_names,
)


def _canonical(text):
    """Canonical form of a spec: defaults explicit, floats compact; the
    empty spec stays empty."""
    schedule = parse_schedule_spec(text)
    return "" if schedule is None else schedule.canonical


def normalized_schedule(text):
    """The schedule's cache-dimension text: every fixed spelling is ""."""
    return parse_scenario(schedule=text or "").canonical["schedule"]


class TestParsing:
    def test_none_and_blank_mean_no_schedule(self):
        for text in (None, "", "   ", "\t"):
            assert parse_schedule_spec(text) is None

    def test_fixed_parses_to_the_fixed_schedule(self):
        schedule = parse_schedule_spec("fixed")
        assert isinstance(schedule, FixedSchedule)
        assert schedule.is_fixed

    def test_defaults_are_made_explicit(self):
        schedule = parse_schedule_spec("geometric")
        assert schedule == GeometricSchedule(factor=2.0, every=50, ceiling=1024)
        assert schedule.canonical == "geometric:factor=2,every=50,ceiling=1024"

    def test_arguments_override_defaults(self):
        schedule = parse_schedule_spec("plateau:patience=80,factor=3")
        assert schedule == PlateauSchedule(factor=3.0, patience=80, ceiling=1024)

    def test_aliases_and_case_and_dashes(self):
        assert parse_schedule_spec("GEO:factor=2") == parse_schedule_spec(
            "geometric:factor=2"
        )
        assert parse_schedule_spec("noise:ceiling=64") == GnsSchedule(
            ceiling=64, every=50
        )
        assert parse_schedule_spec("constant").is_fixed

    def test_whitespace_around_tokens_is_tolerated(self):
        assert parse_schedule_spec(
            " geometric : factor = 2 , every = 10 "
        ) == GeometricSchedule(factor=2.0, every=10, ceiling=1024)

    def test_unknown_schedule_lists_known_names(self):
        with pytest.raises(ScheduleSpecError, match="known schedules"):
            parse_schedule_spec("bogus")
        assert schedule_names() == ("fixed", "geometric", "gns", "plateau")

    def test_unknown_argument_rejected(self):
        with pytest.raises(ScheduleSpecError, match="takes no argument"):
            parse_schedule_spec("geometric:patience=5")

    def test_duplicate_argument_rejected(self):
        with pytest.raises(ScheduleSpecError, match="duplicate argument"):
            parse_schedule_spec("geometric:factor=2,factor=3")

    def test_malformed_argument_rejected(self):
        for text in ("geometric:factor", "geometric:=2", "geometric:factor=,"):
            with pytest.raises(ScheduleSpecError):
                parse_schedule_spec(text)

    def test_stray_comma_rejected(self):
        with pytest.raises(ScheduleSpecError, match="stray comma"):
            parse_schedule_spec("geometric:factor=2,,every=10")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ScheduleSpecError, match="bad value"):
            parse_schedule_spec("geometric:every=banana")

    def test_gns_requires_a_ceiling(self):
        with pytest.raises(ScheduleSpecError, match="requires argument 'ceiling'"):
            parse_schedule_spec("gns")
        assert parse_schedule_spec("gns:ceiling=256") == GnsSchedule(
            ceiling=256, every=50
        )


class TestValidation:
    def test_factor_below_one_rejected(self):
        # Schedules never shrink the batch — a shrinking schedule would
        # break the monotonicity property the integrator relies on.
        with pytest.raises(ScheduleSpecError, match="never shrink"):
            GeometricSchedule(factor=0.5)
        with pytest.raises(ScheduleSpecError, match="never shrink"):
            parse_schedule_spec("plateau:factor=0.9")

    def test_non_positive_integers_rejected(self):
        with pytest.raises(ScheduleSpecError):
            GeometricSchedule(every=0)
        with pytest.raises(ScheduleSpecError):
            PlateauSchedule(patience=-1)
        with pytest.raises(ScheduleSpecError):
            GnsSchedule(ceiling=0)

    def test_bools_are_not_integers(self):
        with pytest.raises(ScheduleSpecError):
            GnsSchedule(ceiling=True)


class TestCanonicalForm:
    def test_repr_is_the_canonical_text(self):
        schedule = GnsSchedule(ceiling=64, every=50)
        assert repr(schedule) == schedule.canonical == "gns:ceiling=64,every=50"

    def test_canonical_spec_makes_defaults_explicit(self):
        assert (
            _canonical("geo")
            == "geometric:factor=2,every=50,ceiling=1024"
        )
        assert _canonical("") == ""
        assert _canonical(None) == ""

    def test_float_factors_format_compactly(self):
        assert (
            parse_schedule_spec("geometric:factor=1.5").canonical
            == "geometric:factor=1.5,every=50,ceiling=1024"
        )
        # An integral float renders without the trailing .0 ({:g}).
        assert "factor=2," in parse_schedule_spec("geometric:factor=2.0").canonical

    def test_every_fixed_spelling_normalizes_to_empty(self):
        # The cache-dimension form: fixed is byte-invisible.
        for text in ("", None, "fixed", "FIXED", "constant", " fixed "):
            assert normalized_schedule(text) == ""

    def test_adaptive_spellings_normalize_to_canonical(self):
        assert (
            normalized_schedule("noise:ceiling=64")
            == "gns:ceiling=64,every=50"
        )


def _random_schedule(rng: random.Random):
    kind = rng.choice(("fixed", "geometric", "plateau", "gns"))
    if kind == "fixed":
        return FixedSchedule()
    factor = rng.choice((1.0, 1.25, 1.5, 2.0, 3.0, 7.5))
    every = rng.randint(1, 500)
    ceiling = rng.randint(1, 4096)
    if kind == "geometric":
        return GeometricSchedule(factor=factor, every=every, ceiling=ceiling)
    if kind == "plateau":
        return PlateauSchedule(factor=factor, patience=every, ceiling=ceiling)
    return GnsSchedule(ceiling=ceiling, every=every)


class TestRoundTripProperty:
    def test_parse_of_repr_is_identity_over_random_schedules(self):
        rng = random.Random(20260807)
        for _ in range(300):
            schedule = _random_schedule(rng)
            assert parse_schedule_spec(repr(schedule)) == schedule

    def test_canonicalization_is_idempotent_over_random_schedules(self):
        rng = random.Random(99)
        for _ in range(300):
            schedule = _random_schedule(rng)
            canonical = _canonical(schedule.canonical)
            assert canonical == schedule.canonical
            assert _canonical(canonical) == canonical

    def test_normalization_is_idempotent_over_random_schedules(self):
        rng = random.Random(7)
        for _ in range(300):
            text = normalized_schedule(repr(_random_schedule(rng)))
            assert normalized_schedule(text) == text
