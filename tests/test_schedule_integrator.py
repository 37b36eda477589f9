"""Property and metamorphic tests for the schedule integrator.

Seeded random draws over (model, base batch, schedule) check the
invariants every consumer leans on:

- **monotonicity** — growth schedules never shrink the batch;
- **conservation** — segments tile ``[0, total_samples]`` exactly, with
  contiguous boundaries and span-equal sample accounting;
- **affine invariance** — plateau triggers see only gap *fractions*, so
  rescaling the curve's metric axis never moves a boundary (metamorphic);
- **closed form** — arbitrarily deep targets (10^12+ samples) integrate
  in bounded work, and the closed-form curve inverse ``samples_to``
  agrees with a reference time bisection.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.schedule.integrator import (
    MAX_SEGMENTS,
    Segment,
    build_segments,
    integrate_schedule,
    tiling_violation,
)
from repro.schedule.spec import (
    GeometricSchedule,
    GnsSchedule,
    PlateauSchedule,
    parse_schedule_spec,
)
from repro.training.convergence import FIG2_MODELS

REL_TOL = 1e-9

_MODELS = tuple(sorted(FIG2_MODELS))


def _random_adaptive(rng: random.Random, base_batch: int):
    ceiling = base_batch * rng.choice((1, 2, 4, 8, 16))
    kind = rng.choice(("geometric", "plateau", "gns"))
    if kind == "geometric":
        return GeometricSchedule(
            factor=rng.choice((1.0, 1.5, 2.0, 3.0)),
            every=rng.randint(1, 200),
            ceiling=ceiling,
        )
    if kind == "plateau":
        return PlateauSchedule(
            factor=rng.choice((1.5, 2.0, 4.0)),
            patience=rng.randint(1, 200),
            ceiling=ceiling,
        )
    return GnsSchedule(ceiling=ceiling, every=rng.randint(1, 200))


def _assert_conserves(segments, total_samples: float) -> None:
    assert segments[0].start_samples == 0.0
    for before, after in zip(segments, segments[1:]):
        assert after.start_samples == before.end_samples
        assert after.index == before.index + 1
    assert segments[-1].end_samples == float(total_samples)
    tiled = math.fsum(segment.samples for segment in segments)
    assert abs(tiled - total_samples) <= REL_TOL * max(total_samples, 1.0)


class TestConservationProperty:
    def test_random_integrations_tile_exactly(self):
        rng = random.Random(1234)
        for _ in range(150):
            model = rng.choice(_MODELS)
            base = rng.choice((4, 8, 16, 32, 64))
            schedule = _random_adaptive(rng, base)
            integration = integrate_schedule(model, schedule, base)
            assert len(integration.segments) <= MAX_SEGMENTS
            _assert_conserves(integration.segments, integration.total_samples)

    def test_tiling_violation_names_the_first_broken_boundary(self):
        integration = integrate_schedule("resnet-50", "gns:ceiling=256", 32)
        assert tiling_violation(integration) is None
        first, *rest = integration.segments
        leaky = dataclasses.replace(
            integration,
            segments=(
                dataclasses.replace(first, end_samples=first.end_samples - 1.0),
                *rest,
            ),
        )
        assert tiling_violation(leaky) == (
            f"segment 1 starts at {rest[0].start_samples!r} but segment 0 "
            f"ends at {first.end_samples - 1.0!r}"
        )

    def test_fixed_and_none_produce_the_single_segment(self):
        for schedule in (None, parse_schedule_spec("fixed")):
            segments = build_segments(schedule, 32, 1e6)
            assert segments == (Segment(0, 32, 0.0, 1e6),)

    def test_total_steps_sums_per_segment_steps(self):
        integration = integrate_schedule("resnet-50", "gns:ceiling=256", 32)
        assert integration.total_steps == pytest.approx(
            math.fsum(s.samples / s.batch_size for s in integration.segments)
        )


class TestMonotonicityProperty:
    def test_growth_schedules_never_shrink_the_batch(self):
        rng = random.Random(4321)
        for _ in range(150):
            model = rng.choice(_MODELS)
            base = rng.choice((4, 8, 16, 32, 64))
            schedule = _random_adaptive(rng, base)
            integration = integrate_schedule(model, schedule, base)
            batches = [s.batch_size for s in integration.segments]
            assert batches[0] == base
            for before, after in zip(batches, batches[1:]):
                assert after >= before
            assert batches[-1] <= max(schedule.ceiling, base)

    def test_ceiling_at_or_below_base_freezes_the_batch(self):
        for spec in ("geometric:ceiling=32", "gns:ceiling=32", "gns:ceiling=8"):
            integration = integrate_schedule("resnet-50", spec, 32)
            assert [s.batch_size for s in integration.segments] == [32]

    def test_factor_one_never_grows(self):
        integration = integrate_schedule(
            "resnet-50", "geometric:factor=1,ceiling=1024", 32
        )
        assert [s.batch_size for s in integration.segments] == [32]

    def test_distinct_batches_in_first_use_order(self):
        integration = integrate_schedule("resnet-50", "gns:ceiling=256", 32)
        batches = integration.batch_sizes
        assert batches == tuple(sorted(set(batches)))
        assert batches[0] == 32
        assert integration.final_batch == batches[-1]


class TestPlateauAffineInvariance:
    """Metamorphic relation: the plateau trigger sees only gap fractions,
    so an affine remap ``metric -> a*metric + b`` of the curve's axis must
    reproduce the exact same segment boundaries."""

    @pytest.mark.parametrize("scale,shift", [(100.0, 0.0), (0.01, -5.0), (3.0, 40.0)])
    def test_rescaled_curve_keeps_boundaries(self, scale, shift):
        rng = random.Random(777)
        for _ in range(40):
            model_key = rng.choice(_MODELS)
            base = rng.choice((8, 16, 32))
            schedule = PlateauSchedule(
                factor=2.0, patience=rng.randint(5, 100), ceiling=base * 8
            )
            curve = FIG2_MODELS[model_key]
            rescaled = dataclasses.replace(
                curve,
                initial=scale * curve.initial + shift,
                final=scale * curve.final + shift,
            )
            total = curve.samples_to_fraction(0.95)
            original = build_segments(schedule, base, total, model=curve)
            remapped = build_segments(schedule, base, total, model=rescaled)
            assert remapped == original

    def test_trigger_fires_at_the_same_fraction_not_value(self):
        # Sanity leg of the metamorphic test: the rescaled curve reports
        # different metric *values* but identical gap fractions.
        curve = FIG2_MODELS["resnet-50"]
        rescaled = dataclasses.replace(
            curve, initial=curve.initial / 100.0, final=curve.final / 100.0
        )
        for samples in (0.0, 1e5, 5e6, 9e8):
            assert rescaled.value_at(samples) != curve.value_at(samples) or samples == 0
            assert rescaled.fraction_at(samples) == pytest.approx(
                curve.fraction_at(samples), rel=1e-12
            )


class TestBuildSegmentsValidation:
    def test_adaptive_without_a_model_is_an_error(self):
        with pytest.raises(ValueError, match="convergence curve"):
            build_segments(GnsSchedule(ceiling=64), 32, 1e6)

    def test_bad_base_batch_and_negative_totals_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            build_segments(None, 0, 1e6)
        with pytest.raises(ValueError, match="cannot be negative"):
            build_segments(None, 32, -1.0)

    def test_unknown_model_names_the_known_curves(self):
        with pytest.raises(KeyError, match="deep-speech-2"):
            integrate_schedule("deep-speech-2", "gns:ceiling=64", 16)

    def test_segment_rejects_inverted_span(self):
        with pytest.raises(ValueError, match="end before it starts"):
            Segment(0, 32, 10.0, 5.0)


def _bisect_time_to_metric(model, throughput: float, target: float) -> float:
    """Reference: the 200-step time bisection the time to a metric used
    before the curve was inverted in closed form."""
    low, high = 0.0, 1.0
    while model.value_at(high * throughput) < target:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if model.value_at(mid * throughput) < target:
            low = mid
        else:
            high = mid
    return high


class TestTimeToMetricClosedForm:
    @pytest.mark.parametrize("model_key", _MODELS)
    def test_agrees_with_reference_bisection(self, model_key):
        curve = FIG2_MODELS[model_key]
        for fraction in (0.25, 0.5, 0.9, 0.95):
            target = curve.initial + fraction * (curve.final - curve.initial)
            for throughput in (1.0, 37.5, 1000.0, 2.5e5):
                seconds = curve.samples_to(target) / throughput
                reference = _bisect_time_to_metric(curve, throughput, target)
                assert seconds == pytest.approx(reference, rel=1e-13, abs=0.0)


class TestTimeToMetricEdgeCases:
    def test_unreachable_target_raises(self):
        beyond = FIG2_MODELS["resnet-50"].final + 1.0
        with pytest.raises(ValueError, match="outside achievable range"):
            FIG2_MODELS["resnet-50"].samples_to(beyond)

    def test_asymptote_target_raises_in_closed_form(self):
        # "Unreachable" is analytic: the curve inverse itself rejects the
        # asymptote.
        with pytest.raises(ValueError, match="asymptote"):
            FIG2_MODELS["resnet-50"].samples_to(FIG2_MODELS["resnet-50"].final)

    def test_zero_length_run_is_one_zero_segment(self):
        segments = build_segments(
            GnsSchedule(ceiling=64), 32, 0.0, model=FIG2_MODELS["resnet-50"]
        )
        assert len(segments) == 1
        assert segments[0].samples == 0.0
        assert segments[0].steps == 0.0

    def test_huge_sample_counts_resolve_in_closed_form(self):
        # A target 1e-9 shy of the asymptote needs ~10^13 samples; the
        # integration must stay bounded (segments capped, no stepping).
        curve = FIG2_MODELS["resnet-50"]
        integration = integrate_schedule(
            "resnet-50",
            "gns:ceiling=1024,every=1",
            4,
            target_fraction=1.0 - 1e-9,
        )
        assert integration.total_samples > 1e12
        assert len(integration.segments) <= MAX_SEGMENTS
        _assert_conserves(integration.segments, integration.total_samples)
        assert math.isfinite(integration.total_steps)

    def test_bad_target_fraction_rejected(self):
        with pytest.raises(ValueError, match="target fraction"):
            integrate_schedule("resnet-50", "gns:ceiling=64", 32, target_fraction=1.0)
