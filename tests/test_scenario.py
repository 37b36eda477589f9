"""The ``Scenario`` value: one parse, one key shape, one payload path.

- parsing is memoized per text triple, and each dimension's canonical
  text is spelling-independent (fault fields in any order, transform
  stages in any order or alias, every ``fixed`` spelling empty);
- :meth:`Scenario.validate` is the one place dimension combinations are
  rejected: faults with anything else, an adaptive schedule on a model
  without a convergence curve;
- a point whose scenario has an empty sub-dimension is the point without
  it: same key, same payload bytes;
- transforms + adaptive schedule compose, deterministically across job
  counts and cache temperature, into the schedule aggregation over the
  transformed plans.
"""

from __future__ import annotations

import json

import pytest

from repro.conformance.generator import generate_cases
from repro.engine import PointSpec, SweepEngine, point_key, write_grid_jsonl
from repro.engine.keys import canonical_json
from repro.engine.merge import point_to_payload
from repro.engine.scenario import ScenarioError, parse_scenario
from repro.faults.spec import FaultSpecError, parse_fault_spec
from repro.observability import telemetry
from repro.plan.pipeline import TransformSpecError, parse_transform_spec
from repro.schedule.integrator import integrate_schedule
from repro.schedule.spec import ScheduleSpecError
from repro.training.session import TrainingSession

FAULTS = "cluster=2M1G:infiniband; steps=12; crash=1@5"
ADAPTIVE = "gns:ceiling=64,every=50"

#: The composed point: a tuned RNN pipeline under a growing batch.
COMPOSED_TRANSFORMS = "fused_rnn"
COMPOSED_SCHEDULE = "gns:ceiling=256"
COMPOSED_BATCHES = (4, 8, 16)  # 16 grows past the P4000: one OOM row


class TestParsing:
    def test_parse_is_memoized_per_text_triple(self):
        assert parse_scenario("", "fp16", ADAPTIVE) is parse_scenario(
            "", "fp16", ADAPTIVE
        )

    def test_plain_scenario_uses_no_dimension(self):
        scenario = parse_scenario()
        assert scenario.faults is None
        assert not scenario.pipeline
        assert scenario.schedule is None
        assert scenario.dimensions == ()
        assert dict(scenario.canonical) == {
            "faults": "",
            "transforms": "",
            "schedule": "",
        }

    def test_canonical_text_is_spelling_independent(self):
        a = parse_scenario("steps=60; crash=1@30", "fp16+FusedRNN", "noise:ceiling=64")
        b = parse_scenario("crash=1@30;steps=60", "fused_rnn+fp16_storage", ADAPTIVE)
        assert a.canonical == b.canonical
        assert a.canonical["transforms"] == "fused_rnn+fp16"
        assert a.canonical["schedule"] == "gns:ceiling=64,every=50"

    def test_every_fixed_spelling_is_no_schedule(self):
        for spelling in ("", "fixed", "FIXED", "constant", " fixed "):
            assert parse_scenario(schedule=spelling).schedule is None

    @pytest.mark.parametrize(
        "kwargs,error",
        [
            ({"faults": "crash=x"}, FaultSpecError),
            ({"transforms": "bogus"}, TransformSpecError),
            ({"schedule": "gns:ceiling=banana"}, ScheduleSpecError),
        ],
    )
    def test_each_dimension_raises_its_own_typed_error(self, kwargs, error):
        with pytest.raises(error):
            parse_scenario(**kwargs)

    def test_numeric_arguments_never_collapse_onto_one_key(self):
        texts = ("offload:0.1234567", "offload:0.1234568", "offload:0.00001")
        canonical = [parse_transform_spec(text).canonical for text in texts]
        assert canonical == list(texts)
        keys = {point_key("nmt", "tensorflow", 16, transforms=text) for text in texts}
        assert len(keys) == len(texts)


class TestValidate:
    @pytest.mark.parametrize(
        "transforms,schedule,names",
        [
            ("fp16", "", "transforms"),
            ("", ADAPTIVE, "schedule"),
            ("fp16", ADAPTIVE, "transforms or schedule"),
        ],
    )
    def test_faults_combine_with_nothing(self, transforms, schedule, names):
        with pytest.raises(ScenarioError, match=f"faults cannot combine with {names}:"):
            parse_scenario(FAULTS, transforms, schedule).validate("resnet-50")

    def test_empty_sub_dimensions_never_trip_the_fault_rule(self):
        parse_scenario(FAULTS, " ", "fixed").validate("resnet-50")

    def test_transforms_and_adaptive_schedule_are_valid(self):
        parse_scenario("", "fused_rnn+fp16", ADAPTIVE).validate("nmt")

    def test_adaptive_schedule_needs_a_convergence_curve(self):
        with pytest.raises(ScenarioError, match="convergence curve"):
            parse_scenario(schedule=ADAPTIVE).validate("deep-speech-2")
        parse_scenario(schedule="fixed").validate("deep-speech-2")


class TestFaultCanonicalForm:
    def test_fields_take_a_fixed_order_with_defaults_explicit(self):
        scenario = parse_fault_spec("crash=1@30;steps=60")
        assert scenario.canonical == parse_fault_spec("steps=60; crash=1@30").canonical
        assert scenario.canonical == (
            "cluster=2M1G:infiniband 100gb; steps=60; seed=0; crash=1@30"
        )

    def test_windows_and_degrade_components_normalize(self):
        a = parse_fault_spec("straggler=0x1.50@4:; degrade=loss0.1@2:6")
        b = parse_fault_spec("straggler=0x1.5@4; degrade=bw1+loss0.1+lat0@2:6")
        assert a.canonical == b.canonical
        assert a.canonical.endswith(
            "straggler=0x1.5@4; degrade=bw1+loss0.1+lat0@2:6"
        )

    def test_single_machine_clusters_drop_the_unused_fabric(self):
        assert parse_fault_spec("cluster=1M2G:1gbe").canonical == (
            parse_fault_spec("cluster=1M2G").canonical
        )

    def test_canonical_round_trips_over_fuzzed_scenarios(self):
        texts = {
            case.spec.faults
            for seed in (7, 11, 13)
            for case in generate_cases(seed, 120)
            if case.spec.faults
        }
        assert len(texts) >= 30
        for text in sorted(texts):
            scenario = parse_fault_spec(text)
            reparsed = parse_fault_spec(scenario.canonical)
            assert reparsed.canonical == scenario.canonical
            assert reparsed == scenario


def _key_and_bytes(engine, spec):
    [point] = engine.run_grid([spec])
    return engine._key_for(spec), canonical_json(point_to_payload(point))


class TestEmptySubDimension:
    """A composed point with an empty sub-dimension is the point without
    it: same cache key, same payload bytes."""

    @pytest.mark.parametrize(
        "composed,single",
        [
            (
                PointSpec("nmt", "tensorflow", 16, "", "fused_rnn", "fixed"),
                PointSpec("nmt", "tensorflow", 16, "", "fused_rnn"),
            ),
            (
                PointSpec("nmt", "tensorflow", 16, "", " ", ADAPTIVE),
                PointSpec("nmt", "tensorflow", 16, schedule=ADAPTIVE),
            ),
            (
                PointSpec("resnet-50", "mxnet", 8, FAULTS, "", "constant"),
                PointSpec("resnet-50", "mxnet", 8, FAULTS),
            ),
            (
                PointSpec("resnet-50", "mxnet", 16, "", "", "fixed"),
                PointSpec("resnet-50", "mxnet", 16),
            ),
        ],
    )
    def test_key_and_payload_bytes_match(self, composed, single):
        engine = SweepEngine(jobs=1, cache=None)
        assert _key_and_bytes(engine, composed) == _key_and_bytes(engine, single)


def _composed_grid():
    return [
        PointSpec("nmt", "tensorflow", batch, "", COMPOSED_TRANSFORMS, COMPOSED_SCHEDULE)
        for batch in COMPOSED_BATCHES
    ]


def _export(tmp_path, name, points):
    path = tmp_path / f"{name}.jsonl"
    write_grid_jsonl(str(path), _composed_grid(), points)
    return path.read_bytes()


def _aggregated_metrics(batch):
    """The schedule aggregation computed by hand over the session's
    transformed plans (compile_transformed + memory check + execute)."""
    session = TrainingSession("nmt", "tensorflow")
    pipeline = parse_transform_spec(COMPOSED_TRANSFORMS)
    integration = integrate_schedule("nmt", COMPOSED_SCHEDULE, batch)
    profiles = {}
    for segment_batch in integration.batch_sizes:
        plan = session.compile_transformed(segment_batch, pipeline)
        memory = plan.check_memory(session.gpu.memory_bytes)
        profiles[segment_batch] = session.execute_plan(
            plan, memory=memory, display_name=session.spec.display_name
        )
    time = steps = gpu = fp32 = cpu = 0.0
    for segment in integration.segments:
        if segment.samples == 0.0:
            continue
        profile = profiles[segment.batch_size]
        seconds = segment.samples / profile.throughput
        time += seconds
        steps += segment.steps
        gpu += profile.gpu_utilization * seconds
        fp32 += profile.fp32_utilization * seconds
        cpu += profile.cpu_utilization * seconds
    return {
        "throughput": integration.total_samples / time,
        "gpu_utilization": gpu / time,
        "fp32_utilization": fp32 / time,
        "cpu_utilization": cpu / time,
        "iteration_time_s": time / steps,
        "batch_size": batch,
    }, len(integration.batch_sizes)


class TestComposedTransformsAndSchedule:
    @pytest.fixture(scope="class")
    def reference_bytes(self, tmp_path_factory):
        points = SweepEngine(jobs=1, cache=None).run_grid(_composed_grid())
        return _export(tmp_path_factory.mktemp("composed"), "serial", points)

    def test_jobs2_and_warm_cache_are_byte_identical(self, reference_bytes, tmp_path):
        parallel = SweepEngine(jobs=2, cache=None).run_grid(_composed_grid())
        assert _export(tmp_path, "jobs2", parallel) == reference_bytes
        cache = str(tmp_path / "cache")
        SweepEngine(jobs=2, cache=cache).run_grid(_composed_grid())
        warm = SweepEngine(jobs=1, cache=cache)
        warm_points = warm.run_grid(_composed_grid())
        assert warm.stats.points_computed == 0
        assert _export(tmp_path, "warm", warm_points) == reference_bytes

    def test_records_carry_both_canonical_texts(self, reference_bytes):
        rows = [json.loads(line) for line in reference_bytes.decode().splitlines()]
        assert [row["oom"] for row in rows] == [False, False, True]
        for row in rows:
            assert row["transforms"] == "fused_rnn"
            assert row["schedule"] == "gns:ceiling=256,every=50"
            assert "faults" not in row

    def test_payload_is_the_aggregation_over_transformed_profiles(self):
        [point] = SweepEngine(jobs=1, cache=None).run_grid([_composed_grid()[1]])
        expected, segment_batches = _aggregated_metrics(8)
        assert segment_batches > 1
        metrics = point_to_payload(point)["metrics"]
        assert {name: metrics[name] for name in expected} == expected

    def test_composed_key_differs_from_each_single_dimension(self):
        engine = SweepEngine(jobs=1, cache=None)
        composed = _composed_grid()[0]
        keys = {
            engine._key_for(composed),
            engine._key_for(PointSpec("nmt", "tensorflow", 4, transforms=COMPOSED_TRANSFORMS)),
            engine._key_for(PointSpec("nmt", "tensorflow", 4, schedule=COMPOSED_SCHEDULE)),
        }
        assert len(keys) == 3


class TestOnePayloadPath:
    def test_transformed_point_records_telemetry_like_a_plain_one(self):
        engine = SweepEngine(jobs=1, cache=None)
        with telemetry() as run:
            engine.run_grid([PointSpec("nmt", "tensorflow", 16, transforms="fp16")])
        point = run.tracer.roots[0].find("engine.point")
        assert point.find("session.run_iteration") is not None
        snap = run.metrics.snapshot()
        assert snap["memory_peak_total_bytes"] > 0
        assert snap["kernels_issued_total"] > 0
