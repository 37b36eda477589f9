"""The compiled execution-plan layer: compilation, caching, and the views
every consumer reads (timeline, memory trace, gradient schedule)."""

import pytest

from repro.hardware.memory import AllocationTag, OutOfMemoryError
from repro.observability.runner import telemetry
from repro.plan import PlanCache, compile_graph
from repro.plan.cache import CAPACITY
from repro.plan.executor import replay
from repro.training.session import TrainingSession


@pytest.fixture(scope="module")
def resnet_session():
    return TrainingSession("resnet-50", "mxnet")


@pytest.fixture(scope="module")
def resnet_plan(resnet_session):
    return resnet_session.compile(16)


@pytest.fixture
def recorded_timeline_objects(monkeypatch):
    """Names of every :class:`TimelineEvent` and :class:`Gap` constructed
    while the test runs."""
    import repro.plan.executor as executor

    built = []

    def counting(cls):
        def construct(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)

        return construct

    monkeypatch.setattr(executor, "TimelineEvent", counting(executor.TimelineEvent))
    monkeypatch.setattr(executor, "Gap", counting(executor.Gap))
    return built


class TestCompilation:
    def test_compile_is_deterministic_across_sessions(self):
        first = TrainingSession("resnet-50", "mxnet").compile(16)
        second = TrainingSession("resnet-50", "mxnet").compile(16)
        assert first.key == second.key
        assert first.total_flops == second.total_flops
        assert first.makespan_s == second.makespan_s
        assert first.gpu_busy_s == second.gpu_busy_s
        assert first.dispatch_cpu_s == second.dispatch_cpu_s
        assert [t.duration_s for t in first.timings] == [
            t.duration_s for t in second.timings
        ]
        assert first.allocations == second.allocations

    def test_kernel_stream_structure(self, resnet_session, resnet_plan):
        graph = resnet_plan.graph
        weighted = sum(1 for layer in graph.layers if layer.weight_elements > 0)
        assert len(resnet_plan.kernels) == 1 + len(graph.iteration_kernels()) + weighted
        assert "memcpy" in resnet_plan.kernels[0].name
        assert len(resnet_plan.timings) == len(resnet_plan.kernels)

    def test_total_flops_matches_stream_order_sum(self, resnet_plan):
        assert resnet_plan.total_flops == sum(
            t.kernel.flops for t in resnet_plan.timings
        )

    def test_execution_replay_matches_timeline(self, resnet_plan):
        execution = resnet_plan.execution
        replayed = replay(execution.durations, execution.host_syncs, resnet_plan.framework)
        assert replayed == resnet_plan.makespan_s
        assert resnet_plan.timeline.makespan_s == resnet_plan.makespan_s
        assert [event.end_s for event in resnet_plan.timeline.events] == [
            end for _issued, end in execution.record()[1]
        ]

    def test_paper_grid_sweep_records_no_timeline(self, recorded_timeline_objects):
        """Compiling and profiling every paper-grid point reads only the
        replay's aggregates: no event or gap is ever constructed."""
        from repro.engine.executor import SweepEngine
        from repro.experiments.common import SWEEP_PANELS

        engine = SweepEngine(jobs=1)
        points = [
            point
            for model, frameworks in SWEEP_PANELS
            for framework in frameworks
            for point in engine.sweep(model, framework)
        ]
        assert engine.stats.points_computed == len(points) > 50
        assert recorded_timeline_objects == []

    def test_faulted_run_records_no_timeline(self, recorded_timeline_objects):
        """Straggler rebalancing and elastic restarts read the gradient
        schedule, which comes from recorded end times, not events."""
        from repro.faults.spec import parse_fault_spec
        from repro.faults.trainer import FaultTolerantTrainer

        scenario = parse_fault_spec(
            "cluster=2M1G:ethernet; steps=40; seed=3; "
            "straggler=0x1.5@5:20; crash=1@30"
        )
        trainer = FaultTolerantTrainer(
            "resnet-50", "mxnet", scenario.cluster, 16, plan=scenario.plan
        )
        result = trainer.run(scenario.steps)
        assert any(event.action == "rebalance" for event in result.events)
        assert recorded_timeline_objects == []

    def test_timeline_is_recorded_once_on_read(self):
        plan = TrainingSession("resnet-50", "mxnet").compile(16)
        assert "timeline" not in vars(plan.execution)
        first = plan.timeline
        assert plan.timeline is first
        assert len(first.events) == len(plan.kernels)

    def test_describe_mentions_the_point(self, resnet_plan):
        text = resnet_plan.describe()
        assert "compiled plan" in text
        assert "ResNet-50" in text
        assert "Quadro P4000" in text


class TestPlanCache:
    def test_session_recompile_returns_same_object(self):
        session = TrainingSession("resnet-50", "mxnet")
        first = session.compile(16)
        assert session.compile(16) is first
        stats = session.plan_cache.stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.compile_count == 1

    def test_distinct_batches_get_distinct_entries(self):
        session = TrainingSession("resnet-50", "mxnet")
        plans = {batch: session.compile(batch) for batch in (8, 16, 32)}
        assert len({id(plan) for plan in plans.values()}) == 3
        assert session.plan_cache.stats.misses == 3
        for batch, plan in plans.items():
            assert plan.graph.batch_size == batch
            assert session.compile(batch) is plan

    def test_lru_eviction(self):
        cache = PlanCache()
        built = []

        def factory(key):
            def build():
                built.append(key)
                return f"plan-{key}"

            return build

        filler = list(range(CAPACITY - 2))
        assert cache.get("a", factory("a")) == "plan-a"
        assert cache.get("b", factory("b")) == "plan-b"
        for key in filler:
            cache.get(key, factory(key))
        assert len(cache) == CAPACITY
        assert cache.get("a", factory("a")) == "plan-a"  # refreshes "a"
        assert cache.get("c", factory("c")) == "plan-c"  # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b", factory("b")) == "plan-b"  # recompiled
        assert built == ["a", "b", *filler, "c", "b"]
        assert len(cache) == CAPACITY

    def test_lookup_emits_spans_and_counters(self):
        with telemetry() as run:
            session = TrainingSession("resnet-50", "mxnet")
            session.compile(16)
            session.compile(16)
        lookups = [
            root for root in run.tracer.roots if root.name == "plan.cache.lookup"
        ]
        assert [span.attributes["outcome"] for span in lookups] == ["miss", "hit"]
        hit = lookups[1]
        assert hit.find("plan.compile") is None  # the hit never recompiles
        assert hit.find("plan.symbolic.specialize") is None
        snap = run.metrics.snapshot()
        assert snap["plan_cache_hits_total"] == 1
        assert snap["plan_cache_misses_total"] == 1

    def test_compile_span_nests_under_miss_lookup(self):
        with telemetry() as run:
            TrainingSession("resnet-50", "mxnet").compile(16)
        lookup = run.tracer.roots[0]
        assert lookup.name == "plan.cache.lookup"
        assert lookup.attributes["outcome"] == "miss"
        compile_span = lookup.find("plan.compile")
        assert compile_span is not None
        assert compile_span.attributes["batch_size"] == 16
        # Sessions answer with the concrete compiler only: no symbolic
        # trace or specialization hides under the lookup.
        assert lookup.find("plan.symbolic.specialize") is None
        assert lookup.find("plan.symbolic.compile") is None
        assert run.metrics.snapshot()["plan_cache_misses_total"] == 1


class TestMemoryView:
    def test_memory_snapshot_is_memoized(self, resnet_plan):
        first = resnet_plan.memory
        assert resnet_plan.memory is first
        assert first.peak_total > 0
        assert first.peak_by_tag[AllocationTag.FEATURE_MAPS] > 0

    def test_oom_outcome_is_memoized_and_reraised(self):
        plan = TrainingSession("resnet-50", "tensorflow").compile(512)
        capacity = plan.gpu.memory_bytes
        assert not plan.fits(capacity)
        with pytest.raises(OutOfMemoryError) as first:
            plan.check_memory(capacity)
        with pytest.raises(OutOfMemoryError) as second:
            plan.check_memory(capacity)
        assert first.value is second.value

    def test_fits_at_unconstrained_capacity(self, resnet_plan):
        assert resnet_plan.fits(float("inf"))

    def test_with_allocations_shares_execution(self, resnet_plan):
        sibling = resnet_plan.with_allocations(resnet_plan.allocations[:1])
        assert sibling.execution is resnet_plan.execution
        assert sibling.timings is resnet_plan.timings
        assert len(sibling.allocations) == 1
        assert sibling.memory.peak_total < resnet_plan.memory.peak_total


class TestGradientSchedule:
    def test_ready_times_are_monotone_and_within_makespan(self, resnet_plan):
        schedule = resnet_plan.gradient_ready_times()
        weighted = [
            layer.name
            for layer in resnet_plan.graph.layers
            if layer.weight_elements > 0
        ]
        assert [name for name, _ in schedule] == list(reversed(weighted))
        times = [ready for _, ready in schedule]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert 0.0 < times[0] and times[-1] <= resnet_plan.makespan_s

    def test_trainer_exposes_the_schedule(self):
        from repro.distributed import DataParallelTrainer
        from repro.distributed.topology import configuration

        trainer = DataParallelTrainer("resnet-50", "mxnet", configuration("1M2G"))
        schedule = trainer.gradient_schedule(16)
        assert schedule == trainer.session.compile(16).gradient_ready_times()
        assert len(schedule) > 50  # one entry per weighted ResNet-50 layer


class TestConsumersShareThePlan:
    def test_timeline_reads_the_cached_plan(self, resnet_session):
        plan = resnet_session.compile(16)
        assert resnet_session.compile(16).timeline is plan.timeline

    def test_profile_and_plan_agree_bitwise(self):
        session = TrainingSession("resnet-50", "mxnet")
        profile = session.run_iteration(16)
        plan = session.compile(16)
        assert profile.gpu_busy_time_s == plan.gpu_busy_s
        assert profile.gpu_flops == plan.total_flops
        assert profile.kernel_timings is plan.timings
        assert profile.memory.peak_total == plan.memory.peak_total

    def test_standalone_compile_graph(self, resnet_session):
        graph = resnet_session.spec.build(8)
        plan = compile_graph(graph, resnet_session.framework, resnet_session.gpu)
        assert plan.key == ("ResNet-50", "mxnet", 8, "Quadro P4000")
        assert plan.makespan_s > plan.gpu_busy_s > 0
