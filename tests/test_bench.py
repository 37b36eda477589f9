"""Tests for the statistical differential-benchmarking harness."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.bench import InterleavedRunner, NoiseModel, subject_for
from repro.bench.noise import median_convergence_tolerance
from repro.bench.runner import MAX_SAMPLES, MIN_SAMPLES
from repro.bench.subjects import PlanSubject
from repro.engine.keys import NON_KEY_RUN_DIMENSIONS, point_key
from repro.experiments.common import SWEEP_PANELS
from repro.frameworks.registry import get_framework
import repro.plan.executor as plan_executor
from repro.plan.executor import ExecutionReplay, replay, replay_arrays
from repro.plan.pipeline import parse_transform_spec
from repro.training.session import TrainingSession
from repro.tune.search import Autotuner

_EXPECTED = os.path.join(os.path.dirname(__file__), "expected")


def _runner(seed: int) -> InterleavedRunner:
    return InterleavedRunner(noise=NoiseModel(seed=seed))


@pytest.fixture(scope="module")
def resnet_plan():
    return TrainingSession("resnet-50", "tensorflow").compile(32)


@pytest.fixture(scope="module")
def nmt_plan():
    return TrainingSession("nmt", "tensorflow").compile(64)


class TestNoiseModel:
    def test_streams_are_reproducible_and_independent(self):
        model = NoiseModel(seed=3)
        first = model.stream(0).kernel_factors(16)
        again = model.stream(0).kernel_factors(16)
        other = model.stream(1).kernel_factors(16)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_zero_jitter_is_exact(self):
        model = NoiseModel(
            kernel_jitter=0.0, dispatch_jitter=0.0,
            interconnect_jitter=0.0, run_jitter=0.0,
        )
        stream = model.stream(0)
        assert np.array_equal(stream.kernel_factors(8), np.ones(8))
        assert stream.interconnect_factor() == 1.0

    def test_subject_bias_scales_kernel_durations_only(self, resnet_plan):
        model = NoiseModel(seed=5)
        biased = PlanSubject("slowdown:5", resnet_plan, kernel_bias=1.05)
        assert biased.measure(model.stream(2)) == _noisy_makespan(
            resnet_plan,
            model.stream(2),
            durations=[d * 1.05 for d in resnet_plan.execution.durations],
        )
        assert biased.noiseless_s == resnet_plan.makespan_s * 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(kernel_jitter=-0.1)
        with pytest.raises(ValueError):
            NoiseModel().stream(-1)


#: Points spanning conv-bound, dispatch-bound and host-sync-heavy plans.
EXACTNESS_POINTS = [
    ("resnet-50", "tensorflow", 32),
    ("nmt", "tensorflow", 64),
    ("wgan", "tensorflow", 16),
]


class _ConstantStream:
    """A noise stream whose kernel and dispatch factors are constants."""

    def __init__(self, kernel: float, dispatch: float):
        self.kernel = kernel
        self.dispatch = dispatch

    def kernel_factors(self, count: int):
        return np.full(count, self.kernel)

    def dispatch_factors(self, count: int):
        return np.full(count, self.dispatch)


#: Real-noise points: host syncs, the largest kernel stream (32 k kernels)
#: and a conv-bound plan.
REAL_NOISE_POINTS = [
    ("nmt", "tensorflow", 64),
    ("deep-speech-2", "mxnet", 4),
    ("resnet-50", "tensorflow", 32),
]


def _noisy_makespan(plan, noise, durations=None):
    """One noisy pass of :func:`replay` over ``plan``'s flat lists, drawing
    kernel factors before dispatch factors (the subjects' draw order)."""
    execution = plan.execution
    durations = execution.durations if durations is None else durations
    count = len(durations)
    return replay(
        durations,
        execution.host_syncs,
        plan.framework,
        noise.kernel_factors(count).tolist(),
        noise.dispatch_factors(count).tolist(),
    )


def _indexed_makespan_under_noise(durations, host_syncs, framework, noise):
    """Reference: the recurrence as an indexed walk over the numpy factor
    arrays, one numpy scalar per kernel."""
    dispatch = framework.dispatch_cost_s
    sync = framework.sync_latency_s
    cpu_ready = framework.frontend_cost_s
    gpu_free = 0.0
    count = len(durations)
    kernel_factors = noise.kernel_factors(count)
    dispatch_factors = noise.dispatch_factors(count)
    for index in range(count):
        cpu_ready += dispatch * dispatch_factors[index]
        start = cpu_ready if cpu_ready > gpu_free else gpu_free
        gpu_free = start + durations[index] * kernel_factors[index]
        if host_syncs[index]:
            cpu_ready = gpu_free + sync
    return gpu_free if gpu_free > cpu_ready else cpu_ready


class TestExecutorNoise:
    def test_noiseless_replay_is_bit_identical(self, resnet_plan):
        execution = resnet_plan.execution
        rerun = ExecutionReplay(
            resnet_plan.kernels,
            [timing.duration_s for timing in resnet_plan.timings],
            [timing.kernel.host_sync for timing in resnet_plan.timings],
            resnet_plan.framework,
            makespan_s=replay(
                execution.durations, execution.host_syncs, resnet_plan.framework
            ),
        )
        assert rerun.makespan_s == execution.makespan_s
        assert rerun.gpu_busy_s == execution.gpu_busy_s
        assert rerun.dispatch_cpu_s == execution.dispatch_cpu_s

    @pytest.mark.parametrize("model,framework,batch", EXACTNESS_POINTS)
    def test_unit_factors_give_the_plan_makespan(self, model, framework, batch):
        plan = TrainingSession(model, framework).compile(batch)
        quiet = NoiseModel(
            kernel_jitter=0.0, dispatch_jitter=0.0,
            interconnect_jitter=0.0, run_jitter=0.0,
        )
        noisy = _noisy_makespan(plan, quiet.stream(0))
        assert noisy == plan.execution.makespan_s

    @pytest.mark.parametrize("model,framework,batch", EXACTNESS_POINTS)
    def test_constant_factors_equal_a_scaled_replay(self, model, framework, batch):
        """Kernel factor k and dispatch factor d are exactly the replay of
        durations x k under a dispatch cost x d: one recurrence, with or
        without factors."""
        plan = TrainingSession(model, framework).compile(batch)
        kernel, dispatch = 1.07, 0.9
        noisy = _noisy_makespan(plan, _ConstantStream(kernel, dispatch))
        scaled = replay(
            [duration * kernel for duration in plan.execution.durations],
            plan.execution.host_syncs,
            dataclasses.replace(
                plan.framework,
                dispatch_cost_s=plan.framework.dispatch_cost_s * dispatch,
            ),
        )
        assert noisy == scaled

    @pytest.mark.parametrize("model,framework,batch", REAL_NOISE_POINTS)
    def test_real_noise_matches_the_indexed_reference(self, model, framework, batch):
        """Walking plain floats instead of indexing numpy arrays changes
        no sample: same float64 values, same operation order."""
        plan = TrainingSession(model, framework).compile(batch)
        execution = plan.execution
        noise = NoiseModel(seed=7)
        for run in range(20):
            flat = _noisy_makespan(plan, noise.stream(run))
            indexed = _indexed_makespan_under_noise(
                execution.durations,
                execution.host_syncs,
                plan.framework,
                noise.stream(run),
            )
            assert type(flat) is float
            assert flat == indexed

    def test_noise_moves_the_makespan(self, resnet_plan):
        noisy = _noisy_makespan(resnet_plan, NoiseModel(seed=1).stream(0))
        assert noisy != resnet_plan.makespan_s
        assert noisy > 0.0

    def test_median_converges_to_noiseless(self, resnet_plan):
        model = NoiseModel(seed=4)
        samples = 15
        observed = sorted(
            _noisy_makespan(resnet_plan, model.stream(i)) for i in range(samples)
        )
        median = observed[samples // 2]
        tolerance = median_convergence_tolerance(model, samples)
        assert abs(median / resnet_plan.makespan_s - 1.0) <= tolerance

    def test_noise_seed_is_not_a_cache_dimension(self):
        assert "noise_seed" in NON_KEY_RUN_DIMENSIONS
        # point_key has no noise parameter at all: two bench runs at
        # different seeds address the same cached simulation result.
        key = point_key("resnet-50", "tensorflow", 32)
        assert key == point_key("resnet-50", "tensorflow", 32)


def _scan_equals_replay(
    durations, host_syncs, framework, kernel_factors, dispatch_factors
):
    """``replay_arrays`` over the arrays, checked ``==`` against ``replay``
    over their ``.tolist()``; the scanned makespan."""
    scanned = replay_arrays(
        durations, host_syncs, framework, kernel_factors, dispatch_factors
    )
    walked = replay(
        durations.tolist(),
        host_syncs.tolist(),
        framework,
        kernel_factors.tolist(),
        dispatch_factors.tolist(),
    )
    assert type(scanned) is float
    assert scanned == walked
    return scanned


@pytest.fixture
def walks(monkeypatch):
    """Counts the streams ``replay_arrays`` hands to ``replay``."""
    calls = []
    original = plan_executor.replay

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(plan_executor, "replay", counting)
    return calls


#: A framework whose dispatch, front-end and sync costs are round numbers,
#: so synthetic streams can hit exact ties.
_UNIT_FRAMEWORK = dataclasses.replace(
    get_framework("mxnet"),
    dispatch_cost_s=1.0,
    frontend_cost_s=0.5,
    sync_latency_s=2.0,
)


def _unit_scan(durations, host_syncs=None, kernel=None, dispatch=None):
    """Scan ``durations`` on :data:`_UNIT_FRAMEWORK` with unit (or given)
    factors, checked against ``replay``."""
    durations = np.array(durations, dtype=float)
    count = len(durations)
    return _scan_equals_replay(
        durations,
        np.zeros(count, dtype=bool) if host_syncs is None else np.array(host_syncs),
        _UNIT_FRAMEWORK,
        np.ones(count) if kernel is None else np.array(kernel),
        np.ones(count) if dispatch is None else np.array(dispatch),
    )


@pytest.fixture(scope="module")
def paper_grid_plans():
    """Every paper-grid panel's baseline plan and tune-winner plan, keyed
    by ``(model, framework, spec)``."""
    plans = {}
    for model, frameworks in SWEEP_PANELS:
        for framework in frameworks:
            tuner = Autotuner(model, framework)
            session = tuner._session
            plans[model, framework, "baseline"] = session.compile(tuner.batch_size)
            winner = tuner.rank().winner
            if winner is not None:
                plans[model, framework, winner.spec] = session.compile_transformed(
                    tuner.batch_size, parse_transform_spec(winner.spec)
                )
    return plans


class TestBusyPeriodScan:
    """``replay_arrays`` is ``replay`` over ``.tolist()``, bit for bit,
    whether it scans busy periods or falls back to the kernel walk."""

    def test_paper_grid_plans_under_noise(self, paper_grid_plans, walks):
        """Only the host-sync baselines fall back: every other plan the
        tune workload confirms is scanned as one busy period."""
        assert len(paper_grid_plans) == 24
        noise = NoiseModel(seed=11)
        fell_back = {}
        for label, plan in paper_grid_plans.items():
            subject = PlanSubject("plan", plan)
            durations, host_syncs = subject._durations, subject._host_syncs
            before = len(walks)
            for run in range(20):
                stream = noise.stream(run)
                _scan_equals_replay(
                    durations,
                    host_syncs,
                    plan.framework,
                    stream.kernel_factors(len(durations)),
                    stream.dispatch_factors(len(durations)),
                )
            if len(walks) > before:
                fell_back[label] = len(walks) - before
        assert fell_back == {
            ("nmt", "tensorflow", "baseline"): 20,
            ("sockeye", "mxnet", "baseline"): 20,
        }
        assert all(
            any(paper_grid_plans[label].execution.host_syncs) for label in fell_back
        )

    def test_biased_kernels(self, resnet_plan):
        subject = PlanSubject("slowdown:5", resnet_plan, kernel_bias=1.05)
        durations = subject._durations
        assert durations.tolist() == [
            duration * 1.05 for duration in resnet_plan.execution.durations
        ]
        stream = NoiseModel(seed=2).stream(0)
        _scan_equals_replay(
            durations,
            subject._host_syncs,
            resnet_plan.framework,
            stream.kernel_factors(len(durations)),
            stream.dispatch_factors(len(durations)),
        )

    def test_measure_is_the_noisy_replay(self):
        plan = TrainingSession("deep-speech-2", "mxnet").compile(4)
        subject = PlanSubject("baseline", plan)
        model = NoiseModel(seed=9)
        for run in range(3):
            assert subject.measure(model.stream(run)) == _noisy_makespan(
                plan, model.stream(run)
            )

    def test_one_busy_period_is_scanned(self, walks):
        # Kernels longer than a dispatch gap: the GPU never waits.
        assert _unit_scan([3.0, 2.5, 4.0, 1.5]) == 12.5
        assert walks == []

    def test_dispatch_bound_stream_falls_back(self, walks):
        # Every kernel shorter than a dispatch gap: one period per kernel.
        assert _unit_scan([0.25] * 24) == 0.5 + 24 + 0.25
        assert walks == [24]

    def test_alternating_busy_and_idle(self, walks):
        # Busy periods of a long kernel then a short one, separated by idle
        # gaps: the first gap hands the stream to the kernel walk.
        assert _unit_scan([1.75, 0.125] * 7) == 15.375
        assert walks == [14]

    def test_exact_tie_keeps_the_gpu_busy(self, walks):
        # Each kernel ends exactly when the next is issued: cpu == gpu_free.
        assert _unit_scan([1.0] * 40) == 41.5
        assert walks == []

    def test_one_kernel(self, walks):
        assert _unit_scan([2.0]) == 3.5
        assert _unit_scan([0.0]) == 1.5
        assert walks == []

    def test_empty_stream_is_the_front_end(self):
        assert _unit_scan([]) == _UNIT_FRAMEWORK.frontend_cost_s

    def test_host_sync_stream_falls_back(self, nmt_plan, walks):
        execution = nmt_plan.execution
        stream = NoiseModel(seed=5).stream(0)
        count = len(execution.durations)
        _scan_equals_replay(
            np.array(execution.durations),
            np.array(execution.host_syncs),
            nmt_plan.framework,
            stream.kernel_factors(count),
            stream.dispatch_factors(count),
        )
        assert walks == [count]
        assert _unit_scan([3.0, 1.0, 2.0], host_syncs=[False, True, False]) == 10.5

    def test_random_streams(self):
        """Mixed kernel lengths under noisy factors: some streams one busy
        period, the rest falling back at an idle gap."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            count = int(rng.integers(1, 60))
            durations = rng.choice([0.125, 0.5, 1.0, 1.5, 6.0], size=count)
            _unit_scan(
                durations,
                kernel=rng.lognormal(0.0, 0.3, size=count),
                dispatch=rng.lognormal(0.0, 0.3, size=count),
            )


class TestSubjects:
    def test_subject_for_variants(self, nmt_plan):
        baseline = subject_for("baseline", "nmt", "tensorflow", 64)
        fused = subject_for("fused-rnn", "nmt", "tensorflow", 64)
        fused_fp16 = subject_for("fused_rnn+fp16", "nmt", "tensorflow", 64)
        slowed = subject_for("slowdown:5", "nmt", "tensorflow", 64)
        assert baseline.noiseless_s == pytest.approx(nmt_plan.makespan_s)
        assert fused.noiseless_s < baseline.noiseless_s
        assert fused_fp16.noiseless_s == fused.noiseless_s
        assert fused_fp16.label == "fused_rnn+fp16"
        assert slowed.kernel_bias == pytest.approx(1.05)
        with pytest.raises(ValueError, match="warp-drive"):
            subject_for("warp-drive", "nmt", "tensorflow", 64)

    def test_spec_treatment_matches_the_transform_itself(self, nmt_plan):
        """``fused-rnn`` through the spec parser times exactly like the
        transform applied to the baseline plan."""
        from repro.plan.transform import FusedRNNTransform

        fused = subject_for("fused-rnn", "nmt", "tensorflow", 64)
        direct = FusedRNNTransform().apply(nmt_plan)
        assert fused.plan.makespan_s == direct.makespan_s
        assert [t.duration_s for t in fused.plan.timings] == [
            t.duration_s for t in direct.timings
        ]

    def test_host_time_rides_the_run_factor(self, resnet_plan):
        plain = PlanSubject("plain", resnet_plan)
        hosted = PlanSubject("hosted", resnet_plan, host_s=0.004)
        model = NoiseModel(seed=3)
        assert hosted.noiseless_s == plain.noiseless_s + 0.004
        stream = model.stream(5)
        assert hosted.measure(model.stream(5)) == (
            plain.measure(stream) + 0.004 * stream.run_factor
        )
        with pytest.raises(ValueError):
            PlanSubject("bad", resnet_plan, host_s=-1.0)
        with pytest.raises(ValueError):
            PlanSubject("bad", resnet_plan, kernel_bias=0.0)

    def test_describe_is_json_ready(self):
        doc = subject_for("baseline", "resnet-50", "tensorflow", 32).describe()
        assert doc["model"] == "ResNet-50"
        assert doc["kernels"] > 0
        json.dumps(doc)


class TestInterleavedRunner:
    def test_rejects_same_object_on_both_sides(self, resnet_plan):
        subject = PlanSubject("baseline", resnet_plan)
        with pytest.raises(ValueError):
            InterleavedRunner().run(subject, subject)

    def test_same_seed_reproduces_result_exactly(self, resnet_plan):
        def once():
            runner = InterleavedRunner(noise=NoiseModel(seed=7))
            return runner.run(
                PlanSubject("baseline", resnet_plan),
                PlanSubject("slowdown:5", resnet_plan, kernel_bias=1.05),
                samples=20,
            )
        assert once().to_doc() == once().to_doc()

    def test_detects_injected_5pct_slowdown(self, resnet_plan):
        runner = InterleavedRunner(noise=NoiseModel(seed=7))
        result = runner.run(
            PlanSubject("baseline", resnet_plan),
            PlanSubject("slowdown:5", resnet_plan, kernel_bias=1.05),
        )
        assert result.verdict == "regression"
        assert result.p_regression < 0.05
        assert result.speedup < 1.0

    def test_detects_improvement(self, resnet_plan):
        runner = InterleavedRunner(noise=NoiseModel(seed=7))
        result = runner.run(
            PlanSubject("baseline", resnet_plan),
            PlanSubject("speedup:5", resnet_plan, kernel_bias=1.0 / 1.05),
        )
        assert result.verdict == "improvement"
        assert result.p_improvement < 0.05

    def test_noop_false_positive_rate_over_many_seeds(self, resnet_plan):
        """The acceptance property CI relies on: a no-op A/B must stay
        'indistinguishable' across >= 20 seeds (at most one excursion)."""
        regressions = 0
        for seed in range(24):
            runner = InterleavedRunner(noise=NoiseModel(seed=seed))
            result = runner.run(
                PlanSubject("baseline", resnet_plan),
                PlanSubject("baseline-2", resnet_plan),
                samples=30,
            )
            if result.verdict != "indistinguishable":
                regressions += 1
        assert regressions <= 1, f"{regressions}/24 no-op seeds flagged"

    def test_adaptive_sizing_respects_bounds(self, resnet_plan):
        runner = InterleavedRunner(noise=NoiseModel(seed=2))
        result = runner.run(
            PlanSubject("baseline", resnet_plan),
            PlanSubject("baseline-2", resnet_plan),
        )
        assert MIN_SAMPLES <= result.samples_per_side <= MAX_SAMPLES

    def test_ci_brackets_the_median_speedup(self, resnet_plan):
        runner = InterleavedRunner(noise=NoiseModel(seed=3))
        result = runner.run(
            PlanSubject("baseline", resnet_plan),
            PlanSubject("slowdown:2", resnet_plan, kernel_bias=1.02),
            samples=40,
        )
        low, high = result.speedup_ci
        assert low <= result.speedup <= high


#: The controls' points: a conv-bound plan and two RNN plans.
CONTROL_POINTS = [
    ("resnet-50", "tensorflow", 32),
    ("nmt", "tensorflow", 64),
    ("sockeye", "mxnet", 64),
]

#: The RNN workloads whose tuned winners the runner must confirm.
RNN_POINTS = [
    ("nmt", "tensorflow", 64),
    ("sockeye", "mxnet", 64),
    ("deep-speech-2", "mxnet", 16),
]


def _ab(model, framework, batch, treatment):
    """One seed-7 A/B with adaptive sample sizing: ``treatment`` against
    an independently built baseline (so a no-op still measures two
    distinct subjects)."""
    return _runner(7).run(
        subject_for("baseline", model, framework, batch),
        subject_for(treatment, model, framework, batch),
        name=f"{model}/{framework}/b{batch}:{treatment}",
    )


class TestControls:
    """The runner's false-positive and power controls."""

    @pytest.mark.parametrize("model,framework,batch", CONTROL_POINTS)
    def test_noop_is_indistinguishable(self, model, framework, batch):
        result = _ab(model, framework, batch, "baseline")
        assert result.verdict == "indistinguishable"

    @pytest.mark.parametrize("model,framework,batch", CONTROL_POINTS)
    def test_5pct_slowdown_is_a_significant_regression(self, model, framework, batch):
        result = _ab(model, framework, batch, "slowdown:5")
        assert result.verdict == "regression"
        assert result.p_regression < 0.05


def _expected(filename):
    with open(os.path.join(_EXPECTED, filename), encoding="utf-8") as handle:
        return {doc["name"]: doc for doc in json.load(handle)}


#: The committed ``tune`` results, keyed by case name.
EXPECTED_TUNE = _expected("tune_results.json")


@pytest.fixture(scope="module")
def tune_results():
    """Per RNN workload, the autotuner's cost-model winner and the
    single-stage ``fused_rnn`` transform, each A/B'd against baseline."""
    results = []
    for model, framework, batch in RNN_POINTS:
        winner = Autotuner(model, framework, batch_size=batch).rank().winner
        treatments = ["fused_rnn"]
        if winner is not None and winner.spec != "fused_rnn":
            treatments.insert(0, winner.spec)
        results.extend(_ab(model, framework, batch, t) for t in treatments)
    return {result.name: result for result in results}


class TestTunedWinners:
    def test_cases_are_each_winner_and_fused_rnn(self, tune_results):
        assert list(tune_results) == list(EXPECTED_TUNE)
        assert len(tune_results) == 6
        assert sum(name.endswith(":fused_rnn") for name in tune_results) == 3

    @pytest.mark.parametrize("name", EXPECTED_TUNE)
    def test_is_an_improvement(self, tune_results, name):
        assert tune_results[name].verdict == "improvement"

    @pytest.mark.parametrize("name", EXPECTED_TUNE)
    def test_result_equals_the_committed_expectation(self, tune_results, name):
        assert tune_results[name].to_doc() == EXPECTED_TUNE[name]
