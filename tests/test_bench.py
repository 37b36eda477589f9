"""Tests for the statistical differential-benchmarking harness."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.bench import InterleavedRunner, NoiseModel, subject_for
from repro.bench.noise import median_convergence_tolerance
from repro.bench.subjects import PlanSubject
from repro.engine.keys import NON_KEY_RUN_DIMENSIONS, point_key
from repro.plan.executor import ExecutionReplay, replay
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
        runner = InterleavedRunner(
            noise=NoiseModel(seed=2), min_samples=25, max_samples=40
        )
        result = runner.run(
            PlanSubject("baseline", resnet_plan),
            PlanSubject("baseline-2", resnet_plan),
        )
        assert 25 <= result.samples_per_side <= 40

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
