"""The paper's 13 numbered observations as executable checks.

Each check runs the relevant simulated experiment and returns an
:class:`ObservationResult` stating whether the phenomenon reproduces.  The
integration test suite asserts all of them hold; ``verify_all()`` powers
the `examples/observations_report.py` example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.suite import TBDSuite, standard_suite
from repro.distributed import DataParallelTrainer, standard_configurations
from repro.hardware.devices import TITAN_XP
from repro.hardware.memory import AllocationTag, OutOfMemoryError
from repro.profiling.kernel_trace import trace_from_profile
from repro.profiling.memory_profiler import MemoryProfiler


@dataclass(frozen=True)
class ObservationResult:
    """Outcome of one observation check."""

    number: int
    title: str
    holds: bool
    evidence: str


def _sweep_throughputs(suite, model, framework):
    points = [p for p in suite.sweep(model, framework) if not p.oom]
    return [(p.batch_size, p.metrics) for p in points]


def observation_1(suite: TBDSuite) -> ObservationResult:
    """Performance increases with the mini-batch size for all models."""
    failures = []
    for spec, framework in suite.configurations():
        if len(spec.batch_sizes) < 2:
            continue
        series = _sweep_throughputs(suite, spec.key, framework.key)
        values = [metrics.throughput for _, metrics in series]
        if values != sorted(values):
            failures.append(f"{spec.key}/{framework.key}")
    return ObservationResult(
        1,
        "throughput increases with mini-batch size",
        holds=not failures,
        evidence="monotone for all sweeps" if not failures else f"violations: {failures}",
    )


def observation_2(suite: TBDSuite) -> ObservationResult:
    """RNN-based models do not saturate within GPU memory limits; CNNs do."""
    nmt = _sweep_throughputs(suite, "nmt", "tensorflow")
    rnn_gain = nmt[-1][1].throughput / nmt[-2][1].throughput
    resnet = _sweep_throughputs(suite, "resnet-50", "mxnet")
    cnn_gain = resnet[-1][1].throughput / resnet[-2][1].throughput
    holds = rnn_gain > 1.25 and cnn_gain < 1.10
    return ObservationResult(
        2,
        "RNN throughput keeps scaling with batch; CNNs saturate",
        holds=holds,
        evidence=f"NMT last-doubling gain {rnn_gain:.2f}x vs "
        f"ResNet-50 {cnn_gain:.2f}x",
    )


def observation_3(suite: TBDSuite) -> ObservationResult:
    """Framework rankings flip across applications."""
    resnet_mx = suite.run("resnet-50", "mxnet").throughput
    resnet_tf = suite.run("resnet-50", "tensorflow").throughput
    nmt_tf = suite.run("nmt", "tensorflow", 128).throughput
    sockeye_mx = suite.run("sockeye", "mxnet", 64).throughput
    holds = resnet_mx > resnet_tf and nmt_tf > sockeye_mx
    return ObservationResult(
        3,
        "no framework dominates across applications",
        holds=holds,
        evidence=f"image: MXNet {resnet_mx:.0f} vs TF {resnet_tf:.0f}; "
        f"translation: TF {nmt_tf:.0f} vs MXNet {sockeye_mx:.0f}",
    )


def observation_4(suite: TBDSuite) -> ObservationResult:
    """Larger mini-batches raise GPU compute utilization."""
    series = _sweep_throughputs(suite, "resnet-50", "tensorflow")
    first = series[0][1].gpu_utilization
    last = series[-1][1].gpu_utilization
    return ObservationResult(
        4,
        "mini-batch size large enough keeps the GPU busy",
        holds=last >= first,
        evidence=f"GPU util {first * 100:.0f}% @ b={series[0][0]} -> "
        f"{last * 100:.0f}% @ b={series[-1][0]}",
    )


def observation_5(suite: TBDSuite) -> ObservationResult:
    """LSTM models cannot drive up GPU utilization; non-RNN models and
    Deep Speech 2 (vanilla RNN) reach ~95%+."""
    lstm = suite.run("nmt", "tensorflow", 128).gpu_utilization
    cnn = suite.run("resnet-50", "mxnet", 32).gpu_utilization
    ds2 = suite.run("deep-speech-2", "mxnet", 4).gpu_utilization
    transformer = suite.run("transformer", "tensorflow", 2048).gpu_utilization
    holds = lstm < 0.75 and cnn > 0.9 and ds2 > 0.9 and transformer > 0.85
    return ObservationResult(
        5,
        "low GPU utilization is specific to LSTM layers",
        holds=holds,
        evidence=f"NMT {lstm * 100:.0f}% vs ResNet {cnn * 100:.0f}%, "
        f"DS2 {ds2 * 100:.0f}%, Transformer {transformer * 100:.0f}%",
    )


def observation_6(suite: TBDSuite) -> ObservationResult:
    """Larger mini-batches raise FP32 utilization."""
    series = _sweep_throughputs(suite, "inception-v3", "mxnet")
    values = [metrics.fp32_utilization for _, metrics in series]
    return ObservationResult(
        6,
        "FP32 utilization grows with mini-batch size",
        holds=values == sorted(values),
        evidence=f"{[round(v * 100) for v in values]}% across "
        f"{[b for b, _ in series]}",
    )


def observation_7(suite: TBDSuite) -> ObservationResult:
    """RNN-based models show much lower FP32 utilization than others."""
    seq2seq = suite.run("sockeye", "mxnet", 64).fp32_utilization
    ds2 = suite.run("deep-speech-2", "mxnet", 4).fp32_utilization
    cnn = suite.run("resnet-50", "mxnet", 32).fp32_utilization
    holds = seq2seq < 0.65 * cnn and ds2 < 0.25 * cnn
    return ObservationResult(
        7,
        "RNN-based models have low FP32 utilization",
        holds=holds,
        evidence=f"Sockeye {seq2seq * 100:.0f}%, DS2 {ds2 * 100:.0f}% vs "
        f"ResNet-50 {cnn * 100:.0f}%",
    )


def observation_8(suite: TBDSuite) -> ObservationResult:
    """Long-duration, low-FP32 kernels exist even in optimized models, and
    batch normalization kernels top the list (Tables 5/6)."""
    session = suite.session("resnet-50", "mxnet")
    profile = session.run_iteration(32)
    rows = trace_from_profile(profile).longest_low_utilization_kernels(5)
    average = trace_from_profile(profile).average_fp32_utilization
    has_bn = any("bn_" in row.kernel_name for row in rows[:2])
    below = all(row.fp32_utilization < average for row in rows)
    return ObservationResult(
        8,
        "long kernels with below-average FP32 utilization (BN leads)",
        holds=has_bn and below and len(rows) == 5,
        evidence="; ".join(
            f"{row.kernel_name.split('<')[0]} {row.duration_share * 100:.1f}% "
            f"@ {row.fp32_utilization * 100:.0f}%"
            for row in rows[:3]
        ),
    )


def observation_9(suite: TBDSuite) -> ObservationResult:
    """CPU utilization is low across the suite (<15% for all but one model,
    which is A3C)."""
    values = {}
    for spec, framework in suite.configurations():
        metrics = suite.run(spec.key, framework.key)
        values[f"{spec.key}/{framework.key}"] = metrics.cpu_utilization
    over_15 = [k for k, v in values.items() if v > 0.15]
    holds = len(over_15) <= 1 and all("a3c" in k for k in over_15)
    peak = max(values.items(), key=lambda item: item[1])
    return ObservationResult(
        9,
        "CPU utilization is low in DNN training",
        holds=holds,
        evidence=f"max {peak[0]} at {peak[1] * 100:.1f}%; "
        f"{len(over_15)} config(s) above 15%",
    )


def observation_10(suite: TBDSuite) -> ObservationResult:
    """Titan Xp raises throughput but lowers both utilizations."""
    xp_suite = TBDSuite(gpu=TITAN_XP)
    p4 = suite.run("resnet-50", "mxnet", 32)
    xp = xp_suite.run("resnet-50", "mxnet", 32)
    holds = (
        xp.throughput > p4.throughput
        and xp.gpu_utilization < p4.gpu_utilization
        and xp.fp32_utilization < p4.fp32_utilization
    )
    return ObservationResult(
        10,
        "more advanced GPUs are less well utilized by the same kernels",
        holds=holds,
        evidence=f"throughput x{xp.throughput / p4.throughput:.2f}, "
        f"fp32 {p4.fp32_utilization * 100:.0f}%->{xp.fp32_utilization * 100:.0f}%",
    )


def observation_11(suite: TBDSuite) -> ObservationResult:
    """Feature maps consume 62-89%+ of training memory."""
    profiler = MemoryProfiler(gpu=suite.gpu)
    fractions = {}
    for spec, framework in suite.configurations():
        profile = profiler.profile(spec.key, framework.key, spec.reference_batch)
        fractions[f"{spec.key}/{framework.key}"] = profile.feature_map_fraction
    low = min(fractions.values())
    high = max(fractions.values())
    return ObservationResult(
        11,
        "feature maps dominate the memory footprint",
        holds=low > 0.5 and high < 0.95,
        evidence=f"feature-map share spans {low * 100:.0f}%-{high * 100:.0f}%",
    )


def observation_12(suite: TBDSuite) -> ObservationResult:
    """Memory scales ~linearly with batch via feature maps, so trading
    batch size for workspace/depth is viable."""
    profiler = MemoryProfiler(gpu=suite.gpu)
    small = profiler.profile("resnet-50", "mxnet", 8)
    large = profiler.profile("resnet-50", "mxnet", 32)
    fm_ratio = large.gib(AllocationTag.FEATURE_MAPS) / small.gib(
        AllocationTag.FEATURE_MAPS
    )
    weight_ratio = large.gib(AllocationTag.WEIGHTS) / small.gib(AllocationTag.WEIGHTS)
    holds = 3.5 <= fm_ratio <= 4.5 and abs(weight_ratio - 1.0) < 0.01
    return ObservationResult(
        12,
        "feature-map memory scales linearly with batch; weights constant",
        holds=holds,
        evidence=f"4x batch -> feature maps x{fm_ratio:.2f}, weights x{weight_ratio:.2f}",
    )


def observation_13(suite: TBDSuite) -> ObservationResult:
    """Scaling needs bandwidth: PCIe and InfiniBand scale, Ethernet hurts."""
    configs = standard_configurations()
    throughputs = {}
    for label in ("1M1G", "2M1G (ethernet)", "2M1G (infiniband)", "1M2G", "1M4G"):
        trainer = DataParallelTrainer("resnet-50", "mxnet", configs[label])
        throughputs[label] = trainer.run_iteration(32).throughput
    holds = (
        throughputs["2M1G (ethernet)"] < throughputs["1M1G"]
        and throughputs["2M1G (infiniband)"] > 1.5 * throughputs["1M1G"]
        and throughputs["1M4G"] > 3.0 * throughputs["1M1G"]
    )
    return ObservationResult(
        13,
        "network bandwidth is critical for distributed scaling",
        holds=holds,
        evidence=", ".join(f"{k}: {v:.0f}" for k, v in throughputs.items()),
    )


ALL_OBSERVATIONS = (
    observation_1,
    observation_2,
    observation_3,
    observation_4,
    observation_5,
    observation_6,
    observation_7,
    observation_8,
    observation_9,
    observation_10,
    observation_11,
    observation_12,
    observation_13,
)


#: verify_all() results memoized per GPU.  The checks are pure functions
#: of the (stateless) suite and rerunning all 13 costs seconds of
#: simulation, while at least four surfaces (CLI, HTML report, examples,
#: tests) want the same answer in one process.
_VERIFY_CACHE: dict = {}


def verify_all(suite: TBDSuite | None = None) -> list:
    """Run every observation check; returns the 13 results in order,
    memoized per GPU."""
    suite = suite if suite is not None else standard_suite()
    key = suite.gpu.name
    if key not in _VERIFY_CACHE:
        _VERIFY_CACHE[key] = [check(suite) for check in ALL_OBSERVATIONS]
    return list(_VERIFY_CACHE[key])
