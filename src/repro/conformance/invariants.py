"""The invariant registry: the paper's physics, stated declaratively.

Every check is an :class:`Invariant` — a named predicate over one kind of
*evidence* — registered in a module-level table so runners, the CLI and
the mutant self-tests all see the same list:

- ``point`` scope: deep checks over one configuration's
  :class:`~repro.training.session.IterationProfile` and
  :class:`~repro.plan.compiled.CompiledPlan` (roofline floors, utilization
  ranges, FLOP conservation, memory additivity, transform contracts, the
  weights/feature-map laws across batch sizes).
- ``sweep`` scope: checks over one model's batch sweep as the engine
  reports it (monotone iteration time, ladder-monotone throughput, the
  OOM boundary).
- ``scaling`` scope: checks over one distributed probe (≤-linear scaling,
  the ring-allreduce bandwidth floor).

A check returns a list of human-readable messages — empty means the law
holds.  The runner wraps each message into a :class:`Violation` carrying
the subject configuration, so every failure is addressable by the
shrinker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import IterationMetrics
from repro.hardware.memory import AllocationTag
from repro.hardware.roofline import speed_of_light_time
from repro.models.registry import get_model
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    HalfPrecisionStorageTransform,
)
from repro.training.session import TrainingSession

#: Relative tolerance for comparisons that may reassociate float sums.
REL_TOL = 1e-9
#: Absolute slack (bytes) for memory-accounting comparisons.
BYTE_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant (or relation) failure on one subject configuration."""

    check: str
    subject: dict
    message: str
    shrunk: dict | None = None

    def to_doc(self) -> dict:
        """Report-ready record with key-sorted subjects."""
        doc = {
            "check": self.check,
            "subject": dict(sorted(self.subject.items())),
            "message": self.message,
        }
        if self.shrunk is not None:
            doc["shrunk"] = dict(sorted(self.shrunk.items()))
        return doc


@dataclass
class PointEvidence:
    """Deep evidence for one fault-free configuration: the profile, the
    compiled plan, and (when the model sweeps) the plan at the model's
    smallest batch for the cross-batch memory laws."""

    model: str
    framework: str
    batch_size: int
    gpu: object  # GPUSpec
    profile: object  # IterationProfile
    plan: object  # CompiledPlan
    small_batch: int | None = None
    small_plan: object = None
    throughput_unit: str = "samples/s"


@dataclass
class SweepEvidence:
    """One model/framework batch sweep as the engine reports it."""

    model: str
    framework: str
    gpu_name: str
    batch_sizes: list = field(default_factory=list)
    points: list = field(default_factory=list)  # SweepPoint per batch
    faults: str = ""


@dataclass
class ScalingEvidence:
    """One distributed probe: a cluster run plus its allreduce cost."""

    model: str
    framework: str
    batch_size: int
    cluster: object  # ClusterSpec
    profile: object  # DistributedProfile
    allreduce_cost: object = None  # AllReduceCost | None


@dataclass(frozen=True)
class Invariant:
    """One named physical law over one scope of evidence."""

    name: str
    scope: str  # "point" | "sweep" | "scaling"
    description: str
    check: object  # evidence -> list[str]


_REGISTRY: dict = {}


def _register(name: str, scope: str, description: str):
    def deco(fn):
        _REGISTRY[name] = Invariant(name, scope, description, fn)
        return fn

    return deco


def invariant_registry(scope: str | None = None) -> list:
    """All registered invariants (optionally one scope), in name order."""
    items = [inv for inv in _REGISTRY.values() if scope is None or inv.scope == scope]
    return sorted(items, key=lambda inv: inv.name)


def get_invariant(name: str) -> Invariant:
    """The registered invariant of this name.

    Raises:
        KeyError: naming the known invariants, if there is no such one.
    """
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown invariant {name!r}; known: {known}")
    return _REGISTRY[name]


# ----------------------------------------------------------------------
# point scope


@_register(
    "roofline-kernel-floor",
    "point",
    "every kernel's duration is bounded below by its speed-of-light "
    "roofline time max(flops/peak, bytes/bandwidth)",
)
def _roofline_kernel_floor(ev: PointEvidence) -> list:
    out = []
    for timing in ev.plan.timings:
        floor = speed_of_light_time(timing.kernel, ev.gpu)
        if timing.duration_s < floor * (1.0 - REL_TOL):
            out.append(
                f"kernel {timing.kernel.name!r}: duration {timing.duration_s:.3e}s "
                f"below speed-of-light floor {floor:.3e}s"
            )
    return out


@_register(
    "utilization-in-range",
    "point",
    "gpu/fp32/cpu utilization of a profile all lie in [0, 1]",
)
def _utilization_in_range(ev: PointEvidence) -> list:
    out = []
    for label, value in (
        ("gpu_utilization", ev.profile.gpu_utilization),
        ("fp32_utilization", ev.profile.fp32_utilization),
        ("cpu_utilization", ev.profile.cpu_utilization),
        ("timeline gpu_utilization", ev.plan.timeline.gpu_utilization),
    ):
        if not 0.0 <= value <= 1.0:
            out.append(f"{label} = {value} outside [0, 1]")
    return out


@_register(
    "busy-within-iteration",
    "point",
    "GPU busy time never exceeds the iteration wall time, nor the plan's "
    "busy time its makespan",
)
def _busy_within_iteration(ev: PointEvidence) -> list:
    out = []
    p = ev.profile
    if not 0.0 <= p.gpu_busy_time_s <= p.iteration_time_s * (1.0 + REL_TOL):
        out.append(
            f"gpu_busy_time {p.gpu_busy_time_s:.6e}s outside "
            f"[0, iteration_time {p.iteration_time_s:.6e}s]"
        )
    if ev.plan.gpu_busy_s > ev.plan.makespan_s * (1.0 + REL_TOL):
        out.append(
            f"plan busy {ev.plan.gpu_busy_s:.6e}s exceeds makespan "
            f"{ev.plan.makespan_s:.6e}s"
        )
    return out


@_register(
    "kernel-time-additivity",
    "point",
    "plan GPU busy time equals the sum of its kernel durations, one "
    "timeline event per kernel",
)
def _kernel_time_additivity(ev: PointEvidence) -> list:
    out = []
    total = sum(t.duration_s for t in ev.plan.timings)
    if abs(ev.plan.gpu_busy_s - total) > REL_TOL * max(total, 1e-12):
        out.append(
            f"plan busy {ev.plan.gpu_busy_s:.9e}s != sum of kernel "
            f"durations {total:.9e}s"
        )
    events = len(ev.plan.timeline.events)
    if events != len(ev.plan.timings):
        out.append(f"{events} timeline events for {len(ev.plan.timings)} kernels")
    return out


@_register(
    "flop-conservation",
    "point",
    "the profile's FLOP count equals the plan total, which equals the sum "
    "over kernels",
)
def _flop_conservation(ev: PointEvidence) -> list:
    out = []
    kernel_sum = sum(t.kernel.flops for t in ev.plan.timings)
    for label, value in (
        ("plan.total_flops", ev.plan.total_flops),
        ("profile.gpu_flops", ev.profile.gpu_flops),
    ):
        if abs(value - kernel_sum) > REL_TOL * max(kernel_sum, 1.0):
            out.append(f"{label} = {value:.6e} != kernel sum {kernel_sum:.6e}")
    return out


@_register(
    "throughput-identity",
    "point",
    "throughput x iteration time reproduces the effective sample count, "
    "and derived IterationMetrics mirror the profile",
)
def _throughput_identity(ev: PointEvidence) -> list:
    out = []
    p = ev.profile
    samples = p.throughput * p.iteration_time_s
    if abs(samples - p.effective_samples) > REL_TOL * max(p.effective_samples, 1.0):
        out.append(
            f"throughput x time = {samples:.6e} != effective_samples "
            f"{p.effective_samples:.6e}"
        )
    metrics = IterationMetrics.from_profile(p, throughput_unit=ev.throughput_unit)
    if abs(metrics.throughput - p.throughput) > REL_TOL * max(p.throughput, 1e-12):
        out.append(
            f"IterationMetrics.throughput {metrics.throughput:.9e} != "
            f"profile.throughput {p.throughput:.9e}"
        )
    if abs(metrics.iteration_time_s - p.iteration_time_s) > REL_TOL * max(
        p.iteration_time_s, 1e-12
    ):
        out.append("IterationMetrics.iteration_time_s diverges from the profile")
    return out


@_register(
    "timeline-serial-order",
    "point",
    "the GPU executes its kernel stream serially: timeline events are "
    "ordered and never overlap",
)
def _timeline_serial_order(ev: PointEvidence) -> list:
    out = []
    events = ev.plan.timeline.events
    for prev, cur in zip(events, events[1:]):
        if cur.start_s < prev.end_s - 1e-12:
            out.append(
                f"event {cur.name!r} starts {cur.start_s:.9e}s before "
                f"{prev.name!r} ends {prev.end_s:.9e}s"
            )
            break
    for event in events:
        if event.end_s < event.start_s:
            out.append(f"event {event.name!r} ends before it starts")
            break
    return out


@_register(
    "memory-breakdown-additivity",
    "point",
    "the peak footprint is bounded by its five-way tag breakdown: "
    "max(tag peaks) <= peak_total <= sum(tag peaks)",
)
def _memory_breakdown_additivity(ev: PointEvidence) -> list:
    out = []
    snapshot = ev.plan.memory
    peaks = snapshot.peak_by_tag
    if not peaks:
        return [f"no per-tag peaks recorded for {ev.model}"]
    upper = sum(peaks.values())
    lower = max(peaks.values())
    if snapshot.peak_total > upper + BYTE_TOL + REL_TOL * upper:
        out.append(
            f"peak_total {snapshot.peak_total:.6e}B exceeds sum of tag "
            f"peaks {upper:.6e}B"
        )
    if snapshot.peak_total + BYTE_TOL < lower:
        out.append(
            f"peak_total {snapshot.peak_total:.6e}B below largest tag "
            f"peak {lower:.6e}B"
        )
    return out


@_register(
    "memory-within-capacity",
    "point",
    "a configuration that ran under memory checking fits its GPU",
)
def _memory_within_capacity(ev: PointEvidence) -> list:
    peak = ev.plan.memory.peak_total
    capacity = ev.gpu.memory_bytes
    if peak > capacity * (1.0 + REL_TOL):
        return [
            f"peak footprint {peak / 2**30:.3f} GiB exceeds {ev.gpu.name} "
            f"capacity {capacity / 2**30:.3f} GiB yet the run was admitted"
        ]
    return []


@_register(
    "weights-invariant-in-batch",
    "point",
    "weights and weight-gradient peaks do not depend on the batch size",
)
def _weights_invariant_in_batch(ev: PointEvidence) -> list:
    if ev.small_plan is None:
        return []
    out = []
    big = ev.plan.memory.peak_by_tag
    small = ev.small_plan.memory.peak_by_tag
    for tag in (AllocationTag.WEIGHTS, AllocationTag.WEIGHT_GRADIENTS):
        a, b = big.get(tag, 0.0), small.get(tag, 0.0)
        if abs(a - b) > BYTE_TOL:
            out.append(
                f"{tag.value} peak varies with batch: {b:.6e}B at "
                f"b{ev.small_batch} vs {a:.6e}B at b{ev.batch_size}"
            )
    return out


@_register(
    "feature-maps-monotone-in-batch",
    "point",
    "the feature-map peak never shrinks when the batch grows",
)
def _feature_maps_monotone_in_batch(ev: PointEvidence) -> list:
    if ev.small_plan is None or ev.small_batch >= ev.batch_size:
        return []
    tag = AllocationTag.FEATURE_MAPS
    small = ev.small_plan.memory.peak_by_tag.get(tag, 0.0)
    big = ev.plan.memory.peak_by_tag.get(tag, 0.0)
    if big + BYTE_TOL < small:
        return [
            f"feature-map peak shrank from {small:.6e}B at b{ev.small_batch} "
            f"to {big:.6e}B at b{ev.batch_size}"
        ]
    return []


#: Offload fractions the transform-conservation law walks, ascending.
_OFFLOAD_LADDER = (0.0, 0.25, 0.5, 1.0)


@_register(
    "transform-conservation",
    "point",
    "the FP16-storage transform preserves FLOPs and weight bytes while "
    "never growing the feature-map peak; offload at fraction 0 keeps the "
    "baseline makespan, and a larger fraction never shortens the makespan "
    "or grows the feature-map peak",
)
def _transform_conservation(ev: PointEvidence) -> list:
    out = _offload_monotonicity(ev)
    try:
        rewritten = HalfPrecisionStorageTransform().apply(ev.plan)
    except Exception as exc:  # TransformContractError and friends
        return out + [f"fp16-storage transform violated its contract: {exc}"]
    if abs(rewritten.total_flops - ev.plan.total_flops) > REL_TOL * max(
        ev.plan.total_flops, 1.0
    ):
        out.append(
            f"transform changed total FLOPs {ev.plan.total_flops:.6e} -> "
            f"{rewritten.total_flops:.6e}"
        )
    tag = AllocationTag.FEATURE_MAPS
    before = ev.plan.memory.peak_by_tag.get(tag, 0.0)
    after = rewritten.memory.peak_by_tag.get(tag, 0.0)
    if after > before * (1.0 + REL_TOL) + BYTE_TOL:
        out.append(
            f"fp16 storage grew the feature-map peak {before:.6e}B -> {after:.6e}B"
        )
    return out


def _offload_monotonicity(ev: PointEvidence) -> list:
    try:
        plans = [
            FeatureMapOffloadTransform(fraction).apply(ev.plan)
            for fraction in _OFFLOAD_LADDER
        ]
    except Exception as exc:  # TransformContractError and friends
        return [f"feature-map-offload transform violated its contract: {exc}"]
    out = []
    if plans[0].makespan_s != ev.plan.makespan_s:
        out.append(
            f"offload:0 moved the makespan {ev.plan.makespan_s:.6e}s -> "
            f"{plans[0].makespan_s:.6e}s"
        )
    tag = AllocationTag.FEATURE_MAPS
    steps = list(zip(_OFFLOAD_LADDER, plans))
    for (low, lighter), (high, heavier) in zip(steps, steps[1:]):
        if heavier.makespan_s < lighter.makespan_s:
            out.append(
                f"offload makespan fell from {lighter.makespan_s:.6e}s at "
                f"f={low:g} to {heavier.makespan_s:.6e}s at f={high:g}"
            )
        before = lighter.memory.peak_by_tag.get(tag, 0.0)
        after = heavier.memory.peak_by_tag.get(tag, 0.0)
        if after > before * (1.0 + REL_TOL) + BYTE_TOL:
            out.append(
                f"offload grew the feature-map peak from {before:.6e}B at "
                f"f={low:g} to {after:.6e}B at f={high:g}"
            )
    return out


# Ranking a point enumerates every candidate pipeline, so the verdict is
# memoized per (point, ranking function).  Keying on the *function* keeps
# the memo honest under monkeypatched rank orders (the mutant self-test).
_TUNE_RANK_MEMO: dict = {}


@_register(
    "tuned-config-dominance",
    "point",
    "the autotuner's winning pipeline fits GPU memory (its recorded fits "
    "bit agrees with the analytic check) and never has a larger modeled "
    "makespan than the untransformed baseline",
)
def _tuned_config_dominance(ev: PointEvidence) -> list:
    # Imported here for the same reason as the bench imports below: tune
    # depends on repro.plan and repro.bench.
    from repro.plan.pipeline import parse_transform_spec
    from repro.tune.search import Autotuner

    memo_key = (
        ev.model,
        ev.framework,
        ev.gpu.name,
        int(ev.batch_size),
        Autotuner._rank_key,
    )
    cached = _TUNE_RANK_MEMO.get(memo_key)
    if cached is None:
        tuner = Autotuner(
            ev.model, ev.framework, gpu=ev.gpu, batch_size=ev.batch_size
        )
        result = tuner.rank()
        analytic_fits = None
        if result.winner is not None:
            plan = tuner._session.compile_transformed(
                ev.batch_size, parse_transform_spec(result.winner.spec)
            )
            analytic_fits = plan.fits(ev.gpu.memory_bytes)
        cached = (result, analytic_fits)
        _TUNE_RANK_MEMO[memo_key] = cached
    result, analytic_fits = cached
    winner = result.winner
    if winner is None:
        return []
    out = []
    if not winner.fits or not analytic_fits:
        out.append(
            f"tuned winner {winner.spec!r} does not fit {ev.gpu.name} "
            f"memory (scored fits={winner.fits}, analytic "
            f"fits={analytic_fits})"
        )
    if winner.makespan_s > ev.plan.makespan_s * (1.0 + REL_TOL):
        out.append(
            f"tuned winner {winner.spec!r} has a larger modeled makespan "
            f"({winner.makespan_s:.6e}s) than the untransformed baseline "
            f"({ev.plan.makespan_s:.6e}s)"
        )
    return out


@_register(
    "noise-median-convergence",
    "point",
    "the median of noisy makespan replays converges to the noiseless "
    "closed form (the bench noise model is median-preserving)",
)
def _noise_median_convergence(ev: PointEvidence) -> list:
    # Imported here: the bench package depends on repro.plan, and keeping
    # conformance importable without it would otherwise become circular.
    # Measured through PlanSubject, the path every A/B answer takes (the
    # tuner's confirmation and ``tbd compare``).
    from repro.bench.noise import NoiseModel, median_convergence_tolerance
    from repro.bench.subjects import PlanSubject

    samples = 15
    noise = NoiseModel(seed=ev.batch_size)
    subject = PlanSubject("noise-probe", ev.plan)
    observed = sorted(subject.measure(noise.stream(index)) for index in range(samples))
    median = observed[samples // 2]
    noiseless = subject.noiseless_s
    tolerance = median_convergence_tolerance(noise, samples)
    deviation = abs(median / noiseless - 1.0)
    if deviation > tolerance:
        return [
            f"median of {samples} noisy makespans {median:.6e}s deviates "
            f"{deviation:.3%} from the noiseless {noiseless:.6e}s "
            f"(tolerance {tolerance:.3%})"
        ]
    return []


@_register(
    "analytic-oom-agreement",
    "point",
    "two max-batch answers agree over the model's batch ladder: the "
    "session's bisection over concrete compiles and the linear probe "
    "(compile every candidate until the first OOM)",
)
def _analytic_oom_agreement(ev: PointEvidence) -> list:
    session = TrainingSession(ev.model, ev.framework, gpu=ev.gpu)
    # The linear probe first: bisection then replays cached plans, so the
    # second answer costs no compiles.
    searched = session.max_batch_size(search=True)
    bisected = session.max_batch_size()
    if bisected != searched:
        return [
            f"bisected max_batch_size {bisected} != searched OOM boundary "
            f"{searched}"
        ]
    return []


def _schedule_probes(batch_size: int) -> tuple:
    """Deterministic adaptive probe schedules for one point: growth from
    the point's batch with headroom to produce several segments."""
    ceiling = max(4 * batch_size, batch_size + 1)
    return (
        f"geometric:factor=2,every=50,ceiling={ceiling}",
        f"gns:ceiling={ceiling},every=50",
    )


@_register(
    "schedule-sample-conservation",
    "point",
    "an adaptive schedule's segments tile [0, total_samples] exactly: "
    "the first starts at zero, each starts where its predecessor ends, "
    "the last ends at the integrated total, and no sample is counted "
    "twice or dropped across a segment boundary",
)
def _schedule_sample_conservation(ev: PointEvidence) -> list:
    # Imported here like the bench/tune dependencies above: the schedule
    # package pulls in the convergence curves, and conformance must stay
    # importable on its own.
    from repro.schedule import integrator
    from repro.training.convergence import FIG2_MODELS

    if ev.model not in FIG2_MODELS:
        return []  # schedules integrate against the convergence curve
    out = []
    for probe in _schedule_probes(ev.batch_size):
        message = integrator.tiling_violation(
            integrator.integrate_schedule(ev.model, probe, ev.batch_size)
        )
        if message is not None:
            out.append(f"schedule {probe}: {message}")
    return out


@_register(
    "schedule-fixed-equivalence",
    "point",
    "the fixed schedule is byte-identical to no schedule: an engine "
    "point run under schedule='fixed' serializes to the same canonical "
    "payload as the point run with no schedule",
)
def _schedule_fixed_equivalence(ev: PointEvidence) -> list:
    # Imported here for the same reason as the schedule import above.
    from repro.engine.executor import PointSpec, SweepEngine
    from repro.engine.keys import canonical_json
    from repro.engine.merge import point_to_payload

    engine = SweepEngine(jobs=1, cache=None, gpu=ev.gpu)
    plain, scheduled = engine.run_grid(
        [
            PointSpec(ev.model, ev.framework, ev.batch_size),
            PointSpec(
                ev.model, ev.framework, ev.batch_size, schedule="fixed"
            ),
        ]
    )
    if canonical_json(point_to_payload(plain)) != canonical_json(
        point_to_payload(scheduled)
    ):
        return [
            f"schedule='fixed' payload diverges from the unscheduled point "
            f"for {ev.model}/{ev.framework} b{ev.batch_size}"
        ]
    return []


# ----------------------------------------------------------------------
# sweep scope


def _paired(ev: SweepEvidence):
    return list(zip(ev.batch_sizes, ev.points))


@_register(
    "iteration-time-monotone",
    "sweep",
    "iteration time never decreases as the batch grows",
)
def _iteration_time_monotone(ev: SweepEvidence) -> list:
    out = []
    ok = [(b, p) for b, p in _paired(ev) if not p.oom and p.metrics is not None]
    for (b1, p1), (b2, p2) in zip(ok, ok[1:]):
        t1, t2 = p1.metrics.iteration_time_s, p2.metrics.iteration_time_s
        if b2 > b1 and t2 < t1 * (1.0 - REL_TOL):
            out.append(
                f"{ev.model}/{ev.framework}: iteration time dropped "
                f"{t1:.6e}s@b{b1} -> {t2:.6e}s@b{b2}"
            )
    return out


@_register(
    "throughput-monotone-on-ladder",
    "sweep",
    "throughput never decreases along the model's declared batch ladder "
    "(paper Observation 1)",
)
def _throughput_monotone_on_ladder(ev: SweepEvidence) -> list:
    out = []
    ladder = set(get_model(ev.model).batch_sizes)
    ok = [
        (b, p)
        for b, p in _paired(ev)
        if b in ladder and not p.oom and p.metrics is not None
    ]
    for (b1, p1), (b2, p2) in zip(ok, ok[1:]):
        thr1, thr2 = p1.metrics.throughput, p2.metrics.throughput
        if b2 > b1 and thr2 < thr1 * (1.0 - REL_TOL):
            out.append(
                f"{ev.model}/{ev.framework}: throughput dropped "
                f"{thr1:.4f}@b{b1} -> {thr2:.4f}@b{b2}"
            )
    return out


@_register(
    "oom-boundary-monotone",
    "sweep",
    "once a batch size runs out of memory, every larger batch does too",
)
def _oom_boundary_monotone(ev: SweepEvidence) -> list:
    out = []
    first_oom = None
    for b, p in _paired(ev):
        if p.oom and first_oom is None:
            first_oom = b
        elif not p.oom and first_oom is not None and b > first_oom:
            out.append(
                f"{ev.model}/{ev.framework}: b{b} fits although b{first_oom} OOMed"
            )
    return out


@_register(
    "sweep-metrics-in-range",
    "sweep",
    "every computed sweep point reports positive time/throughput and "
    "utilizations in [0, 1]",
)
def _sweep_metrics_in_range(ev: SweepEvidence) -> list:
    out = []
    for b, p in _paired(ev):
        if p.oom:
            continue
        m = p.metrics
        if m is None:
            out.append(f"b{b}: computed point carries no metrics")
            continue
        if m.throughput <= 0 or m.iteration_time_s <= 0:
            out.append(f"b{b}: non-positive throughput or iteration time")
        for label, value in (
            ("gpu_utilization", m.gpu_utilization),
            ("fp32_utilization", m.fp32_utilization),
            ("cpu_utilization", m.cpu_utilization),
        ):
            if not 0.0 <= value <= 1.0:
                out.append(f"b{b}: {label} = {value} outside [0, 1]")
    return out


# ----------------------------------------------------------------------
# scaling scope


@_register(
    "scaling-at-most-linear",
    "scaling",
    "multi-GPU throughput never beats linear: efficiency <= 1, exposed "
    "communication >= 0, communication fraction in [0, 1)",
)
def _scaling_at_most_linear(ev: ScalingEvidence) -> list:
    out = []
    p = ev.profile
    if p.scaling_efficiency > 1.0 + REL_TOL:
        out.append(
            f"{ev.cluster.name}: scaling efficiency {p.scaling_efficiency:.6f} > 1"
        )
    if p.exposed_exchange_s < -1e-12:
        out.append(f"{ev.cluster.name}: negative exposed exchange time")
    if not 0.0 <= p.communication_fraction < 1.0 + REL_TOL:
        out.append(
            f"{ev.cluster.name}: communication fraction "
            f"{p.communication_fraction:.6f} outside [0, 1)"
        )
    if p.iteration_time_s < p.compute_time_s * (1.0 - REL_TOL):
        out.append(f"{ev.cluster.name}: iteration shorter than its compute phase")
    return out


@_register(
    "allreduce-bandwidth-floor",
    "scaling",
    "a ring allreduce can never move its wire volume faster than the raw "
    "link bandwidth, nor dodge per-step latency",
)
def _allreduce_bandwidth_floor(ev: ScalingEvidence) -> list:
    cost = ev.allreduce_cost
    if cost is None or ev.cluster.total_gpus <= 1:
        return []
    workers = ev.cluster.total_gpus
    link = (
        ev.cluster.inter_link
        if ev.cluster.is_distributed
        else ev.cluster.machine.intra_link
    )
    gradient_bytes = ev.profile.gradient_bytes
    volume = 2.0 * gradient_bytes * (workers - 1) / workers
    floor = 2 * (workers - 1) * link.latency_s + volume / (link.bandwidth_gbs * 1e9)
    if cost.total_s < floor * (1.0 - REL_TOL):
        return [
            f"{ev.cluster.name}: allreduce of {gradient_bytes:.3e}B in "
            f"{cost.total_s:.6e}s beats the wire floor {floor:.6e}s"
        ]
    return []
