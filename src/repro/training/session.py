"""The simulated training session: executes one model iteration on one GPU
under one framework and produces every metric the paper's toolchain reports.

Execution model
===============

Sessions follow a compile-then-execute split.  ``compile`` lowers the
model's layer graph once into a :class:`~repro.plan.compiled.CompiledPlan`
— kernel stream, roofline timings, the resolved CPU-dispatch/GPU-execute
timeline, and the allocation trace — memoized per batch size in the
session's :class:`~repro.plan.cache.PlanCache`.  ``execute_plan`` then
derives the iteration profile from a plan: it layers the host-side input
pipeline (decode/augment, partially overlapped), framework frontend work,
model-specific host stages (Faster R-CNN proposals), and environment
simulation (A3C's emulator) on top of the plan's kernel makespan, and
reports the paper's Eq. 1-3 metrics.

The dispatch/execute loop itself lives in :mod:`repro.plan.executor`: the
CPU issues kernels one after another, each issue costing the framework's
``dispatch_cost_s``, and the GPU executes them in stream order.  When
kernels are long (big convolutions) the GPU never waits and compute
utilization approaches 100%; when they are tiny and numerous (per-timestep
RNN kernels, small batches) the dispatch+launch path dominates and the GPU
idles between kernels — the paper's Observations 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import cpu_utilization, gpu_utilization
from repro.data.pipeline import DataPipelineModel
from repro.data.registry import get_dataset
from repro.frameworks.base import Framework
from repro.frameworks.registry import get_framework
from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.hardware.roofline import RooflineModel
from repro.models.registry import ModelSpec, get_model, shared_graph
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.plan import compiler as plan_compiler
from repro.plan.cache import PlanCache
from repro.plan.compiled import CompiledPlan

#: Live activation-gradient working set, as a fraction of the stashed
#: forward feature maps (gradient maps are produced and consumed during the
#: backward pass; frameworks keep a rolling subset alive).  Read lazily by
#: the plan compiler's allocation-trace recorder so ablations can patch it.
GRADIENT_MAP_FACTOR = 0.10
#: Host-side staging buffers (double-buffered input batches).
_INPUT_STAGING_BUFFERS = 2


@dataclass
class IterationProfile:
    """Everything measured about one (stable-phase) training iteration."""

    model: str
    framework: str
    device: str
    batch_size: int
    iteration_time_s: float
    gpu_busy_time_s: float
    gpu_flops: float
    effective_samples: float
    cpu_core_seconds: float
    cpu_core_count: int
    peak_fp32_flops: float
    kernel_timings: list = field(default_factory=list)
    memory: object = None

    @property
    def throughput(self) -> float:
        """Samples processed per second (paper Section 3.4.3)."""
        return self.effective_samples / self.iteration_time_s

    @property
    def gpu_utilization(self) -> float:
        """Fraction of wall time the GPU is busy (paper Eq. 1)."""
        return gpu_utilization(self.gpu_busy_time_s, self.iteration_time_s)

    @property
    def fp32_utilization(self) -> float:
        """Achieved FLOP/s over peak while the GPU is active (paper Eq. 2).

        Clamped to [0, 1] like the other utilizations: launch latency and
        occupancy ramps keep real kernels below peak, but a degenerate
        timing input must not report more than 100%.
        """
        if self.gpu_busy_time_s <= 0:
            return 0.0
        return min(
            1.0, self.gpu_flops / (self.peak_fp32_flops * self.gpu_busy_time_s)
        )

    @property
    def cpu_utilization(self) -> float:
        """Mean utilization across all host cores (paper Eq. 3)."""
        return cpu_utilization(
            self.cpu_core_seconds, self.cpu_core_count, self.iteration_time_s
        )


class TrainingSession:
    """Binds a model, a framework personality and a device; compiles the
    model into cached execution plans and simulates stable-phase training
    iterations over them."""

    def __init__(
        self,
        model,
        framework="tensorflow",
        gpu: GPUSpec = QUADRO_P4000,
        cpu: CPUSpec = XEON_E5_2680,
    ):
        self.spec: ModelSpec = get_model(model) if isinstance(model, str) else model
        self.framework: Framework = get_framework(framework)
        if not self.spec.supports(self.framework.key):
            raise ValueError(
                f"the paper has no {self.framework.name} implementation of "
                f"{self.spec.display_name} (available: {self.spec.frameworks})"
            )
        self.gpu = gpu
        self.cpu = cpu
        self._roofline = RooflineModel(gpu)
        self._dataset = get_dataset(self.spec.dataset)
        self._pipeline = DataPipelineModel(self._dataset)
        self._plans = PlanCache()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """This session's plan memo (hit/miss stats for guards/tools)."""
        return self._plans

    def compile(self, batch_size: int | None = None) -> CompiledPlan:
        """The session's compiled plan for one batch size, built at most
        once per distinct batch (graph build + kernel lowering + roofline
        timing + dispatch/execute replay + allocation trace).

        The memory-model constants are compile inputs (the allocation
        trace bakes them in), so they join the cache key — ablations that
        patch them get fresh plans instead of stale traces."""
        batch = batch_size if batch_size is not None else self.spec.reference_batch
        return self._plans.get(
            (int(batch), GRADIENT_MAP_FACTOR, _INPUT_STAGING_BUFFERS),
            lambda: self._build_plan(batch),
        )

    def compile_transformed(self, batch_size: int | None, pipeline) -> CompiledPlan:
        """The session's compiled plan for one batch size under a
        :class:`~repro.plan.pipeline.TransformPipeline` — the one path by
        which a pipeline is applied; the empty pipeline returns
        :meth:`compile`'s plan itself.

        Stages apply incrementally in the pipeline's canonical order
        (each through :meth:`~repro.plan.transform.PlanTransform.apply`,
        which checks the stage's own contracts), and every *prefix* of the
        pipeline memoizes its plan in the session's
        :class:`~repro.plan.cache.PlanCache` — so candidate pipelines that
        share a prefix (the autotuner enumerates many) share the expensive
        graph-rewrite recompiles and the base plan.  The pipeline's
        composition-wide contracts are then checked against the base plan
        on every call, memo hit or not."""
        base = self.compile(batch_size)
        if not pipeline:
            return base
        batch = base.graph.batch_size
        plan = base
        prefix_tokens = []
        for stage in pipeline:
            prefix_tokens.append(stage.token)
            prior = plan
            plan = self._plans.get(
                (
                    int(batch),
                    GRADIENT_MAP_FACTOR,
                    _INPUT_STAGING_BUFFERS,
                    "+".join(prefix_tokens),
                ),
                lambda: stage.transform.apply(prior),
            )
        pipeline.check_composition(base, plan)
        return plan

    def _build_plan(self, batch) -> CompiledPlan:
        """Plan-cache factory: take the model's graph at ``batch`` from the
        process-wide :func:`~repro.models.registry.shared_graph` memo (one
        graph serves every framework) and lower it through the concrete
        compiler with the session's roofline (whose per-kernel timing memo
        then serves every batch the session compiles)."""
        return plan_compiler.compile_graph(
            shared_graph(self.spec.build, batch),
            self.framework,
            self.gpu,
            roofline=self._roofline,
        )

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def profile_memory(self, batch_size: int) -> object:
        """Replay the compiled plan's allocation trace against this GPU's
        capacity; returns a :class:`~repro.hardware.memory.MemorySnapshot`.

        Raises:
            OutOfMemoryError: if the footprint exceeds GPU capacity.
        """
        with trace_span(
            "session.profile_memory", model=self.spec.key, batch_size=batch_size
        ):
            plan = self.compile(batch_size)
            snapshot = plan.check_memory(self.gpu.memory_bytes)
        self._record_memory_telemetry(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # telemetry (no-op unless repro.observability is enabled)
    # ------------------------------------------------------------------

    def _record_memory_telemetry(self, snapshot) -> None:
        """Publish the allocator's per-tag peaks as gauges."""
        metrics = get_metrics()
        if not metrics.enabled:
            return
        for tag in sorted(snapshot.peak_by_tag, key=lambda tag: tag.value):
            metrics.gauge("memory_peak_bytes", {"tag": tag.value}).set(
                snapshot.peak_by_tag[tag]
            )
        metrics.gauge("memory_peak_total_bytes").set(snapshot.peak_total)

    def _record_kernel_telemetry(self, span, timeline) -> None:
        """Attach the plan's kernel timeline to the open span and update
        the kernel-stream metrics.  Only called when telemetry is enabled,
        so the lookup never taxes the plain simulation path."""
        if span.enabled:
            span.attach_timeline(timeline)
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.counter("kernels_issued_total").inc(len(timeline.events))
        metrics.counter("gpu_busy_seconds_total").inc(timeline.busy_s)
        queue_delay = metrics.histogram("kernel_queue_delay_seconds")
        for event in timeline.events:
            queue_delay.observe(event.queue_delay_s)
        for cause, seconds in sorted(timeline.idle_by_cause().items()):
            metrics.counter("gpu_idle_seconds_total", {"cause": cause}).inc(seconds)
        stalls = sum(1 for gap in timeline.gaps if gap.cause == "dispatch")
        if stalls:
            metrics.counter("dispatch_stalls_total").inc(stalls)

    # ------------------------------------------------------------------
    # the headline entry points
    # ------------------------------------------------------------------

    def run_iteration(
        self, batch_size: int | None = None, pipeline=()
    ) -> IterationProfile:
        """Simulate one stable-phase training iteration, under a
        :class:`~repro.plan.pipeline.TransformPipeline` when one is given
        (memory is then checked against the transformed plan: an offloaded
        point may fit where the baseline OOMs).

        Raises:
            OutOfMemoryError: if the plan does not fit the GPU.
        """
        batch = batch_size if batch_size is not None else self.spec.reference_batch
        with trace_span(
            "session.run_iteration",
            model=self.spec.key,
            framework=self.framework.key,
            device=self.gpu.name,
            batch_size=batch,
        ):
            plan = self.compile_transformed(batch, pipeline)
            memory = plan.check_memory(self.gpu.memory_bytes)
            self._record_memory_telemetry(memory)
            return self.execute_plan(
                plan, memory=memory, display_name=self.spec.display_name
            )

    def execute_plan(
        self,
        plan: CompiledPlan,
        memory=None,
        display_name: str | None = None,
    ) -> IterationProfile:
        """Derive one iteration's profile from a compiled plan.

        The plan supplies the device-side quantities (makespan, busy time,
        dispatch CPU seconds, FLOPs); this method layers the session's
        host-side costs on top.  Host costs are accounted for the
        session's model regardless of the plan's graph.
        """
        graph = plan.graph
        batch = graph.batch_size
        span = trace_span(
            "session.simulate_graph", model=graph.model_name, batch_size=batch
        )
        with span:
            timings = plan.timings
            if span.enabled or get_metrics().enabled:
                self._record_kernel_telemetry(span, plan.timeline)

            pipeline = self._pipeline.cost(
                max(1, int(batch * self.spec.pipeline_cost_scale)), self.framework
            )
            host_core_seconds = self.spec.host_cpu_cost(self.framework.key)
            host_exposed = host_core_seconds * (1.0 - self.spec.host_cpu_overlap)
            env_core_seconds = self.spec.env_cpu_core_seconds_per_sample * batch
            env_wall = env_core_seconds / self.spec.env_cpu_threads

            iteration_time = (
                plan.makespan_s + pipeline.exposed_seconds + host_exposed + env_wall
            )
            cpu_core_seconds = (
                plan.dispatch_cpu_s
                + pipeline.cpu_core_seconds
                + host_core_seconds
                + env_core_seconds
            )
            span.set_attributes(
                kernels_issued=len(timings),
                gpu_busy_s=plan.gpu_busy_s,
                iteration_time_s=iteration_time,
            )
        return IterationProfile(
            model=display_name if display_name is not None else graph.model_name,
            framework=self.framework.name,
            device=self.gpu.name,
            batch_size=batch,
            iteration_time_s=iteration_time,
            gpu_busy_time_s=plan.gpu_busy_s,
            gpu_flops=plan.total_flops,
            effective_samples=graph.effective_samples,
            cpu_core_seconds=cpu_core_seconds,
            cpu_core_count=self.cpu.core_count,
            peak_fp32_flops=self.gpu.peak_fp32_flops,
            kernel_timings=timings,
            memory=memory,
        )

    def max_batch_size(
        self, candidates=None, *, search: bool = False, pipeline=()
    ) -> int:
        """Largest sweep batch size that fits in GPU memory, under a
        :class:`~repro.plan.pipeline.TransformPipeline` when one is given
        (FP16 storage or offload stretch the batch axis).

        A candidate fits when its :meth:`compile_transformed` plan does
        (:meth:`~repro.plan.compiled.CompiledPlan.fits`, one comparison,
        for every pipeline, the empty one included).  The default path
        bisects the sorted candidates: memory footprints are nondecreasing
        in batch (a registered conformance invariant), so at most
        ``ceil(log2 n) + 1`` candidates compile, and their plans stay in
        the session's plan cache for later consumers.  ``search=True``
        probes every candidate in order until the first OOM instead —
        the linear oracle the conformance invariant checks bisection
        against."""
        sizes = sorted(candidates if candidates is not None else self.spec.batch_sizes)
        if search:
            best = 0
            for batch in sizes:
                if not self._fits(batch, pipeline):
                    break
                best = batch
            return best
        lo, hi = -1, len(sizes)  # sizes[lo] fits (or none); sizes[hi] does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._fits(sizes[mid], pipeline):
                lo = mid
            else:
                hi = mid
        return sizes[lo] if lo >= 0 else 0

    def _fits(self, batch, pipeline) -> bool:
        return self.compile_transformed(batch, pipeline).fits(self.gpu.memory_bytes)
