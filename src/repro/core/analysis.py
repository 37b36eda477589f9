"""The end-to-end analysis pipeline of the paper's Fig. 3.

    DNN model implementation
      -> setup: make implementations comparable
      -> warm-up & auto-tuning (excluded from data collection)
      -> short training period, sampled
      -> {throughput, compute utilization, FP32 utilization, CPU
          utilization, memory consumption}

:class:`AnalysisPipeline` wires those stages together over the simulated
runtime: it validates comparability, synthesizes the warm-up/auto-tune
iteration timeline, picks the stable sampling window, attaches the kernel
trace ("nvprof"), the CPU sampler ("vTune") and the memory profiler, and
merges everything into one :class:`AnalysisReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import IterationMetrics
from repro.observability.tracer import trace_span
from repro.profiling.cpu_sampler import CPUSample, CPUSampler
from repro.profiling.kernel_trace import KernelTrace, trace_from_profile
from repro.profiling.memory_profiler import MemoryProfile
from repro.profiling.sampling import IterationTimeline, StablePhaseSampler
from repro.training.hyperparams import assert_comparable, defaults_for
from repro.training.session import TrainingSession


@dataclass(frozen=True)
class AnalysisReport:
    """Merged output of one full pipeline run."""

    metrics: IterationMetrics
    kernel_trace: KernelTrace
    cpu_sample: CPUSample
    memory: MemoryProfile
    stable_start_iteration: int
    sampled_iterations: int
    stable_throughput: float

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"=== {self.metrics.model} on {self.metrics.framework} "
            f"({self.metrics.device}, batch {self.metrics.batch_size}) ===",
            f"warm-up/auto-tune excluded: first {self.stable_start_iteration} "
            f"iterations; sampled {self.sampled_iterations} stable iterations",
            f"throughput:        {self.stable_throughput:9.1f} "
            f"{self.metrics.throughput_unit}",
            f"GPU utilization:   {self.metrics.gpu_utilization * 100:8.1f}%",
            f"FP32 utilization:  {self.metrics.fp32_utilization * 100:8.1f}%",
            f"CPU utilization:   {self.metrics.cpu_utilization * 100:8.2f}%",
            f"memory total:      {self.memory.total_gib:8.2f} GiB "
            f"(feature maps {self.memory.feature_map_fraction * 100:.0f}%)",
            "top low-FP32 kernels:",
        ]
        for row in self.kernel_trace.longest_low_utilization_kernels(5):
            lines.append(f"  {row}")
        return "\n".join(lines)


#: Stable-phase iterations the sampler asks for (the paper samples
#: 50-1000), and the shortest synthesized run it picks them from.
SAMPLE_ITERATIONS = 200
RUN_ITERATIONS = 600


class AnalysisPipeline:
    """Runs the Fig. 3 pipeline for one benchmark configuration."""

    def __init__(self, model: str, framework: str, gpu=None):
        kwargs = {} if gpu is None else {"gpu": gpu}
        self.session = TrainingSession(model, framework, **kwargs)

    def run(self, batch_size: int | None = None) -> AnalysisReport:
        """Execute every pipeline stage and merge the results.

        Each stage runs under a ``pipeline.stage.*`` telemetry span
        (setup -> warm-up -> sample -> profile -> merge), so an
        instrumented run yields the Fig. 3 flow as one coherent span tree
        with the simulated kernel timeline attached beneath it.
        """
        spec = self.session.spec
        batch = batch_size if batch_size is not None else spec.reference_batch
        with trace_span(
            "pipeline.run",
            model=spec.key,
            framework=self.session.framework.key,
            batch_size=batch,
        ):
            # Stage 1 — setup: make implementations comparable (§3.4.1).
            with trace_span("pipeline.stage.setup", stage="setup"):
                reference = defaults_for(spec.key)
                assert_comparable(spec.key, reference, reference)

            # Stage 2 — warm-up & auto-tuning (excluded from data
            # collection): execute the workload to learn the stable
            # iteration time, then synthesize the warm-up/auto-tune
            # timeline.  Faster R-CNN needs thousands of iterations to
            # stabilize (§3.4.2); everything else a few hundred.
            with trace_span("pipeline.stage.warmup", stage="warm-up") as warmup:
                profile = self.session.run_iteration(batch)
                autotune = 2000 if spec.key == "faster-rcnn" else 200
                timeline = IterationTimeline(
                    stable_iteration_s=profile.iteration_time_s,
                    autotune_iterations=autotune,
                )
                run_length = max(RUN_ITERATIONS, autotune + 4 * SAMPLE_ITERATIONS)
                durations = timeline.durations(run_length)
                warmup.set_attributes(
                    autotune_iterations=autotune, run_length=run_length
                )

            # Stage 3 — sample: pick the stable-phase window.
            with trace_span("pipeline.stage.sample", stage="sample") as sampling:
                sampler = StablePhaseSampler()
                window = sampler.choose_window(durations, SAMPLE_ITERATIONS)
                stable_throughput = sampler.stable_throughput(
                    durations, profile.effective_samples, SAMPLE_ITERATIONS
                )
                sampling.set_attributes(
                    stable_start=window.start_iteration, window=window.length
                )

            # Stage 4 — profile: the piecewise tools over the measured
            # iteration (nvprof-, vTune- and memory-profiler counterparts).
            with trace_span("pipeline.stage.profile", stage="profile"):
                trace = trace_from_profile(profile)
                cpu_sample = CPUSampler(self.session).sample(batch)
                memory = MemoryProfile(
                    model=spec.display_name,
                    framework=self.session.framework.name,
                    batch_size=batch,
                    snapshot=profile.memory,
                )

            # Stage 5 — merge: one report from all views.
            with trace_span("pipeline.stage.merge", stage="merge"):
                metrics = IterationMetrics.from_profile(
                    profile, throughput_unit=spec.throughput_unit
                )
                return AnalysisReport(
                    metrics=metrics,
                    kernel_trace=trace,
                    cpu_sample=cpu_sample,
                    memory=memory,
                    stable_start_iteration=window.start_iteration,
                    sampled_iterations=window.length,
                    stable_throughput=stable_throughput,
                )
