"""An optimization advisor built on the paper's findings.

The paper closes with "several important observations and recommendations
on where the future research and optimization of DNN training should be
focused".  This module turns those recommendations into an automated
diagnosis: given an :class:`~repro.core.analysis.AnalysisReport` (and
optionally a :class:`~repro.distributed.DistributedProfile`), it applies
the paper's decision rules and emits ranked, evidence-backed advice.

Rules encoded (the observation each derives from in parentheses):

1. GPU idle + many host syncs          -> fuse RNN cells (Obs. 5)
2. low FP32 despite busy GPU           -> small-kernel shapes; raise batch
                                          or fuse (Obs. 6/7)
3. long memory-bound kernels           -> optimize BN-class kernels (Obs. 8)
4. feature maps dominate memory        -> offload / recompute / FP16 maps
                                          (Obs. 11)
5. throughput saturated before the
   memory limit                        -> shrink batch, reinvest memory in
                                          depth or workspace (Obs. 12)
6. exposed communication dominates     -> faster fabric or gradient
                                          compression (Obs. 13)
7. input pipeline exposed              -> more reader threads / pre-packed
                                          data (the CNTK lesson, Fig. 7)

On top of the heuristics, the advisor consults the autotuner's cache
(:mod:`repro.tune.store`): when ``tbd tune`` has already *measured* a
winning transform pipeline for the exact workload under analysis, the
first recommendation cites that config and its confirmed speedup instead
of guessing — the heuristics remain as the fallback for workloads nobody
has tuned yet.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Recommendation:
    """One piece of advice with its measured evidence."""

    priority: int  # 1 = act first
    rule: str
    advice: str
    evidence: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[P{self.priority}] {self.rule}: {self.advice} ({self.evidence})"


def _gpu_idle_rules(report) -> list:
    recommendations = []
    metrics = report.metrics
    sample = report.cpu_sample
    idle = 1.0 - metrics.gpu_utilization
    if idle > 0.2 and sample.sync_s > 0.1 * metrics.iteration_time_s:
        recommendations.append(
            Recommendation(
                priority=1,
                rule="launch-bound recurrence",
                advice="fuse RNN cells (cuDNN fused path) to eliminate "
                "per-timestep host synchronization; try "
                "`tbd sweep --transforms fused_rnn` or `tbd tune`",
                evidence=f"GPU idle {idle * 100:.0f}% with "
                f"{sample.sync_s * 1e3:.0f} ms/iteration of host syncs",
            )
        )
    elif idle > 0.2 and sample.environment_s > 0:
        recommendations.append(
            Recommendation(
                priority=1,
                rule="environment-bound training",
                advice="parallelize environment simulation further or batch "
                "inference across actors",
                evidence=f"GPU idle {idle * 100:.0f}% while environment "
                f"workers burn {sample.environment_s:.2f} core-s/iteration",
            )
        )
    return recommendations


def _fp32_rules(report) -> list:
    metrics = report.metrics
    if metrics.gpu_utilization > 0.85 and metrics.fp32_utilization < 0.25:
        return [
            Recommendation(
                priority=2,
                rule="shape-starved kernels",
                advice="kernels are busy but tiny (narrow GEMMs); increase "
                "the mini-batch or fuse steps into batched GEMMs",
                evidence=f"GPU busy {metrics.gpu_utilization * 100:.0f}% but "
                f"FP32 only {metrics.fp32_utilization * 100:.0f}%",
            )
        ]
    return []


def _kernel_rules(report) -> list:
    rows = report.kernel_trace.longest_low_utilization_kernels(3)
    heavy = [row for row in rows if row.duration_share > 0.05]
    if heavy:
        names = ", ".join(row.kernel_name.split("<")[0] for row in heavy)
        return [
            Recommendation(
                priority=3,
                rule="low-utilization hot kernels",
                advice="these kernels are the top acceleration candidates "
                "(Tables 5/6); batch-normalization variants respond to "
                "kernel fusion with adjacent elementwise ops",
                evidence=f"{names} hold "
                f"{sum(r.duration_share for r in heavy) * 100:.0f}% of GPU time "
                "below average FP32 utilization",
            )
        ]
    return []


def _memory_rules(report) -> list:
    recommendations = []
    fraction = report.memory.feature_map_fraction
    if fraction > 0.6:
        recommendations.append(
            Recommendation(
                priority=4,
                rule="feature-map-dominated footprint",
                advice="reduce training memory via feature-map offloading "
                "(`--transforms offload:<f>`), recomputation, or FP16 "
                "storage (`--transforms fp16`), and reinvest what they free "
                "in depth (`depth:<n>`); `tbd tune` searches the "
                "combinations — weights-focused compression will not help "
                "training",
                evidence=f"feature maps hold {fraction * 100:.0f}% of the "
                f"{report.memory.total_gib:.1f} GiB footprint",
            )
        )
    return recommendations


def _pipeline_rules(report) -> list:
    sample = report.cpu_sample
    if sample.pipeline_s > 0.5 * sample.iteration_time_s:
        return [
            Recommendation(
                priority=5,
                rule="input-pipeline pressure",
                advice="add reader threads or pre-decode the dataset "
                "(CNTK-style packed readers run at ~0.1% CPU)",
                evidence=f"decode/augment costs {sample.pipeline_s:.2f} "
                f"core-s per {sample.iteration_time_s:.2f} s iteration",
            )
        ]
    return []


def _workload_identity(metrics):
    """Map the report's display strings back to registry identities:
    ``(model key, framework key, GPUSpec)`` — or ``None`` when any leg
    does not resolve (an ad-hoc graph, an unregistered device)."""
    from repro.frameworks.registry import framework_catalog
    from repro.hardware.devices import gpu_catalog
    from repro.models.registry import model_catalog

    model_key = next(
        (
            spec.key
            for spec in model_catalog().values()
            if spec.display_name == metrics.model
        ),
        None,
    )
    framework_key = next(
        (
            framework.key
            for framework in framework_catalog().values()
            if framework.name == metrics.framework
        ),
        None,
    )
    gpu = next(
        (gpu for gpu in gpu_catalog().values() if gpu.name == metrics.device),
        None,
    )
    if model_key is None or framework_key is None or gpu is None:
        return None
    return model_key, framework_key, gpu


def _tuned_config_rules(report, cache=None) -> list:
    """Cite the autotuner's measured best config when one is cached for
    this exact workload; silent otherwise (the heuristics stand in)."""
    identity = _workload_identity(report.metrics)
    if identity is None:
        return []
    model_key, framework_key, gpu = identity
    from repro.engine.cache import ResultCache
    from repro.tune.store import load_tuned

    try:
        store = cache if cache is not None else ResultCache(None)
        doc = load_tuned(
            store, model_key, framework_key, report.metrics.batch_size, gpu=gpu
        )
    except OSError:
        return []
    if not doc or not doc.get("winner"):
        return []
    winner = doc["winner"]
    makespan = winner.get("makespan_s") or 0.0
    speedup = doc["baseline_makespan_s"] / makespan if makespan > 0.0 else 1.0
    evidence = f"tbd tune measured a x{speedup:.2f} modeled makespan speedup"
    confirmation = doc.get("confirmation")
    if confirmation:
        evidence += (
            f", A/B-confirmed x{confirmation['speedup']:.2f} "
            f"(p={confirmation['p_improvement']:.4f}, "
            f"{confirmation['verdict']})"
        )
    return [
        Recommendation(
            priority=1,
            rule="measured tuned config",
            advice=f"apply the tuned transform pipeline "
            f"'{winner['spec']}' (tbd sweep --transforms "
            f"'{winner['spec']}'); retuning is a cache hit",
            evidence=evidence,
        )
    ]


def advise(report, distributed_profile=None, cache=None) -> list:
    """Produce ranked recommendations for one analysis report.

    Args:
        report: an :class:`~repro.core.analysis.AnalysisReport`.
        distributed_profile: optional
            :class:`~repro.distributed.DistributedProfile` for the same
            model, to diagnose communication exposure.
        cache: optional :class:`~repro.engine.cache.ResultCache` holding
            tuned configs (default: the default cache location), so a
            workload ``tbd tune`` has measured gets its tuned pipeline
            cited ahead of the heuristics.
    """
    recommendations = []
    recommendations.extend(_tuned_config_rules(report, cache=cache))
    recommendations.extend(_gpu_idle_rules(report))
    recommendations.extend(_fp32_rules(report))
    recommendations.extend(_kernel_rules(report))
    recommendations.extend(_memory_rules(report))
    recommendations.extend(_pipeline_rules(report))
    if distributed_profile is not None and (
        distributed_profile.communication_fraction > 0.3
    ):
        recommendations.append(
            Recommendation(
                priority=1,
                rule="communication-bound scaling",
                advice="increase fabric bandwidth (InfiniBand/NVLink) or "
                "reduce exchanged bytes (FP16 gradients, all-reduce); see "
                "examples/distributed_whatif.py",
                evidence=f"{distributed_profile.communication_fraction * 100:.0f}% "
                f"of each iteration is exposed gradient exchange on "
                f"{distributed_profile.configuration}",
            )
        )
    return sorted(recommendations, key=lambda r: r.priority)
