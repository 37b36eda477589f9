"""Figs. 1 and 3 — the paper's two schematic figures, rendered from live
library structure (not static art): Fig. 1's forward/backward dataflow is
generated from an actual lowered graph, and Fig. 3's analysis pipeline is
generated from the pipeline's real stages.
"""

from __future__ import annotations

from repro.models.resnet import build_resnet50


def generate_fig1(layers_to_show: int = 3) -> dict:
    """Fig. 1's content from a real graph: per-layer forward/backward
    kernel pairs and the stashed feature/gradient maps between them."""
    graph = build_resnet50(4)
    weighted = [layer for layer in graph.layers if layer.weight_elements > 0]
    selected = weighted[:layers_to_show]
    return {
        "model": graph.model_name,
        "layers": [
            {
                "name": layer.name,
                "weights": layer.weight_elements,
                "feature_map_elements": layer.output_elements,
                "forward_kernels": len(layer.forward_kernels),
                "backward_kernels": len(layer.backward_kernels),
            }
            for layer in selected
        ],
    }


def render_fig1(data=None) -> str:
    """ASCII rendering of the feed-forward / back-propagation dataflow."""
    data = data if data is not None else generate_fig1()
    lines = [
        "Fig. 1: feed-forward and back-propagation "
        f"(first layers of {data['model']}, live graph)",
        "",
        "  input",
    ]
    for entry in data["layers"]:
        lines.append(
            f"    | fw x{entry['forward_kernels']}            "
            f"^ bw x{entry['backward_kernels']}"
        )
        lines.append(
            f"  [ {entry['name']}  weights={entry['weights']:,} ]"
            f"--> weight update"
        )
        lines.append(
            f"    | feature maps ({entry['feature_map_elements']:,} elements, "
            "stashed for backward)   ^ gradient maps"
        )
    lines.append("    ...")
    lines.append("  output --> loss(output, ground truth) --> error")
    return "\n".join(lines)


#: Fig. 3's stages, with the tool each maps to in this repository.
PIPELINE_STAGES = (
    ("DNN model implementation", "repro.models registry (Table 2)"),
    (
        "setup: make implementations comparable",
        "training.hyperparams.assert_comparable",
    ),
    (
        "warm-up & auto-tuning (excluded from data collection)",
        "profiling.sampling.StablePhaseSampler",
    ),
    ("short training period, sampling", "profiling.sampling + statistics"),
    ("nvprof -> .nvvp files", "profiling.kernel_trace + CompiledPlan.timeline"),
    ("vTune", "profiling.cpu_sampler.CPUSampler"),
    ("memory profiler", "profiling.memory_profiler.MemoryProfiler"),
    (
        "metrics: throughput, compute/FP32/CPU utilization, memory",
        "core.metrics (Eqs. 1-3) via core.analysis.AnalysisReport",
    ),
)


def generate_fig3() -> list:
    """The pipeline stages with their implementing modules."""
    return list(PIPELINE_STAGES)


def render_fig3(stages=None) -> str:
    """ASCII rendering of the analysis pipeline."""
    stages = stages if stages is not None else generate_fig3()
    lines = ["Fig. 3: the analysis pipeline (stage -> implementing module)", ""]
    for index, (stage, module) in enumerate(stages):
        prefix = "  " if index == 0 else "    v\n  "
        lines.append(f"{prefix}[{stage}]")
        lines.append(f"        = {module}")
    return "\n".join(lines)


def generate() -> dict:
    """Both schematics' content."""
    return {"fig1": generate_fig1(), "fig3": generate_fig3()}


def render(data=None) -> str:
    """Render both schematic figures."""
    data = data if data is not None else generate()
    return render_fig1(data["fig1"]) + "\n\n" + render_fig3(data["fig3"])
