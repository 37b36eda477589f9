"""Export profiling artifacts: chrome traces and CSV summaries.

The paper's pipeline collects ``.nvvp`` files and merges them offline; this
example produces the modern equivalents for two contrasting workloads and
writes them under ``./artifacts``:

- ``resnet50_trace.json`` / ``nmt_trace.json`` — load in chrome://tracing
  or https://ui.perfetto.dev to *see* the difference between a saturated
  CNN timeline and an LSTM timeline full of host-sync gaps;
- ``*_kernels.csv`` — per-kernel aggregates (the Tables 5/6 raw data);
- ``suite_metrics.csv`` — headline metrics for every configuration.
"""

import os

from repro.core.metrics import IterationMetrics
from repro.core.suite import standard_suite
from repro.profiling.export import (
    kernel_stats_to_csv,
    metrics_to_csv,
    write_chrome_trace,
)
from repro.profiling.kernel_trace import trace_from_profile

OUTPUT_DIR = "artifacts"


def main() -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    suite = standard_suite()

    for label, model, framework, batch in (
        ("resnet50", "resnet-50", "mxnet", 32),
        ("nmt", "nmt", "tensorflow", 64),
    ):
        session = suite.session(model, framework)
        timeline = session.compile(batch).timeline
        trace_path = os.path.join(OUTPUT_DIR, f"{label}_trace.json")
        write_chrome_trace(timeline, trace_path, process_name=f"{model} ({framework})")
        profile = session.run_iteration(batch)
        csv_path = os.path.join(OUTPUT_DIR, f"{label}_kernels.csv")
        kernel_stats_to_csv(trace_from_profile(profile), csv_path)
        idle = timeline.idle_by_cause()
        print(
            f"{label}: {len(timeline.events)} kernels, GPU util "
            f"{timeline.gpu_utilization * 100:.0f}%, idle by cause "
            f"{ {k: round(v * 1e3, 1) for k, v in idle.items()} } ms"
        )
        print(f"  -> {trace_path}, {csv_path}")

    metrics = []
    for spec, framework in suite.configurations():
        profile = suite.session(spec.key, framework.key).run_iteration()
        metrics.append(
            IterationMetrics.from_profile(profile, spec.throughput_unit)
        )
    metrics_path = os.path.join(OUTPUT_DIR, "suite_metrics.csv")
    metrics_to_csv(metrics, metrics_path)
    print(f"suite metrics ({len(metrics)} configurations) -> {metrics_path}")


if __name__ == "__main__":
    main()
