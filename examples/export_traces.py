"""Export chrome traces for two contrasting workloads.

The paper's pipeline collects ``.nvvp`` files and merges them offline; this
example produces the modern equivalent and writes it under ``./artifacts``:
``resnet50_trace.json`` / ``nmt_trace.json`` — load in chrome://tracing
or https://ui.perfetto.dev to *see* the difference between a saturated
CNN timeline and an LSTM timeline full of host-sync gaps.
"""

import os

from repro.core.suite import standard_suite
from repro.observability.exporters import chrome_trace, timeline_events, write_trace

OUTPUT_DIR = "artifacts"


def main() -> None:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    suite = standard_suite()

    for label, model, framework, batch in (
        ("resnet50", "resnet-50", "mxnet", 32),
        ("nmt", "nmt", "tensorflow", 64),
    ):
        timeline = suite.session(model, framework).compile(batch).timeline
        trace_path = os.path.join(OUTPUT_DIR, f"{label}_trace.json")
        trace = chrome_trace(f"{model} ({framework})", timeline_events(timeline))
        write_trace(trace, trace_path)
        idle = timeline.idle_by_cause()
        print(
            f"{label}: {len(timeline.events)} kernels, GPU util "
            f"{timeline.gpu_utilization * 100:.0f}%, idle by cause "
            f"{ {k: round(v * 1e3, 1) for k, v in idle.items()} } ms"
        )
        print(f"  -> {trace_path}")


if __name__ == "__main__":
    main()
