"""Quickstart: run one TBD benchmark end to end and print every metric the
paper's toolchain reports.

Usage::

    python examples/quickstart.py [model] [framework] [batch]

e.g. ``python examples/quickstart.py resnet-50 mxnet 32``.
"""

import sys

from repro.core.analysis import AnalysisPipeline
from repro.core.suite import standard_suite


def main(argv) -> None:
    model = argv[1] if len(argv) > 1 else "resnet-50"
    framework = argv[2] if len(argv) > 2 else "mxnet"
    batch = int(argv[3]) if len(argv) > 3 else None

    suite = standard_suite()
    spec = suite.model(model)
    batch = batch if batch is not None else spec.reference_batch

    print(f"TBD quickstart: {spec.display_name} on {framework}, "
          f"mini-batch {batch}, {suite.gpu.name}")
    print(f"  application:    {spec.application}")
    print(f"  dataset:        {spec.dataset}")
    print(f"  dominant layer: {spec.dominant_layer}")
    print()

    # One-line metric access:
    metrics = suite.run(model, framework, batch)
    print("headline metrics")
    print(f"  throughput:       {metrics.throughput:9.1f} {metrics.throughput_unit}")
    print(f"  GPU utilization:  {metrics.gpu_utilization * 100:8.1f} %")
    print(f"  FP32 utilization: {metrics.fp32_utilization * 100:8.1f} %")
    print(f"  CPU utilization:  {metrics.cpu_utilization * 100:8.2f} %")
    print()

    # The full Fig. 3 analysis pipeline: comparability check, warm-up
    # exclusion, stable-phase sampling, kernel trace, CPU sample, memory.
    report = AnalysisPipeline(model, framework).run(batch)
    print(report.summary())
    print()

    print("memory breakdown (peak GiB per class)")
    for name, gib in report.memory.breakdown().items():
        print(f"  {name:16s} {gib:6.2f}")
    print()

    print("host CPU hotspots (core-seconds per iteration)")
    for name, seconds in report.cpu_sample.hotspots():
        if seconds > 0:
            print(f"  {name:24s} {seconds * 1e3:9.2f} ms")


if __name__ == "__main__":
    main(sys.argv)
