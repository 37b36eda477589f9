"""Compare two result files of ``run.py`` against the benchmark's bounds.

    python3 benchmarks/wall/agree.py A.json B.json

For every end-to-end metric and workload, prints B's relative difference
from A next to the metric's bound from BENCHMARK.json, and the change in
``failed_ratio``, whose bound is zero.  Exits 1 when any difference is
larger than its bound or B fails a larger share of operations than A.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def compare(a: dict, b: dict, bounds: dict) -> tuple:
    """``(report lines, every difference within its bound)``."""
    lines = [f"{'workload':<12} {'metric':<16} {'A':>12} {'B':>12} {'B/A-1':>8} {'bound':>6}"]
    agree = True
    for workload, left in a["workloads"].items():
        right = b["workloads"][workload]
        for name, bound in bounds.items():
            old, new = left["metrics"][name], right["metrics"][name]
            diff = new / old - 1.0
            ok = abs(diff) <= bound
            agree &= ok
            lines.append(
                f"{workload:<12} {name:<16} {old:12.4f} {new:12.4f} "
                f"{diff:+8.2%} {bound:6.0%} {'ok' if ok else 'EXCEEDS'}"
            )
        old, new = left["failed_ratio"], right["failed_ratio"]
        ok = new <= old
        agree &= ok
        lines.append(
            f"{workload:<12} {'failed_ratio':<16} {old:12.4f} {new:12.4f} "
            f"{new - old:+8.4f} {'+0':>6} {'ok' if ok else 'EXCEEDS'}"
        )
    return lines, agree


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    lines, agree = compare(results[0], results[1], bounds)
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
