"""Host wall-clock benchmark of the simulator itself.

Measures how long the tool takes to answer four kinds of question — a
cold and a warm paper-grid sweep, ``tbd tune`` over the grid's panels and
one ``tbd conformance run`` — end to end, and in a separate traced run,
layer by layer.  Every run is a fresh child process (``child.py``) with an
empty temporary cache; runs are a closed loop with one client, one thread
and ``jobs=1``.  Times are normalized to the host's speed
(``hostclock.py``).  See README.md for the workloads, metrics and bounds.

Run from the repository root::

    python3 benchmarks/wall/run.py --seed 7
        every workload, interleaved round-robin (run 1 of each, then run
        2, ...), then one traced run each; writes out/result.json and one
        chrome trace per workload.
    python3 benchmarks/wall/run.py --workload tune --seed 3 --seconds 30 --trace 0
        runs of one workload until another would end past ``--seconds``;
        the last line of stdout is one JSON object of its end-to-end
        metrics (``--trace 1``: an untraced and a traced run, and the
        per-layer metrics).
    python3 benchmarks/wall/run.py --write-golden
        regenerates golden.json, the per-panel sweep digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sweep-cold", "sweep-warm", "tune", "conformance")
#: Runs per workload in one full set.
RUNS = {"sweep-cold": 5, "sweep-warm": 5, "tune": 5, "conformance": 3}
#: A single-workload invocation collects at least this many set-up times.
SETUP_SAMPLES = 5
#: Kills a hung child well inside a three-minute budget per invocation.
CHILD_TIMEOUT_S = 150
#: End-to-end metrics and their units, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "question_p50_ms": "ms",
    "question_p80_ms": "ms",
    "peak_rss_mb": "MiB",
}
#: Percentiles a tail metric may use; see :func:`tail_percentile`.
PERCENTILE_LADDER = (50, 80, 90, 95, 99, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int, beyond: int = 10):
    """The highest ladder percentile with at least ``beyond`` samples
    above it, or None.  The tail metric is p80 because that is the answer
    for the 60 questions of a five-run sweep-cold or tune set; the report
    prints the answer for the questions it pooled."""
    usable = [q for q in PERCENTILE_LADDER if count * (100 - q) / 100.0 >= beyond]
    return usable[-1] if usable else None


def run_child(spec: dict, work_dir: str) -> dict:
    """One child process; its temp files and default cache live in a
    directory that is removed when it exits."""
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        spec = dict(spec)
        if spec.get("cache") is None:
            spec["cache"] = os.path.join(tmp, "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["TMPDIR"] = tmp
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class WorkloadSet:
    """The runs of one workload in one set, and their summary."""

    def __init__(self, workload: str, seed: int, work_dir: str, panels=None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.panels = panels
        self.runs: list = []
        self.setups: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []  # the first messages only
        self._warm_cache = None

    def _spec(self, **extra) -> dict:
        """Every run of a set gets the same inputs: runs are replicates."""
        return dict(workload=self.workload, seed=self.seed, panels=self.panels, **extra)

    def _count(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures.extend(result["failures"])

    def fill(self) -> None:
        """sweep-warm only: one untimed cold sweep fills the set's cache."""
        self._warm_cache = tempfile.mkdtemp(prefix="warm-", dir=self.work_dir)
        spec = self._spec(cache=self._warm_cache)
        spec["workload"] = "sweep-cold"
        self._count(run_child(spec, self.work_dir))

    def run_once(self, trace_path=None) -> dict:
        """One run.  A traced run's answers are checked too, but its
        times stay out of the end-to-end metrics."""
        if self.workload == "sweep-warm" and self._warm_cache is None:
            self.fill()
        result = run_child(
            self._spec(cache=self._warm_cache, trace=trace_path), self.work_dir
        )
        self._count(result)
        if trace_path is None:
            self.runs.append(result)
            self.setups.append(result["setup_s"])
        return result

    def top_up_setups(self, count: int) -> None:
        """Set-up-only children until ``count`` set-up times exist."""
        while len(self.setups) < count:
            spec = self._spec(setup_only=True)
            self.setups.append(run_child(spec, self.work_dir)["setup_s"])

    def close(self) -> None:
        if self._warm_cache is not None:
            shutil.rmtree(self._warm_cache, ignore_errors=True)
            self._warm_cache = None

    def metrics(self) -> dict:
        """``{name: (value, samples)}`` for every end-to-end metric: the
        median over the set's runs, and the question percentiles over
        every question the set answered."""
        questions = [latency for run in self.runs for latency in run["questions_ms"]]
        return {
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "wall_s": (statistics.median(run["wall_s"] for run in self.runs), len(self.runs)),
            "question_p50_ms": (percentile(questions, 50), len(questions)),
            "question_p80_ms": (percentile(questions, 80), len(questions)),
            "peak_rss_mb": (statistics.median(run["rss_mb"] for run in self.runs), len(self.runs)),
        }

    def host_slowdown(self) -> float:
        """Median over runs of plain wall time over normalized wall time."""
        return statistics.median(run["raw_wall_s"] / run["wall_s"] for run in self.runs)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def summary(self) -> dict:
        metrics = self.metrics()
        return {
            "metrics": {name: value for name, (value, _n) in metrics.items()},
            "samples": {name: n for name, (_v, n) in metrics.items()},
            "walls_s": [run["wall_s"] for run in self.runs],
            "raw_walls_s": [run["raw_wall_s"] for run in self.runs],
            "setups_s": self.setups,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": self.failed_ratio,
            "failures": self.failures[:20],
        }


def format_set(wset: WorkloadSet) -> str:
    """The human-readable end-to-end table of one workload."""
    lines = [
        f"{wset.workload}: {len(wset.runs)} runs, "
        f"host slowdown x{wset.host_slowdown():.2f} (median)"
    ]
    for name, (value, count) in wset.metrics().items():
        if name.startswith("question_") and wset.workload == "conformance":
            continue  # one question per run: the run itself
        note = f"n={count}"
        if name.startswith("question_"):
            rule = tail_percentile(count)
            note += f", highest percentile with 10 beyond: {f'p{rule}' if rule else 'none'}"
        if name == "wall_s" and count >= 2:
            walls = [run["wall_s"] for run in wset.runs]
            q1, _median, q3 = statistics.quantiles(walls, n=4)
            note += f", IQR {q3 - q1:.3f}"
        lines.append(f"  {name:<17} {value:12.4f} {E2E_UNITS[name]:<4} ({note})")
    lines.append(
        f"  {'failed_ratio':<17} {wset.failed_ratio:12.4f} {'ratio':<4} "
        f"({wset.failed}/{wset.attempted})"
    )
    lines.extend(f"  FAILED {message}" for message in wset.failures[:10])
    return "\n".join(lines)


def format_layers(workload: str, metrics: dict) -> str:
    """The per-layer table of one traced run (idle layers left out)."""
    lines = [f"{workload}: traced run"]
    for layer in layers.LAYERS:
        calls = metrics[f"{layer}.calls"]
        if calls:
            lines.append(
                f"  {layer:<26} {calls:>8d} calls "
                f"{metrics[layer + '.self_s']:10.4f} s self"
            )
    for name, unit in layers.UNITS.items():
        if not name.endswith((".calls", ".self_s")):
            lines.append(f"  {name:<34} {metrics[name]:.6g} {unit}")
    return "\n".join(lines)


def traced_layers(wset: WorkloadSet, trace_path: str) -> dict:
    """One traced run; its layer metrics plus the tracing overhead
    against the set's untraced median wall time."""
    result = wset.run_once(trace_path=trace_path)
    metrics = dict(result["layers"])
    untraced = statistics.median(run["wall_s"] for run in wset.runs)
    metrics["trace_overhead_ratio"] = result["wall_s"] / untraced - 1.0
    return metrics


def run_full(seed: int, out_path: str, work_dir: str) -> int:
    """Every workload, interleaved round-robin, then one traced run each."""
    sets = {w: WorkloadSet(w, seed, work_dir) for w in WORKLOADS}
    try:
        for index in range(max(RUNS.values())):
            for workload in WORKLOADS:
                if index < RUNS[workload]:
                    started = time.perf_counter()
                    sets[workload].run_once()
                    print(
                        f"run {index + 1} {workload}: "
                        f"{time.perf_counter() - started:.1f} s",
                        file=sys.stderr,
                    )
        print(f"seed {seed}, nproc {os.cpu_count()}")
        for workload in WORKLOADS:
            print(format_set(sets[workload]))
        report = {"seed": seed, "nproc": os.cpu_count(), "workloads": {}}
        for workload in WORKLOADS:
            trace_path = os.path.join(OUT, f"trace-{workload}.json")
            metrics = traced_layers(sets[workload], trace_path)
            print(format_layers(workload, metrics))
            print(f"  chrome trace: {os.path.relpath(trace_path, ROOT)}")
            report["workloads"][workload] = dict(sets[workload].summary(), layers=metrics)
    finally:
        for wset in sets.values():
            wset.close()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(out_path, ROOT)}")
    return 0 if all(s.failed == 0 for s in sets.values()) else 1


def run_for(wset: WorkloadSet, seconds: float) -> None:
    """Runs until the next one, as long as the longest so far, would end
    past ``seconds`` (at least one run).  ``sweep-warm``'s cache fill
    comes first and is not counted."""
    if wset.workload == "sweep-warm":
        wset.fill()
    began = time.perf_counter()
    longest = 0.0
    while True:
        started = time.perf_counter()
        wset.run_once()
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now - began + longest > seconds:
            return


def run_single(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> None:
    """Runs of one workload for ``seconds``, or an untraced and a traced
    run; prints the result object as the last line of stdout."""
    wset = WorkloadSet(workload, seed, work_dir)
    try:
        if trace:
            wset.run_once()
            trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
            metrics = {
                name: (value, layers.UNITS[name])
                for name, value in traced_layers(wset, trace_path).items()
            }
            print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
        else:
            run_for(wset, seconds)
            wset.top_up_setups(SETUP_SAMPLES)
            metrics = {
                name: (value, E2E_UNITS[name]) for name, (value, _n) in wset.metrics().items()
            }
            print(format_set(wset), file=sys.stderr)
    finally:
        wset.close()
    print(
        json.dumps(
            {
                "correct": wset.failed == 0,
                "attempted": wset.attempted,
                "failed": wset.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def write_golden(work_dir: str) -> None:
    """Regenerate golden.json from one cold sweep of the paper grid."""
    result = run_child(
        {"workload": "sweep-cold", "seed": 0, "panels": None, "golden": False}, work_dir
    )
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(result["digests"], handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(result['digests'])} panel digests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT, "result.json"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator source at {SRC}/repro", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.write_golden:
            write_golden(work_dir)
            return 0
        if args.workload is None:
            return run_full(args.seed, args.out, work_dir)
        run_single(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
