"""The run archive: persisted provenance for every instrumented run.

Each archived run is a directory ``<root>/<run_id>/`` holding:

- ``manifest.json`` — model / framework / device / batch / seed, the
  headline metrics, the repository's ``git describe`` and a creation
  timestamp;
- ``spans.jsonl`` — the structured event stream (optional);
- ``trace.json`` — the chrome://tracing span/kernel overlay (optional);
- ``metrics.prom`` — the Prometheus-style metrics dump (optional).

Run ids are ``{model}-{framework}-b{batch}-{NNN}`` with a per-archive
monotonic sequence number, so re-running the same configuration archives a
new run rather than overwriting history.  :meth:`RunArchive.diff` compares
two manifests' headline metrics within :data:`TOLERANCES` and returns a
:class:`Drift` record for each metric that moved further, or that only one
of the two runs has.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from dataclasses import asdict, dataclass, field

from repro.observability.exporters import write_trace

#: Environment variable overriding the default archive location.
RUNS_DIR_ENV = "TBD_RUNS_DIR"
#: Default archive directory, relative to the current working directory.
DEFAULT_RUNS_DIR = "runs"

_MANIFEST = "manifest.json"

#: Relative tolerance per headline metric when diffing two runs; a metric
#: not listed here must match exactly.
TOLERANCES = {
    "throughput": 0.02,
    "gpu_utilization": 0.02,
    "fp32_utilization": 0.02,
    "cpu_utilization": 0.05,
}


def git_describe(cwd: str | None = None) -> str:
    """``git describe --always --dirty`` of the repository, or "unknown"."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd if cwd is not None else os.path.dirname(__file__),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


@dataclass(frozen=True)
class Drift:
    """One headline metric compared between two runs.  A side the metric
    is missing from is ``None``."""

    configuration: str
    metric: str
    baseline: float | None
    measured: float | None

    @property
    def relative_change(self) -> float | None:
        """``(measured - baseline) / |baseline|``; infinite for a change
        from zero, ``None`` when either side is missing."""
        if self.baseline is None or self.measured is None:
            return None
        if self.baseline == 0:
            return float("inf") if self.measured else 0.0
        return (self.measured - self.baseline) / abs(self.baseline)

    def __str__(self) -> str:
        change = self.relative_change
        text = (
            f"{self.configuration}.{self.metric}: {_side(self.baseline)} -> "
            f"{_side(self.measured)}"
        )
        return text if change is None else f"{text} ({change:+.1%})"


def _side(value) -> str:
    return "missing" if value is None else f"{value:.4f}"


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one instrumented run."""

    run_id: str
    model: str
    framework: str
    device: str
    batch_size: int
    seed: int
    git: str
    created_at: str
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The manifest as indented, key-sorted JSON."""
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(**{key: data[key] for key in cls.__dataclass_fields__})


class RunArchive:
    """A local directory of archived runs with list/load/diff queries."""

    def __init__(self, root: str | None = None):
        if root is None:
            root = os.environ.get(RUNS_DIR_ENV, DEFAULT_RUNS_DIR)
        self.root = root

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def next_run_id(self, model: str, framework: str, batch_size: int) -> str:
        """The id the next archived run of this configuration gets."""
        prefix = f"{model}-{framework}-b{batch_size}-"
        existing = [
            name[len(prefix):]
            for name in self.list()
            if name.startswith(prefix)
        ]
        numbers = [int(tail) for tail in existing if tail.isdigit()]
        return f"{prefix}{max(numbers, default=0) + 1:03d}"

    def record(
        self,
        manifest: RunManifest,
        spans_jsonl: str | None = None,
        chrome_trace: dict | None = None,
        prometheus: str | None = None,
    ) -> str:
        """Persist one run; returns the run directory path."""
        run_dir = os.path.join(self.root, manifest.run_id)
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, _MANIFEST), "w") as handle:
            handle.write(manifest.to_json())
        if spans_jsonl is not None:
            with open(os.path.join(run_dir, "spans.jsonl"), "w") as handle:
                handle.write(spans_jsonl)
        if chrome_trace is not None:
            write_trace(chrome_trace, os.path.join(run_dir, "trace.json"))
        if prometheus is not None:
            with open(os.path.join(run_dir, "metrics.prom"), "w") as handle:
                handle.write(prometheus)
        return run_dir

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def list(self) -> list:
        """Archived run ids, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name
            for name in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, name, _MANIFEST))
        )

    def load(self, run_id: str) -> RunManifest:
        """Load one run's manifest.

        Raises:
            FileNotFoundError: if the run is not archived.
        """
        path = os.path.join(self.root, run_id, _MANIFEST)
        with open(path) as handle:
            return RunManifest.from_dict(json.load(handle))

    def run_dir(self, run_id: str) -> str:
        """The directory holding one run's files."""
        return os.path.join(self.root, run_id)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def _deltas(self, baseline_id: str, candidate_id: str) -> list:
        """A :class:`Drift` for every metric either run has, by name."""
        baseline = self.load(baseline_id)
        candidate = self.load(candidate_id)
        label = f"{baseline_id}..{candidate_id}"
        return [
            Drift(
                label,
                metric,
                baseline.metrics.get(metric),
                candidate.metrics.get(metric),
            )
            for metric in sorted(set(baseline.metrics) | set(candidate.metrics))
        ]

    def diff(
        self, baseline_id: str, candidate_id: str, tolerances: dict | None = None
    ) -> list:
        """Compare two archived runs' headline metrics.

        Returns the :class:`Drift` of every metric whose relative change
        exceeds its tolerance (default: :data:`TOLERANCES`) or that only
        one of the runs has.
        """
        tolerances = tolerances if tolerances is not None else TOLERANCES
        drifts = []
        for drift in self._deltas(baseline_id, candidate_id):
            change = drift.relative_change
            if change is None or abs(change) > tolerances.get(drift.metric, 0.0):
                drifts.append(drift)
        return drifts

    def delta_table(self, baseline_id: str, candidate_id: str) -> str:
        """Human-readable per-metric delta table between two runs."""
        lines = [f"{baseline_id}  ->  {candidate_id}"]
        for drift in self._deltas(baseline_id, candidate_id):
            metric, reference, value = drift.metric, drift.baseline, drift.measured
            if drift.relative_change is None:
                lines.append(f"  {metric:22s} {reference} -> {value}  [missing]")
            elif reference:
                lines.append(
                    f"  {metric:22s} {reference:12.4f} -> {value:12.4f}  "
                    f"({drift.relative_change:+.2%})"
                )
            else:
                lines.append(f"  {metric:22s} {reference:12.4f} -> {value:12.4f}")
        return "\n".join(lines)


def utc_now_iso() -> str:
    """Timestamp helper, isolated so tests can freeze it."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )
