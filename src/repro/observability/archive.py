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
two manifests' headline metrics with the same tolerance discipline as
:mod:`repro.core.regression` and returns its :class:`~repro.core.regression.Drift`
records, so archive diffs and calibration drift read identically.
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
        return os.path.join(self.root, run_id)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def diff(
        self, baseline_id: str, candidate_id: str, tolerances: dict | None = None
    ) -> list:
        """Compare two archived runs' headline metrics.

        Returns :class:`~repro.core.regression.Drift` records for every
        metric whose relative change exceeds its tolerance (default: the
        calibration tolerances of :mod:`repro.core.regression`).
        """
        # Imported lazily: regression pulls in the whole suite, and the
        # instrumented modules import this package at module load.
        from repro.core.regression import Drift, TOLERANCES

        tolerances = tolerances if tolerances is not None else TOLERANCES
        baseline = self.load(baseline_id)
        candidate = self.load(candidate_id)
        label = f"{baseline_id}..{candidate_id}"
        drifts: list = []
        for metric in sorted(set(baseline.metrics) | set(candidate.metrics)):
            reference = baseline.metrics.get(metric)
            value = candidate.metrics.get(metric)
            if reference is None or value is None:
                drifts.append(
                    Drift(label, metric, reference or 0.0, value or 0.0)
                )
                continue
            tolerance = tolerances.get(metric, 0.0)
            if reference == 0:
                if value != 0:
                    drifts.append(Drift(label, metric, reference, value))
                continue
            if abs(value - reference) / abs(reference) > tolerance:
                drifts.append(Drift(label, metric, reference, value))
        return drifts

    def delta_table(self, baseline_id: str, candidate_id: str) -> str:
        """Human-readable per-metric delta table between two runs."""
        baseline = self.load(baseline_id)
        candidate = self.load(candidate_id)
        lines = [f"{baseline_id}  ->  {candidate_id}"]
        for metric in sorted(set(baseline.metrics) | set(candidate.metrics)):
            reference = baseline.metrics.get(metric)
            value = candidate.metrics.get(metric)
            if reference is None or value is None:
                lines.append(f"  {metric:22s} {reference} -> {value}  [missing]")
                continue
            if reference:
                change = (value - reference) / abs(reference)
                lines.append(
                    f"  {metric:22s} {reference:12.4f} -> {value:12.4f}  "
                    f"({change:+.2%})"
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
