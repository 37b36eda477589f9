"""The parallel sweep-execution engine.

One :class:`SweepEngine` turns a list of grid points (model, framework,
batch size) into :class:`~repro.core.suite.SweepPoint` results:

1. **Cache probe.**  Each point's content address
   (:func:`repro.engine.keys.point_key`) is looked up in the
   :class:`~repro.engine.cache.ResultCache`; hits skip execution
   entirely.
2. **Deterministic fan-out.**  Missing points are partitioned round-robin
   across ``jobs`` chunks and executed on a process pool.  Partitioning
   depends only on (grid order, jobs) — never on completion timing — and
   results are merged back in grid order, so a parallel run is
   byte-identical to a serial one (the simulated timebase does the rest).
3. **Degrade, never corrupt.**  A worker chunk that fails — or a pool
   that cannot start at all — is recomputed inline in the parent with a
   warning; a damaged cache entry is discarded and recomputed.  Every
   failure mode converges on the serial result.

All three result sources (cache, worker, inline) share one wire format
(:mod:`repro.engine.merge`), which is what the differential test harness
pins down.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.core.metrics import IterationMetrics
from repro.core.suite import SweepPoint
from repro.engine.cache import ResultCache
from repro.engine.keys import point_key
from repro.engine.merge import (
    merge_ordered,
    payload_to_point,
    point_to_payload,
)
from repro.engine.scenario import Scenario, parse_scenario
from repro.hardware.devices import CPUSpec, GPUSpec, QUADRO_P4000, XEON_E5_2680
from repro.hardware.memory import OutOfMemoryError
from repro.models.registry import get_model
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.training.session import TrainingSession


class EngineWorkerWarning(UserWarning):
    """A worker chunk failed and its points were recomputed inline."""


@dataclass(frozen=True)
class PointSpec:
    """Grid coordinates of one sweep point.

    ``faults`` is an optional fault-scenario string
    (:func:`repro.faults.spec.parse_fault_spec` syntax); ``transforms``
    is an optional transform-pipeline string
    (:func:`repro.plan.pipeline.parse_transform_spec` syntax, e.g.
    ``"fused_rnn+fp16+offload:0.5"``); ``schedule`` is an optional
    batch-schedule string (:func:`repro.schedule.spec.parse_schedule_spec`
    syntax, e.g. ``"gns:ceiling=256"``), growing the batch from
    ``batch_size`` over the simulated run.  For all three, the empty
    string — the default — is the plain point, and ``schedule="fixed"``
    means the same.  Together they are the point's
    :class:`~repro.engine.scenario.Scenario`.
    """

    model: str
    framework: str
    batch_size: int
    faults: str = ""
    transforms: str = ""
    schedule: str = ""

    @property
    def scenario(self) -> Scenario:
        """The parsed (memoized) scenario of this point."""
        return parse_scenario(self.faults, self.transforms, self.schedule)


@dataclass
class EngineStats:
    """Cumulative accounting over an engine's lifetime."""

    cache_hits: int = 0
    cache_misses: int = 0
    points_computed: int = 0
    worker_failures: int = 0
    corrupt_entries: int = 0


def grid_for(panels, batch_sizes=None) -> list:
    """Expand ``(model, (framework, ...))`` panels into grid order.

    ``batch_sizes`` overrides every model's sweep; by default each model
    contributes its paper sweep (``ModelSpec.batch_sizes``).
    """
    specs = []
    for model, frameworks in panels:
        sizes = (
            batch_sizes if batch_sizes is not None else get_model(model).batch_sizes
        )
        for framework in frameworks:
            for batch in sizes:
                specs.append(PointSpec(model, framework, int(batch)))
    return specs


# ----------------------------------------------------------------------
# point execution (runs in the parent *and* in pool workers)
# ----------------------------------------------------------------------


def _compute_payload(
    spec: PointSpec,
    gpu: GPUSpec,
    cpu: CPUSpec,
    sessions: dict,
) -> dict:
    """Simulate one grid point and return its wire-format payload.

    ``sessions`` lets a chunk reuse one :class:`TrainingSession` per
    (model, framework) across its batch sizes, so the session's roofline
    times each distinct kernel once for the whole sweep.  Every fault-free
    point takes one path: ``session.run_iteration(batch, pipeline)``
    profiles the (possibly transformed) plan, memory-checked against the
    plan it runs — once at the point's batch, or once per distinct
    segment batch of its schedule.  A point whose plan does not fit
    records OOM.
    """
    scenario = spec.scenario
    try:
        if scenario.faults is not None:
            from repro.faults.trainer import faulted_metrics

            metrics = faulted_metrics(
                spec.model, spec.framework, spec.batch_size, scenario.faults, gpu, cpu
            )
        else:
            key = (spec.model, spec.framework)
            session = sessions.get(key)
            if session is None:
                session = TrainingSession(spec.model, spec.framework, gpu=gpu, cpu=cpu)
                sessions[key] = session
            if scenario.schedule is None:
                metrics = IterationMetrics.from_profile(
                    session.run_iteration(spec.batch_size, scenario.pipeline),
                    throughput_unit=session.spec.throughput_unit,
                )
            else:
                from repro.schedule.integrator import scheduled_metrics

                metrics = scheduled_metrics(
                    session, scenario.schedule, spec.batch_size, scenario.pipeline
                )
    except OutOfMemoryError:
        return point_to_payload(SweepPoint(batch_size=spec.batch_size, oom=True))
    return point_to_payload(SweepPoint(batch_size=spec.batch_size, metrics=metrics))


def _pool_worker(chunk, gpu: GPUSpec, cpu: CPUSpec) -> list:
    """Execute one ``[(grid_index, PointSpec), ...]`` chunk in a worker
    process; returns ``[(grid_index, payload), ...]``."""
    sessions: dict = {}
    return [
        (index, _compute_payload(spec, gpu, cpu, sessions)) for index, spec in chunk
    ]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class SweepEngine:
    """Executes experiment grids in parallel with content-addressed
    memoization.

    Args:
        jobs: worker processes; ``1`` executes inline (no pool).
        cache: a :class:`ResultCache`, a cache-directory path, or ``None``
            to disable memoization.
        gpu / cpu: the device pair every point runs on.  Every point is
            memory-checked against ``gpu``: one that does not fit is an
            OOM point.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        gpu: GPUSpec = QUADRO_P4000,
        cpu: CPUSpec = XEON_E5_2680,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self.gpu = gpu
        self.cpu = cpu
        self._stats = EngineStats()

    @property
    def stats(self) -> EngineStats:
        """Cumulative hit/miss/compute accounting (cache damage included)."""
        if self.cache is not None:
            self._stats.corrupt_entries = self.cache.corrupt_entries
        return self._stats

    # ------------------------------------------------------------------
    # grid execution
    # ------------------------------------------------------------------

    def _validate_specs(self, specs) -> None:
        """Fail fast on any malformed spec, before any point computes or
        any cache entry is touched.  Validity does not depend on the
        batch size, so each (model, framework, scenario) is checked once."""
        checked = set()
        for spec in specs:
            context = (
                spec.model, spec.framework, spec.faults, spec.transforms, spec.schedule
            )
            if context in checked:
                continue
            checked.add(context)
            model = get_model(spec.model)
            if not model.supports(spec.framework):
                raise ValueError(
                    f"the paper has no {spec.framework} implementation of "
                    f"{model.display_name} (available: {model.frameworks})"
                )
            spec.scenario.validate(model.key)

    def _key_for(self, spec: PointSpec) -> str:
        """Content-address of one point under this engine's devices."""
        return point_key(
            spec.model,
            spec.framework,
            spec.batch_size,
            gpu=self.gpu,
            cpu=self.cpu,
            faults=spec.faults,
            transforms=spec.transforms,
            schedule=spec.schedule,
        )

    def _config_for(self, spec: PointSpec) -> dict:
        """Human-readable entry metadata stored alongside a payload."""
        return {
            "model": spec.model,
            "framework": spec.framework,
            "batch_size": spec.batch_size,
            "gpu": self.gpu.name,
            "cpu": self.cpu.name,
            **spec.scenario.used,
        }

    def _load_cached(self, key: str) -> SweepPoint | None:
        """Cache probe for one key: the decoded point, or ``None`` on a
        miss.  A decoded-but-invalid payload is discarded (counted as
        damage) and reported as a miss."""
        payload = self.cache.load(key)
        if payload is None:
            return None
        try:
            return payload_to_point(payload)
        except ValueError as exc:
            self.cache.discard(key, str(exc))
            return None

    def run_grid(self, specs) -> list:
        """Execute every :class:`PointSpec`, in grid order, and return one
        :class:`~repro.core.suite.SweepPoint` per spec."""
        specs = list(specs)
        with trace_span(
            "engine.run_grid", jobs=self.jobs, points=len(specs)
        ) as grid_span:
            self._validate_specs(specs)
            results: list = []
            missing: list = []
            keys: list = [None] * len(specs)
            # Counter handles, fetched on first use: a counter is created
            # (and exported) by its first lookup.
            hits = misses = None
            for index, spec in enumerate(specs):
                point = None
                if self.cache is not None:
                    keys[index] = self._key_for(spec)
                    point = self._load_cached(keys[index])
                if point is not None:
                    self._stats.cache_hits += 1
                    if hits is None:
                        hits = get_metrics().counter("engine_cache_hits_total")
                    hits.inc()
                    self._record_point_span(spec, "cache")
                    results.append((index, point))
                else:
                    if self.cache is not None:
                        self._stats.cache_misses += 1
                        if misses is None:
                            misses = get_metrics().counter("engine_cache_misses_total")
                        misses.inc()
                    missing.append((index, spec))

            for index, payload in self._execute(missing):
                if self.cache is not None:
                    self.cache.store(
                        keys[index], payload, config=self._config_for(specs[index])
                    )
                results.append((index, payload_to_point(payload)))
            grid_span.set_attributes(
                cache_hits=len(specs) - len(missing), computed=len(missing)
            )
        return merge_ordered(len(specs), results)

    def _execute(self, missing) -> list:
        """Compute every missing ``(index, spec)`` pair; any-order output."""
        if not missing:
            return []
        if self.jobs == 1 or len(missing) == 1:
            return self._compute_inline(missing)
        chunks = [missing[offset :: self.jobs] for offset in range(self.jobs)]
        chunks = [chunk for chunk in chunks if chunk]
        import concurrent.futures  # only a pooled run pays for the import

        try:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=len(chunks)
            )
        except (OSError, ValueError) as exc:
            self._warn_degraded(f"process pool unavailable ({exc})")
            return self._compute_inline(missing)
        spec_by_index = dict(missing)
        results: list = []
        with executor:
            futures = {
                executor.submit(_pool_worker, chunk, self.gpu, self.cpu): chunk
                for chunk in chunks
            }
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                try:
                    chunk_results = future.result()
                except Exception as exc:  # worker died or raised
                    self._warn_degraded(
                        f"worker chunk of {len(chunk)} point(s) failed "
                        f"({type(exc).__name__}: {exc})"
                    )
                    chunk_results = self._compute_inline(chunk)
                else:
                    for index, _payload in chunk_results:
                        self._record_point_span(
                            spec_by_index[index], "worker", index=index
                        )
                    self._count_computed(len(chunk_results), "worker")
                results.extend(chunk_results)
        return results

    def _compute_inline(self, items) -> list:
        """Serial fallback/primary path, executed in this process."""
        sessions: dict = {}
        results = []
        for index, spec in items:
            with trace_span(
                "engine.point",
                model=spec.model,
                framework=spec.framework,
                batch_size=spec.batch_size,
                source="inline",
            ):
                results.append(
                    (
                        index,
                        _compute_payload(spec, self.gpu, self.cpu, sessions),
                    )
                )
        self._count_computed(len(items), "inline")
        return results

    def _record_point_span(self, spec: PointSpec, source: str, index=None) -> None:
        """Zero-width marker span for points not simulated in-process
        (cache hits, pool results) so traces still show the full grid."""
        span = trace_span(
            "engine.point",
            model=spec.model,
            framework=spec.framework,
            batch_size=spec.batch_size,
            source=source,
        )
        with span:
            if index is not None:
                span.set_attribute("grid_index", index)

    def _count_computed(self, count: int, source: str) -> None:
        if not count:
            return
        self._stats.points_computed += count
        get_metrics().counter(
            "engine_points_computed_total", {"source": source}
        ).inc(count)

    def _warn_degraded(self, reason: str) -> None:
        self._stats.worker_failures += 1
        get_metrics().counter("engine_worker_failures_total").inc()
        warnings.warn(
            f"sweep engine degraded to inline execution: {reason}",
            EngineWorkerWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # suite-shaped conveniences
    # ------------------------------------------------------------------

    def sweep(
        self,
        model: str,
        framework: str,
        batch_sizes=None,
        faults: str = "",
        transforms: str = "",
        schedule: str = "",
    ) -> list:
        """Engine-backed equivalent of :meth:`TBDSuite.sweep`.

        ``faults``, ``transforms`` and ``schedule`` run every point of
        the sweep under one :class:`~repro.engine.scenario.Scenario`; the
        default empty strings are the plain sweep.
        """
        spec = get_model(model)
        sizes = batch_sizes if batch_sizes is not None else spec.batch_sizes
        return self.run_grid(
            [
                PointSpec(
                    spec.key,
                    framework,
                    int(batch),
                    faults,
                    transforms,
                    schedule,
                )
                for batch in sizes
            ]
        )

    def run(self, model: str, framework: str, batch_size: int | None = None):
        """Engine-backed equivalent of :meth:`TBDSuite.run`.

        Raises:
            OutOfMemoryError: mirroring the suite's contract for single
                runs (sweeps record OOM points instead).
        """
        spec = get_model(model)
        batch = batch_size if batch_size is not None else spec.reference_batch
        (point,) = self.run_grid([PointSpec(spec.key, framework, int(batch))])
        if point.oom:
            raise OutOfMemoryError(
                f"{spec.key} on {framework} at batch {batch} exceeds "
                f"{self.gpu.name} memory"
            )
        return point.metrics
