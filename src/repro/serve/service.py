"""The asyncio benchmark server: sweep-as-a-service over `SweepEngine`.

:class:`BenchmarkServer` turns the one-shot engine into a long-running
multi-tenant service: tenants :meth:`~BenchmarkServer.submit` jobs, the
:class:`~repro.serve.admission.FairScheduler` bounds and orders the
queue, a pool of worker coroutines executes jobs through the engine's
streaming :meth:`~repro.engine.executor.SweepEngine.iter_grid`, and each
job's progress arrives as an ordered :class:`~repro.serve.jobs.JobEvent`
stream — consumable as an async iterator, drained as a result document,
or appended to a JSONL event log.

Coalescing: requests are content-addressed
(:meth:`~repro.serve.jobs.JobRequest.fingerprint`), so a submission
identical to one already queued or running — from *any* tenant — does
not execute again; the duplicate's handle replays the primary's event
stream live.  Together with the shared
:class:`~repro.serve.shardcache.ShardedResultCache` this gives two
dedup layers: in-flight (same job, same instant) and at-rest (same
point, any time).

Results served here are byte-identical to direct engine calls — the
server adds scheduling, never arithmetic — which the differential tests
and the ``serve-byte-identity`` conformance invariant both prove.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict

from repro.engine.executor import SweepEngine
from repro.engine.merge import grid_record
from repro.hardware.devices import get_gpu
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.serve.admission import (
    AdmissionConfig,
    FairScheduler,
    QueuedJob,
    ServerClosedError,
)
from repro.serve.jobs import DEFAULT_PRIORITY, JobEvent, JobRequest
from repro.serve.shardcache import ShardedResultCache


class _Execution:
    """One physical run of a request: the event log plus its followers.

    The primary handle and every coalesced duplicate subscribe here;
    events are buffered so a late subscriber replays the full history
    before tailing live ones.
    """

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        self.events: list = []
        self.done = asyncio.Event()
        self._queues: list = []

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        self._queues.append(queue)
        return queue

    def publish(self, event: JobEvent) -> None:
        self.events.append(event)
        for queue in self._queues:
            queue.put_nowait(event)
        if event.terminal:
            self.done.set()


class JobHandle:
    """A tenant's view of one submitted job.

    ``async for event in handle.events()`` streams partial results;
    :meth:`result` waits for the terminal event and returns the final
    data document.  A coalesced handle streams the primary execution's
    events under its own job id.
    """

    def __init__(self, job_id: str, request: JobRequest, tenant: str,
                 priority: str, execution: _Execution, coalesced: bool):
        self.job_id = job_id
        self.request = request
        self.tenant = tenant
        self.priority = priority
        self.coalesced = coalesced
        self._execution = execution
        self._queue = execution.subscribe()

    def _localize(self, event: JobEvent) -> JobEvent:
        if event.job_id == self.job_id:
            return event
        return JobEvent(event.kind, self.job_id, event.seq, event.data)

    async def events(self):
        """Yield this job's events in order, ending on the terminal one."""
        while True:
            event = self._localize(await self._queue.get())
            yield event
            if event.terminal:
                return

    async def result(self) -> dict:
        """Wait for completion; the terminal event's data document.

        Raises:
            RuntimeError: when the job failed (terminal ``failed`` event).
        """
        await self._execution.done.wait()
        last = self._execution.events[-1]
        if last.kind == "failed":
            raise RuntimeError(
                f"job {self.job_id} failed: {last.data.get('error')}"
            )
        return last.data


class BenchmarkServer:
    """The multi-tenant async benchmark service.

    Args:
        cache_dir: root for the sharded result cache, or ``None`` to
            serve uncached (every job recomputes).
        shards / byte_budget: forwarded to
            :class:`~repro.serve.shardcache.ShardedResultCache`.
        workers: concurrent worker coroutines executing jobs.
        admission: queue bounds; defaults to
            :class:`~repro.serve.admission.AdmissionConfig` defaults.
        event_log: optional JSONL path appended with every event.

    Usage::

        async with BenchmarkServer(cache_dir) as server:
            handle = await server.submit(request, tenant="alice")
            async for event in handle.events():
                ...
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        shards: int = 8,
        byte_budget: int | None = None,
        workers: int = 2,
        admission: AdmissionConfig | None = None,
        event_log: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = (
            ShardedResultCache(cache_dir, shards=shards, byte_budget=byte_budget)
            if cache_dir is not None
            else None
        )
        self.workers = workers
        self.event_log = event_log
        self.scheduler = FairScheduler(admission or AdmissionConfig())
        self._engines: dict = {}
        self._condition: asyncio.Condition | None = None
        self._tasks: list = []
        self._active: OrderedDict = OrderedDict()  # fingerprint -> _Execution
        self._job_seq = 0
        self._running = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_coalesced = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "BenchmarkServer":
        """Spawn the worker pool (idempotent)."""
        if self._condition is None:
            self._condition = asyncio.Condition()
        if not self._tasks:
            self._closed = False
            self._tasks = [
                asyncio.create_task(self._worker(index))
                for index in range(self.workers)
            ]
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; optionally finish the queue first.

        With ``drain`` (default) every queued job still executes; without
        it, queued jobs receive a terminal ``failed`` event with code
        ``server-stopped`` and only in-flight jobs finish.
        """
        self._closed = True
        assert self._condition is not None
        if drain:
            async with self._condition:
                await self._condition.wait_for(
                    lambda: len(self.scheduler) == 0 and self._running == 0
                )
        else:
            async with self._condition:
                while True:
                    job = self.scheduler.pick()
                    if job is None:
                        break
                    execution = job.payload["execution"]
                    self._emit(
                        execution,
                        JobEvent(
                            "failed",
                            job.job_id,
                            len(execution.events),
                            {"error": "server stopped", "code": "server-stopped"},
                        ),
                    )
                    self._active.pop(execution.fingerprint, None)
                    self.jobs_failed += 1
                await self._condition.wait_for(lambda: self._running == 0)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def __aenter__(self) -> "BenchmarkServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    async def submit(
        self,
        request: JobRequest,
        tenant: str,
        priority: str = DEFAULT_PRIORITY,
    ) -> JobHandle:
        """Validate, admit, and enqueue one request.

        Raises:
            ValueError: malformed request (before any admission check).
            AdmissionError: typed rejection (queue full, tenant quota,
                unknown priority, server closed).
        """
        assert self._condition is not None, "server not started"
        request.validate()
        if self._closed:
            raise ServerClosedError("server is draining; submission refused")
        fingerprint = request.fingerprint()
        self._job_seq += 1
        job_id = f"job-{self._job_seq:06d}"
        async with self._condition:
            existing = self._active.get(fingerprint)
            if existing is not None:
                self.jobs_coalesced += 1
                get_metrics().counter("serve.jobs.coalesced").inc()
                return JobHandle(
                    job_id, request, tenant, priority, existing, coalesced=True
                )
            execution = _Execution(fingerprint)
            queued = QueuedJob(
                job_id=job_id,
                tenant=tenant,
                priority=priority,
                payload={"request": request, "execution": execution},
            )
            self.scheduler.admit(queued)  # raises typed AdmissionError
            self._active[fingerprint] = execution
            self.jobs_submitted += 1
            get_metrics().counter(
                "serve.jobs.submitted", {"priority": priority}
            ).inc()
            self._emit(
                execution,
                JobEvent(
                    "queued",
                    job_id,
                    0,
                    {
                        "kind": request.kind,
                        "tenant": tenant,
                        "priority": priority,
                        "fingerprint": fingerprint,
                    },
                ),
            )
            self._condition.notify_all()
            return JobHandle(
                job_id, request, tenant, priority, execution, coalesced=False
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _engine(self, gpu_name: str) -> SweepEngine:
        """One inline engine per GPU, all sharing the sharded cache."""
        if gpu_name not in self._engines:
            self._engines[gpu_name] = SweepEngine(
                jobs=1,
                cache=self.cache,
                gpu=get_gpu(gpu_name),
            )
        return self._engines[gpu_name]

    def _emit(self, execution: _Execution, event: JobEvent) -> None:
        execution.publish(event)
        if self.event_log:
            with open(self.event_log, "a", encoding="utf-8") as sink:
                sink.write(event.to_json() + "\n")

    async def _worker(self, index: int) -> None:
        assert self._condition is not None
        while True:
            async with self._condition:
                await self._condition.wait_for(
                    lambda: len(self.scheduler) > 0
                )
                job = self.scheduler.pick()
                if job is None:
                    continue
                self._running += 1
            try:
                await self._run_job(job)
            finally:
                async with self._condition:
                    self._running -= 1
                    self._active.pop(
                        job.payload["execution"].fingerprint, None
                    )
                    self._condition.notify_all()

    async def _run_job(self, job: QueuedJob) -> None:
        """Execute one admitted job, streaming per-point events."""
        request: JobRequest = job.payload["request"]
        execution: _Execution = job.payload["execution"]
        seq = len(execution.events)
        with trace_span(
            "serve.job",
            job_id=job.job_id,
            kind=request.kind,
            tenant=job.tenant,
            priority=job.priority,
        ) as span:
            self._emit(
                execution,
                JobEvent("started", job.job_id, seq, {"worker": job.job_id}),
            )
            seq += 1
            try:
                if request.kind == "tune":
                    data = self._run_tune(request)
                else:
                    data, seq = await self._stream_grid(
                        job, request, execution, seq
                    )
            except Exception as exc:
                self.jobs_failed += 1
                get_metrics().counter("serve.jobs.failed").inc()
                span.set_attribute("outcome", "failed")
                self._emit(
                    execution,
                    JobEvent(
                        "failed",
                        job.job_id,
                        seq,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    ),
                )
                return
            self.jobs_completed += 1
            get_metrics().counter(
                "serve.jobs.completed", {"priority": job.priority}
            ).inc()
            span.set_attribute("outcome", "done")
            self._emit(execution, JobEvent("done", job.job_id, seq, data))

    async def _stream_grid(self, job, request, execution, seq):
        """Run the request's grid through the streaming engine path,
        emitting one ``point`` event per completed point."""
        engine = self._engine(request.gpu)
        specs = request.point_specs()
        records = []
        points = []
        for index, spec, point in engine.iter_grid(specs):
            record = grid_record(spec, point)
            records.append(record)
            points.append(point)
            self._emit(
                execution,
                JobEvent(
                    "point",
                    job.job_id,
                    seq,
                    {"index": index, "total": len(specs), "record": record},
                ),
            )
            seq += 1
            # Yield the loop between points so submitters and event
            # consumers interleave with a long-running grid.
            await asyncio.sleep(0)
        data = {"kind": request.kind, "records": records}
        if request.kind == "conformance":
            data["conformance"] = self._check_sweep(request, specs, points)
        return data, seq

    def _check_sweep(self, request, specs, points) -> dict:
        """Sweep-scope invariant verdict for a conformance job."""
        from repro.conformance.invariants import (
            SweepEvidence,
            invariant_registry,
        )

        evidence = SweepEvidence(
            model=request.model,
            framework=request.framework,
            gpu_name=get_gpu(request.gpu).name,
            batch_sizes=[spec.batch_size for spec in specs],
            points=list(points),
            faults=request.faults,
        )
        violations = {}
        for invariant in invariant_registry(scope="sweep"):
            messages = invariant.check(evidence)
            if messages:
                violations[invariant.name] = messages
        return {
            "checked": len(invariant_registry(scope="sweep")),
            "violations": violations,
            "ok": not violations,
        }

    def _run_tune(self, request) -> dict:
        """Cost-model autotuner ranking (no A/B) for a tune job."""
        from repro.tune.search import Autotuner

        tuner = Autotuner(
            request.model,
            request.framework,
            batch_size=request.resolved_batches()[0],
        )
        result = tuner.rank(budget=request.budget)
        return {"kind": "tune", "tune": result.to_doc()}

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """One status-endpoint snapshot (queue, jobs, cache)."""
        return {
            "closed": self._closed,
            "workers": self.workers,
            "running": self._running,
            "queue": self.scheduler.snapshot(),
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "coalesced": self.jobs_coalesced,
            },
            "cache": self.cache.stats() if self.cache is not None else None,
        }


__all__ = ["BenchmarkServer", "JobHandle"]
