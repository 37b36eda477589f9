"""The fault-tolerant training-run simulator.

:class:`FaultTolerantTrainer` steps a data-parallel run through a
:class:`~repro.faults.plan.FaultPlan`, applying the recovery policies of
:mod:`repro.faults.recovery`:

- **stragglers** stretch the synchronous barrier; the layer-wise
  gradient push (read from the compiled plan's
  ``gradient_schedule()``) is re-bucketed so the straggle slack hides
  extra communication;
- **link degradation** re-prices the exchange over a
  :meth:`~repro.hardware.cluster.ClusterSpec.with_degraded_link`
  cluster; a full outage triggers retry-with-exponential-backoff, and
  an outage that outlives the retry budget raises
  :class:`~repro.faults.recovery.UnrecoverableFaultError`;
- **crashes** waste the partial step, pay detection plus
  checkpoint-restore, roll progress back to the last checkpoint, and
  elastically shrink the cluster to the survivors — losing every
  machine is unrecoverable;
- **transient allreduce timeouts** burn ``failures`` attempts plus
  backoff before the retry succeeds.

The simulation is pure arithmetic over one baseline
:class:`~repro.distributed.data_parallel.DistributedProfile`: per-step
costs are memoized per (surviving machines, resolved conditions), and
once the plan's last boundary has passed the remaining steps are charged
in closed form — a run can never hang, it either finishes or raises the
typed error.  Every fault and recovery action emits a span and counters,
and the empty plan reproduces the plain trainer's numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.metrics import IterationMetrics, cpu_utilization, gpu_utilization
from repro.distributed.data_parallel import DataParallelTrainer, StepPrice
from repro.faults.plan import FaultPlan, StepConditions
from repro.faults.recovery import (
    CHECKPOINT_INTERVAL_STEPS,
    DETECTION_S,
    EXCHANGE_TIMEOUT_S,
    MAX_RETRIES,
    RESTORE_S,
    RebalanceDecision,
    UnrecoverableFaultError,
    backoff_delay_s,
    plan_rebalance,
)
from repro.faults.spec import DEFAULT_STEPS, FaultScenario
from repro.hardware.cluster import ClusterSpec
from repro.hardware.devices import CPUSpec, GPUSpec
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span


@dataclass(frozen=True)
class RunEvent:
    """One injected fault or recovery action, as the run experienced it."""

    step: int
    kind: str
    action: str
    cost_s: float
    detail: str = ""

    def format_row(self) -> str:
        """One printable log line."""
        return (
            f"step {self.step:>5d}  {self.kind:12s} -> {self.action:12s} "
            f"{self.cost_s:9.3f}s  {self.detail}"
        )


@dataclass(frozen=True)
class _StepCost(StepPrice):
    """Memoized per-step cost under one (machines, conditions) pair."""

    samples: float
    rebalance: RebalanceDecision | None = None


@dataclass
class FaultTrainingResult:
    """Everything one fault-tolerant run resolved to."""

    model: str
    framework: str
    configuration: str
    per_gpu_batch: int
    #: Effective steps of progress (fractional when the closed-form tail
    #: stops mid-step on a sample target).
    steps_completed: float
    wall_clock_s: float
    samples: float
    baseline_step_s: float
    baseline_samples_per_step: float
    initial_machines: int
    final_machines: int
    #: Wall-clock seconds spent on faults and recovery, not training.
    lost_s: float = 0.0
    events: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Aggregate samples/second over the whole (degraded) run."""
        return self.samples / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    @property
    def baseline_throughput(self) -> float:
        """What the fault-free run would sustain."""
        return self.baseline_samples_per_step / self.baseline_step_s

    @property
    def mean_step_s(self) -> float:
        """Average realized step time, recovery overheads included."""
        if self.steps_completed <= 0:
            return 0.0
        return self.wall_clock_s / self.steps_completed

    @property
    def slowdown(self) -> float:
        """Wall-clock degradation versus the fault-free run (>= 1)."""
        realized = self.throughput
        return self.baseline_throughput / realized if realized > 0 else float("inf")

    @property
    def shrank(self) -> bool:
        """Did elastic recovery lose at least one machine?"""
        return self.final_machines < self.initial_machines

    def event_log(self) -> str:
        """The injected-fault / recovery-action log, one line per event."""
        if not self.events:
            return "no faults injected"
        return "\n".join(event.format_row() for event in self.events)


class FaultTolerantTrainer:
    """Simulates a data-parallel run surviving a :class:`FaultPlan`."""

    def __init__(
        self,
        model: str,
        framework: str,
        cluster: ClusterSpec,
        per_gpu_batch: int,
        plan: FaultPlan | None = None,
    ):
        self.cluster = cluster
        self.per_gpu_batch = per_gpu_batch
        self.plan = plan if plan is not None else FaultPlan.none()
        self.trainer = DataParallelTrainer(model, framework, cluster)
        #: Fault-free reference iteration (raises ``OutOfMemoryError``
        #: exactly like the plain distributed path when a replica does
        #: not fit its GPU).
        self.baseline = self.trainer.run_iteration(per_gpu_batch)
        self._local = self.baseline.replica
        self._local_iteration_s = self.baseline.compute_time_s
        self._samples_per_worker = (
            self.baseline.samples_per_iteration / self.baseline.worker_count
        )
        self._cost_memo: dict = {}

    @cached_property
    def _schedule(self) -> list:
        """The gradient-ready schedule, read only when rebalancing."""
        return self.trainer.gradient_schedule(self.per_gpu_batch)

    # ------------------------------------------------------------------
    # per-step cost under resolved conditions
    # ------------------------------------------------------------------

    def _cluster_for(self, machines: int, conds: StepConditions) -> ClusterSpec:
        cluster = self.cluster
        if machines != cluster.machine_count:
            cluster = cluster.shrink(cluster.machine_count - machines)
        return cluster.with_degraded_link(
            bandwidth_factor=conds.bandwidth_factor,
            packet_loss=conds.packet_loss,
            extra_latency_s=conds.extra_latency_s,
        )

    def _step_cost(self, machines: int, conds: StepConditions) -> _StepCost:
        """One synchronous step with ``machines`` survivors under ``conds``
        — memoized, and byte-identical to the plain
        :class:`DataParallelTrainer` arithmetic when conditions are clean."""
        key = (machines, conds.condition_key)
        cached = self._cost_memo.get(key)
        if cached is not None:
            return cached
        gpus_per_machine = self.cluster.machine.gpu_count
        factor = 1.0
        for worker, straggle in conds.stragglers:
            # Workers on crashed machines no longer straggle anyone.
            if worker < machines * gpus_per_machine:
                factor = max(factor, straggle)
        cluster = self._cluster_for(machines, conds)
        compute = self._local_iteration_s * factor
        price = self.trainer.price_step(compute, self.baseline.gradient_bytes, cluster)
        exchange, exposed = price.exchange_s, price.exposed_s
        rebalance = None
        if factor > 1.0 and exchange > 0.0:
            rebalance = plan_rebalance(
                self._schedule, self._local_iteration_s, compute, exchange, exposed
            )
            exposed = rebalance.exposed_after_s
        result = _StepCost(
            compute_s=compute,
            exchange_s=exchange,
            exposed_s=exposed,
            samples=self._samples_per_worker * cluster.total_gpus,
            rebalance=rebalance,
        )
        self._cost_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self, steps: int | None = None) -> FaultTrainingResult:
        """Run ``steps`` synchronous iterations through the fault plan.

        Raises:
            UnrecoverableFaultError: when recovery cannot continue (all
                machines lost, or a transient fault outlives the retry
                budget).  Never hangs: past the plan's last boundary the
                remaining steps are charged in closed form.
        """
        if steps is None:
            steps = DEFAULT_STEPS
        if steps < 1:
            raise ValueError("a run needs at least one step")
        return self._simulate(target_steps=steps, target_samples=None)

    def run_until_samples(self, samples_needed: float) -> FaultTrainingResult:
        """Run until ``samples_needed`` samples have been consumed — the
        elastic time-to-accuracy primitive (fractional tail steps allowed)."""
        if samples_needed <= 0:
            raise ValueError("samples needed must be positive")
        return self._simulate(target_steps=None, target_samples=samples_needed)

    def _simulate(self, target_steps, target_samples) -> FaultTrainingResult:
        span = trace_span(
            "faults.run",
            model=self.baseline.model,
            configuration=self.cluster.name,
            per_gpu_batch=self.per_gpu_batch,
            events=len(self.plan.events),
            seed=self.plan.seed,
        )
        with span:
            result = self._simulate_inner(target_steps, target_samples)
            span.set_attributes(
                steps=result.steps_completed,
                wall_clock_s=result.wall_clock_s,
                slowdown=result.slowdown,
                final_machines=result.final_machines,
            )
        return result

    def _simulate_inner(self, target_steps, target_samples) -> FaultTrainingResult:
        plan = self.plan
        machines = self.cluster.machine_count
        step: float = 0
        wall = 0.0
        samples = 0.0
        lost = 0.0
        checkpoint_step = 0
        samples_at_checkpoint = 0.0
        events: list = []
        previous_state = None

        def done() -> bool:
            if target_steps is not None:
                return step >= target_steps
            return samples >= target_samples

        while not done():
            boundary = plan.last_boundary()
            if step >= boundary:
                # Closed-form tail: every point event has fired and the
                # continuous conditions never change again.
                conds = plan.conditions_at(int(step))
                if conds.link_is_out:
                    # Only an open-ended outage can still be active here;
                    # it never drains, so recovery gives up (raises).
                    self._recover_outage(plan, int(step), events.append)
                cost = self._step_cost(machines, conds)
                if target_steps is not None:
                    remaining = target_steps - step
                else:
                    remaining = (target_samples - samples) / cost.samples
                wall += remaining * cost.iteration_s
                samples += remaining * cost.samples
                step += remaining
                break

            conds = plan.conditions_at(int(step))

            if (
                step > 0
                and step % CHECKPOINT_INTERVAL_STEPS == 0
                and checkpoint_step != step
            ):
                checkpoint_step = int(step)
                samples_at_checkpoint = samples

            if conds.link_is_out:
                cost_s, plan = self._recover_outage(plan, int(step), events.append)
                wall += cost_s
                lost += cost_s
                continue  # re-resolve the step with the outage drained

            if conds.crashes:
                crash = conds.crashes[0]
                cost_s, machines, plan = self._recover_crash(
                    plan, crash, machines, conds, checkpoint_step, events.append
                )
                wall += cost_s
                lost += cost_s
                step = checkpoint_step
                samples = samples_at_checkpoint
                continue  # replay from the checkpoint on the survivors

            for timeout in conds.timeouts:
                cost_s = self._recover_timeout(timeout, events.append)
                wall += cost_s
                lost += cost_s
                plan = self._consume(plan, timeout)

            cost = self._step_cost(machines, conds)
            if (machines, conds.condition_key) != previous_state:
                self._note_conditions(int(step), conds, cost, events.append)
                previous_state = (machines, conds.condition_key)
            wall += cost.iteration_s
            samples += cost.samples
            step += 1

        metrics = get_metrics()
        if metrics.enabled and lost > 0:
            metrics.counter("fault_lost_seconds_total").inc(lost)
        return FaultTrainingResult(
            model=self.baseline.model,
            framework=self.baseline.framework,
            configuration=self.cluster.name,
            per_gpu_batch=self.per_gpu_batch,
            steps_completed=step,
            wall_clock_s=wall,
            samples=samples,
            baseline_step_s=self.baseline.iteration_time_s,
            baseline_samples_per_step=self.baseline.samples_per_iteration,
            initial_machines=self.cluster.machine_count,
            final_machines=machines,
            lost_s=lost,
            events=events,
        )

    # ------------------------------------------------------------------
    # recovery actions
    # ------------------------------------------------------------------

    @staticmethod
    def _consume(plan: FaultPlan, event) -> FaultPlan:
        """The plan with one fired point event removed (fires only once)."""
        remaining = tuple(item for item in plan.events if item is not event)
        return FaultPlan(events=remaining, seed=plan.seed)

    def _recover_outage(self, plan: FaultPlan, step: int, record):
        """Retry-with-backoff through a total link outage.

        Returns ``(wall cost, plan with the drained outages consumed)``,
        or raises when the outage outlives the retry budget.
        """
        horizon = plan.outage_until(step)
        if horizon is None:
            raise UnrecoverableFaultError(
                f"link outage at step {step} never ends; gave up after "
                f"{MAX_RETRIES} retries",
                step=step,
                kind="link-outage",
            )
        attempts = max(1, horizon - step)
        if attempts > MAX_RETRIES:
            raise UnrecoverableFaultError(
                f"link outage at step {step} lasts {attempts} probe(s), "
                f"beyond the {MAX_RETRIES}-retry budget",
                step=step,
                kind="link-outage",
            )
        cost = attempts * EXCHANGE_TIMEOUT_S
        cost += backoff_delay_s(attempts)
        with trace_span(
            "fault.outage", step=step, attempts=attempts, until_step=horizon
        ):
            with trace_span("recovery.backoff", attempts=attempts, cost_s=cost):
                pass
        self._count_fault("link-outage")
        self._count_recovery("backoff")
        record(
            RunEvent(
                step=step,
                kind="link-outage",
                action="backoff",
                cost_s=cost,
                detail=f"{attempts} attempt(s) until step {horizon}",
            )
        )
        # The retries drained every outage window covering this step, so
        # the step re-resolves against whatever non-outage faults remain.
        for event in plan.events:
            if getattr(event, "is_outage", False) and event.active_at(step):
                plan = self._consume(plan, event)
        return cost, plan

    def _recover_crash(
        self, plan: FaultPlan, crash, machines: int, conds, checkpoint_step, record
    ):
        """Partial-step waste + detection + restore + elastic shrink.

        Returns ``(wall cost, surviving machines, plan with the crash
        consumed)``; the caller rolls step and samples back to the
        checkpoint.  Raises when no machine would survive.
        """
        survivors = machines - crash.machines
        if survivors < 1:
            raise UnrecoverableFaultError(
                f"crash at step {crash.step} takes the last "
                f"{machines} machine(s); nothing left to shrink to",
                step=crash.step,
                kind="crash",
            )
        fraction = plan.crash_fraction(crash)
        wasted = fraction * self._step_cost(machines, conds).iteration_s
        cost = wasted + DETECTION_S + RESTORE_S
        with trace_span(
            "fault.crash",
            step=crash.step,
            machines_lost=crash.machines,
            survivors=survivors,
            wasted_s=wasted,
        ):
            with trace_span(
                "recovery.restart",
                from_step=checkpoint_step,
                restore_s=RESTORE_S,
                detection_s=DETECTION_S,
            ):
                pass
            with trace_span(
                "recovery.rebalance",
                buckets=max(1, len(self._schedule)),
                workers=survivors * self.cluster.machine.gpu_count,
                reason="elastic-shrink",
            ):
                pass
        self._count_fault("crash")
        self._count_recovery("restart")
        self._count_recovery("rebalance")
        record(
            RunEvent(
                step=crash.step,
                kind="crash",
                action="restart",
                cost_s=cost,
                detail=(
                    f"lost {crash.machines} machine(s), {survivors} remain; "
                    f"rolled back to step {checkpoint_step}"
                ),
            )
        )
        return cost, survivors, self._consume(plan, crash)

    def _recover_timeout(self, timeout, record) -> float:
        """A transient exchange timeout: ``failures`` burned attempts plus
        exponential backoff, then the retry succeeds."""
        if timeout.failures > MAX_RETRIES:
            raise UnrecoverableFaultError(
                f"exchange timeout at step {timeout.step} fails "
                f"{timeout.failures} time(s), beyond the "
                f"{MAX_RETRIES}-retry budget",
                step=timeout.step,
                kind="timeout",
            )
        cost = timeout.failures * timeout.timeout_s
        cost += backoff_delay_s(timeout.failures)
        with trace_span(
            "fault.timeout",
            step=timeout.step,
            failures=timeout.failures,
            timeout_s=timeout.timeout_s,
        ):
            with trace_span("recovery.backoff", attempts=timeout.failures, cost_s=cost):
                pass
        self._count_fault("timeout")
        self._count_recovery("backoff")
        record(
            RunEvent(
                step=timeout.step,
                kind="timeout",
                action="backoff",
                cost_s=cost,
                detail=f"{timeout.failures} failure(s) before success",
            )
        )
        return cost

    def _note_conditions(self, step: int, conds, cost, record) -> None:
        """Spans + event-log entries when the continuous conditions change."""
        if conds.straggle_factor > 1.0:
            with trace_span(
                "fault.straggler",
                step=step,
                factor=conds.straggle_factor,
                workers=",".join(str(worker) for worker, _ in conds.stragglers),
            ):
                if cost.rebalance is not None:
                    with trace_span(
                        "recovery.rebalance",
                        buckets=cost.rebalance.buckets,
                        window_s=cost.rebalance.window_s,
                        hidden_s=cost.rebalance.hidden_s,
                        reason="straggler",
                    ):
                        pass
            self._count_fault("straggler")
            if cost.rebalance is not None:
                self._count_recovery("rebalance")
                record(
                    RunEvent(
                        step=step,
                        kind="straggler",
                        action="rebalance",
                        cost_s=cost.compute_s - self._local_iteration_s,
                        detail=(
                            f"x{conds.straggle_factor:g} slowdown; "
                            f"{cost.rebalance.buckets} bucket(s) re-pushed hide "
                            f"{cost.rebalance.hidden_s:.3f}s"
                        ),
                    )
                )
            else:
                record(
                    RunEvent(
                        step=step,
                        kind="straggler",
                        action="absorb",
                        cost_s=cost.compute_s - self._local_iteration_s,
                        detail=f"x{conds.straggle_factor:g} slowdown",
                    )
                )
        if (
            conds.bandwidth_factor != 1.0
            or conds.packet_loss > 0.0
            or conds.extra_latency_s > 0.0
        ):
            with trace_span(
                "fault.degrade",
                step=step,
                bandwidth_factor=conds.bandwidth_factor,
                packet_loss=conds.packet_loss,
                extra_latency_s=conds.extra_latency_s,
            ):
                pass
            self._count_fault("degrade")
            record(
                RunEvent(
                    step=step,
                    kind="degrade",
                    action="absorb",
                    cost_s=cost.exchange_s,
                    detail=(
                        f"bw x{conds.bandwidth_factor:g}, "
                        f"loss {conds.packet_loss:g}, "
                        f"+{conds.extra_latency_s:g}s latency"
                    ),
                )
            )

    def _count_fault(self, kind: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("faults_injected_total", {"kind": kind}).inc()

    def _count_recovery(self, action: str) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("recovery_actions_total", {"action": action}).inc()

    # ------------------------------------------------------------------
    # engine integration
    # ------------------------------------------------------------------

    def iteration_metrics(self, result: FaultTrainingResult) -> IterationMetrics:
        """Map a fault-tolerant run onto the paper's headline metrics —
        the payload shape the sweep engine caches for a faults dimension.

        Throughput and iteration time are the realized (degraded) run
        averages; utilizations rescale the fault-free per-replica
        activity over the stretched mean step.
        """
        mean_step = result.mean_step_s
        local = self._local
        if mean_step <= 0:
            gpu_util = 0.0
            cpu_util = 0.0
        else:
            gpu_util = gpu_utilization(local.gpu_busy_time_s, mean_step)
            cpu_util = cpu_utilization(
                local.cpu_core_seconds, local.cpu_core_count, mean_step
            )
        return IterationMetrics(
            model=result.model,
            framework=result.framework,
            device=result.configuration,
            batch_size=result.per_gpu_batch,
            throughput=result.throughput,
            throughput_unit=self.trainer.session.spec.throughput_unit,
            gpu_utilization=gpu_util,
            fp32_utilization=local.fp32_utilization,
            cpu_utilization=cpu_util,
            iteration_time_s=mean_step,
        )


def faulted_metrics(
    model: str,
    framework: str,
    batch_size: int,
    scenario: FaultScenario,
    gpu: GPUSpec,
    cpu: CPUSpec,
) -> IterationMetrics:
    """A sweep point's metrics under its fault scenario.

    The scenario supplies the cluster shape and run length; every machine
    of that cluster carries the sweep's ``gpu`` and ``cpu``.  The run goes
    through :class:`FaultTolerantTrainer` and the realized (degraded)
    averages become the point's metrics.  A scenario the recovery
    policies cannot survive raises :class:`UnrecoverableFaultError` — a
    faulted grid is allowed to fail loudly, never to hang or cache a
    wrong number.
    """
    machine = replace(scenario.cluster.machine, gpu=gpu, cpu=cpu)
    cluster = replace(scenario.cluster, machine=machine)
    trainer = FaultTolerantTrainer(
        model, framework, cluster, batch_size, plan=scenario.plan
    )
    return trainer.iteration_metrics(trainer.run(steps=scenario.steps))
