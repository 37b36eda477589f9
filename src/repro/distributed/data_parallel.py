"""Synchronous data-parallel training over a simulated cluster.

Each of the cluster's GPUs trains a full model replica on its own
``per_gpu_batch`` slice (Section 2.2); after the backward pass, gradients
are exchanged through the configured mechanism (parameter server by
default, matching MXNet's kvstore).  Frameworks overlap part of the
exchange with the backward pass — per-layer gradients are pushed as they
become ready — captured by ``COMM_OVERLAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.parameter_server import ParameterServerExchange
from repro.hardware.cluster import ClusterSpec
from repro.observability.metrics import get_metrics
from repro.observability.tracer import trace_span
from repro.training.session import IterationProfile, TrainingSession

#: Fraction of exchange time hidden behind the backward pass (layer-wise
#: push while upstream layers still compute).
COMM_OVERLAP = 0.3


@dataclass(frozen=True)
class DistributedProfile:
    """One distributed training iteration's resolved performance."""

    model: str
    framework: str
    configuration: str
    per_gpu_batch: int
    worker_count: int
    compute_time_s: float
    exchange_time_s: float
    exposed_exchange_s: float
    iteration_time_s: float
    samples_per_iteration: float
    #: Bytes one gradient exchange moves: the graph's weight bytes.
    gradient_bytes: int
    #: The profile of one replica's iteration (``compute_time_s``).
    replica: IterationProfile = field(repr=False, compare=False)

    @property
    def throughput(self) -> float:
        """Aggregate samples/second across all workers."""
        return self.samples_per_iteration / self.iteration_time_s

    @property
    def scaling_efficiency(self) -> float:
        """Throughput relative to `worker_count x` the single-worker rate."""
        single = (self.samples_per_iteration / self.worker_count) / (
            self.compute_time_s
        )
        ideal = single * self.worker_count
        return self.throughput / ideal if ideal > 0 else 0.0

    @property
    def communication_fraction(self) -> float:
        """Share of the iteration spent in exposed communication."""
        return self.exposed_exchange_s / self.iteration_time_s


@dataclass(frozen=True)
class StepPrice:
    """One synchronous step: replica compute plus the exposed exchange."""

    compute_s: float
    exchange_s: float
    exposed_s: float

    @property
    def iteration_s(self) -> float:
        return self.compute_s + self.exposed_s


class DataParallelTrainer:
    """Simulates synchronous data-parallel training of one model."""

    def __init__(
        self,
        model: str,
        framework: str,
        cluster: ClusterSpec,
        exchange=None,
    ):
        self.cluster = cluster
        self.exchange = exchange if exchange is not None else ParameterServerExchange()
        self.session = TrainingSession(
            model, framework, gpu=cluster.machine.gpu, cpu=cluster.machine.cpu
        )

    def run_iteration(self, per_gpu_batch: int) -> DistributedProfile:
        """Simulate one synchronous iteration at ``per_gpu_batch`` per GPU.

        Raises:
            OutOfMemoryError: if a single replica does not fit its GPU.
        """
        workers = max(1, self.cluster.total_gpus)
        span = trace_span(
            "distributed.iteration",
            model=self.session.spec.key,
            configuration=self.cluster.name,
            exchange=self.exchange.name,
            workers=workers,
            per_gpu_batch=per_gpu_batch,
        )
        with span:
            local = self.session.run_iteration(per_gpu_batch)
            plan = self.session.compile(per_gpu_batch)
            gradient_bytes = plan.graph.total_weight_bytes
            price = self.price_step(
                local.iteration_time_s, gradient_bytes, self.cluster
            )
            span.set_attributes(
                gradient_bytes=gradient_bytes,
                exchange_s=price.exchange_s,
                exposed_exchange_s=price.exposed_s,
                iteration_time_s=price.iteration_s,
            )
            metrics = get_metrics()
            if metrics.enabled:
                metrics.counter("distributed_iterations_total").inc()
                metrics.counter("exchange_exposed_seconds_total").inc(price.exposed_s)
                metrics.gauge(
                    "distributed_workers", {"configuration": self.cluster.name}
                ).set(workers)
        return DistributedProfile(
            model=self.session.spec.display_name,
            framework=self.session.framework.name,
            configuration=self.cluster.name,
            per_gpu_batch=per_gpu_batch,
            worker_count=workers,
            compute_time_s=price.compute_s,
            exchange_time_s=price.exchange_s,
            exposed_exchange_s=price.exposed_s,
            iteration_time_s=price.iteration_s,
            samples_per_iteration=local.effective_samples * workers,
            gradient_bytes=gradient_bytes,
            replica=local,
        )

    def price_step(self, compute_s, gradient_bytes, cluster: ClusterSpec) -> StepPrice:
        """``compute_s`` of replica time plus exchanging ``gradient_bytes``
        on ``cluster`` (nothing on one GPU), ``COMM_OVERLAP`` of it hidden."""
        cost = self.exchange.cost(gradient_bytes, cluster)
        exchange = cost.total_s if cluster.total_gpus > 1 else 0.0
        return StepPrice(compute_s, exchange, exchange * (1.0 - COMM_OVERLAP))

    def gradient_schedule(self, per_gpu_batch: int) -> list:
        """Per-layer ``(layer_name, gradient_ready_s)`` pairs, in the order
        the backward pass produces them — the schedule a layer-wise push
        (the mechanism behind ``COMM_OVERLAP``) would follow.  Read straight
        from the replica's compiled plan."""
        plan = self.session.compile(per_gpu_batch)
        return plan.gradient_ready_times()

    def sweep(self, per_gpu_batches) -> list:
        """Profile several per-GPU batch sizes (Fig. 10's x-axis)."""
        return [self.run_iteration(batch) for batch in per_gpu_batches]
