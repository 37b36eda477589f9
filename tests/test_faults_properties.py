"""Seeded property-based tests for the allreduce cost model and the
fault layer's strict-additivity anchor.

Two families of properties:

- the ring allreduce matches its closed form — ``2(n-1)`` rounds moving
  ``2 g (n-1)/n`` bytes on the wire, ``t = steps * latency + volume /
  effective bandwidth`` — across a seeded sweep of worker counts, sizes
  and link parameters;
- a *zero-magnitude* fault plan (straggle factor 1.0, bandwidth factor
  1.0, zero loss, zero latency) is byte- and time-identical to no plan
  at all, which is the invariant that lets the faults dimension ride the
  sweep engine without perturbing the paper grid.
"""

import random

import pytest

from repro.distributed.allreduce import (
    AllReduceCost,
    RingAllReduceExchange,
    ring_allreduce_time,
)
from repro.distributed.data_parallel import DataParallelTrainer
from repro.faults.plan import FaultPlan, LinkFault, StepConditions, StragglerFault
from repro.faults.trainer import FaultTolerantTrainer
from repro.hardware.cluster import ClusterSpec, MachineSpec, parse_configuration
from repro.hardware.interconnect import Interconnect
from repro.observability.metrics import MetricsRegistry, set_metrics

SEED = 20260806
CASES = 25


def _random_link(rng: random.Random) -> Interconnect:
    return Interconnect(
        name=f"link-{rng.randrange(1 << 16)}",
        bandwidth_gbs=rng.uniform(0.5, 200.0),
        latency_s=rng.uniform(1e-7, 1e-3),
        efficiency=rng.uniform(0.3, 1.0),
    )


class TestRingClosedForm:
    """ring_allreduce_time against the paper's 2(n-1)/n closed form."""

    def test_matches_closed_form_over_seeded_sweep(self):
        rng = random.Random(SEED)
        for _ in range(CASES):
            workers = rng.randrange(2, 65)
            gradient_bytes = rng.uniform(1e3, 1e9)
            link = _random_link(rng)
            steps = 2 * (workers - 1)
            volume = 2.0 * gradient_bytes * (workers - 1) / workers
            expected = steps * link.latency_s + volume / link.effective_bandwidth_bytes
            assert ring_allreduce_time(gradient_bytes, workers, link) == expected

    def test_single_worker_is_free(self):
        rng = random.Random(SEED + 1)
        for _ in range(CASES):
            assert ring_allreduce_time(rng.uniform(0, 1e9), 1, _random_link(rng)) == 0.0

    def test_monotone_in_workers_for_latency_dominated_links(self):
        # More workers -> more rounds; with non-zero latency the time
        # strictly grows once the bandwidth term has converged.
        rng = random.Random(SEED + 2)
        for _ in range(CASES):
            link = _random_link(rng)
            gradient_bytes = rng.uniform(1e3, 1e6)
            times = [
                ring_allreduce_time(gradient_bytes, workers, link)
                for workers in range(2, 20)
            ]
            assert all(later > earlier for earlier, later in zip(times, times[1:]))

    def test_exchange_cost_uses_the_inter_machine_link(self):
        rng = random.Random(SEED + 3)
        exchange = RingAllReduceExchange()
        for _ in range(CASES):
            machines = rng.randrange(2, 9)
            gpus = rng.randrange(1, 5)
            link = _random_link(rng)
            cluster = ClusterSpec(
                machine=MachineSpec(gpu_count=gpus),
                machine_count=machines,
                inter_link=link,
            )
            gradient_bytes = rng.uniform(1e4, 1e8)
            cost = exchange.cost(gradient_bytes, cluster)
            workers = machines * gpus
            assert cost.steps == 2 * (workers - 1)
            assert cost.total_s == ring_allreduce_time(gradient_bytes, workers, link)

    def test_wire_bytes_counter_matches_closed_form(self):
        rng = random.Random(SEED + 4)
        exchange = RingAllReduceExchange()
        for _ in range(10):
            workers = rng.randrange(2, 17)
            gradient_bytes = rng.uniform(1e4, 1e8)
            cluster = ClusterSpec(
                machine=MachineSpec(gpu_count=workers), machine_count=1
            )
            registry = MetricsRegistry(enabled=True)
            previous = set_metrics(registry)
            try:
                exchange.cost(gradient_bytes, cluster)
            finally:
                set_metrics(previous)
            snapshot = registry.snapshot()
            expected = 2.0 * gradient_bytes * (workers - 1) / workers
            assert snapshot["allreduce_wire_bytes_total"] == expected

    def test_cost_interface_parity_with_parameter_server(self):
        cost = AllReduceCost(total_s=1.5, steps=6)
        assert cost.intra_machine_s == 0.0
        assert cost.inter_machine_s == 1.5
        assert cost.aggregation_s == 0.0


class TestZeroMagnitudeIdentity:
    """A zero-magnitude fault plan must be bitwise invisible."""

    def test_identity_degradation_returns_the_same_object(self):
        rng = random.Random(SEED + 5)
        for _ in range(CASES):
            link = _random_link(rng)
            assert link.degraded() is link
            assert (
                link.degraded(bandwidth_factor=1.0, packet_loss=0.0, extra_latency_s=0.0)
                is link
            )

    def test_identity_cluster_transforms_return_self(self):
        cluster = parse_configuration("2M1G", fabric="infiniband")
        assert cluster.with_degraded_link() is cluster
        assert cluster.shrink(0) is cluster

    def test_zero_slowdown_plan_is_time_identical_to_no_plan(self):
        cluster = parse_configuration("2M1G", fabric="infiniband")
        zero = FaultPlan(
            events=(
                StragglerFault(worker=0, factor=1.0, start_step=0),
                LinkFault(
                    bandwidth_factor=1.0,
                    packet_loss=0.0,
                    extra_latency_s=0.0,
                    start_step=0,
                ),
            ),
            seed=3,
        )
        plain = FaultTolerantTrainer("resnet-50", "mxnet", cluster, 16)
        faulted = FaultTolerantTrainer("resnet-50", "mxnet", cluster, 16, plan=zero)
        reference = plain.run(steps=12)
        observed = faulted.run(steps=12)
        assert observed.wall_clock_s == reference.wall_clock_s
        assert observed.samples == reference.samples
        assert observed.mean_step_s == reference.mean_step_s
        assert observed.lost_s == 0.0
        assert observed.final_machines == reference.final_machines

    def test_empty_plan_matches_plain_trainer_bitwise(self):
        cluster = parse_configuration("2M1G", fabric="infiniband")
        baseline = DataParallelTrainer("resnet-50", "mxnet", cluster).run_iteration(16)
        result = FaultTolerantTrainer("resnet-50", "mxnet", cluster, 16).run(steps=7)
        assert result.wall_clock_s == 7 * baseline.iteration_time_s
        assert result.samples == 7 * baseline.samples_per_iteration
        # wall is exact; mean/throughput re-divide and may differ by 1 ulp.
        assert result.mean_step_s == pytest.approx(baseline.iteration_time_s, rel=1e-15)
        assert result.throughput == pytest.approx(baseline.throughput, rel=1e-15)

    @pytest.mark.parametrize(
        "label, fabric", [("2M1G", "infiniband"), ("1M2G", "ethernet")]
    )
    def test_clean_step_cost_prices_like_run_iteration(self, label, fabric):
        cluster = parse_configuration(label, fabric=fabric)
        reference = DataParallelTrainer("resnet-50", "mxnet", cluster).run_iteration(16)
        trainer = FaultTolerantTrainer("resnet-50", "mxnet", cluster, 16)
        cost = trainer._step_cost(cluster.machine_count, StepConditions())
        assert cost.compute_s == reference.compute_time_s
        assert cost.exchange_s == reference.exchange_time_s
        assert cost.exposed_s == reference.exposed_exchange_s
        assert cost.iteration_s == reference.iteration_time_s
        assert cost.samples == reference.samples_per_iteration
        assert cost.rebalance is None


class TestSeededDeterminism:
    """The plan's only randomness is a pure function of (seed, step)."""

    def test_crash_fraction_is_deterministic_and_bounded(self):
        from repro.faults.plan import WorkerCrash

        rng = random.Random(SEED + 6)
        for _ in range(CASES):
            seed = rng.randrange(1 << 30)
            step = rng.randrange(1000)
            crash = WorkerCrash(step=step)
            first = FaultPlan(events=(crash,), seed=seed).crash_fraction(crash)
            second = FaultPlan(events=(crash,), seed=seed).crash_fraction(crash)
            assert first == second
            assert 0.25 <= first < 0.75

    def test_straggler_scales_compute_exactly(self):
        cluster = parse_configuration("2M1G", fabric="infiniband")
        rng = random.Random(SEED + 7)
        plain = FaultTolerantTrainer("resnet-50", "mxnet", cluster, 16)
        for _ in range(5):
            factor = 1.0 + rng.uniform(0.1, 3.0)
            plan = FaultPlan(
                events=(StragglerFault(worker=0, factor=factor, start_step=0),)
            )
            conds = plan.conditions_at(0)
            cost = FaultTolerantTrainer(
                "resnet-50", "mxnet", cluster, 16, plan=plan
            )._step_cost(cluster.machine_count, conds)
            assert cost.compute_s == plain.baseline.compute_time_s * factor

    def test_link_loss_composes_multiplicatively(self):
        rng = random.Random(SEED + 8)
        for _ in range(CASES):
            first = rng.uniform(0.0, 0.9)
            second = rng.uniform(0.0, 0.9)
            plan = FaultPlan(
                events=(
                    LinkFault(packet_loss=first, start_step=0),
                    LinkFault(packet_loss=second, start_step=0),
                )
            )
            observed = plan.conditions_at(0).packet_loss
            assert observed == pytest.approx(1.0 - (1.0 - first) * (1.0 - second))

    def test_same_plan_same_seed_same_run(self):
        from repro.faults.plan import WorkerCrash

        cluster = parse_configuration("4M1G", fabric="infiniband")
        events = (
            StragglerFault(worker=0, factor=1.5, start_step=2, end_step=9),
            WorkerCrash(step=5),
        )
        first = FaultTolerantTrainer(
            "resnet-50", "mxnet", cluster, 16, plan=FaultPlan(events=events, seed=11)
        ).run(steps=15)
        second = FaultTolerantTrainer(
            "resnet-50", "mxnet", cluster, 16, plan=FaultPlan(events=events, seed=11)
        ).run(steps=15)
        assert first.wall_clock_s == second.wall_clock_s
        assert first.samples == second.samples
        assert [event.cost_s for event in first.events] == [
            event.cost_s for event in second.events
        ]

    def test_different_seed_moves_the_crash_fraction(self):
        from repro.faults.plan import WorkerCrash

        crash = WorkerCrash(step=9)
        fractions = {
            FaultPlan(events=(crash,), seed=seed).crash_fraction(crash)
            for seed in range(8)
        }
        assert len(fractions) > 1
