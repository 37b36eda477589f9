"""Unit and behaviour tests for distributed data-parallel training."""

import pytest

from repro.distributed import (
    DataParallelTrainer,
    ParameterServerExchange,
    RingAllReduceExchange,
    standard_configurations,
)
from repro.distributed.allreduce import ring_allreduce_time
from repro.distributed.topology import configuration
from repro.hardware.cluster import parse_configuration
from repro.hardware.interconnect import ETHERNET_1G, INFINIBAND_100G, PCIE_3_X16
from repro.training.session import TrainingSession

_GRAD_BYTES = 100e6  # ~ResNet-50 gradients


class TestParameterServer:
    def test_single_gpu_has_no_inter_machine_cost(self):
        cost = ParameterServerExchange().cost(_GRAD_BYTES, configuration("1M1G"))
        assert cost.inter_machine_s == 0.0
        assert cost.intra_machine_s > 0.0

    def test_infiniband_orders_faster_than_ethernet(self):
        exchange = ParameterServerExchange()
        ib = exchange.cost(_GRAD_BYTES, configuration("2M1G (infiniband)"))
        eth = exchange.cost(_GRAD_BYTES, configuration("2M1G (ethernet)"))
        assert eth.inter_machine_s > 20 * ib.inter_machine_s

    def test_aggregation_scales_with_gpu_count(self):
        exchange = ParameterServerExchange()
        one = exchange.cost(_GRAD_BYTES, configuration("1M1G"))
        four = exchange.cost(_GRAD_BYTES, configuration("1M4G"))
        assert four.aggregation_s == pytest.approx(4 * one.aggregation_s)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ParameterServerExchange().cost(-1.0, configuration("1M1G"))


class TestRingAllReduce:
    def test_single_worker_free(self):
        assert ring_allreduce_time(_GRAD_BYTES, 1, PCIE_3_X16) == 0.0

    def test_volume_approaches_two_gradients(self):
        two = ring_allreduce_time(_GRAD_BYTES, 2, INFINIBAND_100G)
        many = ring_allreduce_time(_GRAD_BYTES, 64, INFINIBAND_100G)
        # Bandwidth term: 2*g*(n-1)/n -> between 1x and 2x gradient volume.
        assert many < 2.2 * two

    def test_cost_interface(self):
        cost = RingAllReduceExchange().cost(_GRAD_BYTES, configuration("1M4G"))
        assert cost.total_s > 0
        assert cost.steps == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(-1, 2, PCIE_3_X16)
        with pytest.raises(ValueError):
            ring_allreduce_time(1, 0, PCIE_3_X16)


class TestDataParallelTrainer:
    def test_fig10_ordering_at_batch_32(self):
        throughputs = {}
        for label, cluster in standard_configurations().items():
            trainer = DataParallelTrainer("resnet-50", "mxnet", cluster)
            throughputs[label] = trainer.run_iteration(32).throughput
        # Observation 13's shape:
        assert throughputs["2M1G (ethernet)"] < throughputs["1M1G"]
        assert throughputs["2M1G (infiniband)"] > 1.5 * throughputs["1M1G"]
        assert throughputs["1M2G"] > 1.5 * throughputs["1M1G"]
        assert throughputs["1M4G"] > 3.0 * throughputs["1M1G"]
        assert throughputs["1M4G"] > throughputs["1M2G"]

    def test_single_machine_scaling_efficiency_high(self):
        trainer = DataParallelTrainer(
            "resnet-50", "mxnet", configuration("1M4G")
        )
        profile = trainer.run_iteration(32)
        assert profile.scaling_efficiency > 0.85

    def test_ethernet_dominated_by_communication(self):
        trainer = DataParallelTrainer(
            "resnet-50", "mxnet", configuration("2M1G (ethernet)")
        )
        profile = trainer.run_iteration(32)
        assert profile.communication_fraction > 0.5

    def test_samples_counted_across_workers(self):
        trainer = DataParallelTrainer("resnet-50", "mxnet", configuration("1M4G"))
        profile = trainer.run_iteration(16)
        assert profile.samples_per_iteration == 64

    def test_sweep(self):
        trainer = DataParallelTrainer("resnet-50", "mxnet", configuration("1M2G"))
        profiles = trainer.sweep((8, 16))
        assert [p.per_gpu_batch for p in profiles] == [8, 16]
        assert profiles[1].throughput > profiles[0].throughput

    def test_allreduce_exchange_pluggable(self):
        trainer = DataParallelTrainer(
            "resnet-50",
            "mxnet",
            configuration("1M4G"),
            exchange=RingAllReduceExchange(),
        )
        assert trainer.run_iteration(16).throughput > 0

    @pytest.mark.parametrize("label", sorted(standard_configurations()))
    def test_gradient_bytes_are_the_graph_weight_bytes(self, label):
        # One rule, read by every exchange consumer: a step moves the
        # replica graph's weight bytes, whatever the batch or cluster.
        trainer = DataParallelTrainer(
            "resnet-50", "mxnet", standard_configurations()[label]
        )
        weights = TrainingSession("resnet-50", "mxnet").compile(16).graph
        for batch in (16, 32):
            profile = trainer.run_iteration(batch)
            assert profile.gradient_bytes == weights.total_weight_bytes

    def test_configuration_labels(self):
        configs = standard_configurations()
        assert set(configs) == {
            "1M1G",
            "2M1G (ethernet)",
            "2M1G (infiniband)",
            "1M2G",
            "1M4G",
        }
        assert configs["2M1G (ethernet)"].inter_link is ETHERNET_1G

    def test_unknown_configuration(self):
        with pytest.raises(KeyError):
            configuration("3M9G")

    def test_larger_model_suffers_more_from_slow_network(self):
        """Gradient volume drives the cliff: Inception (24M params) hurts
        less than a hypothetical doubled-gradient exchange."""
        cluster = parse_configuration("2M1G", fabric="1gbe")
        trainer = DataParallelTrainer("resnet-50", "mxnet", cluster)
        profile = trainer.run_iteration(32)
        assert profile.exchange_time_s > profile.compute_time_s
