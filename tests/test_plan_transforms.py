"""Plan transforms: every optimization rewrite declares conservation
contracts (total FLOPs, total weight bytes) and ``apply`` enforces them."""

import copy

import pytest

from repro.hardware.memory import AllocationTag
from repro.observability.runner import telemetry
from repro.plan import compiler
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    FusedRNNTransform,
    HalfPrecisionStorageTransform,
    PlanTransform,
    ResNetDepthTransform,
    TransformContractError,
)
from repro.training.session import TrainingSession


@pytest.fixture(scope="module")
def rnn_plan():
    return TrainingSession("seq2seq", "tensorflow").compile(64)


@pytest.fixture(scope="module")
def resnet_plan():
    return TrainingSession("resnet-50", "mxnet").compile(16)


def _bytes_by_tag(plan):
    totals = {}
    for record in plan.allocations:
        totals[record.tag] = totals.get(record.tag, 0.0) + record.num_bytes
    return totals


class TestFusedRNN:
    def test_preserves_flops_and_weights_while_shrinking_the_stream(self, rnn_plan):
        fused = FusedRNNTransform().apply(rnn_plan)
        assert fused.total_flops == pytest.approx(rnn_plan.total_flops, rel=1e-9)
        assert fused.graph.total_weight_bytes == rnn_plan.graph.total_weight_bytes
        assert len(fused.kernels) < len(rnn_plan.kernels)
        assert not any(k.host_sync for k in fused.kernels)
        assert fused.makespan_s < rnn_plan.makespan_s

    def test_composes_with_fp16_storage(self, rnn_plan):
        stacked = HalfPrecisionStorageTransform().apply(
            FusedRNNTransform().apply(rnn_plan)
        )
        assert stacked.total_flops == pytest.approx(rnn_plan.total_flops, rel=1e-9)
        assert stacked.memory.peak_total < rnn_plan.memory.peak_total


class TestHalfPrecisionStorage:
    def test_rescales_the_trace_without_touching_execution(self, resnet_plan):
        halved = HalfPrecisionStorageTransform().apply(resnet_plan)
        assert halved.execution is resnet_plan.execution
        assert halved.timings is resnet_plan.timings
        before, after = _bytes_by_tag(resnet_plan), _bytes_by_tag(halved)
        assert after[AllocationTag.FEATURE_MAPS] == pytest.approx(
            before[AllocationTag.FEATURE_MAPS] * 0.5
        )
        assert after[AllocationTag.WEIGHT_GRADIENTS] == pytest.approx(
            before[AllocationTag.WEIGHT_GRADIENTS] * 0.5
        )
        assert after[AllocationTag.WEIGHTS] == pytest.approx(
            before[AllocationTag.WEIGHTS] * 1.5
        )
        assert after.get(AllocationTag.WORKSPACE, 0.0) == before.get(
            AllocationTag.WORKSPACE, 0.0
        )


class TestFeatureMapOffload:
    @pytest.mark.parametrize("fraction", (-0.1, 1.5))
    def test_rejects_out_of_range_fractions(self, fraction):
        with pytest.raises(ValueError, match=r"offload fraction"):
            FeatureMapOffloadTransform(fraction)

    def test_offloading_monotonically_frees_memory(self, resnet_plan):
        peaks = [
            FeatureMapOffloadTransform(f).apply(resnet_plan).memory.peak_total
            for f in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))
        assert peaks[0] <= resnet_plan.memory.peak_total

    def test_keeps_kernels_and_timings(self, resnet_plan):
        offloaded = FeatureMapOffloadTransform(0.5).apply(resnet_plan)
        assert offloaded.kernels is resnet_plan.kernels
        assert offloaded.timings is resnet_plan.timings
        assert offloaded.makespan_s > resnet_plan.makespan_s


class TestResNetDepth:
    def test_declares_nonconservation_and_grows_the_network(self, resnet_plan):
        deeper = ResNetDepthTransform(23).apply(resnet_plan)
        assert not ResNetDepthTransform.preserves_flops
        assert not ResNetDepthTransform.preserves_weight_bytes
        assert deeper.graph.model_name == "ResNet-101"
        assert deeper.total_flops > resnet_plan.total_flops
        assert deeper.graph.total_weight_bytes > resnet_plan.graph.total_weight_bytes


class TestContractEnforcement:
    def test_lying_flop_contract_is_caught(self, resnet_plan):
        class LyingDepth(ResNetDepthTransform):
            name = "lying-depth"
            preserves_flops = True
            preserves_weight_bytes = False

        with pytest.raises(TransformContractError, match=r"FLOP preservation"):
            LyingDepth(23).apply(resnet_plan)

    def test_lying_weight_byte_contract_is_caught(self, resnet_plan):
        class GrowsWeights(PlanTransform):
            name = "grows-weights"
            preserves_flops = False  # the extra sgd_update kernels add FLOPs
            preserves_weight_bytes = True

            def rewrite(self, plan):
                grown = copy.deepcopy(plan.graph)
                grown.layers[0].weight_elements += 1024
                return compiler.compile_graph(grown, plan.framework, plan.gpu)

        with pytest.raises(TransformContractError, match=r"weight-byte"):
            GrowsWeights().apply(resnet_plan)

    def test_honest_transforms_pass_every_contract(self, rnn_plan, resnet_plan):
        for transform, plan in (
            (FusedRNNTransform(), rnn_plan),
            (HalfPrecisionStorageTransform(), resnet_plan),
            (FeatureMapOffloadTransform(0.5), resnet_plan),
            (ResNetDepthTransform(10), resnet_plan),
        ):
            transform.apply(plan)  # must not raise

    def test_apply_emits_a_transform_span(self, resnet_plan):
        with telemetry() as run:
            HalfPrecisionStorageTransform().apply(resnet_plan)
        span = run.tracer.roots[0]
        assert span.name == "plan.transform"
        assert span.attributes["transform"] == "fp16-storage"
        assert span.attributes["kernels_before"] == len(resnet_plan.kernels)
        assert span.attributes["kernels_after"] == len(resnet_plan.kernels)
