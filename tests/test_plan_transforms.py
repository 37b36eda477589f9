"""Plan transforms: every optimization rewrite declares conservation
contracts (total FLOPs, total weight bytes) and ``apply`` enforces them."""

import copy
import json
import os
import re

import pytest

from repro.hardware.memory import AllocationTag, OutOfMemoryError
from repro.observability.runner import telemetry
from repro.plan import compiler
from repro.plan.pipeline import parse_transform_spec
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    FusedRNNTransform,
    HalfPrecisionStorageTransform,
    PlanTransform,
    ResNetDepthTransform,
    TransformContractError,
)
from repro.training.session import TrainingSession
from tests.plans import exact

#: ``(tag, exact bytes)`` of every record of two offload traces, in order:
#: offload's trace is the base trace recorded with an offload fraction, and
#: these pin its byte counts (float association included) to the bit.
_OFFLOAD_TRACES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected", "offload_traces.json"
)


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


    def test_shares_its_source_tags_and_labels(self, resnet_plan):
        source = resnet_plan.allocations
        halved = HalfPrecisionStorageTransform().apply(resnet_plan).allocations
        assert halved.tags is source.tags
        assert halved.labels is source.labels
        scales = HalfPrecisionStorageTransform.SCALES
        assert halved.num_bytes == tuple(
            size * scales.get(tag, 1.0)
            for size, tag in zip(source.num_bytes, source.tags)
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

    @pytest.mark.parametrize(
        "point", ["resnet-50/mxnet/b16/offload:0.5", "nmt/tensorflow/b64/offload:0"]
    )
    def test_trace_is_pinned_byte_for_byte(self, point):
        with open(_OFFLOAD_TRACES, encoding="utf-8") as handle:
            expected = json.load(handle)[point]
        model, framework, batch, spec = point.split("/")
        plan = TrainingSession(model, framework).compile_transformed(
            int(batch[1:]), parse_transform_spec(spec)
        )
        trace = [
            [record.tag.value, exact(record.num_bytes)] for record in plan.allocations
        ]
        assert trace == expected

    def test_trace_is_the_base_trace_with_three_differences(self):
        # TensorFlow allocates momentum statically, so all three show.
        plan = TrainingSession("resnet-50", "tensorflow").compile(16)
        fraction = 0.25
        offloaded = FeatureMapOffloadTransform(fraction).apply(plan)
        base = [r for r in plan.allocations if r.label != "input staging"]
        assert len(base) == len(plan.allocations) - 1
        assert len(offloaded.allocations) == len(base)
        for before, after in zip(base, offloaded.allocations):
            assert after.label == before.label
            if before.label == "momentum":
                assert before.tag is AllocationTag.WEIGHTS
                assert after.tag is AllocationTag.DYNAMIC
                assert after.num_bytes == before.num_bytes
            elif before.tag is AllocationTag.FEATURE_MAPS:
                assert after.tag is before.tag
                assert after.num_bytes == pytest.approx(
                    before.num_bytes * (1.0 - fraction), rel=1e-12
                )
            else:
                assert after == before

    def test_oom_names_the_layer(self):
        session = TrainingSession("resnet-50", "mxnet")
        pipeline = parse_transform_spec("offload:0.5")
        layers = {layer.name for layer in session.compile(256).graph.layers}
        with pytest.raises(OutOfMemoryError) as raised:
            session.run_iteration(256, pipeline)
        named = re.search(r"\(feature maps: ([^)]+)\) exceeds", str(raised.value))
        assert named is not None, str(raised.value)
        assert named.group(1) in layers


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
