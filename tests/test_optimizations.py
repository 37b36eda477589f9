"""The paper's optimization what-ifs, asked through the plan transforms and
the session: offload, FP16 storage, fused RNN cells, depth for batch."""

import copy
from dataclasses import replace

import pytest

import repro.kernels.rnn as rnn_kernels
from repro.bench.noise import NoiseModel
from repro.bench.subjects import subject_for
from repro.hardware.interconnect import PCIE_3_X16
from repro.hardware.memory import AllocationTag
from repro.kernels.gemm import gemm
from repro.models.resnet import build_resnet_with_depth
from repro.plan.compiler import compile_graph
from repro.plan.pipeline import parse_transform_spec
from repro.plan.transform import (
    RECURRENT_KINDS,
    FeatureMapOffloadTransform,
    deepest_fitting_depth,
    fuse_recurrent_layers,
)
from repro.training.session import TrainingSession
from repro.tune.search import Autotuner

OFFLOAD_FRACTIONS = (0.0, 0.25, 0.5, 0.8, 1.0)
#: (model, framework, batch) points the offload differential covers.
OFFLOAD_POINTS = (
    ("sockeye", "mxnet", 64),
    ("nmt", "tensorflow", 64),
    ("resnet-50", "mxnet", 32),
)


def _offload(fraction):
    return parse_transform_spec(f"offload:{fraction}")


def _feature_maps(plan):
    return plan.memory.peak_by_tag[AllocationTag.FEATURE_MAPS]


def reference_exposed_transfer_s(graph, fraction):
    """The offload price of the retired ``FeatureMapOffload.plan`` helper:
    both directions over PCIe 3.0 x16, 70 % hidden behind compute."""
    transfer = 2.0 * graph.total_feature_map_bytes * fraction
    return PCIE_3_X16.transfer_time(transfer) * (1.0 - 0.7)


class TestFeatureMapOffload:
    @pytest.fixture(scope="class")
    def session(self):
        return TrainingSession("sockeye", "mxnet")

    def test_memory_saved_scales_with_fraction(self, session):
        kept = _feature_maps(session.compile_transformed(64, _offload(0.0)))
        half = kept - _feature_maps(session.compile_transformed(64, _offload(0.5)))
        full = kept - _feature_maps(session.compile_transformed(64, _offload(1.0)))
        assert full == pytest.approx(2 * half)

    def test_zero_fraction_is_free(self, session):
        plan = session.compile_transformed(64, _offload(0.0))
        assert plan.makespan_s == session.compile(64).makespan_s
        offloaded = session.run_iteration(64, _offload(0.0))
        assert offloaded.throughput == pytest.approx(
            session.run_iteration(64).throughput
        )

    def test_throughput_cost_is_modest_over_pcie(self, session):
        """vDNN's result: offloading costs little because PCIe transfers
        overlap with compute."""
        baseline = session.run_iteration(64).throughput
        offloaded = session.run_iteration(64, _offload(0.8)).throughput
        assert 0.0 < 1.0 - offloaded / baseline < 0.25

    def test_offload_raises_the_memory_ceiling(self, session):
        """Sockeye tops out at batch 64 (paper); offloading most feature
        maps lets larger batches fit."""
        candidates = (16, 32, 64, 128, 256)
        baseline_max = session.max_batch_size(candidates)
        offload_max = session.max_batch_size(candidates, pipeline=_offload(0.6))
        assert baseline_max == 64
        assert offload_max > baseline_max

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            FeatureMapOffloadTransform(1.5)
        with pytest.raises(ValueError):
            parse_transform_spec("offload:1.5")

    def test_fits_true_for_small_batch(self, session):
        assert session.compile_transformed(16, _offload(0.0)).fits(
            session.gpu.memory_bytes
        )

    def test_timeline_attributes_the_stall_to_offload(self, session):
        plan = session.compile_transformed(64, _offload(0.5))
        expected = reference_exposed_transfer_s(plan.graph, 0.5)
        assert plan.timeline.idle_by_cause()["offload"] == pytest.approx(expected)
        assert plan.execution.offload_stall_s == pytest.approx(expected)
        assert "offload" not in session.compile(64).timeline.idle_by_cause()


class TestOneOffloadModel:
    """Every consumer prices offload with the same number, and that number
    is the retired helper's formula."""

    @pytest.fixture(scope="class")
    def sessions(self):
        return {
            (model, framework): TrainingSession(model, framework)
            for model, framework, _batch in OFFLOAD_POINTS
        }

    @pytest.fixture(scope="class")
    def tuners(self):
        return {
            (model, framework): Autotuner(model, framework, batch_size=batch)
            for model, framework, batch in OFFLOAD_POINTS
        }

    @pytest.mark.parametrize("fraction", OFFLOAD_FRACTIONS)
    @pytest.mark.parametrize("model,framework,batch", OFFLOAD_POINTS)
    def test_iteration_time_is_baseline_plus_reference_transfer(
        self, sessions, model, framework, batch, fraction
    ):
        session = sessions[model, framework]
        baseline = session.run_iteration(batch)
        offloaded = session.run_iteration(batch, _offload(fraction))
        exposed = reference_exposed_transfer_s(session.compile(batch).graph, fraction)
        assert offloaded.iteration_time_s == pytest.approx(
            baseline.iteration_time_s + exposed, rel=1e-9, abs=0.0
        )

    @pytest.mark.parametrize("fraction", OFFLOAD_FRACTIONS)
    @pytest.mark.parametrize("model,framework,batch", OFFLOAD_POINTS)
    def test_tuner_session_and_ab_subject_agree_exactly(
        self, sessions, tuners, model, framework, batch, fraction
    ):
        spec = parse_transform_spec(f"offload:{fraction}").canonical
        candidate = tuners[model, framework]._score(spec)
        plan = sessions[model, framework].compile_transformed(batch, _offload(fraction))
        subject = subject_for(spec, model, framework, batch)
        assert candidate.makespan_s == plan.makespan_s == subject.noiseless_s
        # The A/B measurement pays the same stall: with every jitter off it
        # reproduces the noiseless makespan.
        quiet = NoiseModel(
            kernel_jitter=0.0, dispatch_jitter=0.0, interconnect_jitter=0.0,
            run_jitter=0.0,
        )
        assert subject.measure(quiet.stream(0)) == pytest.approx(
            subject.noiseless_s, rel=1e-12
        )


class TestHalfPrecision:
    @pytest.fixture(scope="class")
    def session(self):
        return TrainingSession("resnet-50", "mxnet")

    def test_saving_close_to_half_of_feature_maps(self, session):
        fp32 = session.compile(32)
        fp16 = session.compile_transformed(32, parse_transform_spec("fp16"))
        assert _feature_maps(fp16) == pytest.approx(0.5 * _feature_maps(fp32))
        saving = 1.0 - fp16.memory.peak_total / fp32.memory.peak_total
        assert 0.25 < saving < 0.55

    def test_fp16_raises_max_batch(self, session):
        candidates = (32, 64, 128, 256)
        fp32_max = session.max_batch_size(candidates)
        fp16_max = session.max_batch_size(
            candidates, pipeline=parse_transform_spec("fp16")
        )
        assert fp16_max > fp32_max

    @pytest.mark.parametrize(
        "model,framework,expected",
        (
            ("sockeye", "mxnet", 128),
            ("resnet-50", "mxnet", 128),
            ("nmt", "tensorflow", 256),
            ("inception-v3", "tensorflow", 64),
            ("deep-speech-2", "mxnet", 8),
            ("transformer", "tensorflow", 512),
        ),
    )
    def test_fp16_max_batch_matches_the_retired_helper(
        self, model, framework, expected
    ):
        session = TrainingSession(model, framework)
        candidates = (8, 16, 32, 64, 128, 256, 512)
        fp16 = parse_transform_spec("fp16")
        assert session.max_batch_size(candidates, pipeline=fp16) == expected
        assert session.max_batch_size(candidates, search=True, pipeline=fp16) == expected


_REFERENCE_POINTWISE = {
    "lstm": rnn_kernels.lstm_cell_pointwise,
    "gru": rnn_kernels.gru_cell_pointwise,
    "rnn": rnn_kernels.vanilla_rnn_pointwise,
}


def deepcopy_fused_reference(graph):
    """Reference fused-RNN rewrite: deep-copy the whole graph, then build
    every fused kernel afresh in place, one GEMM object per step."""
    fused = copy.deepcopy(graph)
    for layer in fused.layers:
        if layer.kind not in RECURRENT_KINDS:
            continue
        g = layer.attributes
        batch, hidden, width = g["batch"], g["hidden"], g["input_size"]
        steps = g["seq_len"] * g["directions"]
        gh = g["gates"] * hidden
        pointwise = _REFERENCE_POINTWISE[layer.kind]
        forward = [gemm(batch * steps, gh, width, name="cudnn_rnn_fused_input_sgemm")]
        forward.extend(
            gemm(batch, gh, hidden, name="cudnn_rnn_fused_recurrent_sgemm")
            for _ in range(steps)
        )
        forward.append(pointwise(batch * steps, hidden, backward=False))
        backward = [pointwise(batch * steps, hidden, backward=True)]
        backward.extend(
            gemm(batch, hidden, gh, name="cudnn_rnn_fused_recurrent_sgemm_bw")
            for _ in range(steps)
        )
        backward.append(
            gemm(batch * steps, width, gh, name="cudnn_rnn_fused_input_sgemm_bw")
        )
        backward.append(
            gemm(width + hidden, gh, batch * steps, name="cudnn_rnn_fused_wgrad_sgemm")
        )
        layer.forward_kernels = forward
        layer.backward_kernels = backward
    for layer in fused.layers:
        layer.forward_kernels = [
            replace(k, host_sync=False) if k.host_sync else k
            for k in layer.forward_kernels
        ]
        layer.backward_kernels = [
            replace(k, host_sync=False) if k.host_sync else k
            for k in layer.backward_kernels
        ]
    return fused


#: The RNN points the tune suite fuses.
FUSED_POINTS = (
    ("nmt", "tensorflow", 64),
    ("sockeye", "mxnet", 64),
    ("deep-speech-2", "mxnet", 16),
)


class TestFusedRNN:
    @pytest.fixture(scope="class")
    def session(self):
        return TrainingSession("nmt", "tensorflow")

    def test_flops_preserved_exactly(self, session):
        graph = session.spec.build(64)
        fused = fuse_recurrent_layers(graph)
        assert fused.iteration_flops() == pytest.approx(
            graph.iteration_flops(), rel=1e-9
        )

    def test_no_host_syncs_remain(self, session):
        fused = fuse_recurrent_layers(session.spec.build(32))
        assert not any(k.host_sync for k in fused.iteration_kernels())

    def test_fewer_kernels(self, session):
        graph = session.spec.build(64)
        fused = fuse_recurrent_layers(graph)
        assert len(fused.iteration_kernels()) < 0.7 * len(graph.iteration_kernels())

    def test_fusion_speeds_up_lstm_models(self, session):
        """The paper's recommendation pays off: the launch/sync overhead the
        simulator attributes to dynamic_rnn disappears."""
        baseline = session.run_iteration(64)
        fused = session.run_iteration(64, parse_transform_spec("fused_rnn"))
        assert fused.throughput / baseline.throughput > 1.3
        assert fused.gpu_utilization > baseline.gpu_utilization

    def test_fusion_is_noop_for_cnns(self):
        session = TrainingSession("resnet-50", "mxnet")
        baseline = session.run_iteration(16)
        fused = session.run_iteration(16, parse_transform_spec("fused_rnn"))
        assert fused.throughput / baseline.throughput == pytest.approx(1.0, rel=1e-6)
        assert len(fused.kernel_timings) == len(baseline.kernel_timings)

    def test_original_graph_untouched(self, session):
        graph = session.spec.build(16)
        before = len(graph.iteration_kernels())
        fuse_recurrent_layers(graph)
        assert len(graph.iteration_kernels()) == before

    def test_fused_graph_owns_its_layers_and_lists(self, session):
        graph = session.spec.build(16)
        fused = fuse_recurrent_layers(graph)
        assert fused is not graph
        assert fused.layers is not graph.layers
        assert fused.extra_kernels is not graph.extra_kernels
        for source, layer in zip(graph.layers, fused.layers):
            assert layer is not source
            assert layer.forward_kernels is not source.forward_kernels
            assert layer.backward_kernels is not source.backward_kernels
            assert layer.attributes is not source.attributes

    def test_mutating_the_fused_graph_leaves_the_source_alone(self, session):
        graph = session.compile(16).graph
        before = list(graph.iteration_kernels())
        fused = fuse_recurrent_layers(graph)
        for layer in fused.layers:
            layer.forward_kernels = []
            layer.backward_kernels = layer.backward_kernels[:1]
        fused.extra_kernels.append(gemm(1, 1, 1, name="probe"))
        after = graph.iteration_kernels()
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, before))

    @pytest.mark.parametrize("model,framework,batch", FUSED_POINTS)
    def test_compiles_like_the_deepcopy_reference(self, model, framework, batch):
        plan = TrainingSession(model, framework).compile(batch)
        fused = compile_graph(
            fuse_recurrent_layers(plan.graph), plan.framework, plan.gpu
        )
        reference = compile_graph(
            deepcopy_fused_reference(plan.graph), plan.framework, plan.gpu
        )
        assert fused.timings == reference.timings
        assert fused.makespan_s == reference.makespan_s
        assert fused.allocations == reference.allocations

    def test_missing_geometry_rejected(self):
        from repro.graph.layer import Layer, LayerGraph

        graph = LayerGraph("broken", 1, layers=[Layer("l", "lstm")])
        with pytest.raises(ValueError, match="geometry"):
            fuse_recurrent_layers(graph)


class TestDepthTradeoff:
    @pytest.fixture(scope="class")
    def session(self):
        return TrainingSession("resnet-50", "mxnet")

    def test_variable_depth_builder(self):
        shallow = build_resnet_with_depth(4, 6)
        deep = build_resnet_with_depth(4, 23)
        assert shallow.model_name == "ResNet-50"
        assert deep.model_name == "ResNet-101"
        assert deep.total_weight_elements > shallow.total_weight_elements

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_resnet_with_depth(4, 0)

    def test_smaller_batch_allows_deeper_network(self, session):
        at_32 = deepest_fitting_depth(session, 32)
        at_8 = deepest_fitting_depth(session, 8)
        assert at_8 > at_32
        assert at_32 >= 23  # at least ResNet-101 at batch 32

    def test_tradeoff_table_monotone(self, session):
        depths = [deepest_fitting_depth(session, batch) for batch in (8, 16, 32)]
        assert depths == sorted(depths, reverse=True)

    def test_plan_carries_throughput(self, session):
        depth = parse_transform_spec(f"depth:{deepest_fitting_depth(session, 16)}")
        assert session.run_iteration(16, depth).throughput > 0
        assert session.compile_transformed(16, depth).memory.peak_total / 2**30 < 8.0

    def test_nothing_fits_is_zero(self, session):
        assert deepest_fitting_depth(session, 4096) == 0
