"""Unit tests for the model zoo (Table 2 fidelity and graph invariants)."""

import pytest

import repro.kernels.elementwise as ew
from repro.kernels.gemm import gemm
from repro.models.a3c import build_a3c
from repro.models.deepspeech import build_deep_speech2
from repro.models.faster_rcnn import build_faster_rcnn
from repro.models.inception import build_inception_v3
from repro.models.resnet import build_resnet50, build_resnet101
from repro.models.seq2seq import (
    _attention_decoder_step_layer,
    build_nmt,
    build_seq2seq,
    build_sockeye,
)
from repro.models.transformer import build_transformer
from repro.models.wgan import build_wgan
from repro.models.registry import get_model, model_catalog, model_keys

_GFLOP = 1e9


class TestResNet50:
    def test_parameter_count_close_to_published(self):
        graph = build_resnet50(1)
        # Published ResNet-50: 25.6M parameters.
        assert graph.total_weight_elements == pytest.approx(25.6e6, rel=0.02)

    def test_forward_flops_close_to_published(self):
        graph = build_resnet50(1)
        forward = sum(
            k.flops for layer in graph.layers for k in layer.forward_kernels
        )
        # Published: ~3.8-4.1 GMACs => 7.6-8.2 GFLOPs forward.
        assert 6.5 * _GFLOP < forward < 9.5 * _GFLOP

    def test_feature_maps_scale_with_batch(self):
        small = build_resnet50(8)
        large = build_resnet50(32)
        assert large.total_feature_map_bytes == pytest.approx(
            4 * small.total_feature_map_bytes, rel=0.01
        )

    def test_weights_do_not_scale_with_batch(self):
        assert build_resnet50(8).total_weight_elements == build_resnet50(
            32
        ).total_weight_elements

    def test_resnet101_roughly_twice_the_params(self):
        r50 = build_resnet50(1).total_weight_elements
        r101 = build_resnet101(1).total_weight_elements
        assert 1.5 * r50 < r101 < 2.0 * r50

    def test_dominant_layer_is_conv(self):
        assert build_resnet50(4).dominant_layer_kind() == "conv"


class TestInceptionV3:
    def test_parameter_count_close_to_published(self):
        graph = build_inception_v3(1)
        # Published Inception-v3: ~23.9M parameters (w/o aux head: ~22-24M).
        assert 19e6 < graph.total_weight_elements < 28e6

    def test_forward_flops_close_to_published(self):
        graph = build_inception_v3(1)
        forward = sum(
            k.flops for layer in graph.layers for k in layer.forward_kernels
        )
        # Published: ~5.7 GMACs => ~11.4 GFLOPs forward.
        assert 8 * _GFLOP < forward < 15 * _GFLOP

    def test_more_layers_than_resnet(self):
        assert build_inception_v3(1).layer_count > build_resnet50(1).layer_count


class TestSeq2Seq:
    def test_five_lstm_layers(self):
        graph = build_nmt(4)
        lstm_layers = [l for l in graph.layers if l.kind == "lstm"]
        assert len(lstm_layers) == 5  # Table 2

    def test_dominant_layer_is_lstm(self):
        assert build_nmt(16).dominant_layer_kind() == "lstm"

    def test_sockeye_overallocates_more_than_nmt(self):
        assert (
            build_sockeye(16).feature_map_overallocation
            > build_nmt(16).feature_map_overallocation
        )

    def test_custom_dimensions(self):
        graph = build_seq2seq(2, hidden=64, seq_len=5, encoder_layers=1, decoder_layers=1)
        assert any(l.kind == "lstm" for l in graph.layers)

    def test_kernel_count_scales_with_sequence(self):
        short = build_seq2seq(2, seq_len=10)
        long = build_seq2seq(2, seq_len=20)
        assert len(long.iteration_kernels()) > 1.5 * len(short.iteration_kernels())

    def test_attention_step_kernels_equal_per_step_reference(self):
        batch, seq, hidden = 3, 6, 16
        layer = _attention_decoder_step_layer("attn", batch, seq, seq, hidden)
        forward, backward = [], []
        for _step in range(seq):
            forward += [
                gemm(batch, seq, hidden, name="attn_score_sgemm"),
                ew.softmax(batch, seq),
                gemm(batch, hidden, seq, name="attn_context_sgemm"),
                gemm(batch, hidden, 2 * hidden, name="attn_combine_sgemm"),
            ]
            backward += [
                gemm(batch, 2 * hidden, hidden, name="attn_combine_sgemm_bw"),
                gemm(batch, seq, hidden, name="attn_context_sgemm_bw"),
                ew.softmax(batch, seq),
                gemm(batch, hidden, seq, name="attn_score_sgemm_bw"),
            ]
        assert layer.forward_kernels == forward
        assert layer.backward_kernels == backward
        # One object per distinct kernel; softmax serves both passes.
        kernels = layer.forward_kernels + layer.backward_kernels
        assert len({id(k) for k in kernels}) == 7


class TestTransformer:
    def test_attention_dominates(self):
        graph = build_transformer(2048)
        assert graph.dominant_layer_kind() in ("attention", "feedforward")

    def test_no_recurrent_layers(self):
        graph = build_transformer(1024)
        assert not any(l.kind in ("lstm", "gru", "rnn") for l in graph.layers)

    def test_token_batch_accounting(self):
        graph = build_transformer(2048)
        assert graph.batch_size == 2048
        assert graph.samples_per_iteration is not None

    def test_tiny_token_budget_still_builds(self):
        graph = build_transformer(8)
        assert graph.layer_count > 10

    def test_layer_count_matches_table2(self):
        graph = build_transformer(1024)
        attention_blocks = [l for l in graph.layers if l.kind == "attention"]
        # 6 encoder self-attn + 6 decoder masked + 6 decoder cross = 18.
        assert len(attention_blocks) == 18


class TestFasterRCNN:
    def test_batch_fixed_at_one(self):
        with pytest.raises(ValueError, match="one image"):
            build_faster_rcnn(2)

    def test_uses_resnet101_scale_backbone(self):
        graph = build_faster_rcnn(1)
        conv_layers = [l for l in graph.layers if l.kind == "conv"]
        assert len(conv_layers) > 60  # ResNet-101 stages 1-4 + RPN + heads

    def test_heaviest_model_per_sample(self):
        frcnn_flops = build_faster_rcnn(1).iteration_flops()
        resnet_flops = build_resnet50(1).iteration_flops()
        assert frcnn_flops > 5 * resnet_flops


class TestDeepSpeech2:
    def test_five_bidirectional_rnn_layers(self):
        graph = build_deep_speech2(2)
        rnn_layers = [l for l in graph.layers if l.kind == "rnn"]
        assert len(rnn_layers) == 5  # MXNet default per Table 2 footnote

    def test_throughput_unit_is_audio_seconds(self):
        graph = build_deep_speech2(4)
        assert graph.samples_per_iteration == pytest.approx(4 * 12.8)

    def test_huge_kernel_count(self):
        graph = build_deep_speech2(1)
        assert len(graph.iteration_kernels()) > 10_000


class TestWGANAndA3C:
    def test_wgan_has_generator_and_critic(self):
        graph = build_wgan(16)
        names = [l.name for l in graph.layers]
        assert any(n.startswith("gen") for n in names)
        assert any(n.startswith("critic") for n in names)

    def test_wgan_critic_work_exceeds_generator(self):
        graph = build_wgan(16)
        critic = sum(l.flops for l in graph.layers if l.name.startswith("critic"))
        generator = sum(l.flops for l in graph.layers if l.name.startswith("gen"))
        assert critic > generator

    def test_a3c_is_tiny(self):
        graph = build_a3c(32)
        assert graph.total_weight_elements < 5e6
        assert graph.layer_count < 15


class TestRegistry:
    def test_eight_models_plus_seq2seq_split(self):
        # Table 2 lists 8 models; Seq2Seq appears as two implementations.
        assert len(model_keys()) == 9

    def test_aliases(self):
        assert get_model("ResNet").key == "resnet-50"
        assert get_model("ds2").key == "deep-speech-2"
        assert get_model("seq2seq").key == "nmt"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("vgg-16")

    def test_framework_bindings_match_table2(self):
        catalog = model_catalog()
        assert catalog["resnet-50"].frameworks == ("tensorflow", "mxnet", "cntk")
        assert catalog["transformer"].frameworks == ("tensorflow",)
        assert catalog["deep-speech-2"].frameworks == ("mxnet",)
        assert catalog["a3c"].frameworks == ("mxnet",)
        assert catalog["faster-rcnn"].frameworks == ("tensorflow", "mxnet")

    def test_paper_layer_counts(self):
        catalog = model_catalog()
        assert catalog["resnet-50"].paper_layer_count == 50
        assert catalog["inception-v3"].paper_layer_count == 42
        assert catalog["transformer"].paper_layer_count == 12
        assert catalog["faster-rcnn"].paper_layer_count == 101
        assert catalog["deep-speech-2"].paper_layer_count == 9
        assert catalog["a3c"].paper_layer_count == 4

    def test_every_model_builds_at_reference_batch(self):
        for spec in model_catalog().values():
            graph = spec.build(spec.reference_batch)
            assert graph.layer_count > 0
            assert graph.iteration_flops() > 0

    def test_supports(self):
        assert get_model("resnet-50").supports("TENSORFLOW")
        assert not get_model("wgan").supports("mxnet")
