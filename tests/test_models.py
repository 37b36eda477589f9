"""Unit tests for the model zoo (Table 2 fidelity and graph invariants)."""

from dataclasses import dataclass

import pytest

import repro.kernels.elementwise as ew
from repro.graph.layer import Layer, LayerGraph
from repro.kernels.base import Kernel, KernelCategory
from repro.kernels.gemm import gemm
from repro.models.a3c import build_a3c
from repro.models.deepspeech import build_deep_speech2
from repro.models.faster_rcnn import build_faster_rcnn
from repro.models.inception import build_inception_v3
from repro.models.resnet import (
    RESNET_101_STAGES,
    build_resnet50,
    build_resnet_with_depth,
)
from repro.models.seq2seq import (
    _attention_decoder_step_layer,
    build_nmt,
    build_seq2seq,
    build_sockeye,
)
from repro.models.transformer import build_transformer
from repro.models.wgan import build_wgan
from repro.models.registry import (
    extension_catalog,
    get_model,
    model_catalog,
)

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
        r101 = build_resnet_with_depth(1, RESNET_101_STAGES[2]).total_weight_elements
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


class TestDeepSpeechCellOption:
    def test_gru_variant_builds_and_costs_more(self):
        rnn = build_deep_speech2(2, cell="rnn")
        gru = build_deep_speech2(2, cell="gru")
        assert gru.iteration_flops() > 2.0 * rnn.iteration_flops()
        assert any(l.kind == "gru" for l in gru.layers)

    def test_invalid_cell_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            build_deep_speech2(2, cell="lstm")


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
        assert len(model_catalog()) == 9

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


# Graph linting: model definitions are data, and like any data they rot.
# ``lint_graph`` checks every structural invariant a valid training graph
# must satisfy; the whole zoo (extensions included) must lint clean.

_RECURRENT_KINDS = ("lstm", "gru", "rnn")
_REQUIRED_RECURRENT_ATTRS = (
    "batch",
    "seq_len",
    "input_size",
    "hidden",
    "gates",
    "directions",
)


@dataclass(frozen=True)
class LintFinding:
    """One violated invariant."""

    layer: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.layer}: {self.rule} ({self.detail})"


def lint_graph(graph: LayerGraph) -> list:
    """Check every structural invariant; returns the findings (empty = ok)."""
    findings: list = []

    if graph.layer_count == 0:
        findings.append(LintFinding("<graph>", "empty graph", graph.model_name))
    if graph.iteration_flops() <= 0:
        findings.append(
            LintFinding("<graph>", "no computation", "iteration FLOPs are zero")
        )
    if graph.input_bytes < 0:
        findings.append(LintFinding("<graph>", "negative input bytes", ""))
    if graph.feature_map_overallocation < 1.0:
        findings.append(
            LintFinding(
                "<graph>",
                "over-allocation below 1",
                str(graph.feature_map_overallocation),
            )
        )

    trainable_layers = 0
    for layer in graph.layers:
        if layer.weight_elements > 0:
            trainable_layers += 1
        if not layer.forward_kernels and not layer.inplace and layer.flops == 0:
            # A layer with no kernels must at least carry stash (pure
            # buffer layers like reorg are allowed kernels though).
            if layer.output_elements == 0:
                findings.append(
                    LintFinding(layer.name, "inert layer", "no kernels, no stash")
                )
        if layer.weight_elements > 0 and not layer.backward_kernels:
            findings.append(
                LintFinding(
                    layer.name,
                    "untrainable weights",
                    f"{layer.weight_elements} weights but no backward kernels",
                )
            )
        for kernel in list(layer.forward_kernels) + list(layer.backward_kernels):
            if kernel.flops < 0 or kernel.bytes_accessed < 0:
                findings.append(
                    LintFinding(layer.name, "negative kernel work", kernel.name)
                )
            if kernel.flops == 0 and kernel.bytes_accessed == 0:
                findings.append(
                    LintFinding(layer.name, "empty kernel", kernel.name)
                )
        if layer.kind in _RECURRENT_KINDS:
            missing = [
                key for key in _REQUIRED_RECURRENT_ATTRS if key not in layer.attributes
            ]
            if missing:
                findings.append(
                    LintFinding(
                        layer.name, "missing recurrent geometry", str(missing)
                    )
                )
            elif layer.attributes["batch"] != graph.batch_size and graph.samples_per_iteration is None:
                findings.append(
                    LintFinding(
                        layer.name,
                        "batch mismatch",
                        f"layer batch {layer.attributes['batch']} vs graph "
                        f"{graph.batch_size}",
                    )
                )
    if trainable_layers == 0:
        findings.append(
            LintFinding("<graph>", "no trainable layers", graph.model_name)
        )
    return findings


def _lint_base_graph(
    batch=4,
    input_bytes=64.0,
    overallocation=1.0,
    fc_weights=64,
    fc_backward=None,
    lstm_batch=None,
    extra_layers=(),
):
    """A two-layer graph that lints clean; each keyword breaks one rule."""
    fc = Layer(
        "fc",
        "dense",
        weight_elements=fc_weights,
        output_elements=batch * 8,
        forward_kernels=[gemm(batch, 8, 8)],
        backward_kernels=[gemm(batch, 8, 8)] if fc_backward is None else fc_backward,
    )
    geometry = {
        "batch": batch if lstm_batch is None else lstm_batch,
        "seq_len": 3,
        "input_size": 8,
        "hidden": 8,
        "gates": 4,
        "directions": 1,
    }
    lstm = Layer(
        "lstm",
        "lstm",
        weight_elements=0,
        output_elements=batch * 24,
        forward_kernels=[gemm(batch * 3, 32, 8)],
        attributes=geometry,
    )
    return LayerGraph(
        "lint-base",
        batch,
        layers=[fc, lstm, *extra_layers],
        input_bytes=input_bytes,
        feature_map_overallocation=overallocation,
    )


#: One rule each: the ``_lint_base_graph`` keywords that break only it.
_LINT_BREAKAGES = {
    "negative input bytes": {"input_bytes": -1.0},
    "over-allocation below 1": {"overallocation": 0.5},
    "inert layer": {"extra_layers": (Layer("reshape", "reshape"),)},
    "empty kernel": {
        "fc_backward": [
            gemm(4, 8, 8),
            Kernel("nop_kernel", KernelCategory.ELEMENTWISE, 0.0, 0.0),
        ]
    },
    "batch mismatch": {"lstm_batch": 8},
    "no trainable layers": {"fc_weights": 0},
}


class TestGraphLinting:
    def test_whole_zoo_lints_clean(self):
        specs = list(model_catalog().values()) + list(extension_catalog().values())
        for spec in specs:
            for batch in (spec.batch_sizes[0], spec.reference_batch):
                graph = spec.build(batch)
                findings = lint_graph(graph)
                assert not findings, (spec.key, batch, list(map(str, findings)))

    def test_empty_graph_flagged(self):
        findings = lint_graph(LayerGraph("empty", 1))
        rules = {finding.rule for finding in findings}
        assert "empty graph" in rules
        assert "no computation" in rules

    def test_untrainable_weights_flagged(self):
        graph = LayerGraph(
            "bad", 1, layers=[Layer("w", "dense", weight_elements=10)]
        )
        rules = {finding.rule for finding in lint_graph(graph)}
        assert "untrainable weights" in rules

    def test_missing_recurrent_geometry_flagged(self):
        graph = LayerGraph("bad", 1, layers=[Layer("l", "lstm", weight_elements=0)])
        rules = {finding.rule for finding in lint_graph(graph)}
        assert "missing recurrent geometry" in rules

    def test_base_graph_lints_clean(self):
        assert lint_graph(_lint_base_graph()) == []

    @pytest.mark.parametrize("rule", sorted(_LINT_BREAKAGES))
    def test_each_rule_fires_alone(self, rule):
        """Each rule flags a graph that breaks only it, so a zoo that
        lints clean has passed every rule, not skipped one."""
        graph = _lint_base_graph(**_LINT_BREAKAGES[rule])
        assert [finding.rule for finding in lint_graph(graph)] == [rule]

    def test_finding_names_layer_rule_and_detail(self):
        graph = _lint_base_graph(**_LINT_BREAKAGES["empty kernel"])
        (finding,) = lint_graph(graph)
        assert str(finding) == "fc: empty kernel (nop_kernel)"

