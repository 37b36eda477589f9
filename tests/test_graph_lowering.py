"""Unit tests for layer -> kernel lowering."""

from dataclasses import replace

import pytest

import repro.kernels.rnn as rnn
from repro.graph import lowering
from repro.kernels.base import KernelCategory
from repro.kernels.conv import ConvShape
from repro.kernels.gemm import gemm

_RECURRENT = [
    (lowering.lstm_layer, 4, rnn.lstm_cell_pointwise, True),
    (lowering.gru_layer, 3, rnn.gru_cell_pointwise, True),
    (lowering.vanilla_rnn_layer, 1, rnn.vanilla_rnn_pointwise, False),
]


def _per_step_reference(
    batch, seq_len, input_size, hidden, gates, pointwise_factory, directions, sync
):
    """The per-timestep lowering loop, one new kernel per launch: the
    reference the shared-object lowering must equal element by element."""
    k_dim = input_size + hidden
    forward, backward = [], []
    for _direction in range(directions):
        for _step in range(seq_len):
            forward.append(gemm(batch, gates * hidden, k_dim, name="rnn_step_sgemm"))
            step_fw = pointwise_factory(batch, hidden, backward=False)
            step_bw = pointwise_factory(batch, hidden, backward=True)
            if sync:
                step_fw = replace(step_fw, host_sync=True)
                step_bw = replace(step_bw, host_sync=True)
            forward.append(step_fw)
            backward.append(step_bw)
            backward.append(
                gemm(batch, k_dim, gates * hidden, name="rnn_step_sgemm_dgrad")
            )
            backward.append(
                gemm(k_dim, gates * hidden, batch, name="rnn_step_sgemm_wgrad")
            )
    return forward, backward


class TestConvLayer:
    def test_training_has_three_conv_kernels(self):
        shape = ConvShape(2, 8, 16, 14, 14, 3, 3, padding=1)
        layer = lowering.conv_layer("c", shape)
        assert len(layer.forward_kernels) == 1
        assert len(layer.backward_kernels) == 2  # wgrad + dgrad

    def test_first_layer_skips_dgrad(self):
        shape = ConvShape(2, 3, 16, 14, 14, 3, 3, padding=1)
        layer = lowering.conv_layer("c", shape, first_layer=True)
        assert len(layer.backward_kernels) == 1

    def test_bias_adds_kernels_and_weights(self):
        shape = ConvShape(2, 8, 16, 14, 14, 1, 1)
        plain = lowering.conv_layer("a", shape)
        biased = lowering.conv_layer("b", shape, bias=True)
        assert biased.weight_elements == plain.weight_elements + 16
        assert biased.kernel_count == plain.kernel_count + 2

    def test_workspace_recorded(self):
        shape = ConvShape(2, 8, 16, 14, 14, 3, 3, padding=1)
        assert lowering.conv_layer("c", shape).workspace_bytes > 0


class TestSimpleLayers:
    def test_batchnorm_has_two_params_per_channel(self):
        layer = lowering.batchnorm_layer("bn", 1000, 16)
        assert layer.weight_elements == 32

    def test_activation_is_inplace(self):
        assert lowering.activation_layer("r", 100).inplace

    def test_residual_add_is_inplace(self):
        assert lowering.residual_add_layer("add", 100).inplace

    def test_dropout_stashes_mask(self):
        layer = lowering.dropout_layer("d", 100)
        assert layer.output_elements == 200

    def test_dense_layer_kernels(self):
        layer = lowering.dense_layer("fc", 8, 128, 10)
        assert layer.weight_elements == 128 * 10 + 10
        assert len(layer.backward_kernels) == 2

    def test_embedding_weights(self):
        layer = lowering.embedding_layer("emb", 100, 1000, 64)
        assert layer.weight_elements == 64000
        assert layer.output_elements == 6400


class TestRecurrentLayers:
    def test_lstm_kernel_count_scales_with_sequence(self):
        layer = lowering.lstm_layer("l", batch=4, seq_len=10, input_size=32, hidden=32)
        # 2 forward kernels and 3 backward kernels per step.
        assert len(layer.forward_kernels) == 20
        assert len(layer.backward_kernels) == 30

    def test_bidirectional_doubles_everything(self):
        uni = lowering.lstm_layer("u", 4, 10, 32, 32)
        bi = lowering.lstm_layer("b", 4, 10, 32, 32, bidirectional=True)
        assert len(bi.forward_kernels) == 2 * len(uni.forward_kernels)
        assert bi.weight_elements == 2 * uni.weight_elements

    def test_lstm_weight_count(self):
        layer = lowering.lstm_layer("l", 1, 1, 32, 64)
        assert layer.weight_elements == (32 + 64) * 4 * 64 + 4 * 64

    def test_lstm_steps_host_sync(self):
        layer = lowering.lstm_layer("l", 4, 5, 32, 32)
        fw_syncs = sum(1 for k in layer.forward_kernels if k.host_sync)
        bw_syncs = sum(1 for k in layer.backward_kernels if k.host_sync)
        assert fw_syncs == 5
        assert bw_syncs == 5

    def test_vanilla_rnn_has_no_host_sync(self):
        layer = lowering.vanilla_rnn_layer("r", 4, 5, 32, 32)
        assert not any(k.host_sync for k in layer.forward_kernels)

    def test_gru_cheaper_than_lstm(self):
        lstm = lowering.lstm_layer("l", 4, 10, 32, 32)
        gru = lowering.gru_layer("g", 4, 10, 32, 32)
        assert gru.flops < lstm.flops

    def test_zero_sequence_rejected(self):
        with pytest.raises(ValueError):
            lowering.lstm_layer("l", 4, 0, 32, 32)

    @pytest.mark.parametrize("build,gates,factory,sync", _RECURRENT)
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_shared_kernels_equal_per_step_reference(
        self, build, gates, factory, sync, bidirectional
    ):
        layer = build("r", 3, 7, 24, 40, bidirectional=bidirectional)
        forward, backward = _per_step_reference(
            3, 7, 24, 40, gates, factory, 2 if bidirectional else 1, sync
        )
        pairs = ((layer.forward_kernels, forward), (layer.backward_kernels, backward))
        for got, want in pairs:
            assert len(got) == len(want)
            for index, (a, b) in enumerate(zip(got, want)):
                assert a == b, index
                assert a.host_sync == b.host_sync, index

    @pytest.mark.parametrize("build,gates,factory,sync", _RECURRENT)
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_layer_holds_five_kernel_objects(
        self, build, gates, factory, sync, bidirectional
    ):
        layer = build("r", 3, 7, 24, 40, bidirectional=bidirectional)
        kernels = layer.forward_kernels + layer.backward_kernels
        assert len({id(k) for k in kernels}) == 5


class TestAttentionAndFFN:
    def test_attention_layer_weights(self):
        layer = lowering.attention_layer("a", batch=2, heads=8, seq_q=10, seq_k=10, model_dim=64)
        assert layer.weight_elements == 4 * 64 * 64

    def test_attention_requires_divisible_heads(self):
        with pytest.raises(ValueError):
            lowering.attention_layer("a", 2, 7, 10, 10, 64)

    def test_attention_kind_not_rnn(self):
        layer = lowering.attention_layer("a", 2, 8, 10, 10, 64)
        assert layer.kind == "attention"
        assert not any(k.host_sync for k in layer.forward_kernels)

    def test_feedforward_layer(self):
        layer = lowering.feedforward_layer("f", tokens=100, model_dim=64, inner_dim=256)
        assert layer.weight_elements == 2 * 64 * 256 + 64 + 256
        assert len(layer.forward_kernels) == 3


class TestLossKernels:
    def test_cross_entropy_pair(self):
        kernels = lowering.softmax_cross_entropy_kernels(32, 1000)
        assert len(kernels) == 2
        assert all(k.category is KernelCategory.LOSS for k in kernels)

    def test_ctc_pair(self):
        kernels = lowering.ctc_loss_kernels(4, 600, 180, 29)
        assert len(kernels) == 2
