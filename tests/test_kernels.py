"""Unit tests for the kernel catalog."""

import pytest

from repro.kernels import attention, conv, elementwise, gemm, misc, norm, rnn
from repro.kernels.base import Kernel, KernelCategory, fp32_bytes
from repro.kernels.conv import ConvShape


class TestKernelRecord:
    def test_arithmetic_intensity(self):
        kernel = Kernel("k", KernelCategory.GEMM, flops=100.0, bytes_accessed=50.0)
        assert kernel.arithmetic_intensity == 2.0

    def test_intensity_with_zero_bytes(self):
        kernel = Kernel("k", KernelCategory.GEMM, flops=100.0, bytes_accessed=0.0)
        assert kernel.arithmetic_intensity == float("inf")

    def test_scaled(self):
        kernel = Kernel("k", KernelCategory.GEMM, flops=100.0, bytes_accessed=50.0)
        scaled = kernel.scaled(2.0)
        assert scaled.flops == 200.0
        assert scaled.bytes_accessed == 100.0
        assert kernel.flops == 100.0  # original untouched

    def test_scaled_rejects_nonpositive(self):
        kernel = Kernel("k", KernelCategory.GEMM, flops=1.0, bytes_accessed=1.0)
        with pytest.raises(ValueError):
            kernel.scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Kernel("k", KernelCategory.GEMM, flops=-1.0, bytes_accessed=0.0)
        with pytest.raises(ValueError):
            Kernel("k", KernelCategory.GEMM, flops=0.0, bytes_accessed=-1.0)
        with pytest.raises(ValueError):
            Kernel("k", KernelCategory.GEMM, 0.0, 0.0, max_compute_efficiency=1.5)

    def test_fp32_bytes(self):
        assert fp32_bytes(10) == 40


class TestGemm:
    def test_flop_count(self):
        kernel = gemm.gemm(8, 16, 32)
        assert kernel.flops == 2 * 8 * 16 * 32

    def test_traffic_counts_three_operands(self):
        kernel = gemm.gemm(8, 16, 32)
        assert kernel.bytes_accessed == fp32_bytes(8 * 32 + 32 * 16 + 8 * 16)

    def test_narrow_output_lowers_efficiency_ceiling(self):
        narrow = gemm.gemm(4, 4096, 1024)
        square = gemm.gemm(2048, 2048, 1024)
        assert narrow.max_compute_efficiency < 0.2 * square.max_compute_efficiency

    def test_batched_gemm_scales_single(self):
        single = gemm.gemm(16, 16, 16, name="x")
        batched = gemm.batched_gemm(10, 16, 16, 16, name="x")
        assert batched.flops == pytest.approx(10 * single.flops)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gemm.gemm(0, 1, 1)
        with pytest.raises(ValueError):
            gemm.batched_gemm(0, 1, 1, 1)


class TestConv:
    def test_output_geometry(self):
        shape = ConvShape(2, 3, 8, 32, 32, 3, 3, stride=1, padding=1)
        assert (shape.out_h, shape.out_w) == (32, 32)
        strided = ConvShape(2, 3, 8, 32, 32, 3, 3, stride=2, padding=1)
        assert (strided.out_h, strided.out_w) == (16, 16)

    def test_asymmetric_padding(self):
        shape = ConvShape(1, 4, 4, 17, 17, 1, 7, padding_h=0, padding_w=3)
        assert (shape.out_h, shape.out_w) == (17, 17)

    def test_asymmetric_stride(self):
        shape = ConvShape(1, 4, 4, 16, 16, 3, 3, padding=1, stride_h=2, stride_w=1)
        assert (shape.out_h, shape.out_w) == (8, 16)

    def test_macs(self):
        shape = ConvShape(1, 2, 4, 8, 8, 3, 3, padding=1)
        assert shape.macs == 4 * 8 * 8 * 2 * 9

    def test_forward_flops_are_twice_macs(self):
        shape = ConvShape(1, 2, 4, 8, 8, 3, 3, padding=1)
        assert conv.conv2d_forward(shape).flops == 2 * shape.macs

    def test_algorithm_selection(self):
        three = ConvShape(1, 4, 4, 8, 8, 3, 3, padding=1)
        assert "winograd" in conv.conv2d_forward(three).name.lower()
        one = ConvShape(1, 4, 4, 8, 8, 1, 1)
        assert "implicit" in conv.conv2d_forward(one).name

    def test_backward_filter_slower_ceiling(self):
        shape = ConvShape(1, 4, 4, 8, 8, 3, 3, padding=1)
        fw = conv.conv2d_forward(shape)
        wgrad = conv.conv2d_backward_filter(shape)
        assert wgrad.max_compute_efficiency < fw.max_compute_efficiency

    def test_workspace_positive_and_algorithm_dependent(self):
        shape = ConvShape(8, 64, 64, 28, 28, 3, 3, padding=1)
        winograd = conv.conv_workspace_bytes(shape, "winograd")
        explicit = conv.conv_workspace_bytes(shape, "gemm")
        implicit = conv.conv_workspace_bytes(shape, "implicit_gemm")
        assert explicit > winograd > implicit > 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            ConvShape(0, 1, 1, 8, 8, 3, 3)
        with pytest.raises(ValueError):
            ConvShape(1, 1, 1, 2, 2, 5, 5)  # empty output

    def test_unknown_algorithm_rejected(self):
        shape = ConvShape(1, 1, 1, 8, 8, 3, 3, padding=1)
        with pytest.raises(ValueError):
            conv.conv2d_forward(shape, algorithm="fft9000")


class TestNormAndElementwise:
    def test_bn_names_match_tables_5_and_6(self):
        assert norm.batchnorm_forward(100, 4).name == (
            "cudnn::detail::bn_fw_tr_1C11_kernel_new"
        )
        assert norm.batchnorm_backward(100, 4).name == (
            "cudnn::detail::bn_bw_1C11_kernel_new"
        )

    def test_bn_is_bandwidth_heavy(self):
        kernel = norm.batchnorm_forward(1_000_000, 64)
        assert kernel.arithmetic_intensity < 1.0

    def test_bn_backward_costs_more(self):
        fw = norm.batchnorm_forward(1000, 4)
        bw = norm.batchnorm_backward(1000, 4)
        assert bw.flops > fw.flops
        assert bw.bytes_accessed > fw.bytes_accessed

    def test_layernorm(self):
        assert norm.layernorm_forward(100).flops > 0
        assert norm.layernorm_backward(100).flops > norm.layernorm_forward(100).flops

    def test_elementwise_traffic(self):
        kernel = elementwise.elementwise(100, reads=2, writes=1)
        assert kernel.bytes_accessed == fp32_bytes(300)

    def test_activation_kinds(self):
        relu = elementwise.activation_forward(100, "relu")
        tanh = elementwise.activation_forward(100, "tanh")
        assert tanh.flops > relu.flops

    def test_pooling(self):
        fw = elementwise.pooling_forward(400, 100)
        bw = elementwise.pooling_backward(400, 100)
        assert bw.bytes_accessed > fw.bytes_accessed

    def test_softmax(self):
        kernel = elementwise.softmax(10, 100)
        assert kernel.flops == pytest.approx(5 * 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            elementwise.elementwise(0)
        with pytest.raises(ValueError):
            norm.batchnorm_forward(0, 1)
        with pytest.raises(ValueError):
            elementwise.softmax(0, 4)


class TestRNNKernels:
    def test_lstm_pointwise_scales_with_batch_and_hidden(self):
        small = rnn.lstm_cell_pointwise(4, 256)
        large = rnn.lstm_cell_pointwise(8, 512)
        assert large.flops == pytest.approx(4 * small.flops)

    def test_backward_costs_more(self):
        fw = rnn.lstm_cell_pointwise(4, 256)
        bw = rnn.lstm_cell_pointwise(4, 256, backward=True)
        assert bw.flops > fw.flops

    def test_cell_cost_ordering(self):
        lstm = rnn.lstm_cell_pointwise(4, 256)
        gru = rnn.gru_cell_pointwise(4, 256)
        vanilla = rnn.vanilla_rnn_pointwise(4, 256)
        assert lstm.flops > gru.flops > vanilla.flops

    def test_validation(self):
        with pytest.raises(ValueError):
            rnn.lstm_cell_pointwise(0, 1)


class TestAttentionAndMisc:
    def test_attention_scores_flops(self):
        kernel = attention.attention_scores(16, 25, 25, 64)
        assert kernel.flops == pytest.approx(16 * 2 * 25 * 25 * 64)

    def test_attention_backward_doubles(self):
        fw = attention.attention_scores(16, 25, 25, 64)
        bw = attention.attention_scores(16, 25, 25, 64, backward=True)
        assert bw.flops == pytest.approx(2 * fw.flops)

    def test_embedding_scatter_is_inefficient(self):
        kernel = misc.embedding_lookup(100, 64)
        assert kernel.max_memory_efficiency < 0.5

    def test_sgd_momentum_traffic(self):
        with_momentum = misc.sgd_update(1000, momentum=True)
        without = misc.sgd_update(1000, momentum=False)
        assert with_momentum.bytes_accessed > without.bytes_accessed

    def test_adam_heavier_than_sgd(self):
        assert misc.adam_update(1000).bytes_accessed > misc.sgd_update(1000).bytes_accessed

    def test_ctc_low_parallelism(self):
        kernel = misc.ctc_loss(4, 600, 180, 29)
        assert kernel.max_compute_efficiency <= 0.10

    def test_memcpy_models_pcie(self):
        kernel = misc.memcpy_h2d(1e6)
        assert kernel.flops == 0.0
        assert kernel.category is KernelCategory.MEMCPY
        assert kernel.bytes_accessed > 1e6  # scaled to express PCIe rate

    def test_memcpy_directions(self):
        assert "HtoD" in misc.memcpy_h2d(10).name

    def test_adam_update_accounting(self):
        """Weight, gradient and both moments read, weight and both moments
        written: seven fp32 passes and twelve FLOPs per parameter."""
        kernel = misc.adam_update(1000)
        assert kernel.category is KernelCategory.OPTIMIZER
        assert kernel.bytes_accessed == fp32_bytes(7.0 * 1000)
        assert kernel.flops == 12.0 * 1000

    def test_embedding_backward_scatters_adds(self):
        forward = misc.embedding_lookup(100, 64)
        backward = misc.embedding_lookup(100, 64, backward=True)
        assert forward.flops == 0.0
        assert backward.flops == 100 * 64
        assert backward.bytes_accessed == forward.bytes_accessed

    @pytest.mark.parametrize(
        "build",
        [
            lambda: misc.embedding_lookup(0, 64),
            lambda: misc.sgd_update(0),
            lambda: misc.adam_update(0),
            lambda: misc.cross_entropy_loss(8, 0),
            lambda: misc.ctc_loss(4, 600, 0, 29),
            lambda: misc.memcpy_h2d(-1.0),
        ],
        ids=["embedding", "sgd", "adam", "cross-entropy", "ctc", "memcpy"],
    )
    def test_misc_kernels_reject_bad_sizes(self, build):
        with pytest.raises(ValueError):
            build()
