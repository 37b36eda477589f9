"""Unit tests for the framework personalities."""

import pytest

from repro.frameworks.base import Framework, MomentumAllocation
from repro.frameworks.registry import (
    CNTK,
    MXNET,
    TENSORFLOW,
    framework_catalog,
    get_framework,
)
from repro.kernels.base import Kernel, KernelCategory


class TestRegistry:
    def test_lookup_aliases(self):
        assert get_framework("tf") is TENSORFLOW
        assert get_framework("TensorFlow") is TENSORFLOW
        assert get_framework("mxnet") is MXNET
        assert get_framework("CNTK") is CNTK

    def test_passthrough(self):
        assert get_framework(MXNET) is MXNET

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown framework"):
            get_framework("caffe")

    def test_catalog_has_paper_versions(self):
        catalog = framework_catalog()
        assert catalog["TensorFlow"].version == "1.3"
        assert catalog["MXNet"].version == "0.11.0"
        assert catalog["CNTK"].version == "2.0"


class TestPersonalities:
    def test_mxnet_allocates_momentum_dynamically(self):
        assert MXNET.momentum_allocation is MomentumAllocation.DYNAMIC
        assert TENSORFLOW.momentum_allocation is MomentumAllocation.STATIC
        assert CNTK.momentum_allocation is MomentumAllocation.STATIC

    def test_tensorflow_allocator_tighter_than_mxnet(self):
        assert TENSORFLOW.pool_overhead < MXNET.pool_overhead

    def test_cntk_input_pipeline_is_nearly_free(self):
        assert CNTK.pipeline_cost_factor < 0.1
        assert TENSORFLOW.pipeline_cost_factor >= 1.0

    def test_keys(self):
        assert TENSORFLOW.key == "tensorflow"


class TestKernelSpecialization:
    def test_elementwise_kernels_get_framework_names(self):
        kernel = Kernel(
            "residual_add_kernel", KernelCategory.ELEMENTWISE, 10.0, 40.0
        )
        assert "Eigen" in TENSORFLOW.specialize_kernel(kernel).name
        assert "mxnet_generic" in MXNET.specialize_kernel(kernel).name

    def test_cudnn_kernels_keep_their_names(self):
        kernel = Kernel(
            "cudnn::detail::bn_fw_tr_1C11_kernel_new",
            KernelCategory.NORM,
            10.0,
            40.0,
        )
        assert TENSORFLOW.specialize_kernel(kernel).name == kernel.name

    def test_efficiency_multiplier_applied(self):
        kernel = Kernel(
            "conv_kernel", KernelCategory.CONV, 10.0, 40.0, max_compute_efficiency=0.5
        )
        specialized = TENSORFLOW.specialize_kernel(kernel)
        factor = TENSORFLOW.kernel_efficiency[KernelCategory.CONV]
        assert specialized.max_compute_efficiency == pytest.approx(0.5 * factor)

    def test_efficiency_capped_at_one(self):
        kernel = Kernel(
            "rnn", KernelCategory.RNN_POINTWISE, 10.0, 40.0, max_compute_efficiency=0.95
        )
        specialized = TENSORFLOW.specialize_kernel(kernel)  # factor 1.10
        assert specialized.max_compute_efficiency <= 1.0

    def test_unlisted_category_untouched(self):
        kernel = Kernel("x", KernelCategory.MEMCPY, 0.0, 40.0)
        assert TENSORFLOW.specialize_kernel(kernel) is kernel

    def test_host_sync_flag_preserved(self):
        kernel = Kernel(
            "rnn_cell",
            KernelCategory.RNN_POINTWISE,
            10.0,
            40.0,
            host_sync=True,
        )
        assert MXNET.specialize_kernel(kernel).host_sync

    def test_specialize_kernels_list(self):
        kernels = [Kernel("a", KernelCategory.GEMM, 1.0, 4.0)] * 3
        assert len(TENSORFLOW.specialize_kernels(kernels)) == 3


def _stream_kernels():
    """Kernels the personalities rescale, rename and leave alone."""
    return [
        Kernel("sgemm", KernelCategory.GEMM, 1e6, 4e4),
        Kernel("elementwise_add", KernelCategory.ELEMENTWISE, 1e3, 8e3),
        Kernel("memcpy", KernelCategory.MEMCPY, 0.0, 4e3),
        Kernel("cell", KernelCategory.RNN_POINTWISE, 1e2, 4e2, host_sync=True),
    ]


def _rows(kernels) -> list:
    return [
        (
            k.name,
            k.category,
            repr(k.flops),
            repr(k.bytes_accessed),
            repr(k.max_compute_efficiency),
            repr(k.max_memory_efficiency),
            k.host_sync,
        )
        for k in kernels
    ]


class TestSpecializeKernelsMemo:
    @pytest.mark.parametrize("framework", [TENSORFLOW, MXNET, CNTK], ids=lambda f: f.key)
    def test_mixed_stream_equals_kernel_by_kernel(self, framework):
        shared = _stream_kernels()
        # Repeated objects interleaved with equal-but-distinct copies.
        stream = shared * 3 + _stream_kernels() + shared[::-1] + _stream_kernels()
        got = framework.specialize_kernels(stream)
        want = [framework.specialize_kernel(k) for k in stream]
        assert _rows(got) == _rows(want)

    def test_repeated_object_maps_to_one_output(self):
        shared = _stream_kernels()
        stream = shared * 4 + _stream_kernels()
        got = MXNET.specialize_kernels(stream)
        for position, kernel in enumerate(stream):
            first = stream.index(kernel)
            assert got[position] is got[first]

    def test_short_lived_streams_equal_references(self):
        # Each call's kernels die with it, so later calls reuse their ids;
        # an identity map that outlived its call would serve stale results.
        for round_ in range(200):
            stream = [
                kernel
                for _ in range(3)
                for kernel in (
                    Kernel("conv", KernelCategory.CONV, 1e3 * (round_ + 1), 4e3),
                    Kernel(
                        "elementwise_scale", KernelCategory.ELEMENTWISE, round_ + 1.0, 8.0
                    ),
                )
            ]
            got = TENSORFLOW.specialize_kernels(stream)
            assert _rows(got) == _rows(TENSORFLOW.specialize_kernel(k) for k in stream)

    def test_generator_stream_equals_references(self):
        # Fresh kernels alternate with copies of five values; a copy hits
        # the value memo and dies mid-call unless the stream is held, and a
        # later kernel can then reuse its id.
        def stream():
            for i in range(200):
                flops = float(i % 5 + 1) if i % 3 else float(i + 10)
                yield Kernel("memcpy", KernelCategory.MEMCPY, flops, 4.0)

        got = TENSORFLOW.specialize_kernels(stream())
        assert _rows(got) == _rows(TENSORFLOW.specialize_kernel(k) for k in stream())


class TestValidation:
    def _base(self, **overrides):
        fields = dict(
            name="test",
            version="0",
            dispatch_cost_s=1e-6,
            frontend_cost_s=1e-4,
            pool_overhead=1.0,
            workspace_factor=1.0,
            momentum_allocation=MomentumAllocation.STATIC,
        )
        fields.update(overrides)
        return Framework(**fields)

    def test_valid_minimal(self):
        assert self._base().name == "test"

    def test_invalid_dispatch(self):
        with pytest.raises(ValueError):
            self._base(dispatch_cost_s=0.0)

    def test_invalid_pool_overhead(self):
        with pytest.raises(ValueError):
            self._base(pool_overhead=0.5)

    def test_invalid_pipeline_efficiency(self):
        with pytest.raises(ValueError):
            self._base(data_pipeline_efficiency=0.0)
