"""Unit tests for the Layer/LayerGraph IR."""

import copy
import dataclasses

import pytest

from repro.graph.layer import Layer, LayerGraph
from repro.kernels.base import Kernel, KernelCategory


def _kernel(name="k", flops=10.0, bytes_=40.0):
    return Kernel(name, KernelCategory.ELEMENTWISE, flops, bytes_)


class TestLayer:
    def test_byte_accounting(self):
        layer = Layer("l", "conv", weight_elements=10, output_elements=20)
        assert layer.weight_bytes == 40
        assert layer.output_bytes == 80
        assert layer.stash_bytes == 80

    def test_inplace_layers_stash_nothing(self):
        layer = Layer("relu", "activation", output_elements=100, inplace=True)
        assert layer.output_bytes == 400
        assert layer.stash_bytes == 0

    def test_flops_sum_both_passes(self):
        layer = Layer(
            "l",
            "dense",
            forward_kernels=[_kernel(flops=10)],
            backward_kernels=[_kernel(flops=20), _kernel(flops=30)],
        )
        assert layer.flops == 60
        assert layer.kernel_count == 3

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Layer("l", "conv", weight_elements=-1)
        with pytest.raises(ValueError):
            Layer("l", "conv", workspace_bytes=-1.0)


class TestLayerGraph:
    def test_duplicate_names_rejected(self):
        graph = LayerGraph("m", batch_size=1)
        graph.add(Layer("a", "conv"))
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(Layer("a", "conv"))

    def test_duplicates_rejected_at_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            LayerGraph("m", batch_size=1, layers=[Layer("a", "conv"), Layer("a", "bn")])

    def test_construction_names_every_duplicate_sorted(self):
        layers = [Layer(n, "conv") for n in ("c", "b", "a", "c", "b", "d")]
        with pytest.raises(ValueError) as raised:
            LayerGraph("m", batch_size=1, layers=layers)
        assert str(raised.value) == "duplicate layer names in m: ['b', 'c']"

    def test_add_rejects_duplicate_on_replaced_graph(self):
        graph = LayerGraph("m", batch_size=1).add(Layer("a", "conv"))
        replaced = dataclasses.replace(graph, layers=[Layer("b", "conv")])
        replaced.add(Layer("a", "conv"))
        with pytest.raises(ValueError, match="duplicate layer name 'b'"):
            replaced.add(Layer("b", "conv"))
        # The source graph keeps its own names.
        graph.add(Layer("b", "conv"))
        assert [layer.name for layer in graph.layers] == ["a", "b"]

    def test_add_rejects_duplicate_on_deepcopy(self):
        graph = LayerGraph("m", batch_size=1).add(Layer("a", "conv"))
        clone = copy.deepcopy(graph)
        with pytest.raises(ValueError, match="duplicate layer name 'a'"):
            clone.add(Layer("a", "conv"))
        clone.add(Layer("b", "conv"))
        # The copy's names are its own: the original still accepts "b".
        graph.add(Layer("b", "conv"))
        with pytest.raises(ValueError, match="duplicate layer name 'b'"):
            clone.add(Layer("b", "conv"))

    def test_add_sees_layers_appended_directly(self):
        graph = LayerGraph("m", batch_size=1).add(Layer("a", "conv"))
        graph.layers.append(Layer("b", "conv"))
        with pytest.raises(ValueError, match="duplicate layer name 'b'"):
            graph.add(Layer("b", "conv"))

    def test_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            LayerGraph("m", batch_size=0)

    def test_iteration_kernel_order_is_forward_then_reverse_backward(self):
        first = Layer(
            "first",
            "conv",
            forward_kernels=[_kernel("first_fw")],
            backward_kernels=[_kernel("first_bw")],
        )
        second = Layer(
            "second",
            "conv",
            forward_kernels=[_kernel("second_fw")],
            backward_kernels=[_kernel("second_bw")],
        )
        graph = LayerGraph("m", 1, layers=[first, second], extra_kernels=[_kernel("loss")])
        names = [k.name for k in graph.iteration_kernels()]
        assert names == ["first_fw", "second_fw", "loss", "second_bw", "first_bw"]

    def test_totals(self):
        graph = LayerGraph(
            "m",
            2,
            layers=[
                Layer("a", "conv", weight_elements=10, output_elements=5, workspace_bytes=16.0),
                Layer("b", "bn", weight_elements=2, output_elements=5),
            ],
        )
        assert graph.total_weight_elements == 12
        assert graph.total_weight_bytes == 48
        assert graph.total_feature_map_bytes == 40
        assert sum(layer.workspace_bytes for layer in graph.layers) == 16.0
        assert graph.layer_count == 2

    def test_effective_samples_defaults_to_batch(self):
        graph = LayerGraph("m", batch_size=7)
        assert graph.effective_samples == 7.0

    def test_effective_samples_override(self):
        graph = LayerGraph("m", batch_size=4, samples_per_iteration=51.2)
        assert graph.effective_samples == 51.2

    def test_dominant_layer_kind(self):
        graph = LayerGraph(
            "m",
            1,
            layers=[
                Layer("a", "conv", forward_kernels=[_kernel(flops=1000)]),
                Layer("b", "lstm", forward_kernels=[_kernel(flops=10)]),
            ],
        )
        assert graph.dominant_layer_kind() == "conv"

    def test_dominant_layer_kind_of_empty_graph(self):
        assert LayerGraph("m", 1).dominant_layer_kind() == "none"

    def test_iteration_flops(self):
        graph = LayerGraph(
            "m", 1, layers=[Layer("a", "conv", forward_kernels=[_kernel(flops=5)])]
        )
        assert graph.iteration_flops() == 5
