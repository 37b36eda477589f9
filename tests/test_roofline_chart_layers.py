"""Tests for the ASCII roofline chart and the newer real-engine layers
(GRU, LayerNorm, MaxPool2d module)."""

import numpy as np
import pytest

from repro.hardware.devices import QUADRO_P4000
from repro.profiling.kernel_trace import trace_from_profile
from repro.profiling.roofline_chart import (
    points_from_trace,
    render_roofline,
    roofline_for,
)
from repro.tensor import GRUCell, LayerNorm, MaxPool2d
from repro.tensor.optim import Adam
from repro.tensor.tensor import Tensor
from repro.training.session import TrainingSession


class TestRooflineChart:
    @pytest.fixture(scope="class")
    def trace(self):
        profile = TrainingSession("resnet-50", "mxnet").run_iteration(16)
        return trace_from_profile(profile)

    def test_points_extracted_with_shares(self, trace):
        points = points_from_trace(trace, top=8)
        assert 1 <= len(points) <= 8
        assert all(0 < p.time_share <= 1 for p in points)
        shares = [p.time_share for p in points]
        assert shares == sorted(shares, reverse=True)

    def test_bn_kernels_sit_in_the_bandwidth_region(self, trace):
        points = {p.name: p for p in points_from_trace(trace, top=10)}
        bn = next(p for name, p in points.items() if "bn_" in name)
        breakeven = (
            QUADRO_P4000.peak_fp32_flops / QUADRO_P4000.memory_bandwidth_bytes
        )
        assert bn.arithmetic_intensity < breakeven  # memory-bound side

    def test_render_contains_roof_and_labels(self, trace):
        text = render_roofline(points_from_trace(trace, top=5), QUADRO_P4000)
        assert "roofline: Quadro P4000" in text
        assert "/" in text and "-" in text  # both roof segments
        assert "a:" in text

    def test_render_validation(self, trace):
        with pytest.raises(ValueError):
            render_roofline([], QUADRO_P4000, width=10)
        with pytest.raises(ValueError):
            points_from_trace(trace, top=0)

    def test_convenience_wrapper(self):
        text = roofline_for(TrainingSession("wgan", "tensorflow"), 16, top=4)
        assert "GFLOP/s" in text


class TestNewLayers:
    def test_gru_cell_trains_on_recall_task(self):
        """The GRU must learn to carry the first input bit through five
        steps of distractors — a memory task a memoryless head cannot do."""
        rng = np.random.default_rng(0)
        cell = GRUCell(4, 16)
        from repro.tensor.layers import Dense
        from repro.tensor import functional as F

        head = Dense(16, 2)
        parameters = cell.parameters() + head.parameters()
        optimizer = Adam(parameters, learning_rate=0.02)
        first = None
        for _ in range(60):
            bits = rng.integers(0, 2, size=(16, 5))
            target = bits[:, 0]
            inputs = np.zeros((16, 5, 4), dtype=np.float32)
            inputs[:, :, 0] = bits
            h = cell.initial_state(16)
            for step in range(5):
                h = cell(Tensor(inputs[:, step, :]), h)
            loss = F.cross_entropy(head(h), target)
            if first is None:
                first = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.8 * first

    def test_gru_state_bounded(self):
        cell = GRUCell(4, 8)
        h = cell.initial_state(2)
        x = Tensor(np.random.default_rng(0).normal(0, 5, (2, 4)).astype(np.float32))
        for _ in range(20):
            h = cell(x, h)
        assert np.abs(h.data).max() <= 1.0 + 1e-5

    def test_layernorm_normalizes_last_axis(self):
        layer = LayerNorm(6)
        x = Tensor(np.random.default_rng(0).normal(3, 4, (2, 5, 6)).astype(np.float32))
        out = layer(x)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradients(self):
        layer = LayerNorm(4)
        x = Tensor(np.random.default_rng(1).normal(0, 1, (3, 4)).astype(np.float32), requires_grad=True)
        (layer(x) ** 2.0).sum().backward()
        assert x.grad is not None
        assert layer.gamma.grad is not None

    def test_maxpool_module(self):
        layer = MaxPool2d(kernel=2)
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = layer(x)
        assert out.shape == (1, 1, 2, 2)
        assert out.data[0, 0, 1, 1] == 15.0
