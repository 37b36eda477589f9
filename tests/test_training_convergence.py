"""Unit tests for the Fig. 2 convergence models."""

import numpy as np
import pytest

from repro.training.convergence import (
    ConvergenceModel,
    FIG2_MODELS,
    training_curve,
)


class TestConvergenceModel:
    def test_starts_at_initial(self):
        model = FIG2_MODELS["resnet-50"]
        assert model.value_at(0) == pytest.approx(model.initial)

    def test_monotone_nondecreasing(self):
        model = FIG2_MODELS["nmt"]
        samples = np.logspace(2, 9, 40)
        values = [model.value_at(s) for s in samples]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_approaches_final(self):
        for key, model in FIG2_MODELS.items():
            value = model.value_at(1e12)
            assert value == pytest.approx(model.final, abs=abs(model.final) * 0.02 + 0.5), key

    def test_logistic_curve_starts_low(self):
        a3c = FIG2_MODELS["a3c"]
        assert a3c.value_at(1000) < -19.0  # far below final at the start

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            FIG2_MODELS["resnet-50"].value_at(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceModel("m", 0.0, 1.0, samples_to_half=0.0)
        with pytest.raises(ValueError):
            ConvergenceModel("m", 0.0, 1.0, samples_to_half=1.0, gamma=0.0)


class TestLiteratureEndpoints:
    """Section 3.3: training outcomes must match the literature."""

    def test_image_models_reach_75_to_80_top1(self):
        for key in ("resnet-50", "inception-v3"):
            final = FIG2_MODELS[key].final
            assert 75.0 <= final <= 80.0

    def test_translation_reaches_bleu_20(self):
        assert FIG2_MODELS["nmt"].final == pytest.approx(20.0, abs=1.0)
        assert FIG2_MODELS["sockeye"].final == pytest.approx(20.5, abs=1.0)

    def test_a3c_reaches_pong_19_to_20(self):
        assert 19.0 <= FIG2_MODELS["a3c"].final <= 20.0


class TestTrainingCurve:
    def test_shapes(self):
        times, values = training_curve("resnet-50", 100.0, 3600.0, points=16)
        assert len(times) == len(values) == 16
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(3600.0)

    def test_faster_training_reaches_higher_sooner(self):
        _, slow = training_curve("resnet-50", 50.0, 24 * 3600.0)
        _, fast = training_curve("resnet-50", 200.0, 24 * 3600.0)
        assert fast[10] > slow[10]

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            training_curve("alexnet", 100.0, 10.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            training_curve("resnet-50", 0.0, 10.0)
        with pytest.raises(ValueError):
            training_curve("resnet-50", 10.0, 0.0)


class TestSamplesTo:
    def test_inverse_of_value_at(self):
        model = FIG2_MODELS["resnet-50"]
        assert model.value_at(model.samples_to(70.0)) == pytest.approx(70.0, abs=0.1)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            FIG2_MODELS["resnet-50"].samples_to(99.0)
