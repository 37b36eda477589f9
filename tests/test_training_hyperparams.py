"""Unit tests for hyper-parameters and the comparability rule (§3.4.1)."""

import pytest

from repro.models.registry import model_catalog
from repro.training.hyperparams import (
    Hyperparameters,
    IncomparableImplementationsError,
    MODEL_DEFAULTS,
    assert_comparable,
    defaults_for,
)


class TestHyperparameters:
    def test_defaults_valid(self):
        hp = Hyperparameters()
        assert hp.learning_rate == 0.1
        assert hp.optimizer == "sgd"

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparameters(learning_rate=0.0)
        with pytest.raises(ValueError):
            Hyperparameters(momentum=1.0)
        with pytest.raises(ValueError):
            Hyperparameters(weight_decay=-1.0)
        with pytest.raises(ValueError):
            Hyperparameters(dropout_rate=1.0)
        with pytest.raises(ValueError):
            Hyperparameters(optimizer="lion")


class TestDefaults:
    def test_every_registry_model_has_defaults(self):
        for key in model_catalog():
            assert defaults_for(key) is MODEL_DEFAULTS[key]

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            defaults_for("vgg")

    def test_transformer_uses_adam(self):
        assert defaults_for("transformer").optimizer == "adam"


class TestComparability:
    def test_identical_sets_pass(self):
        hp = defaults_for("resnet-50")
        assert_comparable("resnet-50", hp, hp, hp)

    def test_mismatch_raises(self):
        a = Hyperparameters(learning_rate=0.1)
        b = Hyperparameters(learning_rate=0.2)
        with pytest.raises(IncomparableImplementationsError):
            assert_comparable("resnet-50", a, b)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            assert_comparable("resnet-50")
