"""Training hyper-parameters.

Section 3.4.1 of the paper stresses that implementations of the same model
on different frameworks must be made comparable: same hyper-parameters, same
network, same training-algorithm properties.  :class:`Hyperparameters` is
the single record both the simulator and the real-training substrate use,
and :func:`assert_comparable` is the guard the suite applies before any
cross-framework comparison.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hyperparameters:
    """Model-training hyper-parameters shared across implementations."""

    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    dropout_rate: float = 0.0
    optimizer: str = "sgd"  # "sgd" | "adam"
    lr_schedule: str = "step"  # "step" | "constant" | "inverse_sqrt"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay cannot be negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


#: Per-model reference hyper-parameters (used by the convergence models and
#: by assert_comparable).
MODEL_DEFAULTS = {
    "resnet-50": Hyperparameters(learning_rate=0.1, momentum=0.9, weight_decay=1e-4),
    "inception-v3": Hyperparameters(learning_rate=0.045, momentum=0.9, weight_decay=4e-5),
    "nmt": Hyperparameters(
        learning_rate=1.0, momentum=0.0, weight_decay=0.0, dropout_rate=0.2
    ),
    "sockeye": Hyperparameters(
        learning_rate=1.0, momentum=0.0, weight_decay=0.0, dropout_rate=0.2
    ),
    "transformer": Hyperparameters(
        learning_rate=0.2,
        momentum=0.0,
        weight_decay=0.0,
        dropout_rate=0.1,
        optimizer="adam",
        lr_schedule="inverse_sqrt",
    ),
    "faster-rcnn": Hyperparameters(learning_rate=0.001, momentum=0.9, weight_decay=5e-4),
    "deep-speech-2": Hyperparameters(learning_rate=0.01, momentum=0.9, weight_decay=0.0),
    "wgan": Hyperparameters(
        learning_rate=1e-4, momentum=0.0, weight_decay=0.0, optimizer="adam"
    ),
    "a3c": Hyperparameters(learning_rate=7e-4, momentum=0.0, weight_decay=0.0),
}


class IncomparableImplementationsError(ValueError):
    """Raised when two implementations of the same model diverge in the
    hyper-parameters that must match for a fair comparison."""


def assert_comparable(model_key: str, *hyperparameter_sets) -> None:
    """Check that all given hyper-parameter records agree with each other
    (and exist); the Section 3.4.1 'make implementations comparable' rule.

    Raises:
        IncomparableImplementationsError: on any mismatch.
    """
    if not hyperparameter_sets:
        raise ValueError("need at least one hyper-parameter set")
    reference = hyperparameter_sets[0]
    for candidate in hyperparameter_sets[1:]:
        if candidate != reference:
            raise IncomparableImplementationsError(
                f"{model_key}: implementations are not comparable: "
                f"{candidate} != {reference}"
            )


def defaults_for(model_key: str) -> Hyperparameters:
    """Reference hyper-parameters for a registry model."""
    if model_key not in MODEL_DEFAULTS:
        raise KeyError(f"no default hyper-parameters for {model_key!r}")
    return MODEL_DEFAULTS[model_key]
