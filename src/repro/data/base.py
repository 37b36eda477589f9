"""Dataset specification record and synthetic batch container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SyntheticBatch:
    """One generated mini-batch: inputs plus targets."""

    inputs: np.ndarray
    targets: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a training dataset (paper Table 3).

    Attributes:
        key: registry key (``imagenet1k``…).
        name: Table 3 display name.
        num_samples: training-set size (0 when not applicable, e.g. Atari).
        sample_shape: canonical per-sample tensor shape.
        size_description: Table 3's "Size" column, verbatim.
        special: Table 3's "Special" column (vocabulary size, annotations…).
        cpu_decode_cost_s: CPU core-seconds to decode/augment one sample on
            the host — the input-pipeline load the paper's CPU-utilization
            numbers reflect.
        sample_host_bytes: bytes one decoded sample occupies host-side
            (drives the H2D copy).
        variable_length: True when sample sizes vary (speech/translation);
            throughput then uses duration/token accounting (Section 3.4.3).
    """

    key: str
    name: str
    num_samples: int
    sample_shape: tuple
    size_description: str
    special: str
    cpu_decode_cost_s: float
    sample_host_bytes: int
    variable_length: bool = False
    generator: object = None

    def synthesize(self, batch_size: int, seed: int = 0) -> SyntheticBatch:
        """Generate a synthetic mini-batch with this dataset's geometry.

        Raises:
            ValueError: for non-positive batch sizes.
            NotImplementedError: if the dataset registered no generator.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.generator is None:
            raise NotImplementedError(f"{self.key} has no synthetic generator")
        import numpy as np

        rng = np.random.default_rng(seed)
        return self.generator(batch_size, rng)
