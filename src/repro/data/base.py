"""Dataset specification record."""

from __future__ import annotations

from dataclasses import dataclass


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
