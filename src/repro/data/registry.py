"""The six-dataset catalog (paper Table 3) with synthetic generators.

Every generator returns ``(inputs, targets)`` with the dataset's canonical
geometry and a *learnable* synthetic signal: targets are deterministic
functions of the inputs (class = argmax of per-class template correlation,
next-token patterns, etc.), so the real training substrate can demonstrate
loss decrease on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.base import DatasetSpec, SyntheticBatch

if TYPE_CHECKING:
    import numpy as np


def _image_classification_generator(channels: int, size: int, classes: int):
    """Images whose class determines a spatial frequency pattern."""

    def generate(batch_size: int, rng: np.random.Generator) -> SyntheticBatch:
        import numpy as np

        labels = rng.integers(0, classes, size=batch_size)
        coords = np.linspace(0.0, np.pi, size, dtype=np.float32)
        images = rng.normal(0.0, 0.3, size=(batch_size, channels, size, size))
        for index, label in enumerate(labels):
            pattern = np.sin((1 + label % 7) * coords)[None, :, None]
            images[index] += pattern
        return SyntheticBatch(
            inputs=images.astype(np.float32), targets=labels.astype(np.int64)
        )

    return generate


def _translation_generator(vocab: int, min_len: int, max_len: int):
    """Token sequences where the target is the source reversed mod vocab."""

    def generate(batch_size: int, rng: np.random.Generator) -> SyntheticBatch:
        import numpy as np

        length = int(rng.integers(min_len, max_len + 1))
        source = rng.integers(1, vocab, size=(batch_size, length))
        target = (source[:, ::-1] + 1) % vocab
        return SyntheticBatch(
            inputs=source.astype(np.int64), targets=target.astype(np.int64)
        )

    return generate


def _detection_generator(size_h: int, size_w: int, classes: int):
    """Images with one bright rectangle; target is (class, box)."""

    def generate(batch_size: int, rng: np.random.Generator) -> SyntheticBatch:
        import numpy as np

        images = rng.normal(0.0, 0.2, size=(batch_size, 3, size_h, size_w))
        boxes = np.zeros((batch_size, 5), dtype=np.float32)
        for index in range(batch_size):
            label = int(rng.integers(0, classes))
            y0 = int(rng.integers(0, size_h // 2))
            x0 = int(rng.integers(0, size_w // 2))
            h = int(rng.integers(size_h // 8, size_h // 2))
            w = int(rng.integers(size_w // 8, size_w // 2))
            images[index, :, y0 : y0 + h, x0 : x0 + w] += 1.0 + 0.1 * label
            boxes[index] = (label, x0, y0, min(x0 + w, size_w), min(y0 + h, size_h))
        return SyntheticBatch(inputs=images.astype(np.float32), targets=boxes)

    return generate


def _speech_generator(freq_bins: int, frames: int, vocab: int, label_len: int):
    """Spectrograms built from per-character formant bands."""

    def generate(batch_size: int, rng: np.random.Generator) -> SyntheticBatch:
        import numpy as np

        labels = rng.integers(1, vocab, size=(batch_size, label_len))
        spectrograms = rng.normal(0.0, 0.1, size=(batch_size, 1, freq_bins, frames))
        frames_per_char = max(1, frames // label_len)
        for index in range(batch_size):
            for position, char in enumerate(labels[index]):
                band = int(char) % freq_bins
                start = position * frames_per_char
                spectrograms[index, 0, band, start : start + frames_per_char] += 1.0
        return SyntheticBatch(
            inputs=spectrograms.astype(np.float32), targets=labels.astype(np.int64)
        )

    return generate


def _atari_generator(frame_stack: int, frame_size: int, actions: int):
    """Frame stacks where the optimal action tracks a moving blob."""

    def generate(batch_size: int, rng: np.random.Generator) -> SyntheticBatch:
        import numpy as np

        frames = rng.normal(0.0, 0.1, size=(batch_size, frame_stack, frame_size, frame_size))
        actions_out = rng.integers(0, actions, size=batch_size)
        for index, action in enumerate(actions_out):
            column = (int(action) * frame_size) // actions
            frames[index, :, :, column : column + 4] += 1.0
        return SyntheticBatch(
            inputs=frames.astype(np.float32), targets=actions_out.astype(np.int64)
        )

    return generate


IMAGENET_1K = DatasetSpec(
    key="imagenet1k",
    name="ImageNet1K",
    num_samples=1_200_000,
    sample_shape=(3, 256, 256),
    size_description="3x256x256 per image",
    special="N/A",
    cpu_decode_cost_s=0.016,
    sample_host_bytes=3 * 224 * 224 * 4,
    generator=_image_classification_generator(3, 32, 1000),
)

IWSLT15 = DatasetSpec(
    key="iwslt15",
    name="IWSLT15",
    num_samples=133_000,
    sample_shape=(30,),
    size_description="20-30 words long per sentence",
    special="vocabulary size of 17188",
    cpu_decode_cost_s=0.0002,
    sample_host_bytes=2 * 40 * 4,
    variable_length=True,
    generator=_translation_generator(17188, 20, 30),
)

PASCAL_VOC_2007 = DatasetSpec(
    key="voc2007",
    name="Pascal VOC 2007",
    num_samples=5011,
    sample_shape=(3, 500, 350),
    size_description="around 500x350",
    special="12608 annotated objects",
    cpu_decode_cost_s=0.010,
    sample_host_bytes=3 * 600 * 1000 * 4,
    generator=_detection_generator(96, 96, 20),
)

LIBRISPEECH = DatasetSpec(
    key="librispeech",
    name="LibriSpeech",
    num_samples=280_000,
    sample_shape=(1, 161, 1280),
    size_description="1000 hours",
    special="100-hour training subset by default (MXNet)",
    cpu_decode_cost_s=0.050,
    sample_host_bytes=161 * 1280 * 4,
    variable_length=True,
    generator=_speech_generator(161, 1280, 29, 180),
)

DOWNSAMPLED_IMAGENET = DatasetSpec(
    key="downsampled-imagenet",
    name="Downsampled ImageNet",
    num_samples=1_200_000,
    sample_shape=(3, 64, 64),
    size_description="3x64x64 per image",
    special="N/A",
    cpu_decode_cost_s=0.002,
    sample_host_bytes=3 * 64 * 64 * 4,
    generator=_image_classification_generator(3, 64, 1000),
)

ATARI_2600 = DatasetSpec(
    key="atari2600",
    name="Atari 2600",
    num_samples=0,
    sample_shape=(4, 84, 84),
    size_description="4x84x84 per image",
    special="generated online by the emulator",
    cpu_decode_cost_s=0.0,  # emulator cost is charged per sample by A3C
    sample_host_bytes=4 * 84 * 84 * 4,
    generator=_atari_generator(4, 84, 6),
)

_CATALOG = {
    spec.key: spec
    for spec in (
        IMAGENET_1K,
        IWSLT15,
        PASCAL_VOC_2007,
        LIBRISPEECH,
        DOWNSAMPLED_IMAGENET,
        ATARI_2600,
    )
}


def dataset_catalog() -> dict:
    """All datasets keyed by registry key, in Table 3 order."""
    return dict(_CATALOG)


def get_dataset(key: str) -> DatasetSpec:
    """Look up a dataset by key."""
    normalized = key.strip().lower()
    if normalized not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown dataset {key!r}; known: {known}")
    return _CATALOG[normalized]
