"""The six-dataset catalog (paper Table 3)."""

from repro.data.base import DatasetSpec


IMAGENET_1K = DatasetSpec(
    key="imagenet1k",
    name="ImageNet1K",
    num_samples=1_200_000,
    sample_shape=(3, 256, 256),
    size_description="3x256x256 per image",
    special="N/A",
    cpu_decode_cost_s=0.016,
    sample_host_bytes=3 * 224 * 224 * 4,
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
