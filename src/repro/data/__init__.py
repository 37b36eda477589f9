"""Synthetic stand-ins for the six training datasets (paper Table 3).

The real datasets (ImageNet, IWSLT'15, Pascal VOC, LibriSpeech, Downsampled
ImageNet, Atari 2600 frames) are not redistributable and are not needed for
performance analysis: the simulator consumes only shapes, sizes, length
distributions, and host-side decode costs, all of which each
:class:`~repro.data.base.DatasetSpec` records.
"""

from repro.data.base import DatasetSpec
from repro.data.registry import dataset_catalog, get_dataset
from repro.data.pipeline import DataPipelineModel

__all__ = [
    "DatasetSpec",
    "dataset_catalog",
    "get_dataset",
    "DataPipelineModel",
]
