"""The paper's memory profiler (Section 3.4.3, Fig. 9).

    "Unfortunately, there are no open-source tools currently available for
    existing frameworks that can provide this analysis.  Hence we build our
    own memory profilers for three main frameworks."

This module is that tool for the simulated runtime: it intercepts every
allocation a training setup performs, classifies it into the five data-
structure classes, and reports the *maximum* amount ever allocated per
class — exactly the quantity Fig. 9 plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.memory import AllocationTag, MemorySnapshot
from repro.training.session import TrainingSession

_GIB = 1024.0**3

#: Fig. 9 stacking order.
BREAKDOWN_ORDER = (
    AllocationTag.FEATURE_MAPS,
    AllocationTag.WEIGHTS,
    AllocationTag.WEIGHT_GRADIENTS,
    AllocationTag.DYNAMIC,
    AllocationTag.WORKSPACE,
)


@dataclass(frozen=True)
class MemoryProfile:
    """One (model, framework, batch) memory breakdown."""

    model: str
    framework: str
    batch_size: int
    snapshot: MemorySnapshot

    def gib(self, tag: AllocationTag) -> float:
        """Peak GiB for one class."""
        return self.snapshot.peak_by_tag.get(tag, 0.0) / _GIB

    @property
    def total_gib(self) -> float:
        return self.snapshot.sum_of_class_peaks / _GIB

    @property
    def feature_map_fraction(self) -> float:
        """Share of the footprint held by feature maps (Obs. 11: 62-89%)."""
        return self.snapshot.feature_map_fraction

    def breakdown(self) -> dict:
        """Class name -> GiB, in Fig. 9 stacking order."""
        return {tag.value: self.gib(tag) for tag in BREAKDOWN_ORDER}

    def format_row(self) -> str:
        """One printable row of a Fig. 9-style table."""
        cells = "  ".join(
            f"{tag.value}={self.gib(tag):5.2f}" for tag in BREAKDOWN_ORDER
        )
        return (
            f"{self.model:14s} {self.framework:11s} b={self.batch_size:<5d} "
            f"total={self.total_gib:5.2f} GiB  {cells}"
        )


class MemoryProfiler:
    """Profiles memory for models across frameworks and batch sizes."""

    def __init__(self, gpu=None):
        self.gpu = gpu

    def profile(self, model: str, framework: str, batch_size: int) -> MemoryProfile:
        """Profile one configuration.

        Raises:
            OutOfMemoryError: if the configuration does not fit on the GPU.
        """
        kwargs = {} if self.gpu is None else {"gpu": self.gpu}
        session = TrainingSession(model, framework, **kwargs)
        snapshot = session.profile_memory(batch_size)
        return MemoryProfile(
            model=session.spec.display_name,
            framework=session.framework.name,
            batch_size=batch_size,
            snapshot=snapshot,
        )

    def sweep(self, model: str, framework: str, batch_sizes) -> list:
        """Profile several batch sizes, skipping configurations that OOM."""
        from repro.hardware.memory import OutOfMemoryError

        profiles = []
        for batch in batch_sizes:
            try:
                profiles.append(self.profile(model, framework, batch))
            except OutOfMemoryError:
                break
        return profiles
