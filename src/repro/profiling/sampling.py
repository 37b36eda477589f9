"""Stable-phase sampling (paper Section 3.4.2).

Profiling a full multi-day training run is impractical; because training is
iterative and iterations repeat the same computation, accurate results come
from sampling a short window — *provided* the window starts after the
warm-up (graph construction, memory allocation, data loading) and
auto-tuning (algorithm selection, workspace sizing) phases end.

:class:`IterationTimeline` synthesizes a realistic per-iteration throughput
series with those phases, and :class:`StablePhaseSampler` detects where
throughput stabilizes and selects the sampling window — the same procedure
the paper applies before attaching nvprof/vTune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IterationTimeline:
    """A synthetic per-iteration duration series for one training run.

    The shape follows the paper's description: a slow warm-up iteration or
    two (allocation, first data batch), a stretch of erratic auto-tuning
    iterations (cuDNN algorithm search runs candidate kernels), then the
    stable phase with small jitter.
    """

    stable_iteration_s: float
    warmup_iterations: int = 3
    warmup_factor: float = 12.0
    autotune_iterations: int = 200
    autotune_factor: float = 1.8
    jitter: float = 0.02
    seed: int = 0

    def durations(self, count: int) -> np.ndarray:
        """Per-iteration durations (seconds) for the first ``count``
        iterations of the run."""
        if count <= 0:
            raise ValueError("iteration count must be positive")
        rng = np.random.default_rng(self.seed)
        out = np.empty(count)
        for index in range(count):
            base = self.stable_iteration_s
            if index < self.warmup_iterations:
                scale = self.warmup_factor
            elif index < self.warmup_iterations + self.autotune_iterations:
                # Auto-tuning decays toward stability as algorithms lock in.
                progress = (index - self.warmup_iterations) / max(
                    1, self.autotune_iterations
                )
                scale = 1.0 + (self.autotune_factor - 1.0) * math.exp(-4.0 * progress)
            else:
                scale = 1.0
            noise = 1.0 + rng.normal(0.0, self.jitter)
            out[index] = base * scale * max(0.1, noise)
        return out

    def throughputs(self, count: int, samples_per_iteration: float) -> np.ndarray:
        """Per-iteration throughput series."""
        return samples_per_iteration / self.durations(count)


@dataclass(frozen=True)
class SampleWindow:
    """A chosen stable sampling window."""

    start_iteration: int
    end_iteration: int

    @property
    def length(self) -> int:
        return self.end_iteration - self.start_iteration

    def __post_init__(self) -> None:
        if self.start_iteration < 0 or self.end_iteration <= self.start_iteration:
            raise ValueError("invalid sample window")


#: Iterations per sliding window of the stability scan.
WINDOW = 50
#: A window is stable below this coefficient of variation ...
CV_THRESHOLD = 0.05
#: ... with its mean within this fraction of the tail window's mean.
TAIL_TOLERANCE = 0.05


class StablePhaseSampler:
    """Detects the stable phase of a throughput series and samples it.

    Strategy (matching the paper's methodology): slide a :data:`WINDOW`
    over the series; the training has stabilized once the window's
    coefficient of variation drops below :data:`CV_THRESHOLD` *and* its
    mean is within :data:`TAIL_TOLERANCE` of the tail mean.  Samples of
    50-1000 iterations are then drawn from the stable region.
    """

    def detect_stable_start(self, durations) -> int:
        """Index of the first iteration of the stable phase.

        Raises:
            ValueError: if the series never stabilizes.
        """
        series = np.asarray(durations, dtype=float)
        if series.ndim != 1 or len(series) < 2 * WINDOW:
            raise ValueError(
                f"need at least {2 * WINDOW} iterations to detect stability"
            )
        tail_mean = float(series[-WINDOW:].mean())
        for start in range(0, len(series) - WINDOW + 1):
            chunk = series[start : start + WINDOW]
            mean = float(chunk.mean())
            cv = float(chunk.std() / mean) if mean > 0 else float("inf")
            near_tail = abs(mean - tail_mean) <= TAIL_TOLERANCE * tail_mean
            if cv < CV_THRESHOLD and near_tail:
                return start
        raise ValueError("training never reached a stable phase")

    def choose_window(self, durations, sample_iterations: int = 200) -> SampleWindow:
        """Select a stable sampling window of ``sample_iterations``
        (clamped to the paper's 50-1000 range and to the available data)."""
        sample_iterations = max(50, min(1000, sample_iterations))
        series = np.asarray(durations, dtype=float)
        start = self.detect_stable_start(series)
        end = min(len(series), start + sample_iterations)
        if end - start < 2:
            raise ValueError("stable phase too short to sample")
        return SampleWindow(start_iteration=start, end_iteration=end)

    def stable_throughput(
        self, durations, samples_per_iteration: float, sample_iterations: int = 200
    ) -> float:
        """Mean stable-phase throughput over the chosen window."""
        window = self.choose_window(durations, sample_iterations)
        series = np.asarray(durations, dtype=float)
        chunk = series[window.start_iteration : window.end_iteration]
        return samples_per_iteration / float(chunk.mean())
