"""The seeded machine-noise model.

Real benchmark numbers wobble: kernel durations vary with clocks and
cache state, dispatch gaps vary with host scheduling, interconnect
latency varies with fabric contention.  The simulator is bit-deterministic
by design, which is perfect for caching and conformance but useless for
exercising *measurement statistics* — a comparison harness tested only on
noiseless data never meets the problem it exists to solve.

:class:`NoiseModel` injects that missing variance deterministically.
Every jitter factor is drawn from a lognormal distribution with median
1.0, so noise is always positive, multiplicative, and — the property the
conformance invariant pins — the *median* of noisy results converges to
the noiseless closed form.  Factors come from a per-run
:class:`NoiseStream` whose RNG is seeded by ``(model seed, run index)``:
the same seed reproduces the same sample series bit-for-bit, while
consecutive runs are independent draws.  The harness's injected
slowdowns are not noise: they live on the measured subject
(:class:`~repro.bench.subjects.PlanSubject` ``kernel_bias``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """Seeded jitter magnitudes for the three noisy channels.

    The defaults follow the paper's observed ~2% stable-phase iteration
    jitter: 2% lognormal sigma on kernel durations, a looser 10% on the
    (tiny, scheduler-bound) dispatch gaps, and 5% on interconnect latency.
    """

    kernel_jitter: float = 0.02
    dispatch_jitter: float = 0.10
    interconnect_jitter: float = 0.05
    #: Correlated per-run component: one factor drawn per stream and
    #: applied to every kernel in that run.  Real machine noise is mostly
    #: *this* (clock throttling, thermal state move all kernels together);
    #: independent per-kernel jitter alone would average out over the
    #: thousands of kernels in an iteration and leave the makespan
    #: implausibly quiet.
    run_jitter: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kernel_jitter", "dispatch_jitter", "interconnect_jitter", "run_jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    def stream(self, run_index: int) -> "NoiseStream":
        """The noise stream of one run: an independent, reproducible draw
        sequence seeded by ``(seed, run_index)``."""
        if run_index < 0:
            raise ValueError("run_index must be non-negative")
        return NoiseStream(self, np.random.default_rng((self.seed, run_index)))


class NoiseStream:
    """One run's jitter factors, drawn lazily per channel.

    Each channel returns one numpy array per replay (``kernel_factors(n)``,
    ``dispatch_factors(n)``): noise costs one vectorised draw per sample,
    not one RNG call per kernel, and the subject turns each array into a
    list of Python floats once before :func:`repro.plan.executor.replay`
    walks it.  Draw order is part of the contract: the run factor first
    (eagerly), then kernels, then dispatch, then interconnect — the order
    :meth:`repro.bench.subjects.PlanSubject.measure` draws them in, which
    is what makes one seed reproduce one sample series bit-for-bit.
    """

    __slots__ = ("model", "_rng", "run_factor")

    def __init__(self, model: NoiseModel, rng):
        self.model = model
        self._rng = rng
        # Drawn eagerly (first draw of every stream) so the draw-order
        # contract holds no matter which channel a consumer pulls first.
        self.run_factor = float(self._lognormal(model.run_jitter, 1)[0])

    def _lognormal(self, sigma: float, count: int):
        if sigma == 0.0:
            return np.ones(count)
        return np.exp(self._rng.normal(0.0, sigma, size=count))

    def kernel_factors(self, count: int):
        """Multiplicative factors for ``count`` kernel durations (includes
        the correlated run factor)."""
        return self._lognormal(self.model.kernel_jitter, count) * self.run_factor

    def dispatch_factors(self, count: int):
        """Multiplicative factors for ``count`` dispatch gaps."""
        return self._lognormal(self.model.dispatch_jitter, count)

    def interconnect_factor(self) -> float:
        """One multiplicative factor for a run's communication time."""
        return float(self._lognormal(self.model.interconnect_jitter, 1)[0])


def median_convergence_tolerance(model: NoiseModel, samples: int) -> float:
    """How far the median of ``samples`` noisy makespans may sit from the
    noiseless closed form.

    The makespan is (to first order) a sum over many kernels of
    independently jittered durations, so its relative spread is far below
    the per-kernel sigma; the bound below is deliberately loose — three
    combined sigmas plus the sampling error of a median over ``samples``
    draws — because the conformance invariant wants *convergence*, not a
    distributional sharpness claim.
    """
    sigma = (
        model.kernel_jitter
        + model.dispatch_jitter
        + model.interconnect_jitter
        + model.run_jitter
    )
    return 3.0 * sigma / math.sqrt(max(1, samples)) + 0.005
