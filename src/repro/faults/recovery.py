"""Recovery machinery: what the simulated cluster *does* about faults.

Three policies compose into a :class:`RecoveryConfig`:

- :class:`BackoffPolicy` — retry transient exchange failures (timeouts,
  link outages) with exponential backoff; a fault that outlives
  ``max_retries`` attempts raises :class:`UnrecoverableFaultError`.
- :class:`CheckpointPolicy` — periodic checkpoints bound the work a crash
  destroys; restart replays from the last checkpoint on the surviving
  (elastically shrunk) cluster.
- straggler-aware bucket rebalancing — when a straggler stretches the
  backward pass, the layer-wise gradient push (the plan's
  ``gradient_schedule()``) is re-bucketed so the extra compute time hides
  extra communication; :func:`plan_rebalance` quantifies the decision.

Every policy is pure arithmetic over the fault plan and the compiled
plan's gradient schedule — no randomness, no wall clock — so recovery is
as deterministic as the faults themselves.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnrecoverableFaultError(RuntimeError):
    """A fault the configured recovery policies cannot survive.

    Carries the step and fault kind so fault-matrix tests (and operators)
    can assert on *why* the run died rather than parsing messages.
    """

    def __init__(self, message: str, step: int = 0, kind: str = "unknown"):
        super().__init__(message)
        self.step = step
        self.kind = kind


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry with exponential backoff: attempt ``i`` waits
    ``base_s * multiplier**i`` before retrying, up to ``max_retries``."""

    base_s: float = 0.5
    multiplier: float = 2.0
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError("backoff base must be positive")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max retries cannot be negative")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt index cannot be negative")
        return self.base_s * self.multiplier**attempt

    def total_delay_s(self, failures: int) -> float:
        """Accumulated backoff across ``failures`` consecutive failures."""
        return sum(self.delay_s(attempt) for attempt in range(failures))


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint every ``interval_steps``; a crash rolls progress back to
    the last checkpoint and pays ``restore_s`` to reload it."""

    interval_steps: int = 10
    save_s: float = 0.0
    restore_s: float = 5.0

    def __post_init__(self) -> None:
        if self.interval_steps < 1:
            raise ValueError("checkpoint interval must be >= 1 step")
        if self.save_s < 0 or self.restore_s < 0:
            raise ValueError("checkpoint costs cannot be negative")


@dataclass(frozen=True)
class RecoveryConfig:
    """The full recovery posture of one fault-tolerant run."""

    backoff: BackoffPolicy = BackoffPolicy()
    checkpoint: CheckpointPolicy = CheckpointPolicy()
    rebalance: bool = True
    #: Simulated seconds to detect a dead worker before restarting.
    detection_s: float = 2.0
    #: Simulated seconds one failed exchange attempt burns before the
    #: retry machinery declares it timed out (link outages).
    exchange_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.detection_s < 0:
            raise ValueError("detection time cannot be negative")
        if self.exchange_timeout_s <= 0:
            raise ValueError("exchange timeout must be positive")


@dataclass(frozen=True)
class RebalanceDecision:
    """One straggler-aware re-bucketing of the layer-wise gradient push."""

    buckets: int
    window_s: float
    exposed_before_s: float
    exposed_after_s: float

    @property
    def hidden_s(self) -> float:
        """Exchange time the rebalance newly overlaps with compute."""
        return max(0.0, self.exposed_before_s - self.exposed_after_s)


def plan_rebalance(
    schedule,
    base_compute_s: float,
    straggled_compute_s: float,
    exchange_s: float,
    exposed_s: float,
) -> RebalanceDecision:
    """Re-bucket the gradient push against a straggler's stretched timeline.

    ``schedule`` is the compiled plan's ``gradient_ready_times()`` — the
    per-layer moments the backward pass finishes each gradient.  A
    straggler stretches those moments by ``straggled_compute_s /
    base_compute_s``, opening a wider window in which buckets can be
    pushed while upstream layers still compute; the rebalanced exchange
    hides up to the straggle slack (``straggled - base``) on top of
    whatever the baseline overlap already hid.
    """
    if base_compute_s <= 0:
        raise ValueError("base compute time must be positive")
    if straggled_compute_s < base_compute_s:
        raise ValueError("straggled compute cannot be faster than the base")
    slack_s = straggled_compute_s - base_compute_s
    return RebalanceDecision(
        buckets=max(1, len(schedule)),
        window_s=slack_s,
        exposed_before_s=exposed_s,
        exposed_after_s=max(0.0, exposed_s - slack_s),
    )
