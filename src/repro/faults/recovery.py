"""Recovery machinery: what the simulated cluster *does* about faults.

One fixed posture, set by the module constants below:

- backoff — retry transient exchange failures (timeouts, link outages)
  with exponential backoff; a fault that outlives ``MAX_RETRIES``
  attempts raises :class:`UnrecoverableFaultError`.
- checkpoints — every ``CHECKPOINT_INTERVAL_STEPS`` steps bound the work
  a crash destroys; restart replays from the last checkpoint on the
  surviving (elastically shrunk) cluster.
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
    """A fault the recovery policies cannot survive.

    Carries the step and fault kind so fault-matrix tests (and operators)
    can assert on *why* the run died rather than parsing messages.
    """

    def __init__(self, message: str, step: int = 0, kind: str = "unknown"):
        super().__init__(message)
        self.step = step
        self.kind = kind


#: Retry with exponential backoff: retry ``i`` (0-based) waits
#: ``BACKOFF_BASE_S * BACKOFF_MULTIPLIER**i`` simulated seconds.
BACKOFF_BASE_S = 0.5
BACKOFF_MULTIPLIER = 2.0
#: A transient fault that outlives this many retries is unrecoverable.
MAX_RETRIES = 5
#: Steps between checkpoints: a crash rolls progress back to the last one.
#: Saving a checkpoint costs nothing; reloading one costs ``RESTORE_S``.
CHECKPOINT_INTERVAL_STEPS = 10
RESTORE_S = 5.0
#: Simulated seconds to detect a dead worker before restarting.
DETECTION_S = 2.0
#: Simulated seconds one failed exchange attempt burns before the retry
#: machinery declares it timed out (link outages).
EXCHANGE_TIMEOUT_S = 1.0


def backoff_delay_s(failures: int) -> float:
    """Accumulated backoff across ``failures`` consecutive failures."""
    return sum(
        BACKOFF_BASE_S * BACKOFF_MULTIPLIER**attempt for attempt in range(failures)
    )


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
