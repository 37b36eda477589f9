"""The fault-plan IR: a deterministic, seed-driven schedule of cluster
faults for the simulated distributed runs.

A :class:`FaultPlan` is an immutable set of fault events against a
step-indexed timeline:

- :class:`StragglerFault` — worker ``worker`` computes ``factor`` times
  slower during ``[start_step, end_step)``; the synchronous barrier makes
  the whole step as slow as the slowest replica.
- :class:`LinkFault` — the inter-machine fabric loses bandwidth, drops
  packets (retransmission expands effective bytes), or gains latency
  during a step window.  ``packet_loss >= 1.0`` is a full outage: the
  exchange cannot complete and recovery (retry with backoff) takes over.
- :class:`WorkerCrash` — ``machines`` nodes die at ``step``; recovery is
  checkpoint/restart plus an elastic shrink to the survivors.
- :class:`AllReduceTimeout` — the gradient exchange at ``step`` times out
  ``failures`` times before succeeding; each retry backs off
  exponentially.

Everything is resolved *eagerly and purely*: the same plan and seed give
the same per-step conditions on every process, which is what makes fault
scenarios cacheable grid dimensions for the sweep engine.  The empty plan
(:meth:`FaultPlan.none`) is the strict-additivity anchor — every consumer
treats it exactly like no plan at all.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field


def _check_window(start_step: int, end_step: int | None) -> None:
    if start_step < 0:
        raise ValueError("fault windows cannot start before step 0")
    if end_step is not None and end_step <= start_step:
        raise ValueError(
            f"empty fault window [{start_step}, {end_step}): end must exceed start"
        )


@dataclass(frozen=True)
class StragglerFault:
    """Worker ``worker`` runs ``factor``x slower over ``[start_step, end_step)``
    (``end_step=None`` means forever)."""

    worker: int
    factor: float
    start_step: int = 0
    end_step: int | None = None

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError("worker index cannot be negative")
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0 (a slowdown)")
        _check_window(self.start_step, self.end_step)

    def active_at(self, step: int) -> bool:
        """Is this straggler window open at ``step``?"""
        return self.start_step <= step and (
            self.end_step is None or step < self.end_step
        )


@dataclass(frozen=True)
class LinkFault:
    """Inter-machine fabric degradation over ``[start_step, end_step)``."""

    bandwidth_factor: float = 1.0
    packet_loss: float = 0.0
    extra_latency_s: float = 0.0
    start_step: int = 0
    end_step: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth factor must be in (0, 1]")
        if not 0.0 <= self.packet_loss <= 1.0:
            raise ValueError("packet loss must be in [0, 1]")
        if self.extra_latency_s < 0:
            raise ValueError("extra latency cannot be negative")
        _check_window(self.start_step, self.end_step)

    @property
    def is_outage(self) -> bool:
        """Total loss: no transfer can complete while the window is open."""
        return self.packet_loss >= 1.0

    def active_at(self, step: int) -> bool:
        """Is this degradation window open at ``step``?"""
        return self.start_step <= step and (
            self.end_step is None or step < self.end_step
        )


@dataclass(frozen=True)
class WorkerCrash:
    """``machines`` nodes die at ``step`` (mid-iteration)."""

    step: int
    machines: int = 1

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("crash step cannot be negative")
        if self.machines < 1:
            raise ValueError("a crash must take at least one machine")


@dataclass(frozen=True)
class AllReduceTimeout:
    """The exchange at ``step`` fails ``failures`` times (each attempt
    costs ``timeout_s``) before succeeding on the next retry."""

    step: int
    failures: int = 1
    timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("timeout step cannot be negative")
        if self.failures < 1:
            raise ValueError("a timeout event needs at least one failure")
        if self.timeout_s <= 0:
            raise ValueError("timeout duration must be positive")


@dataclass(frozen=True)
class StepConditions:
    """Everything the fault plan says about one step, fully resolved.

    ``stragglers`` is ``((worker, factor), ...)`` so elastic consumers can
    drop slowdowns whose worker no longer exists after a shrink;
    ``straggle_factor`` is the max across all of them (what a fixed-size
    cluster's synchronous barrier sees).
    """

    straggle_factor: float = 1.0
    stragglers: tuple = ()
    bandwidth_factor: float = 1.0
    packet_loss: float = 0.0
    extra_latency_s: float = 0.0
    crashes: tuple = ()
    timeouts: tuple = ()

    @property
    def link_is_out(self) -> bool:
        """The fabric cannot complete any transfer at this step."""
        return self.packet_loss >= 1.0

    @property
    def condition_key(self) -> tuple:
        """Hashable key over the *continuous* conditions (stragglers and
        link state, not point events) — the memoization key for per-step
        cost under identical conditions."""
        return (
            self.stragglers,
            self.bandwidth_factor,
            self.packet_loss,
            self.extra_latency_s,
        )


CLEAN_STEP = StepConditions()


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-driven schedule of faults for one simulated run."""

    events: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        known = (StragglerFault, LinkFault, WorkerCrash, AllReduceTimeout)
        for event in self.events:
            if not isinstance(event, known):
                raise TypeError(
                    f"unknown fault event {event!r}; expected one of "
                    f"{[cls.__name__ for cls in known]}"
                )
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: every consumer treats it exactly like no plan."""
        return cls(events=(), seed=0)

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing at all."""
        return not self.events

    def _of(self, kind) -> list:
        return [event for event in self.events if isinstance(event, kind)]

    @property
    def crashes(self) -> list:
        """Every :class:`WorkerCrash`, in step order."""
        return sorted(self._of(WorkerCrash), key=lambda event: event.step)

    def conditions_at(self, step: int) -> StepConditions:
        """Resolve the plan at ``step``: straggler slowdown (the max across
        open windows), composed link degradation, and the point events
        (crashes, timeouts) that fire exactly at ``step``."""
        if self.is_empty:
            return CLEAN_STEP
        stragglers = tuple(
            event for event in self._of(StragglerFault) if event.active_at(step)
        )
        factor = 1.0
        for event in stragglers:
            factor = max(factor, event.factor)
        bandwidth, loss, latency = 1.0, 0.0, 0.0
        for event in self._of(LinkFault):
            if not event.active_at(step):
                continue
            bandwidth *= event.bandwidth_factor
            loss = 1.0 - (1.0 - loss) * (1.0 - event.packet_loss)
            latency += event.extra_latency_s
        crashes = tuple(
            event for event in self._of(WorkerCrash) if event.step == step
        )
        timeouts = tuple(
            event for event in self._of(AllReduceTimeout) if event.step == step
        )
        return StepConditions(
            straggle_factor=factor,
            stragglers=tuple(
                (event.worker, event.factor) for event in stragglers
            ),
            bandwidth_factor=bandwidth,
            packet_loss=loss,
            extra_latency_s=latency,
            crashes=crashes,
            timeouts=timeouts,
        )

    def outage_until(self, step: int) -> int | None:
        """If the link is fully out at ``step``, the first step at which
        every open outage window has closed — ``None`` when some outage
        window never ends (recovery must eventually give up)."""
        horizon = step
        for event in self._of(LinkFault):
            if event.is_outage and event.active_at(step):
                if event.end_step is None:
                    return None
                horizon = max(horizon, event.end_step)
        return horizon

    def window(self, start_step: int, end_step: int | None = None) -> "FaultPlan":
        """The plan restricted to ``[start_step, end_step)`` and re-based
        so ``start_step`` becomes step 0.

        This is how a run split into batch-schedule segments threads one
        fault plan through per-segment trainers: each segment sees exactly
        the events that fall inside its step window, shifted onto its own
        local timeline.  Windowed straggler/link intervals are clipped;
        point events (crashes, timeouts) are kept iff they land inside.
        The seed is preserved, but windowing re-bases step indices, so
        seed-derived per-event draws (e.g. crash fractions) are pure
        functions of the *local* step — exact conservation claims should
        therefore compare event sets, not partial-step jitter.
        """
        if start_step < 0:
            raise ValueError("window cannot start before step 0")
        if end_step is not None and end_step < start_step:
            raise ValueError("window cannot end before it starts")
        events = []
        for event in self.events:
            if isinstance(event, (StragglerFault, LinkFault)):
                open_end = event.end_step
                clipped_start = max(event.start_step, start_step)
                if end_step is None:
                    clipped_end = open_end
                elif open_end is None:
                    clipped_end = end_step
                else:
                    clipped_end = min(open_end, end_step)
                if clipped_end is not None and clipped_end <= clipped_start:
                    continue
                shifted_end = (
                    None if clipped_end is None else clipped_end - start_step
                )
                events.append(
                    dataclasses.replace(
                        event,
                        start_step=clipped_start - start_step,
                        end_step=shifted_end,
                    )
                )
            else:
                if event.step < start_step:
                    continue
                if end_step is not None and event.step >= end_step:
                    continue
                events.append(
                    dataclasses.replace(event, step=event.step - start_step)
                )
        return FaultPlan(events=tuple(events), seed=self.seed)

    def last_boundary(self) -> int:
        """The step index after which conditions never change again —
        the point past which a run simulates in closed form."""
        boundary = 0
        for event in self.events:
            if isinstance(event, (StragglerFault, LinkFault)):
                if event.end_step is None:
                    boundary = max(boundary, event.start_step + 1)
                else:
                    boundary = max(boundary, event.end_step)
            else:
                boundary = max(boundary, event.step + 1)
        return boundary

    def crash_fraction(self, crash: WorkerCrash) -> float:
        """How far into its step the crash lands, in ``[0.25, 0.75)`` —
        a pure function of (seed, step), so every process computing the
        same plan charges the same partial-step loss."""
        rng = random.Random(f"{self.seed}:{crash.step}:crash-fraction")
        return 0.25 + 0.5 * rng.random()

    def describe(self) -> str:
        """One line per event, in a stable order."""
        if self.is_empty:
            return "fault plan: none"
        lines = [f"fault plan: {len(self.events)} event(s), seed {self.seed}"]
        for event in self.events:
            lines.append(f"  {event!r}")
        return "\n".join(lines)
