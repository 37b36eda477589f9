"""The batch-schedule mini-language: declarative adaptive batch sizes.

A *batch schedule* says how the mini-batch grows over one training run.
The paper sweeps fixed batches only; the adadamp line of work grows the
batch during training to damp gradient noise, and this module makes that
a first-class, cacheable sweep dimension.  A schedule is pure data — it
carries no base batch (``b0`` is always the sweep point's ``batch_size``,
which is what makes ``fixed`` coincide exactly with today's grid) and no
curve state (segmentation against a convergence curve happens in
:mod:`repro.schedule.integrator`).

The spec text mirrors :func:`repro.plan.pipeline.parse_transform_spec`:
``name`` or ``name:key=value,key=value``, e.g.

- ``fixed`` — the legacy path, byte-identical to no schedule at all;
- ``geometric:factor=2,every=50`` — multiply the batch by ``factor``
  every ``every`` optimizer steps, up to ``ceiling``;
- ``plateau:factor=2,patience=80`` — watch the convergence curve every
  ``patience`` steps and grow the batch when the *relative* improvement
  of the remaining metric gap stalls (scale-free, so affine rescaling of
  the curve never changes the trigger);
- ``gns:ceiling=256`` — track a deterministic gradient-noise-scale proxy
  derived from the convergence curve (noise scale grows as the gradient
  signal shrinks) and raise the batch toward ``ceiling`` with it.

``repr(schedule)`` *is* the canonical spec text with every default made
explicit, so ``parse_schedule_spec(repr(s)) == s`` holds and the
canonical text is stable against future default changes — which is what
lets the text serve as a content-addressed cache dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.pipeline import spec_number


class ScheduleSpecError(ValueError):
    """A schedule spec string failed to parse or validate."""


def _positive_int(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScheduleSpecError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class BatchSchedule:
    """Base class: one declarative batch-growth policy.

    Subclasses are frozen dataclasses whose fields are exactly the
    mini-language arguments; ``canonical`` renders them back in a fixed
    order with floats formatted by
    :func:`~repro.plan.pipeline.spec_number` (matching the transform
    pipeline's canonical tokens).
    """

    #: Mini-language head token; overridden per subclass.
    name = "schedule"

    @property
    def is_fixed(self) -> bool:
        """True for the schedule that never changes the batch."""
        return False

    @property
    def canonical(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.canonical


@dataclass(frozen=True, repr=False)
class FixedSchedule(BatchSchedule):
    """The identity schedule: the batch stays at the point's ``b0``.

    Normalizes to the *empty* schedule everywhere (cache keys, payloads,
    JSONL), which is how ``fixed`` stays byte-identical to the legacy
    fixed-batch grid.
    """

    name = "fixed"

    @property
    def is_fixed(self) -> bool:
        return True

    @property
    def canonical(self) -> str:
        return "fixed"


@dataclass(frozen=True, repr=False)
class GeometricSchedule(BatchSchedule):
    """Multiply the batch by ``factor`` every ``every`` steps, capped at
    ``ceiling`` (a cap below ``b0`` simply freezes the batch at ``b0``)."""

    factor: float = 2.0
    every: int = 50
    ceiling: int = 1024

    name = "geometric"

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ScheduleSpecError(
                f"geometric factor must be >= 1 (schedules never shrink the "
                f"batch), got {self.factor!r}"
            )
        _positive_int("geometric every", self.every)
        _positive_int("geometric ceiling", self.ceiling)

    @property
    def canonical(self) -> str:
        return (
            f"geometric:factor={spec_number(self.factor)},every={self.every},"
            f"ceiling={self.ceiling}"
        )


@dataclass(frozen=True, repr=False)
class PlateauSchedule(BatchSchedule):
    """Grow the batch by ``factor`` when the convergence curve plateaus.

    Every ``patience`` steps the integrator measures the *relative*
    improvement of the remaining metric gap over the window; below
    :data:`PLATEAU_REL_IMPROVEMENT` the batch multiplies by ``factor``
    (capped at ``ceiling``).  The trigger sees only gap *fractions*, so
    it is invariant under affine rescaling of the curve's metric axis.
    """

    factor: float = 2.0
    patience: int = 50
    ceiling: int = 1024

    name = "plateau"

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ScheduleSpecError(
                f"plateau factor must be >= 1 (schedules never shrink the "
                f"batch), got {self.factor!r}"
            )
        _positive_int("plateau patience", self.patience)
        _positive_int("plateau ceiling", self.ceiling)

    @property
    def canonical(self) -> str:
        return (
            f"plateau:factor={spec_number(self.factor)},patience={self.patience},"
            f"ceiling={self.ceiling}"
        )


@dataclass(frozen=True, repr=False)
class GnsSchedule(BatchSchedule):
    """Track a gradient-noise-scale proxy toward ``ceiling``.

    McCandlish et al.'s critical batch grows as the gradient signal
    shrinks; the deterministic proxy here is ``b0 / remaining_gap(n)``
    (remaining gap fraction from the convergence curve), re-evaluated
    every ``every`` steps.  Growth fires when the proxy has at least
    doubled the running batch (adadamp-style doubling) and is clamped
    monotone non-decreasing below ``ceiling``.
    """

    ceiling: int = 0
    every: int = 50

    name = "gns"

    def __post_init__(self) -> None:
        _positive_int("gns ceiling", self.ceiling)
        _positive_int("gns every", self.every)

    @property
    def canonical(self) -> str:
        return f"gns:ceiling={self.ceiling},every={self.every}"


#: Relative improvement of the remaining metric-gap fraction per plateau
#: window below which the curve counts as plateaued.  A module constant —
#: not a spec argument — so the trigger semantics are versioned with the
#: code fingerprint, not the cache key text.
PLATEAU_REL_IMPROVEMENT = 1e-4

#: Hard cap on generated segments; growth schedules converge to their
#: ceiling long before this, so hitting it means a malformed schedule.
MAX_SEGMENTS = 64

#: head token -> (schedule class, argument name -> parser, required args)
_REGISTRY = {
    "fixed": (FixedSchedule, {}, ()),
    "geometric": (
        GeometricSchedule,
        {"factor": float, "every": int, "ceiling": int},
        (),
    ),
    "plateau": (
        PlateauSchedule,
        {"factor": float, "patience": int, "ceiling": int},
        (),
    ),
    "gns": (GnsSchedule, {"ceiling": int, "every": int}, ("ceiling",)),
}

#: Spelling aliases, applied after lowercasing and ``-`` -> ``_``.
_ALIASES = {
    "geo": "geometric",
    "noise": "gns",
    "constant": "fixed",
}


def schedule_names() -> tuple:
    """Canonical head tokens, sorted (for help text and error messages)."""
    return tuple(sorted(_REGISTRY))


def parse_schedule_spec(text: str | None):
    """Parse a schedule spec string into a :class:`BatchSchedule`.

    ``None``, the empty string, and whitespace all mean "no schedule" and
    return ``None`` — the legacy fixed-batch path.

    Raises:
        ScheduleSpecError: on an unknown head token, an unknown/duplicate/
            missing argument, or an argument that fails validation.
    """
    if text is None:
        return None
    raw = text.strip()
    if not raw:
        return None
    head, _, arg_text = raw.partition(":")
    name = head.strip().lower().replace("-", "_")
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        known = ", ".join(schedule_names())
        raise ScheduleSpecError(
            f"unknown schedule {head.strip()!r}; known schedules: {known}"
        )
    cls, arg_parsers, required = _REGISTRY[name]
    kwargs = {}
    for token in arg_text.split(",") if arg_text.strip() else ():
        token = token.strip()
        if not token:
            raise ScheduleSpecError(
                f"empty argument in schedule spec {raw!r} (stray comma?)"
            )
        key, sep, value = token.partition("=")
        key = key.strip().lower()
        if not sep or not key or not value.strip():
            raise ScheduleSpecError(
                f"schedule argument {token!r} must look like key=value"
            )
        if key not in arg_parsers:
            known = ", ".join(sorted(arg_parsers)) or "(none)"
            raise ScheduleSpecError(
                f"schedule {name!r} takes no argument {key!r}; known: {known}"
            )
        if key in kwargs:
            raise ScheduleSpecError(
                f"duplicate argument {key!r} in schedule spec {raw!r}"
            )
        try:
            kwargs[key] = arg_parsers[key](value.strip())
        except ValueError as exc:
            raise ScheduleSpecError(
                f"bad value for schedule argument {key!r}: {value.strip()!r} "
                f"({exc})"
            ) from exc
    for key in required:
        if key not in kwargs:
            raise ScheduleSpecError(
                f"schedule {name!r} requires argument {key!r} "
                f"(e.g. {name}:{key}=256)"
            )
    return cls(**kwargs)


def canonical_schedule_spec(text: str | None) -> str:
    """Canonical form of a spec: defaults explicit, floats compact; the
    empty spec stays empty."""
    schedule = parse_schedule_spec(text)
    return "" if schedule is None else schedule.canonical
