"""The ``--transforms`` pipeline mini-language and its composed rewrite.

A transform pipeline is one compact ``+``-separated string — the form a
CLI flag, a sweep-grid dimension, or the autotuner's search space can
carry, and exactly what the result cache hashes:

``fused_rnn+fp16+offload:0.5``

Each token names a registered plan transform, optionally with one
``:``-separated argument:

- ``fused_rnn`` — the cuDNN-style fused recurrent rewrite
  (:class:`~repro.plan.transform.FusedRNNTransform`).
- ``depth:<conv4_blocks>`` — swap in a residual network with a different
  conv4 stage (:class:`~repro.plan.transform.ResNetDepthTransform`).
- ``offload[:<fraction>]`` — vDNN-style feature-map offload, default
  fraction 0.5 (:class:`~repro.plan.transform.FeatureMapOffloadTransform`).
- ``fp16`` — FP16 feature-map/gradient storage
  (:class:`~repro.plan.transform.HalfPrecisionStorageTransform`).

Pipelines are *normalized*: stages sort into a canonical order that is
also the only semantically sound one — graph rewrites (``fused_rnn``,
``depth``) recompile the plan from its graph and would silently discard
any earlier allocation rewrite, and ``offload`` replaces the allocation
trace wholesale where ``fp16`` merely rescales it.  So graph rewrites
run first, then ``offload``, then ``fp16``, and two specs that differ
only in token order share one canonical text — and therefore one cache
key and one memoized plan.

A pipeline is applied in one place,
:meth:`~repro.training.session.TrainingSession.compile_transformed`,
which memoizes every prefix's plan and checks contracts twice: each
stage's own FLOP/weight-conservation declaration (inside
:meth:`~repro.plan.transform.PlanTransform.apply`), and the same
declarations over the *whole composition*
(:meth:`TransformPipeline.check_composition`) — a stage that lies about
what it preserved cannot hide behind a later stage's rewrite.  Both
checks are :func:`~repro.plan.transform.enforce_contracts`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.plan.compiled import CompiledPlan
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    FusedRNNTransform,
    HalfPrecisionStorageTransform,
    PlanTransform,
    ResNetDepthTransform,
    TransformArgumentError,
    enforce_contracts,
)


class TransformSpecError(ValueError):
    """A ``--transforms`` string that does not parse."""


def spec_number(value: float) -> str:
    """The canonical spelling of a numeric spec argument: ``{:g}`` when
    that parses back to exactly ``value``, otherwise every digit in
    positional notation (no exponent, so each spec grammar accepts it).
    Canonical texts are cache keys, so two different values must never
    share one."""
    text = f"{value:g}"
    if "e" in text or float(text) != value:
        import decimal

        text = format(decimal.Decimal(repr(float(value))), "f")
    return text


@dataclass(frozen=True)
class TransformEntry:
    """One registry row: how a spec token becomes a plan transform.

    ``rank`` is the stage's canonical pipeline position; see the module
    docstring for why the order is semantic, not cosmetic.
    """

    name: str
    rank: int
    summary: str
    arg_name: str | None
    arg_type: type | None
    arg_default: object
    factory: object  # (parsed arg or None) -> PlanTransform

    def build(self, raw_arg: str | None) -> tuple:
        """``(transform, canonical_token)`` for one parsed token."""
        if raw_arg is not None and self.arg_name is None:
            raise TransformSpecError(
                f"transform {self.name!r} takes no argument, got {raw_arg!r}"
            )
        arg = self.arg_default
        if raw_arg is not None:
            try:
                arg = self.arg_type(raw_arg)
            except ValueError:
                raise TransformSpecError(
                    f"bad {self.arg_name} {raw_arg!r} for transform "
                    f"{self.name!r}; expected {self.arg_type.__name__}"
                ) from None
        try:
            transform = self.factory(arg) if self.arg_name else self.factory()
        except TransformArgumentError as exc:
            raise TransformSpecError(f"bad transform {self.name!r}: {exc}") from exc
        token = self.name
        if self.arg_name is not None:
            token = f"{self.name}:{spec_number(arg) if self.arg_type is float else arg}"
        return transform, token


#: The transform registry, keyed by canonical token name.
_REGISTRY = {
    "fused_rnn": TransformEntry(
        name="fused_rnn",
        rank=0,
        summary="cuDNN-style fused recurrent cells: same FLOPs, coarse "
        "launches, no per-timestep host syncs",
        arg_name=None,
        arg_type=None,
        arg_default=None,
        factory=FusedRNNTransform,
    ),
    "depth": TransformEntry(
        name="depth",
        rank=10,
        summary="reinvest freed memory in depth: a residual network with "
        "<conv4_blocks> conv4 blocks (Observation 12)",
        arg_name="conv4_blocks",
        arg_type=int,
        arg_default=None,
        factory=ResNetDepthTransform,
    ),
    "offload": TransformEntry(
        name="offload",
        rank=20,
        summary="vDNN-style feature-map offload of a stash <fraction> "
        "(default 0.5) to host memory; pays its exposed PCIe transfers",
        arg_name="fraction",
        arg_type=float,
        arg_default=0.5,
        factory=FeatureMapOffloadTransform,
    ),
    "fp16": TransformEntry(
        name="fp16",
        rank=30,
        summary="FP16 feature-map/gradient storage with an FP32 master "
        "weight copy; compute unchanged",
        arg_name=None,
        arg_type=None,
        arg_default=None,
        factory=HalfPrecisionStorageTransform,
    ),
}

#: Spelling aliases the parser accepts (after lowercasing and ``-``→``_``).
_ALIASES = {
    "fused_rnn": "fused_rnn",
    "fusedrnn": "fused_rnn",
    "fp16": "fp16",
    "fp16_storage": "fp16",
    "depth": "depth",
    "resnet_depth": "depth",
    "offload": "offload",
    "feature_map_offload": "offload",
}


@dataclass(frozen=True)
class PipelineStage:
    """One normalized pipeline position: a transform plus its canonical
    spec token and sort rank."""

    rank: int
    token: str
    transform: PlanTransform


def transform_catalog() -> list:
    """Registry entries in canonical pipeline order (CLI/docs listing)."""
    return sorted(_REGISTRY.values(), key=lambda entry: entry.rank)


class TransformPipeline:
    """A normalized, contract-checked composition of plan transforms.

    Instances are immutable once built; ``canonical`` is the normalized
    spelling (the cache dimension).
    """

    def __init__(self, stages=()):
        self._stages = tuple(
            sorted(stages, key=lambda stage: (stage.rank, stage.token))
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def canonical(self) -> str:
        """The normalized spec text — the form cache keys carry."""
        return "+".join(stage.token for stage in self._stages)

    @property
    def stages(self) -> tuple:
        return self._stages

    @property
    def transforms(self) -> tuple:
        return tuple(stage.transform for stage in self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def __iter__(self):
        return iter(self._stages)

    def __bool__(self) -> bool:
        return bool(self._stages)

    # ------------------------------------------------------------------
    # contracts
    # ------------------------------------------------------------------

    @property
    def preserves_flops(self) -> bool:
        """The composition preserves FLOPs iff every stage declares it."""
        return all(stage.transform.preserves_flops for stage in self._stages)

    @property
    def preserves_weight_bytes(self) -> bool:
        return all(stage.transform.preserves_weight_bytes for stage in self._stages)

    @property
    def flops_rel_tol(self) -> float:
        """Composition FLOP tolerance: per-stage tolerances compound."""
        return max(
            (stage.transform.flops_rel_tol for stage in self._stages),
            default=1e-9,
        ) * max(1, len(self._stages))

    def check_composition(self, source: CompiledPlan, result: CompiledPlan) -> None:
        """Enforce the declared contracts over the whole composition.

        The per-stage checks inside :meth:`PlanTransform.apply` guard each
        rewrite; this one guards their *product*, so a stage that skips or
        fudges its own check still cannot smuggle work in or out of a
        pipeline that declares conservation.
        """
        enforce_contracts(f"pipeline {self.canonical!r}", self, source, result)

    def describe(self) -> str:
        """One human line per stage, in application order."""
        if not self._stages:
            return "pipeline: (empty)"
        lines = [f"pipeline: {self.canonical}"]
        for position, stage in enumerate(self._stages, start=1):
            transform = stage.transform
            contracts = []
            if transform.preserves_flops:
                contracts.append("flops")
            if transform.preserves_weight_bytes:
                contracts.append("weight bytes")
            preserved = " + ".join(contracts) if contracts else "nothing"
            lines.append(
                f"  {position}. {stage.token:<14s} preserves {preserved}"
            )
        return "\n".join(lines)


def parse_transform_spec(text: str) -> TransformPipeline:
    """Parse one ``--transforms`` string into a :class:`TransformPipeline`.

    The empty (or whitespace-only) string is the empty pipeline — the
    untransformed point, byte-identical everywhere to a spec that never
    mentioned transforms.

    Raises:
        TransformSpecError: on any malformed token (with the offending
            piece named, never a bare traceback from a constructor).
    """
    if not text.strip():
        return TransformPipeline()
    stages = []
    seen = set()
    for raw_token in text.split("+"):
        token = raw_token.strip()
        if not token:
            raise TransformSpecError(f"empty transform token in {text!r}")
        name_text, _, arg_text = token.partition(":")
        name = name_text.strip().lower().replace("-", "_")
        canonical_name = _ALIASES.get(name)
        if canonical_name is None:
            known = ", ".join(sorted(_REGISTRY))
            raise TransformSpecError(
                f"unknown transform {name_text.strip()!r}; known: {known}"
            )
        if canonical_name in seen:
            raise TransformSpecError(
                f"transform {canonical_name!r} appears more than once in {text!r}"
            )
        seen.add(canonical_name)
        entry = _REGISTRY[canonical_name]
        raw_arg = arg_text.strip() if _ else None
        if raw_arg is None and entry.arg_name is not None and entry.arg_default is None:
            raise TransformSpecError(
                f"transform {canonical_name!r} requires an argument: "
                f"{canonical_name}:<{entry.arg_name}>"
            )
        transform, canonical_token = entry.build(raw_arg)
        stages.append(
            PipelineStage(
                rank=entry.rank, token=canonical_token, transform=transform
            )
        )
    return TransformPipeline(stages)


def canonical_transform_spec(text: str) -> str:
    """The normalized spelling of a spec (parse + re-render)."""
    return parse_transform_spec(text).canonical
