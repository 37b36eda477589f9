"""The ``--transforms`` mini-language and the composed pipeline rewrite.

Covers the three layers the pipeline adds on top of the individual plan
transforms:

- the parser: aliases, per-transform argument typing and domains,
  loud :class:`TransformSpecError` messages for every malformed shape;
- normalization: token order never matters — every permutation of a spec
  shares one canonical spelling (the cache dimension) and one result;
- contracts: on the one application path,
  ``TrainingSession.compile_transformed``, a transform that violates its
  declared FLOP conservation is caught per-stage, and a stage that *skips
  its own check* is still caught by the composition-wide check
  (``TransformPipeline.check_composition``).
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.plan import (
    PipelineStage,
    TransformArgumentError,
    TransformContractError,
    TransformPipeline,
    TransformSpecError,
    canonical_transform_spec,
    parse_transform_spec,
    transform_catalog,
)
from repro.plan.transform import (
    FeatureMapOffloadTransform,
    PlanTransform,
    ResNetDepthTransform,
)
from repro.training.session import TrainingSession
from tests.plans import fold_stages, plan_difference

SEED = 20180923


class TestParser:
    def test_empty_and_whitespace_are_the_empty_pipeline(self):
        for text in ("", "   ", "\t"):
            pipeline = parse_transform_spec(text)
            assert not pipeline
            assert len(pipeline) == 0
            assert pipeline.canonical == ""

    def test_single_tokens_parse_to_their_transform(self):
        assert parse_transform_spec("fp16").canonical == "fp16"
        assert parse_transform_spec("fused_rnn").canonical == "fused_rnn"
        assert parse_transform_spec("depth:23").canonical == "depth:23"

    def test_offload_defaults_its_fraction(self):
        assert parse_transform_spec("offload").canonical == "offload:0.5"
        assert parse_transform_spec("offload:0.25").canonical == "offload:0.25"

    def test_aliases_and_case_normalize(self):
        assert canonical_transform_spec("FUSED-RNN") == "fused_rnn"
        assert canonical_transform_spec("fp16-storage") == "fp16"
        assert canonical_transform_spec("resnet-depth:23") == "depth:23"
        assert canonical_transform_spec("feature-map-offload:0.5") == "offload:0.5"

    def test_unknown_transform_names_the_known_set(self):
        with pytest.raises(TransformSpecError, match="unknown transform 'magic'"):
            parse_transform_spec("magic")
        with pytest.raises(TransformSpecError, match="depth, fp16, fused_rnn, offload"):
            parse_transform_spec("fp16+magic")

    def test_empty_token_is_rejected(self):
        with pytest.raises(TransformSpecError, match="empty transform token"):
            parse_transform_spec("fp16++offload")
        with pytest.raises(TransformSpecError, match="empty transform token"):
            parse_transform_spec("+fp16")

    def test_duplicate_transform_is_rejected_even_via_alias(self):
        with pytest.raises(TransformSpecError, match="more than once"):
            parse_transform_spec("fp16+fp16")
        with pytest.raises(TransformSpecError, match="more than once"):
            parse_transform_spec("offload:0.25+feature-map-offload:0.5")

    def test_depth_requires_its_argument(self):
        with pytest.raises(TransformSpecError, match="depth:<conv4_blocks>"):
            parse_transform_spec("depth")

    def test_bad_argument_types_are_named(self):
        with pytest.raises(TransformSpecError, match="expected int"):
            parse_transform_spec("depth:deep")
        with pytest.raises(TransformSpecError, match="expected float"):
            parse_transform_spec("offload:half")

    def test_argument_on_no_arg_transform_is_rejected(self):
        with pytest.raises(TransformSpecError, match="takes no argument"):
            parse_transform_spec("fp16:0.5")

    def test_out_of_domain_arguments_surface_as_spec_errors(self):
        with pytest.raises(TransformSpecError, match=r"offload fraction"):
            parse_transform_spec("offload:1.5")
        with pytest.raises(TransformSpecError, match="conv4 block count"):
            parse_transform_spec("depth:0")

    def test_spec_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            parse_transform_spec("magic")


class TestTypedTransformArguments:
    """The transforms themselves validate their domains (not just the
    parser), so programmatic construction fails as loudly as specs."""

    @pytest.mark.parametrize("fraction", [-0.1, 1.0001, 2.0])
    def test_offload_fraction_domain(self, fraction):
        with pytest.raises(TransformArgumentError, match=r"in \[0, 1\]"):
            FeatureMapOffloadTransform(fraction)

    def test_offload_fraction_must_be_numeric(self):
        with pytest.raises(TransformArgumentError, match="must be a number"):
            FeatureMapOffloadTransform("half")

    def test_offload_boundaries_are_legal(self):
        assert FeatureMapOffloadTransform(0.0).offload_fraction == 0.0
        assert FeatureMapOffloadTransform(1.0).offload_fraction == 1.0

    @pytest.mark.parametrize("blocks", ["deep", 2.5, True])
    def test_depth_blocks_must_be_an_integer(self, blocks):
        with pytest.raises(TransformArgumentError, match="must be an integer"):
            ResNetDepthTransform(blocks)

    def test_depth_blocks_must_be_positive(self):
        with pytest.raises(TransformArgumentError, match=">= 1"):
            ResNetDepthTransform(0)

    def test_argument_errors_are_value_errors(self):
        # test_plan_transforms relies on ValueError matching; keep it true.
        assert issubclass(TransformArgumentError, ValueError)


class TestNormalization:
    FULL = ["fused_rnn", "depth:23", "offload:0.25", "fp16"]

    def test_canonical_order_is_rank_order(self):
        spec = canonical_transform_spec("fp16+offload:0.25+depth:23+fused_rnn")
        assert spec == "fused_rnn+depth:23+offload:0.25+fp16"

    def test_every_permutation_shares_one_canonical_spelling(self):
        rng = random.Random(SEED)
        reference = canonical_transform_spec("+".join(self.FULL))
        for _ in range(25):
            shuffled = list(self.FULL)
            rng.shuffle(shuffled)
            assert canonical_transform_spec("+".join(shuffled)) == reference

    def test_catalog_is_sorted_by_rank(self):
        ranks = [entry.rank for entry in transform_catalog()]
        assert ranks == sorted(ranks)
        assert [entry.name for entry in transform_catalog()] == [
            "fused_rnn",
            "depth",
            "offload",
            "fp16",
        ]

    def test_permuted_specs_produce_bit_identical_plans(self):
        session = TrainingSession("nmt", "tensorflow")
        base = session.compile(64)
        reference = parse_transform_spec("fused_rnn+offload:0.5+fp16")
        permuted = parse_transform_spec("fp16+offload:0.5+fused_rnn")
        assert plan_difference(
            fold_stages(reference, base), fold_stages(permuted, base)
        ) is None

    def test_describe_lists_stages_in_application_order(self):
        text = parse_transform_spec("fp16+fused_rnn").describe()
        lines = text.splitlines()
        assert lines[0] == "pipeline: fused_rnn+fp16"
        assert "1. fused_rnn" in lines[1]
        assert "2. fp16" in lines[2]
        assert parse_transform_spec("").describe() == "pipeline: (empty)"


class _LeakyTransform(PlanTransform):
    """Declares FLOP preservation but leaks work through ``rewrite`` —
    the base class's per-stage contract check must catch it."""

    name = "leaky"

    def rewrite(self, plan):
        clone = copy.copy(plan)
        clone.total_flops = plan.total_flops * 1.25
        return clone


class _CheatingTransform(_LeakyTransform):
    """Same leak, but overrides ``apply`` to skip the per-stage check —
    only the pipeline's composition-wide check can catch this one."""

    name = "cheating"

    def apply(self, plan):
        return self.rewrite(plan)


def _pipeline(*transforms) -> TransformPipeline:
    """A pipeline of ``transforms`` ranked after every registered stage,
    applied in the order given."""
    return TransformPipeline(
        [
            PipelineStage(100 + position, transform.name, transform)
            for position, transform in enumerate(transforms)
        ]
    )


class TestContracts:
    """Contracts on the one path a pipeline applies through:
    ``TrainingSession.compile_transformed``."""

    @pytest.fixture(scope="class")
    def session(self):
        return TrainingSession("resnet-50", "mxnet")

    def test_flop_violation_is_caught_per_stage(self, session):
        with pytest.raises(TransformContractError, match="^leaky declares FLOP"):
            session.compile_transformed(16, _pipeline(_LeakyTransform()))

    def test_flop_violation_is_caught_composition_wide(self, session):
        # The stage's own check is bypassed; the pipeline still refuses.
        with pytest.raises(
            TransformContractError, match="^pipeline 'cheating' declares FLOP"
        ):
            session.compile_transformed(16, _pipeline(_CheatingTransform()))

    def test_cheating_stage_cannot_hide_behind_honest_stages(self, session):
        fp16 = parse_transform_spec("fp16").stages[0]
        pipeline = TransformPipeline([fp16, *_pipeline(_CheatingTransform())])
        assert pipeline.canonical == "fp16+cheating"
        with pytest.raises(TransformContractError, match="declares FLOP"):
            session.compile_transformed(16, pipeline)
        # The check runs on every call, not only on the one that compiled.
        with pytest.raises(TransformContractError, match="declares FLOP"):
            session.compile_transformed(16, pipeline)

    def test_empty_pipeline_compiles_to_the_base_plan(self, session):
        empty = session.compile_transformed(16, TransformPipeline())
        assert empty is session.compile(16)

    def test_compile_transformed_equals_sequential_stage_application(self):
        session = TrainingSession("sockeye", "mxnet")
        pipeline = parse_transform_spec("fused_rnn+offload:0.25+fp16")
        sequential = fold_stages(pipeline, session.compile(64))
        composed = session.compile_transformed(64, pipeline)
        assert plan_difference(composed, sequential) is None
