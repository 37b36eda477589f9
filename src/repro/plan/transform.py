"""Plan transforms: the optimization what-ifs as explicit plan -> plan
rewrites with centrally-checked conservation contracts.

Every optimization the paper's Section 4 discusses — fused RNN kernels,
FP16 storage, deeper models in the freed memory, vDNN-style feature-map
offloading — is a rewrite of a compiled plan, and each transform here is
the only model of its what-if: sweeps, the session, the autotuner and the
A/B harness all read the same rewritten plan.  Expressing them as
:class:`PlanTransform` subclasses buys two things: transforms compose
(apply one transform's output to the next), and each one *declares*
whether it preserves total FLOPs and total weight bytes, which
``apply`` verifies after every rewrite.  A transform that silently
changes the amount of work it claims to merely reschedule is a modeling
bug; :class:`TransformContractError` turns it into a loud one.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import repeat
from operator import mul

from repro.graph.layer import LayerGraph
from repro.hardware.interconnect import PCIE_3_X16
from repro.hardware.memory import AllocationTag
from repro.kernels.gemm import gemm
import repro.kernels.rnn as rnn_kernels
from repro.models.registry import shared_graph
from repro.models.resnet import build_resnet_with_depth
from repro.observability.tracer import trace_span

from repro.plan import compiler
from repro.plan.compiled import AllocationTrace, CompiledPlan
from repro.plan.executor import with_offload_stall


class TransformContractError(RuntimeError):
    """A transform violated a conservation contract it declared."""


class TransformArgumentError(ValueError):
    """A transform was constructed with an out-of-domain argument."""


def enforce_contracts(
    label: str, declared, source: CompiledPlan, result: CompiledPlan
) -> None:
    """Raise :class:`TransformContractError` when the rewrite ``source``
    -> ``result`` breaks a conservation contract ``declared`` (its
    ``preserves_flops``, ``preserves_weight_bytes`` and ``flops_rel_tol``).

    The one checker: :meth:`PlanTransform.apply` calls it with the stage
    itself, and
    :meth:`~repro.plan.pipeline.TransformPipeline.check_composition` with
    the whole pipeline (``label`` names which, in the error text).
    """
    if declared.preserves_flops and not math.isclose(
        result.total_flops, source.total_flops, rel_tol=declared.flops_rel_tol
    ):
        raise TransformContractError(
            f"{label} declares FLOP preservation but moved total "
            f"FLOPs from {source.total_flops:.6e} to {result.total_flops:.6e}"
        )
    if (
        declared.preserves_weight_bytes
        and result.graph.total_weight_bytes != source.graph.total_weight_bytes
    ):
        raise TransformContractError(
            f"{label} declares weight-byte preservation but moved "
            f"total weight bytes from {source.graph.total_weight_bytes} "
            f"to {result.graph.total_weight_bytes}"
        )


class PlanTransform:
    """Base class: ``apply`` wraps the subclass rewrite with tracing and
    the declared conservation checks."""

    #: Human-readable transform identity (span attribute, error messages).
    name = "transform"
    #: Declared contracts, verified by :meth:`apply` after every rewrite.
    preserves_flops = True
    preserves_weight_bytes = True
    #: Tolerance for the FLOP contract (rewrites may reassociate sums).
    flops_rel_tol = 1e-9

    def apply(self, plan: CompiledPlan) -> CompiledPlan:
        """Rewrite ``plan`` and enforce the declared contracts."""
        span = trace_span(
            "plan.transform",
            transform=self.name,
            model=plan.graph.model_name,
            batch_size=plan.graph.batch_size,
        )
        with span:
            result = self.rewrite(plan)
            enforce_contracts(self.name, self, plan, result)
            span.set_attributes(
                kernels_before=len(plan.kernels),
                kernels_after=len(result.kernels),
            )
        return result

    def rewrite(self, plan: CompiledPlan) -> CompiledPlan:
        """The transformed plan, unchecked; :meth:`apply` is the entry
        point that checks it."""
        raise NotImplementedError


#: Layer kinds the fused-RNN rewrite acts on.
RECURRENT_KINDS = ("lstm", "gru", "rnn")
_POINTWISE = {
    "lstm": rnn_kernels.lstm_cell_pointwise,
    "gru": rnn_kernels.gru_cell_pointwise,
    "rnn": rnn_kernels.vanilla_rnn_pointwise,
}


def fuse_recurrent_layers(graph: LayerGraph) -> LayerGraph:
    """Return a new graph equal to ``graph`` with every recurrent layer
    fused; ``graph`` itself is left untouched.

    cuDNN's fused RNN path, read from each recurrent layer's geometry
    ``attributes``: the per-step ``gemm(b, g*h, input+h)`` GEMMs become one
    ``gemm(b*T*D, g*h, input)`` input projection plus ``T*D`` recurrent
    ``gemm(b, g*h, h)`` GEMMs, the per-step pointwise kernels merge into
    one fused kernel per pass, and every ``host_sync`` flag disappears.
    Total FLOPs are preserved; only launch granularity and synchronization
    change.

    The result has its own :class:`Layer` objects and kernel lists, but
    shares the frozen :class:`~repro.kernels.base.Kernel` values: every
    unchanged kernel is the source graph's object, and each recurrent GEMM
    is one object repeated once per step.

    Raises:
        ValueError: if a recurrent layer lacks geometry attributes.
    """
    return replace(
        graph,
        layers=[_fused_layer(layer) for layer in graph.layers],
        extra_kernels=list(graph.extra_kernels),
    )


def _fused_layer(layer):
    """A copy of ``layer`` with fused recurrent kernels (recurrent kinds)
    or with its host syncs cleared (every other kind): the fused path
    keeps the whole iteration on-device."""
    if layer.kind in RECURRENT_KINDS:
        forward, backward = _fused_recurrent_kernels(layer)
    else:
        forward = _on_device(layer.forward_kernels)
        backward = _on_device(layer.backward_kernels)
    return replace(
        layer,
        forward_kernels=forward,
        backward_kernels=backward,
        attributes=dict(layer.attributes),
    )


def _on_device(kernels) -> list:
    return [replace(k, host_sync=False) if k.host_sync else k for k in kernels]


def _fused_recurrent_kernels(layer) -> tuple:
    """``(forward, backward)`` kernel lists of one fused recurrent layer."""
    geometry = layer.attributes
    required = ("batch", "seq_len", "input_size", "hidden", "gates", "directions")
    missing = [key for key in required if key not in geometry]
    if missing:
        raise ValueError(f"recurrent layer {layer.name!r} lacks geometry {missing}")
    batch = geometry["batch"]
    steps = geometry["seq_len"] * geometry["directions"]
    input_size = geometry["input_size"]
    hidden = geometry["hidden"]
    gh = geometry["gates"] * hidden
    pointwise = _POINTWISE[layer.kind]

    # One big input projection across all timesteps and directions, then
    # back-to-back recurrent GEMMs with no host round trips, then one
    # fused pointwise kernel covering every step.
    recurrent = gemm(batch, gh, hidden, name="cudnn_rnn_fused_recurrent_sgemm")
    forward = [gemm(batch * steps, gh, input_size, name="cudnn_rnn_fused_input_sgemm")]
    forward += [recurrent] * steps
    forward.append(pointwise(batch * steps, hidden, backward=False))

    recurrent_bw = gemm(batch, hidden, gh, name="cudnn_rnn_fused_recurrent_sgemm_bw")
    backward = [pointwise(batch * steps, hidden, backward=True)]
    backward += [recurrent_bw] * steps
    backward.append(
        gemm(batch * steps, input_size, gh, name="cudnn_rnn_fused_input_sgemm_bw")
    )
    backward.append(
        gemm(input_size + hidden, gh, batch * steps, name="cudnn_rnn_fused_wgrad_sgemm")
    )
    return forward, backward


class FusedRNNTransform(PlanTransform):
    """cuDNN-style fused RNN rewrite: same FLOPs, coarser launches, no
    host round-trips (the paper's top LSTM recommendation)."""

    name = "fused-rnn"

    def rewrite(self, plan: CompiledPlan) -> CompiledPlan:
        """Compile the graph with its recurrent layers fused."""
        return compiler.compile_graph(
            fuse_recurrent_layers(plan.graph), plan.framework, plan.gpu
        )


class HalfPrecisionStorageTransform(PlanTransform):
    """FP16 feature-map/gradient storage with an FP32 master weight copy:
    compute (and therefore FLOPs) unchanged, allocation trace rescaled."""

    name = "fp16-storage"

    #: Allocation-trace scale per tag: maps and gradients halve, weights
    #: grow by the FP16 working copy, optimizer state stays FP32.
    SCALES = {
        AllocationTag.FEATURE_MAPS: 0.5,
        AllocationTag.WEIGHT_GRADIENTS: 0.5,
        AllocationTag.WEIGHTS: 1.5,
    }

    def rewrite(self, plan: CompiledPlan) -> CompiledPlan:
        """Scale each allocation's bytes by its class's :attr:`SCALES`."""
        trace = plan.allocations
        scales = map(self.SCALES.get, trace.tags, repeat(1.0))
        return plan.with_allocations(
            AllocationTrace(
                tuple(map(mul, trace.num_bytes, scales)), trace.tags, trace.labels
            )
        )


class FeatureMapOffloadTransform(PlanTransform):
    """vDNN-style offload of a stash fraction to host memory (Rhu et al.,
    MICRO'16).  The allocation trace is the base trace recorded with the
    offload fraction (offloaded maps gone, staging spilled, optimizer
    state dynamic; see :func:`~repro.plan.compiler.record_allocations`), and
    the offloaded maps cross the host link twice per iteration (out after
    the forward pass, back before the backward pass).  Kernels and their
    timings are untouched; the part of that traffic compute does not hide
    is appended to the timeline as an ``"offload"`` stall."""

    name = "feature-map-offload"
    #: The host link the offloaded maps travel over.
    link = PCIE_3_X16
    #: Fraction of offload traffic hidden behind compute (vDNN overlaps
    #: its prefetches with the convolution stream).
    overlap = 0.7

    def __init__(self, offload_fraction: float):
        try:
            offload_fraction = float(offload_fraction)
        except (TypeError, ValueError):
            raise TransformArgumentError(
                f"offload fraction must be a number, got {offload_fraction!r}"
            ) from None
        if not 0.0 <= offload_fraction <= 1.0:
            raise TransformArgumentError(
                f"offload fraction must be in [0, 1], got {offload_fraction!r}"
            )
        self.offload_fraction = offload_fraction

    def exposed_transfer_s(self, graph: LayerGraph) -> float:
        """Seconds of offload traffic per iteration that compute does not
        hide."""
        traffic = 2.0 * graph.total_feature_map_bytes * self.offload_fraction
        return self.link.transfer_time(traffic) * (1.0 - self.overlap)

    def rewrite(self, plan: CompiledPlan) -> CompiledPlan:
        """Re-record the allocation trace with the offload fraction."""
        return plan.with_allocations(
            compiler.record_allocations(
                plan.graph, plan.framework, self.offload_fraction
            ),
            execution=with_offload_stall(
                plan.execution, self.exposed_transfer_s(plan.graph)
            ),
        )


class ResNetDepthTransform(PlanTransform):
    """Reinvest freed memory in depth (Observation 12): swap the plan's
    graph for a residual network with a different conv4 stage.  Deeper
    networks do more work, so neither conservation contract holds — the
    declarations say so."""

    name = "resnet-depth"
    preserves_flops = False
    preserves_weight_bytes = False

    def __init__(self, conv4_blocks: int):
        if not isinstance(conv4_blocks, int) or isinstance(conv4_blocks, bool):
            raise TransformArgumentError(
                f"conv4 block count must be an integer, got {conv4_blocks!r}"
            )
        if conv4_blocks < 1:
            raise TransformArgumentError(
                f"conv4 block count must be >= 1, got {conv4_blocks}"
            )
        self.conv4_blocks = conv4_blocks

    def rewrite(self, plan: CompiledPlan) -> CompiledPlan:
        """Compile the residual network with the new conv4 depth."""
        return compiler.compile_graph(
            shared_graph(
                build_resnet_with_depth, plan.graph.batch_size, self.conv4_blocks
            ),
            plan.framework,
            plan.gpu,
        )


#: Deepest conv4 stage the depth search tries (ResNet-212).
_MAX_CONV4_BLOCKS = 60


def deepest_fitting_depth(session, batch_size: int) -> int:
    """The largest conv4 block count, from stock ResNet-50's 6 up to
    :data:`_MAX_CONV4_BLOCKS`, whose network fits ``session``'s GPU at
    ``batch_size`` — Observation 12's "how deep at this batch?".  Returns 0
    when not even ResNet-50 fits."""
    from repro.plan.pipeline import parse_transform_spec

    best = 0
    for blocks in range(6, _MAX_CONV4_BLOCKS + 1):
        plan = session.compile_transformed(
            batch_size, parse_transform_spec(f"depth:{blocks}")
        )
        if not plan.fits(session.gpu.memory_bytes):
            break
        best = blocks
    return best
