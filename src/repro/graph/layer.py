"""The :class:`Layer` record and :class:`LayerGraph` container."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.kernels.base import Kernel

_FP32_BYTES = 4


@dataclass
class Layer:
    """One layer instance of a model, fully lowered.

    Attributes:
        name: unique layer name within its graph (``conv1``, ``res2a_bn``…).
        kind: layer family (``conv``, ``dense``, ``batchnorm``, ``lstm``…).
        weight_elements: trainable parameters in this layer.
        output_elements: feature-map values this layer produces per
            iteration (mini-batch included) and must stash for backward.
        workspace_bytes: scratch memory its kernels request.
        forward_kernels / backward_kernels: lowered kernel sequences.  The
            backward list is *already* in execution order for the backward
            pass of this single layer; :class:`LayerGraph` reverses layer
            order, not kernel order.
    """

    name: str
    kind: str
    weight_elements: int = 0
    output_elements: int = 0
    workspace_bytes: float = 0.0
    forward_kernels: list = field(default_factory=list)
    backward_kernels: list = field(default_factory=list)
    #: In-place layers (ReLU, residual adds) overwrite their input buffer;
    #: they produce output elements but allocate no new stash.
    inplace: bool = False
    #: Free-form structural metadata (recurrent geometry, conv shapes…) for
    #: graph transformations like the fused-RNN rewrite.
    attributes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.weight_elements < 0 or self.output_elements < 0:
            raise ValueError(f"layer {self.name!r} has negative sizes")
        if self.workspace_bytes < 0:
            raise ValueError(f"layer {self.name!r} has negative workspace")

    @property
    def weight_bytes(self) -> float:
        return self.weight_elements * _FP32_BYTES

    @property
    def output_bytes(self) -> float:
        return self.output_elements * _FP32_BYTES

    @property
    def stash_bytes(self) -> float:
        """Feature-map bytes this layer adds to the training footprint."""
        return 0.0 if self.inplace else self.output_bytes

    @property
    def flops(self) -> float:
        """Total FLOPs of one training iteration through this layer."""
        return sum(k.flops for k in self.forward_kernels) + sum(
            k.flops for k in self.backward_kernels
        )

    @property
    def kernel_count(self) -> int:
        return len(self.forward_kernels) + len(self.backward_kernels)


@dataclass
class LayerGraph:
    """An ordered, lowered model graph for one mini-batch size.

    This is the unit the training session executes.  ``input_bytes`` is the
    host-side size of one mini-batch (drives the H2D copy and the data
    pipeline); ``extra_kernels`` carries loss and auxiliary kernels that
    belong to the iteration but to no single layer.

    Once its builder returns, a graph is a shared, read-only value, as a
    compiled plan is: sessions of every framework compile the one graph
    :func:`~repro.models.registry.shared_graph` keeps per (model, batch).
    :meth:`add` is for builders; a rewrite makes a new graph with
    ``dataclasses.replace`` (see ``fuse_recurrent_layers``).
    """

    model_name: str
    batch_size: int
    layers: list = field(default_factory=list)
    input_bytes: float = 0.0
    extra_kernels: list = field(default_factory=list)
    #: Optional per-iteration samples count when it differs from batch_size
    #: (e.g. speech models report seconds of audio; RL reports frames).
    samples_per_iteration: float | None = None
    #: Implementation-level feature-map over-allocation: bucketed RNN
    #: executors size their activation pools for the largest bucket, padded
    #: speech batches for the longest utterance.  1.0 = exact.
    feature_map_overallocation: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        names = Counter(layer.name for layer in self.layers)
        duplicates = [name for name, count in names.items() if count > 1]
        if duplicates:
            raise ValueError(
                f"duplicate layer names in {self.model_name}: {sorted(duplicates)}"
            )
        #: Layer names for :meth:`add`'s duplicate check; not a field, so
        #: ``dataclasses.replace`` rebuilds it here and ``copy.deepcopy``
        #: copies it with the layers.
        self._names = set(names)

    @property
    def effective_samples(self) -> float:
        """Samples credited to one iteration for throughput accounting."""
        if self.samples_per_iteration is not None:
            return self.samples_per_iteration
        return float(self.batch_size)

    @property
    def total_weight_elements(self) -> int:
        return sum(layer.weight_elements for layer in self.layers)

    @property
    def total_weight_bytes(self) -> float:
        return self.total_weight_elements * _FP32_BYTES

    @property
    def total_feature_map_bytes(self) -> float:
        return sum(layer.stash_bytes for layer in self.layers)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def add(self, layer: Layer) -> "LayerGraph":
        """Append a layer (fluent)."""
        names = self._names
        if len(names) != len(self.layers):
            # The list was extended directly.
            names = self._names = {existing.name for existing in self.layers}
        if layer.name in names:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        self.layers.append(layer)
        names.add(layer.name)
        return self

    def iteration_kernels(self) -> list:
        """All kernels of one training iteration, in execution order:
        forward pass, then backward pass in reverse layer order, then any
        extra (loss/auxiliary) kernels interleaved at the boundary."""
        kernels: list = []
        for layer in self.layers:
            kernels.extend(layer.forward_kernels)
        kernels.extend(self.extra_kernels)
        for layer in reversed(self.layers):
            kernels.extend(layer.backward_kernels)
        return kernels

    def iteration_flops(self) -> float:
        """FLOPs of one full training iteration."""
        return sum(k.flops for k in self.iteration_kernels())

    def dominant_layer_kind(self) -> str:
        """Layer family contributing the most FLOPs (Table 2's
        'Dominant Layer' column)."""
        totals: dict = {}
        for layer in self.layers:
            totals[layer.kind] = totals.get(layer.kind, 0.0) + layer.flops
        if not totals:
            return "none"
        return max(totals.items(), key=lambda item: item[1])[0]
