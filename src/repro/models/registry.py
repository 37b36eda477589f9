"""The TBD model registry — paper Table 2 as an executable catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.models.a3c import EMULATOR_STEP_SECONDS, build_a3c
from repro.models.deepspeech import build_deep_speech2
from repro.models.faster_rcnn import build_faster_rcnn
from repro.models.inception import build_inception_v3
from repro.models.resnet import build_resnet50
from repro.models.seq2seq import build_nmt, build_sockeye
from repro.models.transformer import build_transformer
from repro.models.wgan import build_wgan


@dataclass(frozen=True)
class ModelSpec:
    """One benchmark entry of the TBD suite.

    Attributes:
        key: registry key (``resnet-50``…).
        display_name: Table 2 model name.
        application: application domain (Table 2, first column).
        paper_layer_count: Table 2's layer count.
        dominant_layer: Table 2's dominant layer type.
        frameworks: framework keys with implementations (Table 2).
        dataset: dataset registry key (Table 3).
        batch_sizes: mini-batch sweep matching the paper's figures.
        reference_batch: batch used in single-point comparisons
            (Figs. 7/8, Tables 5/6).
        build: ``(batch_size) -> LayerGraph`` factory.
        throughput_unit: unit the paper reports (Section 3.4.3).
        host_cpu_core_seconds: per-framework CPU core-seconds of
            framework-side per-iteration work beyond dispatch + pipeline
            (e.g. Faster R-CNN's CPU proposal stage, per-step RNN frontends).
        host_cpu_overlap: fraction of that host work hidden behind GPU
            compute.
        env_cpu_core_seconds_per_sample: CPU core-seconds per *sample* for
            environment simulation (A3C's Atari emulator workers).
        env_cpu_threads: worker threads the environment load spreads over;
            its wall-clock contribution is serial with GPU work.
    """

    key: str
    display_name: str
    application: str
    paper_layer_count: int
    dominant_layer: str
    frameworks: tuple
    dataset: str
    batch_sizes: tuple
    reference_batch: int
    build: object
    throughput_unit: str = "samples/s"
    host_cpu_core_seconds: dict = field(default_factory=dict)
    host_cpu_overlap: float = 0.9
    env_cpu_core_seconds_per_sample: float = 0.0
    env_cpu_threads: int = 8
    #: Scales the dataset's per-sample decode cost when the batch unit is
    #: not one dataset sample (Transformer batches are counted in tokens).
    pipeline_cost_scale: float = 1.0
    notes: str = ""

    def __post_init__(self) -> None:
        if self.reference_batch not in self.batch_sizes:
            raise ValueError(
                f"{self.key}: reference batch {self.reference_batch} not in "
                f"sweep {self.batch_sizes}"
            )
        if not 0.0 <= self.host_cpu_overlap <= 1.0:
            raise ValueError(f"{self.key}: host_cpu_overlap must be in [0, 1]")

    def supports(self, framework_key: str) -> bool:
        """True if the paper has an implementation on that framework."""
        return framework_key.lower() in self.frameworks

    def host_cpu_cost(self, framework_key: str) -> float:
        """Framework-side host CPU core-seconds per iteration."""
        return self.host_cpu_core_seconds.get(framework_key.lower(), 0.0)


RESNET_50 = ModelSpec(
    key="resnet-50",
    display_name="ResNet-50",
    application="Image classification",
    paper_layer_count=50,
    dominant_layer="CONV",
    frameworks=("tensorflow", "mxnet", "cntk"),
    dataset="imagenet1k",
    batch_sizes=(4, 8, 16, 32, 64),
    reference_batch=32,
    build=build_resnet50,
)

INCEPTION_V3 = ModelSpec(
    key="inception-v3",
    display_name="Inception-v3",
    application="Image classification",
    paper_layer_count=42,
    dominant_layer="CONV",
    frameworks=("tensorflow", "mxnet", "cntk"),
    dataset="imagenet1k",
    batch_sizes=(4, 8, 16, 32, 64),
    reference_batch=32,
    build=build_inception_v3,
)

NMT = ModelSpec(
    key="nmt",
    display_name="NMT",
    application="Machine translation",
    paper_layer_count=5,
    dominant_layer="LSTM",
    frameworks=("tensorflow",),
    dataset="iwslt15",
    batch_sizes=(4, 8, 16, 32, 64, 128),
    reference_batch=128,
    build=build_nmt,
    host_cpu_core_seconds={"tensorflow": 0.45},
    notes="TensorFlow implementation of Seq2Seq",
)

SOCKEYE = ModelSpec(
    key="sockeye",
    display_name="Sockeye",
    application="Machine translation",
    paper_layer_count=5,
    dominant_layer="LSTM",
    frameworks=("mxnet",),
    dataset="iwslt15",
    batch_sizes=(4, 8, 16, 32, 64),
    reference_batch=64,
    build=build_sockeye,
    host_cpu_core_seconds={"mxnet": 0.40},
    notes="MXNet implementation of Seq2Seq",
)

TRANSFORMER = ModelSpec(
    key="transformer",
    display_name="Transformer",
    application="Machine translation",
    paper_layer_count=12,
    dominant_layer="Attention",
    frameworks=("tensorflow",),
    dataset="iwslt15",
    batch_sizes=(64, 256, 1024, 2048, 4096),
    reference_batch=2048,
    build=build_transformer,
    throughput_unit="tokens/s",
    host_cpu_core_seconds={"tensorflow": 0.05},
    # The batch unit is tokens; host decode cost is per sentence pair
    # (~50 tokens), not per token.
    pipeline_cost_scale=1.0 / 50.0,
)

FASTER_RCNN = ModelSpec(
    key="faster-rcnn",
    display_name="Faster R-CNN",
    application="Object detection",
    paper_layer_count=101,
    dominant_layer="CONV",
    frameworks=("tensorflow", "mxnet"),
    dataset="voc2007",
    batch_sizes=(1,),
    reference_batch=1,
    build=build_faster_rcnn,
    host_cpu_core_seconds={"tensorflow": 1.45, "mxnet": 0.35},
    host_cpu_overlap=0.93,
    notes="ResNet-101 conv stack shared between RPN and detection network",
)

DEEP_SPEECH_2 = ModelSpec(
    key="deep-speech-2",
    display_name="Deep Speech 2",
    application="Speech recognition",
    paper_layer_count=9,
    dominant_layer="RNN",
    frameworks=("mxnet",),
    dataset="librispeech",
    batch_sizes=(1, 2, 3, 4),
    reference_batch=4,
    build=build_deep_speech2,
    throughput_unit="audio seconds/s",
    # The bucketing iterator, spectrogram pipeline and the MXNet engine
    # thread keep ~1 core busy across the very long iteration.
    host_cpu_core_seconds={"mxnet": 14.0},
    host_cpu_overlap=0.98,
    notes="5 RNN layers (MXNet default) instead of the official 7, "
    "due to GPU memory limits",
)

WGAN = ModelSpec(
    key="wgan",
    display_name="WGAN",
    application="Adversarial learning",
    paper_layer_count=28,
    dominant_layer="CONV",
    frameworks=("tensorflow",),
    dataset="downsampled-imagenet",
    batch_sizes=(4, 8, 16, 32, 64),
    reference_batch=64,
    build=build_wgan,
    host_cpu_core_seconds={"tensorflow": 0.05},
    notes="generator and critic are 4-residual-block CNNs (14+14 layers)",
)

A3C = ModelSpec(
    key="a3c",
    display_name="A3C",
    application="Deep reinforcement learning",
    paper_layer_count=4,
    dominant_layer="CONV",
    frameworks=("mxnet",),
    dataset="atari2600",
    batch_sizes=(8, 16, 32, 64, 128),
    reference_batch=128,
    build=build_a3c,
    env_cpu_core_seconds_per_sample=48e-3,
    env_cpu_threads=8,
    notes=f"Atari emulator step ~{EMULATOR_STEP_SECONDS * 1e3:.1f} ms/frame "
    "plus Python actor overhead dominates; GPU kernels are tiny",
)

_CATALOG = {
    spec.key: spec
    for spec in (
        RESNET_50,
        INCEPTION_V3,
        NMT,
        SOCKEYE,
        TRANSFORMER,
        FASTER_RCNN,
        DEEP_SPEECH_2,
        WGAN,
        A3C,
    )
}

# ----------------------------------------------------------------------
# Extensions beyond the Table 2 suite: the YOLO9000 addition the paper
# plans (Section 3.1.2) and the AlexNet historical anchor (Section 2.2).
# They resolve through get_model() but stay out of model_catalog(), so the
# paper's tables/figures are unchanged.
# ----------------------------------------------------------------------

from repro.models.alexnet import build_alexnet  # noqa: E402
from repro.models.yolo import build_yolo_v2  # noqa: E402

YOLO_V2 = ModelSpec(
    key="yolo-v2",
    display_name="YOLOv2",
    application="Object detection",
    paper_layer_count=19,
    dominant_layer="CONV",
    frameworks=("tensorflow", "mxnet"),
    dataset="voc2007",
    batch_sizes=(4, 8, 16, 32),
    reference_batch=16,
    build=build_yolo_v2,
    notes="planned suite addition (paper Section 3.1.2); single-shot "
    "detector, trains with ordinary mini-batches unlike Faster R-CNN",
)

ALEXNET = ModelSpec(
    key="alexnet",
    display_name="AlexNet",
    application="Image classification",
    paper_layer_count=8,
    dominant_layer="CONV",
    frameworks=("tensorflow", "mxnet", "cntk"),
    dataset="imagenet1k",
    batch_sizes=(32, 64, 128),
    reference_batch=128,
    build=build_alexnet,
    notes="historical anchor (Section 2.2): trained on two GTX 580s over "
    "six days in 2012",
)

_EXTENSIONS = {spec.key: spec for spec in (YOLO_V2, ALEXNET)}

_ALIASES = {
    "yolo": "yolo-v2",
    "yolo9000": "yolo-v2",
    "resnet50": "resnet-50",
    "resnet": "resnet-50",
    "inception": "inception-v3",
    "inceptionv3": "inception-v3",
    "seq2seq": "nmt",
    "deepspeech2": "deep-speech-2",
    "deep speech 2": "deep-speech-2",
    "ds2": "deep-speech-2",
    "fasterrcnn": "faster-rcnn",
    "faster r-cnn": "faster-rcnn",
}


def model_catalog() -> dict:
    """The Table 2 suite models keyed by registry key, in paper order."""
    return dict(_CATALOG)


def extension_catalog() -> dict:
    """Models beyond the paper's suite (YOLOv2, AlexNet)."""
    return dict(_EXTENSIONS)


def get_model(key: str) -> ModelSpec:
    """Look up a model by key or alias (case-insensitive)."""
    normalized = key.strip().lower()
    normalized = _ALIASES.get(normalized, normalized)
    if normalized in _CATALOG:
        return _CATALOG[normalized]
    if normalized in _EXTENSIONS:
        return _EXTENSIONS[normalized]
    known = ", ".join(list(_CATALOG) + list(_EXTENSIONS))
    raise KeyError(f"unknown model {key!r}; known: {known}")


# Five graphs hold one model's paper sweep (the five batches of ResNet-50
# and Inception-v3, the only models with three frameworks, which a sweep
# visits framework by framework) and the autotuner's base graph plus its
# depth variants.  At eight, a cold paper-grid sweep's peak RSS grew by
# 0.5 MiB; at five it did not move.  ``typed``: a batch of 32.0 builds
# its own graph, as it did before the memo.
@lru_cache(maxsize=5, typed=True)
def shared_graph(build, *args):
    """``build(*args)``, built once per process while it stays among the
    five most recently used graphs.

    A model's layer graph at a batch size does not depend on the
    framework or the device, so every session of one (model, batch), and
    every depth variant the autotuner revisits, compiles one graph
    object.  That graph is a shared, read-only value (see
    :class:`~repro.graph.layer.LayerGraph`).  Builders emit no spans or
    metrics, so the memo cannot change exported telemetry.  Whoever
    patches a module constant a builder reads (the GEMM tile size) calls
    ``shared_graph.cache_clear()`` after the patch and again after
    restoring it.
    """
    return build(*args)
