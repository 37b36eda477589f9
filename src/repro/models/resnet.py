"""ResNet (He et al., 2016) — bottleneck residual networks.

``build_resnet50`` is the TBD image-classification benchmark, one depth
of ``build_resnet_with_depth`` (the ``depth:<n>`` plan transform's
builder); ``resnet_conv_stack`` exposes the convolution trunk so Faster
R-CNN can reuse ResNet-101's stack as its shared feature extractor (paper
Table 2, footnote a).
"""

from __future__ import annotations

from repro.graph.layer import LayerGraph
from repro.graph.lowering import (
    activation_layer,
    batchnorm_layer,
    conv_layer,
    dense_layer,
    pool_layer,
    residual_add_layer,
    softmax_cross_entropy_kernels,
)
from repro.kernels.conv import ConvShape

#: Bottleneck block counts per stage.
RESNET_50_STAGES = (3, 4, 6, 3)
RESNET_101_STAGES = (3, 4, 23, 3)
_IMAGENET_CLASSES = 1000
#: Raw input bytes per ImageNet sample on the host (3x224x224 FP32 after
#: decode/augmentation).
_INPUT_ELEMENTS_PER_SAMPLE = 3 * 224 * 224


def _bottleneck(
    graph: LayerGraph,
    prefix: str,
    batch: int,
    in_channels: int,
    bottleneck_channels: int,
    out_channels: int,
    height: int,
    width: int,
    stride: int,
) -> tuple:
    """Append one bottleneck residual block; returns (channels, h, w)."""
    shape1 = ConvShape(batch, in_channels, bottleneck_channels, height, width, 1, 1, 1, 0)
    graph.add(conv_layer(f"{prefix}_conv1", shape1))
    elements1 = batch * bottleneck_channels * height * width
    graph.add(batchnorm_layer(f"{prefix}_bn1", elements1, bottleneck_channels))
    graph.add(activation_layer(f"{prefix}_relu1", elements1))

    shape2 = ConvShape(
        batch, bottleneck_channels, bottleneck_channels, height, width, 3, 3, stride, 1
    )
    graph.add(conv_layer(f"{prefix}_conv2", shape2))
    out_h, out_w = shape2.out_h, shape2.out_w
    elements2 = batch * bottleneck_channels * out_h * out_w
    graph.add(batchnorm_layer(f"{prefix}_bn2", elements2, bottleneck_channels))
    graph.add(activation_layer(f"{prefix}_relu2", elements2))

    shape3 = ConvShape(batch, bottleneck_channels, out_channels, out_h, out_w, 1, 1, 1, 0)
    graph.add(conv_layer(f"{prefix}_conv3", shape3))
    elements3 = batch * out_channels * out_h * out_w
    graph.add(batchnorm_layer(f"{prefix}_bn3", elements3, out_channels))

    if stride != 1 or in_channels != out_channels:
        shortcut = ConvShape(
            batch, in_channels, out_channels, height, width, 1, 1, stride, 0
        )
        graph.add(conv_layer(f"{prefix}_shortcut_conv", shortcut))
        graph.add(
            batchnorm_layer(f"{prefix}_shortcut_bn", elements3, out_channels)
        )
    graph.add(residual_add_layer(f"{prefix}_add", elements3))
    graph.add(activation_layer(f"{prefix}_relu3", elements3))
    return out_channels, out_h, out_w


def resnet_conv_stack(
    graph: LayerGraph,
    batch: int,
    height: int,
    width: int,
    stages,
    prefix: str = "res",
    stop_after_stage: int | None = None,
) -> tuple:
    """Append the ResNet convolution trunk (conv1 .. conv5) to ``graph``.

    Returns ``(channels, h, w)`` of the final feature map.  Faster R-CNN
    passes ``stop_after_stage=3`` to split the stack around ROI pooling.
    """
    stem = ConvShape(batch, 3, 64, height, width, 7, 7, 2, 3)
    graph.add(conv_layer(f"{prefix}_conv1", stem, first_layer=True))
    h, w = stem.out_h, stem.out_w
    stem_elements = batch * 64 * h * w
    graph.add(batchnorm_layer(f"{prefix}_conv1_bn", stem_elements, 64))
    graph.add(activation_layer(f"{prefix}_conv1_relu", stem_elements))
    pooled_h, pooled_w = (h + 1) // 2, (w + 1) // 2
    graph.add(
        pool_layer(
            f"{prefix}_pool1",
            stem_elements,
            batch * 64 * pooled_h * pooled_w,
        )
    )
    channels, h, w = 64, pooled_h, pooled_w

    bottleneck_channels = (64, 128, 256, 512)
    out_channels = (256, 512, 1024, 2048)
    for stage_index, block_count in enumerate(stages):
        if stop_after_stage is not None and stage_index >= stop_after_stage:
            break
        stride = 1 if stage_index == 0 else 2
        for block_index in range(block_count):
            block_stride = stride if block_index == 0 else 1
            channels, h, w = _bottleneck(
                graph,
                f"{prefix}{stage_index + 2}{chr(ord('a') + block_index)}",
                batch,
                channels,
                bottleneck_channels[stage_index],
                out_channels[stage_index],
                h,
                w,
                block_stride,
            )
    return channels, h, w


#: conv4 block count -> conventional name.
_NAMED_DEPTHS = {6: "ResNet-50", 23: "ResNet-101", 36: "ResNet-152"}


def build_resnet_with_depth(batch_size: int, conv4_blocks: int) -> LayerGraph:
    """A bottleneck ImageNet classifier with a variable conv4 stage — the
    axis along which ResNet-50 (6 blocks), ResNet-101 (23) and ResNet-152
    (36) differ, and the one Observation 12 spends freed memory on."""
    if conv4_blocks < 1:
        raise ValueError("need at least one conv4 block")
    # Weighted layers: 3 per bottleneck block, plus the stem conv and fc.
    layer_count = 3 * (3 + 4 + conv4_blocks + 3) + 2
    graph = LayerGraph(
        model_name=_NAMED_DEPTHS.get(conv4_blocks, f"ResNet-{layer_count}"),
        batch_size=batch_size,
        input_bytes=batch_size * _INPUT_ELEMENTS_PER_SAMPLE * 4,
    )
    channels, h, w = resnet_conv_stack(
        graph, batch_size, 224, 224, (3, 4, conv4_blocks, 3)
    )
    graph.add(
        pool_layer(
            "global_avgpool",
            batch_size * channels * h * w,
            batch_size * channels,
            window=h * w,
        )
    )
    graph.add(dense_layer("fc1000", batch_size, channels, _IMAGENET_CLASSES))
    graph.extra_kernels = softmax_cross_entropy_kernels(batch_size, _IMAGENET_CLASSES)
    return graph


def build_resnet50(batch_size: int) -> LayerGraph:
    """ResNet-50 on ImageNet-1K (224x224 inputs, 1000-way softmax)."""
    return build_resnet_with_depth(batch_size, RESNET_50_STAGES[2])
