"""The TBD model zoo: eight state-of-the-art models across six application
domains (paper Table 2), each expressed as a lowered layer graph.

============================  =====================  ==========================
Application                   Model                  Frameworks (paper)
============================  =====================  ==========================
Image classification          ResNet-50              TensorFlow, MXNet, CNTK
Image classification          Inception-v3           TensorFlow, MXNet, CNTK
Machine translation           Seq2Seq (NMT/Sockeye)  TensorFlow, MXNet
Machine translation           Transformer            TensorFlow
Object detection              Faster R-CNN           TensorFlow, MXNet
Speech recognition            Deep Speech 2          MXNet
Adversarial learning          WGAN                   TensorFlow
Deep reinforcement learning   A3C                    MXNet
============================  =====================  ==========================
"""

from repro.models.registry import (
    ModelSpec,
    get_model,
    model_catalog,
)

__all__ = ["ModelSpec", "get_model", "model_catalog"]
