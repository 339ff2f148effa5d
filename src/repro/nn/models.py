"""Evaluation-network builders: VGG-16, ResNet-18 and ResNet-34.

Same topologies as the paper's evaluation (Section V-A) — 13 conv layers
for VGG-16, 17 for ResNet-18, 33 for ResNet-34 — with a ``width``
multiplier so they train in minutes on a laptop-class CPU instead of
hours on a GPU.  READ's behaviour depends on weight sign statistics and
ReLU non-negativity, both preserved at reduced width; each experiment
scale (``repro.experiments.common.SCALES``) fixes the width its figures
run at.

The builders return a :class:`ClassifierNetwork`, which also knows how to
enumerate its convolution layers in execution order — the unit of Fig. 8's
layer-wise TER study and of the fault-injection pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from .layers import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    EncoderBlock,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    Module,
    PatchExtract,
    ReLU,
    Sequential,
    TokenLinear,
    TokenMean,
)

#: VGG-16 configuration: output channels per conv layer, 'M' = max-pool.
VGG16_LAYOUT = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M"]

#: Blocks per stage for the two ResNets (stage widths 64/128/256/512).
RESNET_STAGES = {"resnet18": (2, 2, 2, 2), "resnet34": (3, 4, 6, 3)}

#: MobileNet-style layout: (output channels, stride) per depthwise-
#: separable block, after a 3x3 stem (32x32-input variant — strides
#: replace the ImageNet version's aggressive early downsampling).
MOBILENET_LAYOUT = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1)]


@dataclass(frozen=True)
class ConvLayerInfo:
    """A convolution layer in execution order, for reliability studies."""

    index: int
    name: str
    module: Conv2d

    @property
    def weight(self) -> np.ndarray:
        return self.module.weight.data

    @property
    def kernel_area(self) -> int:
        return self.module.weight.data.shape[2] * self.module.weight.data.shape[3]


class ClassifierNetwork(Module):
    """A classification network = feature extractor + classifier head."""

    def __init__(self, name: str, features: Sequential, head: Sequential) -> None:
        self.name = name
        self.features = features
        self.head = head

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.head.forward(self.features.forward(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.features.backward(self.head.backward(grad_out))

    def conv_layers(self, include_shortcuts: bool = False) -> List[ConvLayerInfo]:
        """Convolution layers in execution order.

        Fig. 8 plots layer-wise TER over the *main-path* conv layers
        (1x1 projection shortcuts excluded by default, matching the
        paper's 17 layers for ResNet-18).
        """
        infos: List[ConvLayerInfo] = []
        for module in self.modules():
            if isinstance(module, Conv2d):
                if not include_shortcuts and "shortcut" in module.name:
                    continue
                infos.append(ConvLayerInfo(index=len(infos), name=module.name, module=module))
        return infos


def _scaled(channels: int, width: float) -> int:
    return max(4, int(round(channels * width)))


def build_vgg16(
    n_classes: int = 10,
    width: float = 0.25,
    in_channels: int = 3,
    seed: int = 0,
) -> ClassifierNetwork:
    """VGG-16 (13 conv + classifier) for 32x32 inputs, BN after each conv.

    ``width`` scales every channel count; 0.25 gives a net that trains on
    synthetic CIFAR-scale data in a couple of minutes while keeping the
    paper's depth and channel growth pattern.
    """
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    layers: List[Module] = []
    c_in = in_channels
    conv_idx = 0
    for item in VGG16_LAYOUT:
        if item == "M":
            layers.append(MaxPool2d(2))
            continue
        c_out = _scaled(int(item), width)
        layers.append(
            Conv2d(c_in, c_out, 3, stride=1, padding=1, bias=False, rng=rng,
                   name=f"conv{conv_idx}")
        )
        layers.append(BatchNorm2d(c_out, name=f"bn{conv_idx}"))
        layers.append(ReLU())
        c_in = c_out
        conv_idx += 1
    features = Sequential(layers)
    head = Sequential([Flatten(), Linear(c_in, n_classes, rng=rng, name="fc")])
    return ClassifierNetwork("vgg16", features, head)


def build_resnet(
    variant: str = "resnet18",
    n_classes: int = 10,
    width: float = 0.25,
    in_channels: int = 3,
    seed: int = 0,
) -> ClassifierNetwork:
    """ResNet-18/34 for 32x32 inputs (CIFAR-style stem: 3x3, no max-pool)."""
    if variant not in RESNET_STAGES:
        raise ConfigurationError(f"variant must be one of {sorted(RESNET_STAGES)}")
    rng = np.random.default_rng(seed)
    stage_blocks = RESNET_STAGES[variant]
    widths = [_scaled(c, width) for c in (64, 128, 256, 512)]

    layers: List[Module] = [
        Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng, name="conv0"),
        BatchNorm2d(widths[0], name="bn0"),
        ReLU(),
    ]
    c_in = widths[0]
    block_idx = 0
    for stage, (c_out, n_blocks) in enumerate(zip(widths, stage_blocks)):
        for b in range(n_blocks):
            stride = 2 if (stage > 0 and b == 0) else 1
            layers.append(
                BasicBlock(c_in, c_out, stride=stride, rng=rng, name=f"block{block_idx}")
            )
            c_in = c_out
            block_idx += 1
    features = Sequential(layers)
    head = Sequential([GlobalAvgPool(), Linear(c_in, n_classes, rng=rng, name="fc")])
    return ClassifierNetwork(variant, features, head)


def build_mobilenet(
    n_classes: int = 10,
    width: float = 0.25,
    in_channels: int = 3,
    seed: int = 0,
) -> ClassifierNetwork:
    """MobileNet-style depthwise-separable network for 32x32 inputs.

    A 3x3 stem followed by :data:`MOBILENET_LAYOUT` blocks of depthwise
    3x3 (``groups == channels``) + pointwise 1x1 convolutions, BN + ReLU
    after each — the workload family whose per-layer GEMMs are short
    (``Fy*Fx`` for depthwise, ``C`` for pointwise) and therefore exercise
    READ's reordering on reductions very unlike the dense VGG/ResNet
    layers.
    """
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    c_in = _scaled(32, width)
    layers: List[Module] = [
        Conv2d(in_channels, c_in, 3, stride=1, padding=1, bias=False, rng=rng, name="conv0"),
        BatchNorm2d(c_in, name="bn0"),
        ReLU(),
    ]
    for i, (channels, stride) in enumerate(MOBILENET_LAYOUT, start=1):
        c_out = _scaled(channels, width)
        layers += [
            Conv2d(c_in, c_in, 3, stride=stride, padding=1, bias=False,
                   groups=c_in, rng=rng, name=f"dw{i}"),
            BatchNorm2d(c_in, name=f"dw{i}_bn"),
            ReLU(),
            Conv2d(c_in, c_out, 1, stride=1, padding=0, bias=False, rng=rng, name=f"pw{i}"),
            BatchNorm2d(c_out, name=f"pw{i}_bn"),
            ReLU(),
        ]
        c_in = c_out
    features = Sequential(layers)
    head = Sequential([GlobalAvgPool(), Linear(c_in, n_classes, rng=rng, name="fc")])
    return ClassifierNetwork("mobilenet", features, head)


#: Mixer/ViT recipe shape: patch size and encoder depth for 32x32 inputs.
MIXER_PATCH = 8
MIXER_DEPTH = 2


def build_mixer(
    n_classes: int = 10,
    width: float = 0.25,
    in_channels: int = 3,
    seed: int = 0,
) -> ClassifierNetwork:
    """A tiny single-head ViT for 32x32 inputs (the transformer recipe).

    ``PatchExtract(8)`` turns a 32x32 image into 16 tokens, a
    :class:`TokenLinear` embeds them, and :data:`MIXER_DEPTH` pre-norm
    encoder blocks (single-head attention + ReLU MLP) mix them; the head
    mean-pools tokens into a :class:`Linear` classifier.  Every GEMM —
    embed, q/k/v/proj, FFN, and the two runtime activation-activation
    products per block (``QK^T``, ``attention @ V``) — lowers onto the
    systolic array via the quantized matmul path, which is the point:
    attention operand statistics are signed, unlike post-ReLU conv
    activations, so READ-reorder applicability must be measured, not
    assumed.
    """
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    d_in = in_channels * MIXER_PATCH * MIXER_PATCH
    dim = _scaled(128, width)
    layers: List[Module] = [
        PatchExtract(MIXER_PATCH),
        TokenLinear(d_in, dim, rng=rng, name="embed"),
    ]
    for i in range(MIXER_DEPTH):
        layers.append(EncoderBlock(dim, 2 * dim, rng=rng, name=f"block{i}"))
    features = Sequential(layers)
    head = Sequential([TokenMean(), Linear(dim, n_classes, rng=rng, name="fc")])
    return ClassifierNetwork("mixer", features, head)


def build_model(
    name: str,
    n_classes: int = 10,
    width: float = 0.25,
    in_channels: int = 3,
    seed: int = 0,
) -> ClassifierNetwork:
    """Dispatch on model name: ``vgg16`` / ``resnet18`` / ``resnet34`` / ``mobilenet`` / ``mixer``."""
    if name == "vgg16":
        return build_vgg16(n_classes=n_classes, width=width, in_channels=in_channels, seed=seed)
    if name == "mobilenet":
        return build_mobilenet(
            n_classes=n_classes, width=width, in_channels=in_channels, seed=seed
        )
    if name == "mixer":
        return build_mixer(n_classes=n_classes, width=width, in_channels=in_channels, seed=seed)
    if name in RESNET_STAGES:
        return build_resnet(
            variant=name, n_classes=n_classes, width=width, in_channels=in_channels, seed=seed
        )
    raise ConfigurationError(f"unknown model {name!r}")
