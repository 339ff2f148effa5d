"""Numpy DNN substrate: layers, models, training, quantization, datasets.

Replaces the paper's PyTorch stack (offline environment): float training
with hand-written backprop, the paper's three evaluation topologies at a
configurable width, synthetic stand-ins for CIFAR-10/100 and ImageNet,
and int8 post-training quantization with integer inference exposing the
MAC accumulators to fault injection.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "functional": ("functional",),
        "datasets": (
            "DATASET_SPECS",
            "DatasetSpec",
            "SyntheticImageDataset",
            "load_dataset",
        ),
        "layers": (
            "BasicBlock",
            "BatchNorm2d",
            "Conv2d",
            "Flatten",
            "GlobalAvgPool",
            "Linear",
            "MaxPool2d",
            "Module",
            "Parameter",
            "ReLU",
            "Sequential",
        ),
        "models": (
            "RESNET_STAGES",
            "VGG16_LAYOUT",
            "ClassifierNetwork",
            "ConvLayerInfo",
            "build_model",
            "build_resnet",
            "build_vgg16",
        ),
        "regularizers": (
            "CompositeRegularizer",
            "NegativeWeightPenalty",
            "SignCoherencePenalty",
            "WeightRegularizer",
            "read_friendly_regularizer",
        ),
        "quantize": (
            "QuantizedConv",
            "QuantizedNetwork",
            "fold_batchnorm",
            "quantize_weights",
        ),
        "training": (
            "SgdMomentum",
            "Trainer",
            "TrainHistory",
        ),
    },
)
