"""DNN workload definitions.

The paper expresses every matrix-multiplication and convolution layer with
seven problem dimensions (Section 3.1.1): R and S (weight height/width), P and
Q (output activation height/width), C (input channels), K (output channels)
and N (batch).  This package provides the :class:`LayerDims` representation,
constructors for conv/matmul layers, and the full target and training network
definitions of Table 6.
"""

from repro.workloads.layer import (
    DIMENSIONS,
    WEIGHT_DIMS,
    INPUT_DIMS,
    OUTPUT_DIMS,
    LayerDims,
    conv2d_layer,
    matmul_layer,
)
from repro.workloads.networks import (
    Network,
    alexnet,
    vgg16,
    resnext50_32x4d,
    deepbench_subset,
    resnet50,
    bert_base,
    unet,
    retinanet_heads,
    training_networks,
    target_networks,
    get_network,
    NETWORK_BUILDERS,
)

__all__ = [
    "DIMENSIONS",
    "WEIGHT_DIMS",
    "INPUT_DIMS",
    "OUTPUT_DIMS",
    "LayerDims",
    "conv2d_layer",
    "matmul_layer",
    "Network",
    "alexnet",
    "vgg16",
    "resnext50_32x4d",
    "deepbench_subset",
    "resnet50",
    "bert_base",
    "unet",
    "retinanet_heads",
    "training_networks",
    "target_networks",
    "get_network",
    "NETWORK_BUILDERS",
]
