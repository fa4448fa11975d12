"""Network definitions for the training and target workloads of Table 6.

Target workloads (evaluated by DOSA): BERT, ResNet-50, RetinaNet (layers not
in its ResNet backbone) and U-Net.  Training workloads (used to fit the
DNN-based latency-difference predictor): AlexNet, ResNeXt-50 (32x4d), VGG-16
and a DeepBench subset (OCR and face-recognition GEMMs).

Layer dimensions follow the standard ImageNet/SQuAD-style shapes used by the
published architectures.  Layers with identical dimensions are de-duplicated;
the repetition count multiplies that layer's energy and latency when a whole
network is evaluated (paper Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.workloads.layer import LayerDims, conv2d_layer, matmul_layer


@dataclass
class Network:
    """A named collection of layers with de-duplicated repetition counts."""

    name: str
    layers: list[LayerDims] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"network {self.name!r} has no layers")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @property
    def total_macs(self) -> int:
        """Total MACs across the network, accounting for layer repetitions."""
        return sum(layer.macs * layer.repeats for layer in self.layers)

    @property
    def num_unique_layers(self) -> int:
        return len(self.layers)

    @property
    def num_layer_instances(self) -> int:
        """Number of layer executions including repetitions."""
        return sum(layer.repeats for layer in self.layers)

    def describe(self) -> str:
        lines = [f"{self.name}: {self.num_unique_layers} unique layers, "
                 f"{self.num_layer_instances} instances, {self.total_macs:,} MACs"]
        lines.extend(f"  {layer}" for layer in self.layers)
        return "\n".join(lines)


def _deduplicate(name: str, layers: Iterable[LayerDims]) -> Network:
    """Merge layers with identical dimensions, summing their repeat counts."""
    merged: dict[tuple[int, ...], LayerDims] = {}
    order: list[tuple[int, ...]] = []
    for layer in layers:
        key = layer.dims_key()
        if key in merged:
            existing = merged[key]
            merged[key] = existing.with_repeats(existing.repeats + layer.repeats)
        else:
            merged[key] = layer
            order.append(key)
    return Network(name=name, layers=[merged[key] for key in order])


# --------------------------------------------------------------------------- #
# Target workloads
# --------------------------------------------------------------------------- #
def resnet50() -> Network:
    """ResNet-50 (He et al., 2016) for 224x224 ImageNet inputs."""
    layers: list[LayerDims] = [
        conv2d_layer(3, 64, 112, kernel_size=7, stride=2, name="conv1"),
    ]

    def bottleneck_stage(stage: str, in_ch: int, mid_ch: int, out_ch: int,
                         size: int, blocks: int, first_stride: int) -> None:
        # First block: projection shortcut plus strided 3x3.
        layers.append(conv2d_layer(in_ch, mid_ch, size, kernel_size=1,
                                   stride=first_stride,
                                   name=f"{stage}_b1_conv1x1_reduce"))
        layers.append(conv2d_layer(mid_ch, mid_ch, size, kernel_size=3,
                                   name=f"{stage}_b1_conv3x3"))
        layers.append(conv2d_layer(mid_ch, out_ch, size, kernel_size=1,
                                   name=f"{stage}_b1_conv1x1_expand"))
        layers.append(conv2d_layer(in_ch, out_ch, size, kernel_size=1,
                                   stride=first_stride,
                                   name=f"{stage}_b1_shortcut"))
        # Remaining identity blocks share dimensions, so use repeats.
        if blocks > 1:
            layers.append(conv2d_layer(out_ch, mid_ch, size, kernel_size=1,
                                       name=f"{stage}_bN_conv1x1_reduce",
                                       repeats=blocks - 1))
            layers.append(conv2d_layer(mid_ch, mid_ch, size, kernel_size=3,
                                       name=f"{stage}_bN_conv3x3", repeats=blocks - 1))
            layers.append(conv2d_layer(mid_ch, out_ch, size, kernel_size=1,
                                       name=f"{stage}_bN_conv1x1_expand",
                                       repeats=blocks - 1))

    bottleneck_stage("conv2", 64, 64, 256, 56, blocks=3, first_stride=1)
    bottleneck_stage("conv3", 256, 128, 512, 28, blocks=4, first_stride=2)
    bottleneck_stage("conv4", 512, 256, 1024, 14, blocks=6, first_stride=2)
    bottleneck_stage("conv5", 1024, 512, 2048, 7, blocks=3, first_stride=2)
    layers.append(matmul_layer(1, 2048, 1000, name="fc1000"))
    return _deduplicate("resnet50", layers)


def bert_base() -> Network:
    """BERT-base encoder (12 layers, hidden 768, 12 heads) as GEMM layers."""
    sequence_length = 512
    hidden = 768
    heads = 12
    head_dim = hidden // heads
    ffn = 4 * hidden
    num_layers = 12
    layers = [
        matmul_layer(sequence_length, hidden, hidden,
                     name="qkv_projection", repeats=3 * num_layers),
        matmul_layer(sequence_length, head_dim, sequence_length,
                     name="attention_scores", repeats=heads * num_layers),
        matmul_layer(sequence_length, sequence_length, head_dim,
                     name="attention_context", repeats=heads * num_layers),
        matmul_layer(sequence_length, hidden, hidden,
                     name="attention_output", repeats=num_layers),
        matmul_layer(sequence_length, hidden, ffn,
                     name="ffn_up", repeats=num_layers),
        matmul_layer(sequence_length, ffn, hidden,
                     name="ffn_down", repeats=num_layers),
    ]
    return _deduplicate("bert", layers)


def unet() -> Network:
    """2-D U-Net (Ronneberger et al., 2015) encoder-decoder for segmentation."""
    input_size = 256
    base_channels = 64
    layers: list[LayerDims] = []
    channels = [base_channels * (2**i) for i in range(5)]  # 64..1024
    size = input_size
    in_ch = 1
    # Contracting path: two 3x3 convs per level, then 2x2 downsample.
    for level, ch in enumerate(channels):
        layers.append(conv2d_layer(in_ch, ch, size, kernel_size=3,
                                   name=f"enc{level}_conv1"))
        layers.append(conv2d_layer(ch, ch, size, kernel_size=3,
                                   name=f"enc{level}_conv2"))
        in_ch = ch
        if level < len(channels) - 1:
            size //= 2
    # Expanding path: upsample (2x2 transposed conv), concatenate skip, two 3x3 convs.
    for level in range(len(channels) - 2, -1, -1):
        size *= 2
        up_out = channels[level]
        layers.append(conv2d_layer(in_ch, up_out, size, kernel_size=2,
                                   name=f"dec{level}_upconv"))
        layers.append(conv2d_layer(up_out * 2, up_out, size, kernel_size=3,
                                   name=f"dec{level}_conv1"))
        layers.append(conv2d_layer(up_out, up_out, size, kernel_size=3,
                                   name=f"dec{level}_conv2"))
        in_ch = up_out
    layers.append(conv2d_layer(base_channels, 2, input_size, kernel_size=1,
                               name="segmentation_head"))
    return _deduplicate("unet", layers)


def retinanet_heads() -> Network:
    """RetinaNet layers outside its ResNet backbone: FPN plus class/box subnets.

    The paper evaluates RetinaNet "on layers that are not part of its ResNet
    backbone" (Table 6), i.e. the feature pyramid laterals/outputs and the
    classification and box regression heads shared across pyramid levels
    P3-P7.
    """
    input_size = 640
    num_classes = 80
    anchors = 9
    fpn_channels = 256
    backbone_channels = {8: 512, 16: 1024, 32: 2048}  # C3, C4, C5 strides
    pyramid_sizes = [input_size // stride for stride in (8, 16, 32, 64, 128)]
    layers: list[LayerDims] = []
    # Lateral 1x1 convs from backbone feature maps C3-C5.
    for stride, ch in backbone_channels.items():
        layers.append(conv2d_layer(ch, fpn_channels, input_size // stride, kernel_size=1,
                                   name=f"fpn_lateral_s{stride}"))
    # 3x3 output convs on P3-P5, plus P6/P7 convs.
    for size in pyramid_sizes[:3]:
        layers.append(conv2d_layer(fpn_channels, fpn_channels, size, kernel_size=3,
                                   name=f"fpn_output_{size}"))
    layers.append(conv2d_layer(2048, fpn_channels, pyramid_sizes[3], kernel_size=3, stride=2,
                               name="fpn_p6"))
    layers.append(conv2d_layer(fpn_channels, fpn_channels, pyramid_sizes[4], kernel_size=3,
                               stride=2, name="fpn_p7"))
    # Classification and box subnets: four 3x3 convs plus a prediction conv,
    # applied at each of the five pyramid levels.
    for size in pyramid_sizes:
        layers.append(conv2d_layer(fpn_channels, fpn_channels, size, kernel_size=3,
                                   name=f"subnet_conv_{size}", repeats=8))
        layers.append(conv2d_layer(fpn_channels, anchors * num_classes, size, kernel_size=3,
                                   name=f"cls_pred_{size}"))
        layers.append(conv2d_layer(fpn_channels, anchors * 4, size, kernel_size=3,
                                   name=f"box_pred_{size}"))
    return _deduplicate("retinanet", layers)


# --------------------------------------------------------------------------- #
# Training workloads (for the DNN latency-difference predictor)
# --------------------------------------------------------------------------- #
def alexnet() -> Network:
    """AlexNet (Krizhevsky et al., 2012)."""
    layers = [
        conv2d_layer(3, 64, 55, kernel_size=11, stride=4, name="conv1"),
        conv2d_layer(64, 192, 27, kernel_size=5, name="conv2"),
        conv2d_layer(192, 384, 13, kernel_size=3, name="conv3"),
        conv2d_layer(384, 256, 13, kernel_size=3, name="conv4"),
        conv2d_layer(256, 256, 13, kernel_size=3, name="conv5"),
        matmul_layer(1, 9216, 4096, name="fc6"),
        matmul_layer(1, 4096, 4096, name="fc7"),
        matmul_layer(1, 4096, 1000, name="fc8"),
    ]
    return _deduplicate("alexnet", layers)


def vgg16() -> Network:
    """VGG-16 (Simonyan & Zisserman, 2014)."""
    cfg = [
        (3, 64, 224), (64, 64, 224),
        (64, 128, 112), (128, 128, 112),
        (128, 256, 56), (256, 256, 56), (256, 256, 56),
        (256, 512, 28), (512, 512, 28), (512, 512, 28),
        (512, 512, 14), (512, 512, 14), (512, 512, 14),
    ]
    layers = [
        conv2d_layer(in_ch, out_ch, size, kernel_size=3,
                     name=f"conv_{i}")
        for i, (in_ch, out_ch, size) in enumerate(cfg)
    ]
    layers.extend([
        matmul_layer(1, 25088, 4096, name="fc1"),
        matmul_layer(1, 4096, 4096, name="fc2"),
        matmul_layer(1, 4096, 1000, name="fc3"),
    ])
    return _deduplicate("vgg16", layers)


def resnext50_32x4d() -> Network:
    """ResNeXt-50 (32x4d).  Grouped 3x3 convolutions are expressed per group
    (C and K divided by the 32 groups) with the group count folded into the
    layer repetition."""
    groups = 32
    layers: list[LayerDims] = [
        conv2d_layer(3, 64, 112, kernel_size=7, stride=2, name="conv1"),
    ]

    def stage(name: str, in_ch: int, width: int, out_ch: int, size: int,
              blocks: int, first_stride: int) -> None:
        group_width = width // groups
        layers.append(conv2d_layer(in_ch, width, size, kernel_size=1, stride=first_stride,
                                   name=f"{name}_b1_reduce"))
        layers.append(conv2d_layer(group_width, group_width, size, kernel_size=3,
                                   name=f"{name}_b1_grouped3x3", repeats=groups))
        layers.append(conv2d_layer(width, out_ch, size, kernel_size=1,
                                   name=f"{name}_b1_expand"))
        layers.append(conv2d_layer(in_ch, out_ch, size, kernel_size=1, stride=first_stride,
                                   name=f"{name}_b1_shortcut"))
        if blocks > 1:
            layers.append(conv2d_layer(out_ch, width, size, kernel_size=1,
                                       name=f"{name}_bN_reduce", repeats=blocks - 1))
            layers.append(conv2d_layer(group_width, group_width, size, kernel_size=3,
                                       name=f"{name}_bN_grouped3x3",
                                       repeats=groups * (blocks - 1)))
            layers.append(conv2d_layer(width, out_ch, size, kernel_size=1,
                                       name=f"{name}_bN_expand", repeats=blocks - 1))

    stage("conv2", 64, 128, 256, 56, blocks=3, first_stride=1)
    stage("conv3", 256, 256, 512, 28, blocks=4, first_stride=2)
    stage("conv4", 512, 512, 1024, 14, blocks=6, first_stride=2)
    stage("conv5", 1024, 1024, 2048, 7, blocks=3, first_stride=2)
    layers.append(matmul_layer(1, 2048, 1000, name="fc1000"))
    return _deduplicate("resnext50_32x4d", layers)


def deepbench_subset() -> Network:
    """A subset of Baidu DeepBench inference GEMMs and convolutions.

    The OCR and face-recognition entries used by the paper as additional
    training-set diversity: large skinny GEMMs plus a few mid-size convs.
    """
    layers = [
        # OCR-style GEMMs (RNN/attention projections).
        matmul_layer(5124, 700, 2048, name="ocr_gemm_1"),
        matmul_layer(35, 700, 2048, name="ocr_gemm_2"),
        matmul_layer(3072, 1024, 1024, name="ocr_gemm_3"),
        matmul_layer(512, 2816, 1024, name="ocr_gemm_4"),
        matmul_layer(512, 2048, 1024, name="ocr_gemm_5"),
        # Face-recognition style convolutions (DeepBench "Face Recognition").
        conv2d_layer(64, 64, 56, kernel_size=3, name="face_conv_1"),
        conv2d_layer(128, 128, 28, kernel_size=3, name="face_conv_2"),
        conv2d_layer(256, 256, 14, kernel_size=3, name="face_conv_3"),
        conv2d_layer(512, 512, 7, kernel_size=3, name="face_conv_4"),
        conv2d_layer(3, 64, 112, kernel_size=7, stride=2, name="face_stem"),
    ]
    return _deduplicate("deepbench", layers)


# --------------------------------------------------------------------------- #
# Additional workloads (not part of the paper's Table 6)
# --------------------------------------------------------------------------- #
def mobilenet_v2() -> Network:
    """MobileNet-V2 for 224x224 inputs, with depthwise stages lowered per-channel.

    Included beyond the paper's workload set because its depthwise separable
    convolutions stress the mapper very differently from ResNet-style blocks
    (C=1 depthwise layers have no input-channel parallelism for the WS
    dataflow to exploit).
    """
    layers: list[LayerDims] = [
        conv2d_layer(3, 32, 112, kernel_size=3, stride=2, name="stem"),
    ]

    # (expansion, out_channels, blocks, stride, output size after the stage)
    inverted_residuals = [
        (1, 16, 1, 1, 112),
        (6, 24, 2, 2, 56),
        (6, 32, 3, 2, 28),
        (6, 64, 4, 2, 14),
        (6, 96, 3, 1, 14),
        (6, 160, 3, 2, 7),
        (6, 320, 1, 1, 7),
    ]
    in_ch = 32
    for expansion, out_ch, blocks, stride, size in inverted_residuals:
        hidden = in_ch * expansion
        if expansion != 1:
            layers.append(conv2d_layer(in_ch, hidden, size * stride if stride > 1 else size,
                                       kernel_size=1,
                                       name=f"expand_{out_ch}", repeats=1))
        # Depthwise 3x3 lowered to per-channel C=1 convolutions; the channel
        # count is absorbed into the repetition count.
        layers.append(conv2d_layer(1, 1, size, kernel_size=3, stride=stride,
                                   name=f"depthwise_{out_ch}", repeats=hidden))
        layers.append(conv2d_layer(hidden, out_ch, size, kernel_size=1,
                                   name=f"project_{out_ch}"))
        if blocks > 1:
            hidden = out_ch * expansion
            layers.append(conv2d_layer(out_ch, hidden, size, kernel_size=1,
                                       name=f"expand_{out_ch}_rest", repeats=blocks - 1))
            layers.append(conv2d_layer(1, 1, size, kernel_size=3,
                                       name=f"depthwise_{out_ch}_rest",
                                       repeats=hidden * (blocks - 1)))
            layers.append(conv2d_layer(hidden, out_ch, size, kernel_size=1,
                                       name=f"project_{out_ch}_rest", repeats=blocks - 1))
        in_ch = out_ch
    layers.append(conv2d_layer(320, 1280, 7, kernel_size=1, name="head_conv"))
    layers.append(matmul_layer(1, 1280, 1000, name="classifier"))
    return _deduplicate("mobilenet_v2", layers)


def gpt2_decoder() -> Network:
    """A GPT-2-small-style decoder stack expressed as GEMM layers.

    Included beyond the paper's workload set as a larger-sequence transformer
    target; useful for exercising the mapper on long, skinny GEMMs.
    """
    sequence_length = 1024
    hidden = 768
    num_layers = 12
    heads = hidden // 64
    head_dim = hidden // heads
    ffn = 4 * hidden
    layers = [
        matmul_layer(sequence_length, hidden, 3 * hidden,
                     name="qkv_fused", repeats=num_layers),
        matmul_layer(sequence_length, head_dim, sequence_length,
                     name="attention_scores", repeats=heads * num_layers),
        matmul_layer(sequence_length, sequence_length, head_dim,
                     name="attention_context", repeats=heads * num_layers),
        matmul_layer(sequence_length, hidden, hidden,
                     name="attention_output", repeats=num_layers),
        matmul_layer(sequence_length, hidden, ffn,
                     name="ffn_up", repeats=num_layers),
        matmul_layer(sequence_length, ffn, hidden,
                     name="ffn_down", repeats=num_layers),
        matmul_layer(sequence_length, hidden, 50257, name="lm_head"),
    ]
    return _deduplicate("gpt2_decoder", layers)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
NETWORK_BUILDERS: dict[str, Callable[[], Network]] = {
    "resnet50": resnet50,
    "bert": bert_base,
    "unet": unet,
    "retinanet": retinanet_heads,
    "alexnet": alexnet,
    "vgg16": vgg16,
    "resnext50_32x4d": resnext50_32x4d,
    "deepbench": deepbench_subset,
    "mobilenet_v2": mobilenet_v2,
    "gpt2_decoder": gpt2_decoder,
}

TARGET_WORKLOAD_NAMES: tuple[str, ...] = ("unet", "resnet50", "bert", "retinanet")
TRAINING_WORKLOAD_NAMES: tuple[str, ...] = (
    "alexnet", "resnext50_32x4d", "vgg16", "deepbench",
)


def get_network(name: str) -> Network:
    """Build a network by registry name (see ``NETWORK_BUILDERS``)."""
    if name not in NETWORK_BUILDERS:
        raise KeyError(f"unknown network {name!r}; options: {sorted(NETWORK_BUILDERS)}")
    return NETWORK_BUILDERS[name]()


def target_networks() -> list[Network]:
    """The four target workloads evaluated in Section 6 (Table 6, right)."""
    return [get_network(name) for name in TARGET_WORKLOAD_NAMES]


def training_networks() -> list[Network]:
    """The training workloads used to fit the DNN predictor (Table 6, left)."""
    return [get_network(name) for name in TRAINING_WORKLOAD_NAMES]
