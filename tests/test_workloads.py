"""Tests for the layer representation and network definitions."""

import pytest
from hypothesis import given, strategies as st

from repro.workloads import (
    DIMENSIONS,
    LayerDims,
    conv2d_layer,
    matmul_layer,
    get_network,
    target_networks,
    training_networks,
    NETWORK_BUILDERS,
)
from repro.workloads.layer import TENSOR_DIMS
from repro.workloads.registry import correlation_layer_pool, unique_layers_across


class TestLayerDims:
    def test_macs(self):
        layer = LayerDims(R=3, S=3, P=4, Q=4, C=2, K=8, N=1)
        assert layer.macs == 3 * 3 * 4 * 4 * 2 * 8

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            LayerDims(R=0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            LayerDims(stride_p=0)

    def test_dims_key_ignores_name(self):
        a = conv2d_layer(3, 8, 10, name="a")
        b = conv2d_layer(3, 8, 10, name="b")
        assert a.dims_key() == b.dims_key()

    def test_with_repeats(self):
        layer = conv2d_layer(3, 8, 10).with_repeats(5)
        assert layer.repeats == 5

    @given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64))
    def test_matmul_macs_match_gemm(self, m, k, n):
        layer = matmul_layer(m, k, n)
        assert layer.macs == m * k * n

    def test_tensor_dims_cover_all(self):
        union = set().union(*TENSOR_DIMS.values())
        assert union == set(DIMENSIONS)


class TestNetworks:
    @pytest.mark.parametrize("name", sorted(NETWORK_BUILDERS))
    def test_networks_build_and_are_nonempty(self, name):
        network = get_network(name)
        assert network.num_unique_layers > 0
        assert network.total_macs > 0
        assert network.num_layer_instances >= network.num_unique_layers

    def test_unknown_network(self):
        with pytest.raises(KeyError):
            get_network("lenet")

    def test_resnet50_macs_reasonable(self):
        # ResNet-50 is ~3.8-4.1 GMACs for a 224x224 input.
        macs = get_network("resnet50").total_macs
        assert 3.0e9 < macs < 4.5e9

    def test_vgg16_macs_reasonable(self):
        # VGG-16 is ~15.5 GMACs.
        macs = get_network("vgg16").total_macs
        assert 1.4e10 < macs < 1.7e10

    def test_bert_layers_are_matmuls(self):
        assert all(layer.R == layer.S == layer.stride_p == layer.stride_q == 1
                   for layer in get_network("bert").layers)

    def test_deduplication_keeps_instance_count(self):
        network = get_network("bert")
        # 12 encoder layers contribute 3 QKV projections each.
        qkv = [l for l in network.layers if l.name == "qkv_projection"]
        assert len(qkv) == 1
        assert qkv[0].repeats >= 36

    def test_target_and_training_sets(self):
        targets = target_networks()
        training = training_networks()
        assert {n.name for n in targets} == {"unet", "resnet50", "bert", "retinanet"}
        assert len(training) == 4
        assert not ({n.name for n in targets} & {n.name for n in training})

    def test_describe_mentions_layer_count(self):
        network = get_network("alexnet")
        assert str(network.num_unique_layers) in network.describe()


class TestRegistry:
    def test_unique_layers_deduplicate(self):
        network = get_network("resnet50")
        unique = unique_layers_across([network, network])
        assert len(unique) == network.num_unique_layers
        assert all(layer.repeats == 1 for layer in unique)

    def test_correlation_pool_is_diverse(self):
        pool = correlation_layer_pool()
        assert len(pool) >= 50
        keys = {layer.dims_key() for layer in pool}
        assert len(keys) == len(pool)
