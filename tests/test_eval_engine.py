"""Tests for the evaluation engine: cache, batch parity, network sums, fixes."""

import numpy as np
import pytest

from repro.arch import HardwareConfig
from repro.eval import (
    EvaluationCache,
    EvaluationEngine,
    batch_analyze_traffic,
    evaluate_mappings_batched,
    mapping_fingerprint,
)
from repro.eval.batch import evaluate_mapping_spec_pairs
from repro.mapping import cosa_mapping
from repro.mapping.mapping import Mapping, identity_mapping
from repro.mapping.random_mapper import random_mapping
from repro.mapping.rounding_walk import RoundingTables, round_factor_tensors
from repro.arch.components import MEMORY_LEVEL_INDICES
from repro.timeloop import (
    TrafficBreakdown,
    analyze_traffic,
    evaluate_mapping,
    evaluate_network_mappings,
)
from repro.workloads import LayerDims, conv2d_layer, get_network, matmul_layer

HARDWARE = HardwareConfig(16, 32, 128)

# Layers spanning the interesting shapes: strided conv, 1x1 conv, matmul,
# single-input-channel (depthwise-style) conv, tiny and batch > 1 cases.
CORPUS_LAYERS = [
    conv2d_layer(64, 128, 28, kernel_size=3, stride=2, name="conv_s2"),
    conv2d_layer(32, 64, 14, kernel_size=1, name="conv_1x1"),
    conv2d_layer(1, 96, 56, kernel_size=3, name="depthwise_ish"),
    matmul_layer(512, 768, 768, name="fc"),
    LayerDims(R=1, S=1, P=128, Q=1, C=128, K=128, N=4, name="batched_fc"),
    conv2d_layer(3, 64, 112, kernel_size=7, stride=2, name="stem"),
]


def breakdown(batch, index: int) -> TrafficBreakdown:
    """The scalar :class:`TrafficBreakdown` of mapping ``index`` of ``batch``.

    Tables are filled in the insertion order of ``analyze_traffic``, so the
    dicts compare equal entry for entry.
    """
    extracted = TrafficBreakdown(macs=float(batch.macs[index]))
    for source, target in ((batch.reads, extracted.reads),
                           (batch.writes, extracted.writes),
                           (batch.updates, extracted.updates)):
        for level in MEMORY_LEVEL_INDICES:
            target[level] = {tensor: float(values[index])
                             for tensor, values in source.get(level, {}).items()}
    return extracted


def random_corpus(count: int, seed: int = 0, max_spatial: int = 32):
    rng = np.random.default_rng(seed)
    return [random_mapping(CORPUS_LAYERS[i % len(CORPUS_LAYERS)], seed=rng,
                           max_spatial=max_spatial)
            for i in range(count)]


class TestEvaluationCache:
    def test_hit_returns_identical_result_and_counts(self):
        cache = EvaluationCache()
        engine = EvaluationEngine(cache=cache)
        mapping = cosa_mapping(CORPUS_LAYERS[0], HARDWARE)
        [first] = engine.evaluate_many([mapping], HARDWARE)
        # An equal but distinct object is served from the cache.
        [second] = engine.evaluate_many([mapping.copy()], HARDWARE)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_key_distinguishes_hardware_and_factors(self):
        cache = EvaluationCache()
        engine = EvaluationEngine(cache=cache)
        mapping = cosa_mapping(CORPUS_LAYERS[0], HARDWARE)
        engine.evaluate_many([mapping], HARDWARE)
        engine.evaluate_many([mapping], HardwareConfig(32, 64, 256))
        other = mapping.copy()
        other.temporal[3, 0] *= 1.0  # unchanged -> same fingerprint
        assert mapping_fingerprint(other) == mapping_fingerprint(mapping)
        assert cache.stats.misses == 2

    def test_fingerprint_ignores_name_and_repeats(self):
        layer = CORPUS_LAYERS[1]
        renamed = layer.with_repeats(7)
        a = cosa_mapping(layer, HARDWARE)
        b = cosa_mapping(renamed, HARDWARE)
        assert mapping_fingerprint(a) == mapping_fingerprint(b)

    def test_lru_eviction(self):
        cache = EvaluationCache(max_entries=2)
        engine = EvaluationEngine(cache=cache)
        mappings = [cosa_mapping(layer, HARDWARE) for layer in CORPUS_LAYERS[:3]]
        for mapping in mappings:
            engine.evaluate_many([mapping], HARDWARE)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry was evicted; re-evaluating it is a miss.
        engine.evaluate_many([mappings[0]], HARDWARE)
        assert cache.stats.misses == 4

    def test_rejects_bad_max_entries(self):
        with pytest.raises(ValueError):
            EvaluationCache(max_entries=0)

    def test_recording_keeps_evicted_entries_in_store_order(self):
        cache = EvaluationCache(max_entries=2)
        engine = EvaluationEngine(cache=cache)
        mappings = [cosa_mapping(layer, HARDWARE) for layer in CORPUS_LAYERS[:4]]
        engine.evaluate_many([mappings[0]], HARDWARE)  # before the recording
        with cache.recording() as stored:
            for mapping in mappings[1:]:
                engine.evaluate_many([mapping], HARDWARE)
            with pytest.raises(RuntimeError, match="already recording"):
                with cache.recording():
                    pass
        engine.evaluate_many([mappings[0]], HARDWARE)  # after: re-stored, unrecorded
        assert [key for key, _ in stored] == [
            EvaluationCache.key_for(mapping, HARDWARE) for mapping in mappings[1:]]
        assert len(cache) == 2 and cache.stats.evictions == 3


class TestBatchParityWithReference:
    """The acceptance bar: bit-identical per-level counts on a random corpus."""

    def test_per_level_accesses_bit_identical(self):
        corpus = random_corpus(120, seed=1)
        batch = batch_analyze_traffic(corpus)
        per_level = batch.per_level_accesses()
        for index, mapping in enumerate(corpus):
            reference = analyze_traffic(mapping)
            for position, level in enumerate(sorted(reference.per_level_accesses())):
                assert per_level[index, position] == reference.accesses(level)

    def test_full_breakdown_tables_bit_identical(self):
        corpus = random_corpus(60, seed=2)
        batch = batch_analyze_traffic(corpus)
        for index, mapping in enumerate(corpus):
            reference = analyze_traffic(mapping)
            extracted = breakdown(batch, index)
            assert extracted.macs == reference.macs
            assert extracted.reads == reference.reads
            assert extracted.writes == reference.writes
            assert extracted.updates == reference.updates

    def test_results_bit_identical_to_scalar_path(self):
        corpus = random_corpus(60, seed=3)
        batched = evaluate_mappings_batched(corpus, HARDWARE)
        for mapping, result in zip(corpus, batched):
            scalar = evaluate_mapping(mapping, HARDWARE)
            assert result.latency_cycles == scalar.latency_cycles
            assert result.energy == scalar.energy
            assert result.compute_latency == scalar.compute_latency
            assert result.memory_latency == scalar.memory_latency
            assert result.accesses == scalar.accesses
            assert result.macs == scalar.macs

    def test_engine_bit_identical_on_registry_layers(self):
        """The engine with repeated candidates, on real network layers."""
        rng = np.random.default_rng(0)
        layers = get_network("resnet50").layers[:8] + get_network("bert").layers[:2]
        unique = [random_mapping(layers[i % len(layers)], seed=rng,
                                 max_spatial=32)
                  for i in range(40)]
        corpus = unique + unique[::-1]
        per_level = batch_analyze_traffic(unique).per_level_accesses()
        for index, mapping in enumerate(unique):
            reference = analyze_traffic(mapping)
            for position, level in enumerate(sorted(reference.per_level_accesses())):
                assert per_level[index, position] == reference.accesses(level)
        engine = EvaluationEngine()
        for mapping, result in zip(corpus, engine.evaluate_many(corpus, HARDWARE)):
            scalar = evaluate_mapping(mapping, HARDWARE)
            assert result.edp == scalar.edp
            assert result.accesses == scalar.accesses
        assert engine.stats.hits >= len(unique)

    def test_empty_batch(self):
        assert evaluate_mappings_batched([], HARDWARE) == []

    def test_invalid_mapping_raises_scalar_message(self):
        bad = identity_mapping(CORPUS_LAYERS[0])
        bad.temporal[0, 0] = 3.0  # factor product no longer matches the layer
        with pytest.raises(ValueError) as batch_error:
            evaluate_mappings_batched([bad], HARDWARE)
        with pytest.raises(ValueError) as scalar_error:
            evaluate_mapping(bad, HARDWARE)
        assert str(batch_error.value) == str(scalar_error.value)

    def test_accepts_hardware_config_argument(self):
        # One design per mapping: each row is priced on its own design.
        corpus = random_corpus(4, seed=4)
        designs = [HARDWARE, HardwareConfig(32, 64, 256), HardwareConfig(1, 1, 1), HARDWARE]
        pairs = list(zip(corpus, designs))
        for (mapping, hardware), result in zip(pairs, evaluate_mapping_spec_pairs(pairs)):
            assert result == evaluate_mapping(mapping, hardware)


class TestEvaluationEngine:
    def test_in_batch_duplicates_are_hits(self):
        corpus = random_corpus(10, seed=7)
        engine = EvaluationEngine()
        results = engine.evaluate_many(corpus + corpus, HARDWARE)
        assert engine.stats.misses == 10
        assert engine.stats.hits == 10
        for a, b in zip(results[:10], results[10:]):
            assert a is b

    def test_cross_batch_cache_reuse(self):
        corpus = random_corpus(6, seed=8)
        engine = EvaluationEngine()
        first = engine.evaluate_many(corpus, HARDWARE)
        second = engine.evaluate_many(corpus, HARDWARE)
        assert engine.stats.hits == 6
        assert all(a is b for a, b in zip(first, second))

    def test_evaluate_network_matches_scalar_helper(self):
        network = get_network("bert")
        mappings = [cosa_mapping(layer, HARDWARE) for layer in network.layers]
        other = HardwareConfig(32, 64, 256)
        engine = EvaluationEngine()
        composed = engine.evaluate_network_sets([(mappings, HARDWARE),
                                                 (mappings, other)])
        for performance, hardware in zip(composed, (HARDWARE, other)):
            reference = evaluate_network_mappings(mappings, hardware)
            assert performance.total_latency == reference.total_latency
            assert performance.total_energy == reference.total_energy
            assert performance.edp == reference.edp
            assert performance.per_layer == reference.per_layer

    def test_evaluate_network_requires_mappings(self):
        mappings = [cosa_mapping(CORPUS_LAYERS[0], HARDWARE)]
        engine = EvaluationEngine()
        with pytest.raises(ValueError):
            engine.evaluate_network_sets([(mappings, HARDWARE), ([], HARDWARE)])
        # Refused before any lookup: the cache and its stats are untouched.
        assert len(engine.cache) == 0 and engine.stats.requests == 0


def round_mapping(mapping, max_spatial=None):
    """One mapping through the production rounding kernel, as a 1x1 stack."""
    temporal, spatial = round_factor_tensors(
        mapping.temporal[None, None], mapping.spatial[None, None],
        RoundingTables.for_layers([mapping.layer]), max_spatial=max_spatial)
    return Mapping(layer=mapping.layer, temporal=temporal[0, 0],
                   spatial=spatial[0, 0], orderings=mapping.orderings)


class TestRoundingMaxSpatial:
    def test_fractional_cap_rounds_to_nearest(self):
        layer = conv2d_layer(64, 64, 14, name="conv")
        mapping = identity_mapping(layer)
        mapping.temporal[3, 4] = 1.0   # C moved off DRAM...
        mapping.spatial[1, 4] = 16.0   # ...onto the spatial position
        # A mesh bound of 15.9999999 (float noise on 16) must not truncate
        # the spatial factor down to the divisor 8.
        rounded = round_mapping(mapping, max_spatial=15.9999999)
        assert rounded.spatial_factor(1, "C") == 16.0

    def test_integer_caps_unchanged(self):
        layer = conv2d_layer(64, 64, 14, name="conv")
        mapping = identity_mapping(layer)
        mapping.temporal[3, 4] = 1.0
        mapping.spatial[1, 4] = 16.0
        rounded = round_mapping(mapping, max_spatial=8)
        assert rounded.spatial_factor(1, "C") <= 8.0

    def test_cap_below_one_rejected(self):
        layer = conv2d_layer(8, 8, 4, name="conv")
        with pytest.raises(ValueError, match="max_spatial"):
            round_mapping(identity_mapping(layer), max_spatial=0.5)
