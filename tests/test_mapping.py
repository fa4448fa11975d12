"""Tests for the mapping package: representation, rounding, mappers, constraints."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import HardwareConfig
from repro.arch.components import (
    BYPASS_MATRIX,
    LEVEL_ACCUMULATOR,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.arch.config import (
    DEFAULT_BOUNDS,
    HardwareBounds,
    merge_hardware_configs,
    minimal_hardware_for_requirements,
    random_hardware_config,
)
from repro.mapping import (
    LoopOrdering,
    Mapping,
    capacity_requirements,
    cosa_mapping,
    mapping_fits_hardware,
    minimal_hardware_for_mappings,
    random_mapping,
    random_mapping_for_hardware,
    random_mappings_for_hardware,
    validate_mapping,
)
from repro.mapping import constraints
from repro.mapping.constraints import TOLERANCE
from repro.mapping.mapping import identity_mapping, ordering_for_tensor
from repro.mapping.rounding_walk import RoundingTables, round_factor_tensors
from repro.timeloop.loopnest import tile_words
from repro.workloads import LayerDims, conv2d_layer, matmul_layer
from repro.workloads.networks import NETWORK_BUILDERS, get_network
from repro.workloads.registry import correlation_layer_pool

from oracles import cosa as oracle_cosa
from oracles import random_mapper as oracle_mapper
from oracles.rounding import round_factors_for_dimension


def round_mapping(mapping: Mapping, max_spatial: float | None = None) -> Mapping:
    """One mapping through the production rounding kernel, as a 1x1 stack."""
    temporal, spatial = round_factor_tensors(
        mapping.temporal[None, None], mapping.spatial[None, None],
        RoundingTables.for_layers([mapping.layer]), max_spatial=max_spatial)
    return Mapping(layer=mapping.layer, temporal=temporal[0, 0],
                   spatial=spatial[0, 0], orderings=mapping.orderings)


def fig3_layer() -> LayerDims:
    return LayerDims(R=1, S=1, P=56, Q=56, C=64, K=64, N=1, name="fig3")


def fig3_mapping() -> Mapping:
    mapping = Mapping(layer=fig3_layer())
    mapping.set_spatial(1, "C", 64)
    mapping.set_spatial(2, "K", 64)
    mapping.set_temporal(0, "Q", 14)
    mapping.set_temporal(3, "Q", 4)
    mapping.set_temporal(3, "P", 56)
    return mapping


# Strategy: layers with highly-composite-ish dimensions, as DNN layers are.
layer_strategy = st.builds(
    LayerDims,
    R=st.sampled_from([1, 3, 5, 7]),
    S=st.sampled_from([1, 3, 5, 7]),
    P=st.sampled_from([1, 7, 14, 28, 56, 112]),
    Q=st.sampled_from([1, 7, 14, 28, 56]),
    C=st.sampled_from([3, 16, 64, 128, 512]),
    K=st.sampled_from([8, 64, 256, 1000]),
    N=st.sampled_from([1, 2, 4]),
)


class TestMappingContainer:
    def test_defaults_are_all_ones(self):
        mapping = Mapping(layer=fig3_layer())
        assert mapping.factor_product("C") == 1.0
        assert mapping.spatial_product() == 1.0

    def test_factor_product(self):
        mapping = fig3_mapping()
        for dim in ("P", "Q", "C", "K"):
            assert mapping.factor_product(dim) == mapping.layer.dim(dim)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Mapping(layer=fig3_layer(), temporal=np.ones((2, 7)))

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            Mapping(layer=fig3_layer(), orderings=(LoopOrdering.WEIGHT_STATIONARY,))

    def test_ordering_for_tensor_places_irrelevant_innermost(self):
        order = ordering_for_tensor(LoopOrdering.WEIGHT_STATIONARY)
        # P, Q, N are irrelevant to weights and must appear before R, S, C, K.
        assert set(order[:3]) == {"P", "Q", "N"}

    def test_with_dram_inferred(self):
        mapping = Mapping(layer=fig3_layer())
        mapping.set_temporal(0, "Q", 14)
        inferred = mapping.with_dram_inferred()
        assert inferred.factor_product("Q") == pytest.approx(56)
        assert inferred.temporal_factor(3, "Q") == pytest.approx(4)

    def test_serialization_roundtrip(self):
        mapping = fig3_mapping()
        restored = Mapping.from_dict(mapping.as_dict())
        assert np.allclose(restored.temporal, mapping.temporal)
        assert np.allclose(restored.spatial, mapping.spatial)
        assert restored.orderings == mapping.orderings
        assert restored.layer.dims_key() == mapping.layer.dims_key()

    def test_describe_contains_spatial_loop(self):
        assert "spatial_for" in fig3_mapping().describe()

    def test_identity_mapping_is_valid(self):
        assert validate_mapping(identity_mapping(fig3_layer())) == []


class TestConstraints:
    def test_fig3_capacities_match_paper(self):
        caps = capacity_requirements(fig3_mapping())
        assert caps[0] == pytest.approx(4096)     # per-PE registers: one weight each
        assert caps[1] == pytest.approx(896)      # accumulator output tile
        assert caps[2] == pytest.approx(4096 + 896)  # scratchpad weights + inputs

    def test_fig3_minimal_hardware_matches_figure(self):
        config = minimal_hardware_for_mappings([fig3_mapping()])
        assert config.pe_dim == 64
        assert config.accumulator_kb == 4      # 896 words x 4 B -> 3.5 KB -> 4 KB
        assert config.scratchpad_kb == 5       # 4992 words x 1 B -> 4.875 KB -> 5 KB

    def test_validate_detects_bad_product(self):
        mapping = fig3_mapping()
        mapping.set_temporal(3, "P", 55)
        assert any("multiply" in problem for problem in validate_mapping(mapping))

    def test_validate_detects_small_factor(self):
        mapping = fig3_mapping()
        mapping.set_temporal(0, "Q", 0.5)
        assert "temporal tiling factor smaller than 1" in validate_mapping(mapping)

    def test_validate_detects_illegal_spatial_position(self):
        mapping = fig3_mapping()
        mapping.spatial[0, 2] = 2.0  # spatial P at the register level: unsupported
        assert ("spatial factor at a position unsupported by the WS dataflow"
                in validate_mapping(mapping))

    def test_fits_hardware(self):
        mapping = fig3_mapping()
        assert mapping_fits_hardware(mapping, HardwareConfig(64, 4, 8))
        assert not mapping_fits_hardware(mapping, HardwareConfig(32, 4, 8))
        assert not mapping_fits_hardware(mapping, HardwareConfig(64, 1, 8))
        assert not mapping_fits_hardware(mapping, HardwareConfig(64, 4, 2))

    def test_minimal_hardware_for_mappings_takes_max(self):
        small = cosa_mapping(matmul_layer(16, 16, 16), HardwareConfig(4, 8, 16))
        large = fig3_mapping()
        merged = minimal_hardware_for_mappings([small, large])
        assert merged.pe_dim == 64


class TestRounding:
    def test_rounding_preserves_valid_mapping(self):
        mapping = fig3_mapping()
        rounded = round_mapping(mapping)
        assert np.allclose(rounded.temporal, mapping.temporal)
        assert np.allclose(rounded.spatial, mapping.spatial)

    def test_rounding_fixes_fractional_factors(self):
        mapping = fig3_mapping()
        mapping.set_temporal(0, "Q", 13.7)
        rounded = round_mapping(mapping)
        assert validate_mapping(rounded) == []
        assert rounded.temporal_factor(0, "Q") == 14

    def test_max_spatial_cap(self):
        mapping = fig3_mapping()
        rounded = round_mapping(mapping, max_spatial=16)
        assert validate_mapping(rounded) == []
        assert rounded.spatial_factor(1, "C") <= 16
        assert rounded.spatial_factor(2, "K") <= 16

    @settings(max_examples=40, deadline=None)
    @given(layer_strategy, st.integers(0, 10_000))
    def test_rounding_random_perturbations_always_valid(self, layer, seed):
        rng = np.random.default_rng(seed)
        mapping = random_mapping(layer, seed=seed)
        noisy = mapping.copy()
        noisy.temporal *= rng.uniform(0.4, 2.5, size=noisy.temporal.shape)
        noisy.spatial *= rng.uniform(0.4, 2.5, size=noisy.spatial.shape)
        rounded = round_mapping(noisy, max_spatial=128)
        assert validate_mapping(rounded) == []


class TestRoundingEdgeCases:
    def test_remaining_exhausted_by_innermost_level(self):
        # Q=7 is prime: once the innermost factor takes all of it, every
        # outer position (including DRAM) must round to 1 regardless of its
        # raw value.
        layer = LayerDims(R=1, S=1, P=4, Q=7, C=8, K=8, N=1, name="edge")
        mapping = Mapping(layer=layer)
        mapping.set_temporal(0, "Q", 6.9)
        mapping.set_temporal(1, "Q", 5.0)
        mapping.set_temporal(2, "Q", 3.0)
        round_factors_for_dimension(mapping, "Q")
        assert mapping.temporal_factor(0, "Q") == 7
        assert mapping.temporal_factor(1, "Q") == 1
        assert mapping.temporal_factor(2, "Q") == 1
        assert mapping.temporal_factor(3, "Q") == 1

    def test_dimension_of_size_one(self):
        layer = LayerDims(R=1, S=1, P=4, Q=4, C=8, K=8, N=1, name="unit")
        mapping = Mapping(layer=layer)
        mapping.set_temporal(0, "R", 3.7)
        mapping.set_temporal(2, "R", 2.2)
        round_factors_for_dimension(mapping, "R")
        assert all(mapping.temporal_factor(level, "R") == 1
                   for level in range(4))

    def test_cap_below_one_is_rejected(self):
        mapping = fig3_mapping()
        with pytest.raises(ValueError):
            round_factors_for_dimension(mapping, "C", max_spatial=0.25)
        with pytest.raises(ValueError):
            round_mapping(mapping, max_spatial=0.999)

    def test_fractional_cap_rounds_to_nearest_integer(self):
        # A mesh bound computed as 15.999999… must behave as 16, not 15.
        mapping = fig3_mapping()
        rounded = round_mapping(mapping, max_spatial=15.999999)
        assert rounded.spatial_factor(1, "C") == 16
        assert rounded.spatial_factor(2, "K") == 16


class TestRandomMapper:
    @settings(max_examples=40, deadline=None)
    @given(layer_strategy, st.integers(0, 10_000))
    def test_random_mappings_are_valid(self, layer, seed):
        mapping = random_mapping(layer, seed=seed)
        assert validate_mapping(mapping) == []

    def test_spatial_cap_respected(self):
        layer = LayerDims(C=1024, K=1024, P=8, Q=8)
        for seed in range(10):
            mapping = random_mapping(layer, seed=seed, max_spatial=32)
            assert mapping.spatial_factor(1, "C") <= 32
            assert mapping.spatial_factor(2, "K") <= 32

    def test_seed_reproducibility(self):
        layer = conv2d_layer(64, 64, 28)
        a = random_mapping(layer, seed=7)
        b = random_mapping(layer, seed=7)
        assert np.allclose(a.temporal, b.temporal)
        assert np.allclose(a.spatial, b.spatial)
        assert a.orderings == b.orderings

    def test_random_mapping_for_hardware_fits(self):
        layer = conv2d_layer(64, 64, 28)
        config = HardwareConfig(16, 32, 128)
        mapping = random_mapping_for_hardware(layer, config, seed=0)
        assert mapping is not None
        assert mapping_fits_hardware(mapping, config)

    def test_random_mapping_for_hardware_can_fail(self):
        # A tiny accumulator cannot hold even one output row of a large layer
        # for most random mappings; with one attempt failure is expected.
        layer = conv2d_layer(512, 512, 56)
        config = HardwareConfig(1, 1, 1)
        result = random_mapping_for_hardware(layer, config, seed=1, max_attempts=1)
        assert result is None or mapping_fits_hardware(result, config)


#: Every layer of every registry network.
REGISTRY_LAYERS = [layer for name in NETWORK_BUILDERS for layer in get_network(name).layers]
#: Strided layers: the stride sets the input tile the fit check sizes.
strided_layer_strategy = st.builds(
    dataclasses.replace, layer_strategy,
    stride_p=st.sampled_from([1, 2, 4]), stride_q=st.sampled_from([1, 2, 4]))
any_layer = st.one_of(st.sampled_from(REGISTRY_LAYERS), layer_strategy,
                      strided_layer_strategy, st.just(LayerDims(name="no primes")))


def assert_same_mapping(got: Mapping, want: Mapping) -> None:
    assert np.array_equal(got.temporal, want.temporal)
    assert np.array_equal(got.spatial, want.spatial)
    assert got.orderings == want.orderings


class TestRandomMapperParity:
    """The block sampler against the one-candidate-at-a-time oracle."""

    @settings(max_examples=300, deadline=None)
    @given(layer=any_layer, hardware_seed=st.integers(0, 2**32 - 1),
           count=st.integers(0, 40), max_attempts=st.sampled_from([0, 1, 5, 10, 20, 200]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_count_oracle_calls(self, layer, hardware_seed, count, max_attempts,
                                        seed):
        config = random_hardware_config(seed=hardware_seed)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_mappings_for_hardware(layer, config, count, seed=rng,
                                           max_attempts=max_attempts)
        want = [oracle_mapper.random_mapping_for_hardware(
                    layer, config, seed=oracle_rng, max_attempts=max_attempts)
                for _ in range(count)]
        assert [m is None for m in got] == [m is None for m in want]
        for mapping, expected in zip(got, want):
            if mapping is not None:
                assert_same_mapping(mapping, expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(layer=any_layer, max_spatial=st.sampled_from([1, 2, 3, 16, 128, 15.999]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_mapping_matches_one_oracle_attempt(self, layer, max_spatial, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mapping = random_mapping(layer, seed=rng, max_spatial=max_spatial)
        assert_same_mapping(mapping, oracle_mapper.random_mapping(
            layer, seed=oracle_rng, max_spatial=max_spatial))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_returned_mappings_own_their_arrays(self):
        mappings = random_mappings_for_hardware(conv2d_layer(64, 64, 28),
                                                HardwareConfig(16, 32, 128), 8, seed=0)
        for mapping in mappings:
            assert mapping.temporal.base is None and mapping.spatial.base is None


class TestRandomMapperArguments:
    def test_spatial_cap_below_one_is_refused(self):
        # No cap below 1 can be met: a spatial factor of 1 has no prime to demote.
        with pytest.raises(ValueError, match="max_spatial"):
            random_mapping(LayerDims(C=64, K=64), seed=0, max_spatial=0)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="count"):
            random_mappings_for_hardware(fig3_layer(), HardwareConfig(16, 32, 128), -1)

    def test_negative_max_attempts_is_refused(self):
        with pytest.raises(ValueError, match="max_attempts"):
            random_mappings_for_hardware(fig3_layer(), HardwareConfig(16, 32, 128), 1,
                                         max_attempts=-1)

    def test_wrapper_refuses_negative_max_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            random_mapping_for_hardware(fig3_layer(), HardwareConfig(16, 32, 128),
                                        max_attempts=-1)


class TestCosaMapper:
    @pytest.mark.parametrize("config", [
        HardwareConfig(4, 8, 32),
        HardwareConfig(16, 32, 128),
        HardwareConfig(64, 256, 512),
    ])
    def test_cosa_mappings_valid_and_fit(self, config):
        capacity = {LEVEL_REGISTERS: config.register_words,
                    LEVEL_ACCUMULATOR: config.accumulator_words,
                    LEVEL_SCRATCHPAD: config.scratchpad_words}
        for layer in correlation_layer_pool()[:20]:
            mapping = cosa_mapping(layer, config)
            assert validate_mapping(mapping) == []
            assert mapping_fits_hardware(mapping, config)
            # Fitting means every on-chip level holds the mapping's tiles.
            required = capacity_requirements(mapping)
            for level in capacity:
                assert required[level] <= capacity[level] * (1 + 1e-9)

    def test_cosa_uses_spatial_parallelism(self):
        config = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 56), config)
        assert mapping.spatial_factor(1, "C") == 16
        assert mapping.spatial_factor(2, "K") == 16

    def test_cosa_beats_random_mapping_on_average(self):
        from repro.timeloop import evaluate_mapping

        config = HardwareConfig(16, 32, 128)
        layers = correlation_layer_pool()[:8]
        cosa_edp = np.mean([np.log(evaluate_mapping(cosa_mapping(l, config), config).edp)
                            for l in layers])
        random_edp = np.mean([np.log(evaluate_mapping(random_mapping(l, seed=0, max_spatial=16), config).edp)
                              for l in layers])
        assert cosa_edp < random_edp


# --------------------------------------------------------------------------- #
# The tile-word kernel and the CoSA growth against the reference model
# --------------------------------------------------------------------------- #
#: Registry layers with their strides replaced: the stride sizes the input tile.
strided_registry_layer = st.builds(
    dataclasses.replace, st.sampled_from(REGISTRY_LAYERS),
    stride_p=st.sampled_from([1, 2, 4]), stride_q=st.sampled_from([1, 2, 4]))
kernel_layer = st.one_of(st.sampled_from(REGISTRY_LAYERS), strided_registry_layer,
                         strided_layer_strategy)
#: ``random_hardware_config`` draws, plus arbitrary configs down to 1x1 / 1 KB.
any_config = st.one_of(
    st.builds(random_hardware_config, st.integers(0, 2**32 - 1)),
    st.builds(HardwareConfig, pe_dim=st.integers(1, 128),
              accumulator_kb=st.integers(1, 1024), scratchpad_kb=st.integers(1, 4096)))


def reference_requirements(mapping: Mapping) -> dict[int, float]:
    """Eq. 5 from the reference model's per-mapping tile words."""
    return {level: sum(tile_words(mapping, level, tensor)
                       for tensor in BYPASS_MATRIX[level])
            for level in MEMORY_LEVEL_INDICES}


def reference_spatial(mapping: Mapping) -> float:
    return max(mapping.spatial_factor(LEVEL_ACCUMULATOR, "C"),
               mapping.spatial_factor(LEVEL_SCRATCHPAD, "K"))


def reference_fits(mapping: Mapping, config: HardwareConfig) -> bool:
    required = reference_requirements(mapping)
    return (reference_spatial(mapping) <= config.pe_dim + TOLERANCE
            and required[LEVEL_REGISTERS] <= config.register_words + TOLERANCE
            and required[LEVEL_ACCUMULATOR] <= config.accumulator_words + TOLERANCE
            and required[LEVEL_SCRATCHPAD] <= config.scratchpad_words + TOLERANCE)


def reference_minimal_hardware(mappings: list[Mapping],
                               bounds: HardwareBounds = DEFAULT_BOUNDS) -> HardwareConfig:
    """Per-mapping minimal configurations, merged parameter-wise (Fig. 3)."""
    return merge_hardware_configs([
        minimal_hardware_for_requirements(
            spatial_requirement=reference_spatial(mapping),
            accumulator_word_requirement=tile_words(mapping, LEVEL_ACCUMULATOR, "O"),
            scratchpad_word_requirement=(tile_words(mapping, LEVEL_SCRATCHPAD, "W")
                                         + tile_words(mapping, LEVEL_SCRATCHPAD, "I")),
            bounds=bounds)
        for mapping in mappings])


def granule_below(config: HardwareConfig) -> list[HardwareConfig]:
    """``config`` with one parameter one step smaller, for each parameter."""
    smaller = []
    if config.pe_dim > 1:
        smaller.append(dataclasses.replace(config, pe_dim=config.pe_dim - 1))
    if config.accumulator_kb > 1:
        smaller.append(dataclasses.replace(config, accumulator_kb=config.accumulator_kb - 1))
    if config.scratchpad_kb > 1:
        smaller.append(dataclasses.replace(config, scratchpad_kb=config.scratchpad_kb - 1))
    return smaller


def exactly_sized(mapping: Mapping, config: HardwareConfig) -> bool:
    """The mapping's tiles fill the accumulator or the scratchpad exactly."""
    required = reference_requirements(mapping)
    return (required[LEVEL_ACCUMULATOR] == config.accumulator_words
            or required[LEVEL_SCRATCHPAD] == config.scratchpad_words)


class TestTileKernelParity:
    """Capacity, fit and hardware derivation against ``loopnest.tile_words``."""

    @settings(max_examples=150, deadline=None)
    @given(layer=kernel_layer, config=any_config, seed=st.integers(0, 2**32 - 1),
           max_spatial=st.sampled_from([1, 4, 16, 128]))
    def test_random_mappings_match_reference(self, layer, config, seed, max_spatial):
        mapping = random_mapping(layer, seed=seed, max_spatial=max_spatial)
        assert capacity_requirements(mapping) == reference_requirements(mapping)
        minimal = reference_minimal_hardware([mapping])
        assert minimal_hardware_for_mappings([mapping]) == minimal
        for candidate in [config, minimal, *granule_below(minimal)]:
            assert mapping_fits_hardware(mapping, candidate) == reference_fits(mapping, candidate)

    @settings(max_examples=60, deadline=None)
    @given(layers=st.lists(kernel_layer, min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), max_spatial=st.sampled_from([4, 16, 128]),
           bounds=st.sampled_from([DEFAULT_BOUNDS, HardwareBounds(
               max_pe_dim=16, max_accumulator_kb=64, max_scratchpad_kb=256,
               sram_granularity_kb=4)]))
    def test_mapping_sets_derive_the_merged_reference(self, layers, seed, max_spatial,
                                                      bounds):
        rng = np.random.default_rng(seed)
        mappings = [random_mapping(layer, seed=rng, max_spatial=max_spatial)
                    for layer in layers]
        assert (minimal_hardware_for_mappings(mappings, bounds=bounds)
                == reference_minimal_hardware(mappings, bounds))

    def test_exactly_sized_and_one_granule_below(self):
        # CoSA fills power-of-two budgets with power-of-two tiles, so many
        # minimal configurations are filled exactly by some level.
        exact = 0
        for layer in REGISTRY_LAYERS:
            mapping = cosa_mapping(layer, HardwareConfig(16, 32, 128))
            minimal = minimal_hardware_for_mappings([mapping])
            assert minimal == reference_minimal_hardware([mapping])
            exact += exactly_sized(mapping, minimal)
            assert mapping_fits_hardware(mapping, minimal)
            for smaller in granule_below(minimal):
                assert mapping_fits_hardware(mapping, smaller) == reference_fits(mapping, smaller)
        assert exact > 0

    def test_fit_slack_is_inclusive(self):
        # Only the PE array binds: the SRAMs hold the one-channel tiles.
        config = HardwareConfig(16, 32, 128)
        mapping = Mapping(layer=LayerDims(K=16, name="k16"))
        mapping.set_spatial(LEVEL_SCRATCHPAD, "K", config.pe_dim + TOLERANCE)
        assert mapping_fits_hardware(mapping, config)
        mapping.set_spatial(LEVEL_SCRATCHPAD, "K", config.pe_dim + 2 * TOLERANCE)
        assert not mapping_fits_hardware(mapping, config)

    def test_empty_set_is_refused_before_stacking(self, monkeypatch):
        def unreachable(mappings):
            raise AssertionError("stacked an empty set")

        monkeypatch.setattr(constraints, "factor_stacks", unreachable)
        with pytest.raises(ValueError, match="at least one mapping"):
            minimal_hardware_for_mappings([])
        with pytest.raises(ValueError, match="at least one mapping"):
            minimal_hardware_for_mappings(iter(()))


class TestCosaParity:
    """The one-call-per-growth-step mapper against the per-candidate oracle."""

    @settings(max_examples=150, deadline=None)
    @given(layer=kernel_layer, config=any_config)
    def test_matches_per_candidate_oracle(self, layer, config):
        assert_same_mapping(cosa_mapping(layer, config),
                            oracle_cosa.cosa_mapping(layer, config))

    @pytest.mark.parametrize("config", [HardwareConfig(4, 8, 32), HardwareConfig(128, 1024, 4096)])
    def test_every_registry_layer_matches_oracle(self, config):
        for layer in REGISTRY_LAYERS:
            assert_same_mapping(cosa_mapping(layer, config),
                                oracle_cosa.cosa_mapping(layer, config))
