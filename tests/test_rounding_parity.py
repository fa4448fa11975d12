"""Property fuzz: the vectorized rounding walk is bit-identical to the oracle.

The batched ``(S, L)`` integer-rounding kernel (`repro.mapping.rounding_walk`)
must reproduce the scalar Section-5.3.2 walk (`round_mapping`, kept as the
oracle in ``tests/oracles/rounding.py``) *bit for bit* —
divisor products, spatial caps, DRAM remainders and the EDPs of the resulting
designs.  The corpus is seeded random fractional factor tensors over random
layer shapes (primes, powers of two, composites), random ``max_spatial`` caps
(including fractional ``15.999…`` caps), and S x L batches with duplicated
start rows; well over 1000 mappings per run.

The mutation-regression class then checks the *wiring* of this oracle: if the
kernel's cap mask or remainder carry is perturbed, the same corpus must light
up.  A parity suite that cannot catch a broken kernel is worse than none.
"""

import numpy as np
import pytest

from repro.core.dmodel.factors import MultiStartFactors
from repro.mapping import Mapping, minimal_hardware_for_mappings
from repro.mapping import rounding_walk
from repro.mapping.rounding_walk import RoundingTables, round_factor_tensors
from repro.timeloop.model import evaluate_mapping
from repro.utils.math_utils import divisors
from repro.workloads import LayerDims
from repro.workloads.layer import DIMENSIONS

from oracles.rounding import round_mapping, rounded_mappings_of

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# Primes, powers of two, and awkward composites; sizes stay small enough that
# the scalar oracle side of the fuzz run finishes in seconds.
_DIM_POOL = (1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 17, 28, 31, 32, 49, 64, 96, 101, 128)
_CAP_POOL = (None, 1, 1.0, 2, 3, 4, 7.5, 15.999999, 16, 16.49, 31.5, 128)


def _random_layer(rng: np.random.Generator, index: int) -> LayerDims:
    return LayerDims(**{d: int(rng.choice(_DIM_POOL)) for d in DIMENSIONS},
                     name=f"fuzz{index}")


def _random_fractional_mapping(rng: np.random.Generator,
                               layer: LayerDims) -> Mapping:
    """A mapping with log-uniform fractional factors (0.14 .. ~1100)."""
    mapping = Mapping(layer=layer)
    mapping.temporal = np.exp(rng.uniform(-2.0, 7.0, mapping.temporal.shape))
    mapping.spatial = np.exp(rng.uniform(-2.0, 7.0, mapping.spatial.shape))
    return mapping


def _random_batch(rng: np.random.Generator, seed_tag: int):
    """One random S x L batch (shared layers, sometimes duplicated starts)."""
    num_layers = int(rng.integers(1, 5))
    num_sets = int(rng.integers(1, 6))
    layers = [_random_layer(rng, seed_tag * 10 + l) for l in range(num_layers)]
    sets = [[_random_fractional_mapping(rng, layer) for layer in layers]
            for _ in range(num_sets)]
    if num_sets > 1 and rng.random() < 0.5:
        # Duplicate a start row: identical inputs must round identically.
        sets[-1] = [m.copy() for m in sets[0]]
    cap = rng.choice(np.array(_CAP_POOL, dtype=object))
    cap = None if cap is None else float(cap)
    return sets, cap


def round_sets(mapping_sets: list[list[Mapping]],
               max_spatial: float | None = None) -> list[list[Mapping]]:
    """S sets of L mappings over one layer stack through one kernel pass."""
    out_temporal, out_spatial = round_factor_tensors(
        np.stack([[m.temporal for m in mappings] for mappings in mapping_sets]),
        np.stack([[m.spatial for m in mappings] for mappings in mapping_sets]),
        RoundingTables.for_layers([m.layer for m in mapping_sets[0]]),
        max_spatial=max_spatial)
    return [[Mapping(layer=mapping.layer, temporal=out_temporal[s, l],
                     spatial=out_spatial[s, l], orderings=mapping.orderings)
             for l, mapping in enumerate(mappings)]
            for s, mappings in enumerate(mapping_sets)]


def _assert_mapping_bits_equal(reference: Mapping, batched: Mapping) -> None:
    assert np.array_equal(reference.temporal, batched.temporal)
    assert np.array_equal(reference.spatial, batched.spatial)
    assert reference.orderings == batched.orderings


class TestRoundingWalkParity:
    """The kernel against the scalar oracle, over a seeded random corpus."""

    def test_fuzz_bit_identity(self):
        total = 0
        for seed in range(36):
            rng = np.random.default_rng(seed)
            for round_index in range(5):
                sets, cap = _random_batch(rng, seed * 100 + round_index)
                batched = round_sets(sets, max_spatial=cap)
                for raw_set, rounded_set in zip(sets, batched):
                    for raw, rounded in zip(raw_set, rounded_set):
                        reference = round_mapping(raw, max_spatial=cap)
                        _assert_mapping_bits_equal(reference, rounded)
                        total += 1
                        # Structural invariants, independent of the oracle:
                        # integral divisors, exact per-dimension products,
                        # capped spatial factors.
                        factors = np.concatenate([rounded.temporal,
                                                  rounded.spatial])
                        assert np.array_equal(factors, np.rint(factors))
                        for dim_index, dim in enumerate(DIMENSIONS):
                            product = int(round(
                                rounded.temporal[:, dim_index].prod()
                                * rounded.spatial[:, dim_index].prod()))
                            assert product == raw.layer.dim(dim)
                        if cap is not None:
                            assert rounded.spatial.max() <= int(round(cap))
        assert total >= 1000, f"fuzz corpus shrank to {total} mappings"

    def test_fuzz_edps_exactly_equal(self):
        """The resulting *designs* score identically under the reference model.

        Bitwise-equal factor arrays make this a consequence, but the claim the
        search relies on is about EDPs, so it is asserted directly on a slice
        of the corpus (one batch per seed, minimal hardware per mapping).
        """
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            sets, cap = _random_batch(rng, seed)
            batched = round_sets(sets, max_spatial=cap)
            for raw_set, rounded_set in zip(sets, batched):
                for raw, rounded in zip(raw_set, rounded_set):
                    reference = round_mapping(raw, max_spatial=cap)
                    hardware = minimal_hardware_for_mappings([reference])
                    reference_edp = evaluate_mapping(reference, hardware).edp
                    batched_edp = evaluate_mapping(rounded, hardware).edp
                    assert reference_edp == batched_edp

    def test_duplicate_start_rows_round_identically(self):
        rng = np.random.default_rng(7)
        layers = [_random_layer(rng, index) for index in range(3)]
        base = [_random_fractional_mapping(rng, layer) for layer in layers]
        sets = [[m.copy() for m in base] for _ in range(4)]
        batched = round_sets(sets, max_spatial=16)
        for duplicate in batched[1:]:
            for first, other in zip(batched[0], duplicate):
                _assert_mapping_bits_equal(first, other)

    def test_halfway_ties_round_down_like_the_oracle(self):
        """Raw values exactly between two divisors pick the smaller one."""
        layer = LayerDims(R=1, S=1, P=12, Q=16, C=36, K=64, N=1, name="ties")
        mapping = Mapping(layer=layer)
        for dim_index, dim in enumerate(DIMENSIONS):
            divs = divisors(layer.dim(dim))
            if len(divs) >= 2:
                # Exactly halfway between the two largest divisors.
                mapping.temporal[0, dim_index] = (divs[-1] + divs[-2]) / 2.0
        [rounded], = round_sets([[mapping]]),
        reference = round_mapping(mapping)
        _assert_mapping_bits_equal(reference, rounded[0])
        # P=12: halfway between 6 and 12 is 9 -> the oracle keeps 6.
        assert rounded[0].temporal[0, DIMENSIONS.index("P")] == 6.0

    def test_cap_below_one_raises_like_the_oracle(self):
        layer = LayerDims(R=1, S=1, P=4, Q=4, C=8, K=8, N=1, name="cap")
        mapping = _random_fractional_mapping(np.random.default_rng(0), layer)
        with pytest.raises(ValueError):
            round_mapping(mapping, max_spatial=0.5)
        with pytest.raises(ValueError):
            round_sets([[mapping]], max_spatial=0.5)
        tables = RoundingTables.for_layers([layer])
        with pytest.raises(ValueError):
            round_factor_tensors(mapping.temporal[None, None],
                                 mapping.spatial[None, None], tables,
                                 max_spatial=0.5)

    def test_factors_routes_match_oracle(self):
        """MultiStartFactors wiring (S=3 and S=1) reaches the same bits."""
        rng = np.random.default_rng(11)
        layers = [_random_layer(rng, index) for index in range(3)]
        sets = [[_random_fractional_mapping(rng, layer) for layer in layers]
                for _ in range(3)]
        for factors in (MultiStartFactors.from_mapping_sets(sets),
                        MultiStartFactors.from_mapping_sets(sets[:1])):
            for start, rounded_set in enumerate(
                    factors.rounded_mapping_sets(max_spatial=16)):
                for reference, rounded in zip(
                        rounded_mappings_of(factors, start, max_spatial=16),
                        rounded_set):
                    _assert_mapping_bits_equal(reference, rounded)


class TestMutationRegression:
    """Perturbing the kernel must trip the parity corpus (oracle wiring test)."""

    # Layers whose divisor ladders have near-adjacent rungs, with caps that
    # sit on them, so both an off-by-one cap and a dropped carry change
    # decisions somewhere in the corpus.
    def _mismatches(self) -> int:
        mismatches = 0
        for seed in range(4):
            rng = np.random.default_rng(2000 + seed)
            sets, _ = _random_batch(rng, seed)
            for cap in (3, 16):
                batched = round_sets(sets, max_spatial=cap)
                for raw_set, rounded_set in zip(sets, batched):
                    for raw, rounded in zip(raw_set, rounded_set):
                        reference = round_mapping(raw, max_spatial=cap)
                        if not (np.array_equal(reference.temporal, rounded.temporal)
                                and np.array_equal(reference.spatial, rounded.spatial)):
                            mismatches += 1
        return mismatches

    def test_unmutated_kernel_is_clean(self):
        assert self._mismatches() == 0

    def test_dropped_cap_mask_is_caught(self, monkeypatch):
        monkeypatch.setattr(rounding_walk, "_spatial_limit",
                            lambda remaining_values, cap: remaining_values)
        assert self._mismatches() > 0

    def test_off_by_one_cap_is_caught(self, monkeypatch):
        monkeypatch.setattr(rounding_walk, "_spatial_limit",
                            lambda remaining_values, cap:
                            np.minimum(remaining_values, cap + 1))
        assert self._mismatches() > 0

    def test_stuck_remainder_carry_is_caught(self, monkeypatch):
        monkeypatch.setattr(rounding_walk, "_advance_remaining",
                            lambda table, rows, rem_index, choice: rem_index)
        assert self._mismatches() > 0
