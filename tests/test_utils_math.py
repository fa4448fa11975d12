"""Tests for repro.utils: integer math, statistics, formatting, RNG helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    divisors,
    format_table,
    geometric_mean,
    make_rng,
    prime_factorization,
    round_up_to_multiple,
    spearman_rank_correlation,
)

from oracles.rounding import round_to_nearest_divisor


class TestRoundUpToMultiple:
    def test_rounds_up(self):
        assert round_up_to_multiple(5.2, 1) == 6

    def test_exact(self):
        assert round_up_to_multiple(8, 4) == 8

    def test_rejects_bad_multiple(self):
        with pytest.raises(ValueError):
            round_up_to_multiple(5, 0)


class TestPrimeFactorization:
    def test_small(self):
        assert prime_factorization(12) == (2, 2, 3)

    def test_prime(self):
        assert prime_factorization(97) == (97,)

    def test_one(self):
        assert prime_factorization(1) == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prime_factorization(0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_recovers_input(self, n):
        factors = prime_factorization(n)
        assert math.prod(factors) == n
        assert all(prime_factorization(f) == (f,) for f in factors)


class TestDivisors:
    def test_twelve(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_one(self):
        assert divisors(1) == (1,)

    @given(st.integers(min_value=1, max_value=20_000))
    def test_all_divide_and_sorted(self, n):
        divs = divisors(n)
        assert all(n % d == 0 for d in divs)
        assert list(divs) == sorted(set(divs))
        assert divs[0] == 1 and divs[-1] == n


class TestRoundToNearestDivisor:
    def test_exact_hit(self):
        assert round_to_nearest_divisor(4, 12) == 4

    def test_rounds_to_nearest(self):
        assert round_to_nearest_divisor(5, 12) == 4

    def test_respects_max_value(self):
        assert round_to_nearest_divisor(10, 12, max_value=4) == 4

    def test_max_below_all_divisors_gives_one(self):
        assert round_to_nearest_divisor(10, 13, max_value=5) == 1

    def test_max_below_one_falls_back_to_one(self):
        # Even the divisor 1 is over this limit: the documented fallback is
        # still a factor of 1, never an empty candidate list.
        assert round_to_nearest_divisor(10, 12, max_value=0) == 1

    def test_exhausted_remaining_has_only_divisor_one(self):
        # remaining == 1 (the dimension is fully consumed by inner levels).
        assert round_to_nearest_divisor(5.0, 1) == 1

    def test_halfway_tie_rounds_down(self):
        # 9 is exactly halfway between the divisors 6 and 12 of 12; the
        # strict-< scan keeps the first (smaller) candidate.
        assert round_to_nearest_divisor(9.0, 12) == 6

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
           st.integers(min_value=1, max_value=5000))
    def test_result_is_divisor(self, value, n):
        result = round_to_nearest_divisor(value, n)
        assert n % result == 0


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_single(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestSpearman:
    def test_perfect_monotonic(self):
        x = [1, 2, 3, 4, 5]
        y = [10, 100, 1000, 10_000, 100_000]
        assert spearman_rank_correlation(x, y) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        x = [1, 2, 3, 4]
        y = [4, 3, 2, 1]
        assert spearman_rank_correlation(x, y) == pytest.approx(-1.0)

    def test_handles_ties(self):
        x = [1, 2, 2, 3]
        y = [1, 2, 2, 3]
        assert spearman_rank_correlation(x, y) == pytest.approx(1.0)

    def test_matches_scipy(self):
        """scipy.stats.spearmanr's definition: Pearson correlation of the ranks.

        The data has no ties, so double-argsort ranks are the exact ranks.
        """
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = x + rng.normal(scale=0.5, size=50)
        ours = spearman_rank_correlation(x, y)
        theirs = np.corrcoef(np.argsort(np.argsort(x)), np.argsort(np.argsort(y)))[0, 1]
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1, 2, 3])


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbbb"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_rejects_bad_row(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestRng:
    def test_seed_reproducible(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_passthrough_generator(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng
