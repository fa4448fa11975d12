"""Shared utilities: integer math, statistics, formatting, and RNG helpers."""

from repro.utils.math_utils import (
    divisors,
    prime_factorization,
    geometric_mean,
    spearman_rank_correlation,
    round_up_to_multiple,
)
from repro.utils.formatting import format_table
from repro.utils.rng import make_rng

__all__ = [
    "divisors",
    "prime_factorization",
    "geometric_mean",
    "spearman_rank_correlation",
    "round_up_to_multiple",
    "format_table",
    "make_rng",
]
