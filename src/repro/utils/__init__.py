"""Shared utilities: integer math, statistics, formatting, and RNG helpers."""

from repro.utils.math_utils import (
    divisors,
    prime_factorization,
    geometric_mean,
    spearman_rank_correlation,
    next_power_of_two,
    ceil_div,
    round_up_to_multiple,
)
from repro.utils.formatting import format_table, format_si
from repro.utils.rng import make_rng

__all__ = [
    "divisors",
    "prime_factorization",
    "geometric_mean",
    "spearman_rank_correlation",
    "next_power_of_two",
    "ceil_div",
    "round_up_to_multiple",
    "format_table",
    "format_si",
    "make_rng",
]
