"""Integer and statistical helpers used throughout the DOSA reproduction.

The mapping machinery works heavily with divisors of layer dimensions
(tiling factors must multiply exactly to the problem size), so fast integer
factorization helpers live here, next to the small statistics routines used
by the experiment harnesses (geometric mean, Spearman rank correlation).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


def round_up_to_multiple(value: float, multiple: int) -> int:
    """Round ``value`` up to the nearest positive multiple of ``multiple``."""
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    return int(math.ceil(value / multiple)) * multiple


@lru_cache(maxsize=65536)
def prime_factorization(n: int) -> tuple[int, ...]:
    """Return the prime factorization of ``n`` as a sorted tuple of primes.

    ``prime_factorization(12)`` returns ``(2, 2, 3)``.  ``n`` must be >= 1;
    the factorization of 1 is the empty tuple.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: list[int] = []
    remaining = n
    divisor = 2
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            factors.append(divisor)
            remaining //= divisor
        divisor += 1 if divisor == 2 else 2
    if remaining > 1:
        factors.append(remaining)
    return tuple(factors)


@lru_cache(maxsize=65536)
def divisors(n: int) -> tuple[int, ...]:
    """Return all positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))


def _rankdata(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based) with ties sharing the mean of their positions."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(len(arr), dtype=float)
    sorted_vals = arr[order]
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = mean_rank
        i = j + 1
    return ranks


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation coefficient between two equal-length sequences.

    Used to score latency predictors against the reference simulator, as in
    Figures 10 and 11 of the paper.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two samples for a correlation")
    rx = _rankdata(x)
    ry = _rankdata(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = float(np.sqrt((rx**2).sum() * (ry**2).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)
