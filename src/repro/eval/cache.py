"""Memoization of reference-model evaluations.

DOSA's periodic rounding asks the reference model about identical
``(mapping, hardware)`` pairs: rounding snaps nearby fractional factors onto
the same divisors, across steps and start points.  Re-running the full
per-level traffic walk for those repeats is waste, so the engine keys
finished :class:`~repro.timeloop.model.PerformanceResult` objects on an exact
mapping/hardware fingerprint and serves repeats from memory.

Repeats are common in DOSA and rare elsewhere.  With a fresh cache per
search at seed 2 (the benchmark panel's searches), default DOSA hits 42 of
441 lookups on resnet50, 65 of 105 on bert and 88 of 147 on gpt2_decoder,
while 5,000-sample random searches on resnet50 and bert (5,016 and 5,000
lookups) and Bayesian search on bert (2,005) hit none: their random
mappings do not repeat.  Over whole benchmark runs (``perfbench/run.py``, 10 s, traced,
seed 0, 2-vCPU VM), the offline workload's ``eval.cache_hit_ratio`` was
0.015 and the served workload's ``service.cache_hit_ratio`` 0 over 269 jobs.

Cache semantics:

* **Keying** — the fingerprint covers everything the reference model reads:
  the layer's problem dimensions and strides (``LayerDims.dims_key``), the
  per-level loop orderings, the raw temporal/spatial factor bytes, and the
  :class:`~repro.arch.config.HardwareConfig`.  Layer *names* and repetition
  counts are deliberately excluded — two layers with identical dimensions
  share cache entries, matching the paper's unique-layer evaluation.
* **Exactness** — factor arrays are fingerprinted bit-for-bit (``tobytes``),
  so a cache hit returns a result bit-identical to re-evaluation; there is no
  tolerance-based matching.
* **Statistics** — :class:`CacheStats` counts hits/misses/evictions so search
  harnesses and benchmarks can report the achieved hit rate.
* **Bounding** — ``max_entries`` turns the cache into an LRU; ``None``
  (default) keeps every entry.  The owner decides: one search's sample
  budget already bounds its entries, while a campaign pool worker shares
  one cache across every job it runs (the search service's workers live
  for days), so it caps that cache (``_WORKER_CACHE_ENTRIES`` in
  :mod:`repro.campaign.scheduler`).  Entries are exact, so an eviction
  costs a re-evaluation, never a different result.

Cache hits deliberately still count as search *samples*: the paper's sample
accounting charges one evaluation per reference-model query, and serving a
repeat from memory makes the query free in wall-clock time only, keeping
best-so-far traces comparable across cached and uncached runs.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.arch.config import HardwareConfig
from repro.mapping.mapping import Mapping
from repro.timeloop.model import PerformanceResult

#: A fully-resolved cache key: (mapping fingerprint, hardware config).
CacheKey = tuple


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`EvaluationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when never queried)."""
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate:.1%} hit rate, {self.evictions} evictions)")


def mapping_fingerprint(mapping: Mapping) -> tuple:
    """Exact, hashable fingerprint of everything the reference model reads.

    Covers problem dimensions + strides, loop orderings, and the raw bytes of
    the factor arrays.  Excludes the layer name and repetition count, which do
    not affect a single-layer :class:`PerformanceResult`.
    """
    return (
        mapping.layer.dims_key(),
        tuple(o.value for o in mapping.orderings),
        mapping.temporal.tobytes(),
        mapping.spatial.tobytes(),
    )


class EvaluationCache:
    """Memo table of reference-model results keyed on ``(mapping, hardware)``.

    The table evaluates nothing itself: :class:`~repro.eval.engine
    .EvaluationEngine` looks entries up with :meth:`key_for` / :meth:`get`,
    evaluates the misses in one batch, stores them with :meth:`store`, and
    accounts each lookup with :meth:`record` (e.g. counting an in-batch
    duplicate as a hit even though the entry is stored later).
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, PerformanceResult] = OrderedDict()
        #: The open :meth:`recording`'s entry list, if any.
        self._recorded: list[tuple[CacheKey, PerformanceResult]] | None = None

    # ------------------------------------------------------------------ #
    # Raw key/value access (no statistics)
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(mapping: Mapping, hardware: HardwareConfig) -> CacheKey:
        return (mapping_fingerprint(mapping), hardware)

    def get(self, key: CacheKey) -> PerformanceResult | None:
        """Entry for ``key`` (refreshing its LRU position), without statistics."""
        result = self._entries.get(key)
        if result is not None and self.max_entries is not None:
            self._entries.move_to_end(key)
        return result

    def store(self, key: CacheKey, result: PerformanceResult) -> None:
        self._entries[key] = result
        if self._recorded is not None:
            self._recorded.append((key, result))
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def record(self, hit: bool) -> None:
        """Account one lookup in the statistics."""
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1

    # ------------------------------------------------------------------ #
    @contextmanager
    def recording(self) -> Iterator[list[tuple[CacheKey, PerformanceResult]]]:
        """Collect every entry :meth:`store` receives inside the block.

        Yields a list that grows, in store order, with each ``(key, result)``
        stored until the block exits — entries a bounded cache evicts
        meanwhile included.  The campaign scheduler wraps each job in one,
        so a job spills exactly the entries it stored, at a cost per job
        independent of how many entries the cache already holds.
        Recordings do not nest.
        """
        if self._recorded is not None:
            raise RuntimeError("this cache is already recording")
        recorded: list[tuple[CacheKey, PerformanceResult]] = []
        self._recorded = recorded
        try:
            yield recorded
        finally:
            self._recorded = None

    def items(self) -> list[tuple[CacheKey, PerformanceResult]]:
        """Snapshot of the held entries (no LRU refresh).

        The order is the table's internal order — insertion order, or
        least recently used first for a bounded cache — and carries no
        contract; use :meth:`recording` to know which entries a piece of
        work stored.
        """
        return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)
