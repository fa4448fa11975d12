"""The evaluation engine: cached + batched reference-model queries.

:class:`EvaluationEngine` is the single entry point the search strategies use
to query the reference model.  It composes the two acceleration layers of
this package behind the scalar API's semantics, in-process:

1. an :class:`~repro.eval.cache.EvaluationCache` serves exact repeats from
   memory (DOSA's rounded candidates recur; random mappings rarely do),
2. the vectorized batch evaluator of :mod:`repro.eval.batch` scores the
   remaining unique misses in one array pass, amortizing the per-mapping
   Python overhead.

Every path returns results bit-identical to
:func:`repro.timeloop.model.evaluate_mapping`, so search outcomes are
unchanged — only faster.  The engine is deliberately *not* responsible for
search sample accounting: callers spend samples through their
:class:`~repro.search.api.SearchSession` for every requested evaluation,
cache hit or not, keeping the paper's accounting and trace comparability.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.arch.config import HardwareConfig
from repro.eval.batch import evaluate_mapping_spec_pairs, evaluate_mappings_batched
from repro.eval.cache import CacheKey, CacheStats, EvaluationCache
from repro.mapping.mapping import Mapping
from repro.timeloop.model import NetworkPerformance, PerformanceResult


class EvaluationEngine:
    """Cached, batched reference-model evaluation.

    A shared ``cache`` may be passed in to persist hits across searches; by
    default each engine owns a fresh unbounded cache.
    """

    def __init__(self, cache: EvaluationCache | None = None) -> None:
        self.cache = cache if cache is not None else EvaluationCache()

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Cache hit/miss statistics accumulated by this engine."""
        return self.cache.stats

    # ------------------------------------------------------------------ #
    def evaluate_many(
        self, mappings: list[Mapping], hardware: HardwareConfig
    ) -> list[PerformanceResult]:
        """Evaluate a batch of mappings on one hardware design, in order.

        Cache hits (including duplicates *within* the batch) are free; the
        remaining unique misses run through one vectorized batch evaluation.
        """
        return self._cached(
            mappings, [self.cache.key_for(mapping, hardware) for mapping in mappings],
            lambda misses: evaluate_mappings_batched(misses, hardware))

    def evaluate_pairs(
        self, pairs: Sequence[tuple[Mapping, HardwareConfig]]
    ) -> list[PerformanceResult]:
        """Evaluate ``(mapping, hardware)`` pairs with *mixed* designs, in order.

        The mixed-design counterpart of :meth:`evaluate_many`: cache hits
        (including duplicate pairs within the batch) are free, and the
        remaining unique misses run through one vectorized pass — the traffic
        walk is hardware-independent, so mappings bound for different designs
        still share a single stacked analysis.
        """
        return self._cached(
            pairs, [self.cache.key_for(mapping, hardware) for mapping, hardware in pairs],
            evaluate_mapping_spec_pairs)

    def _cached(
        self, items: Sequence, keys: list[CacheKey],
        evaluate: Callable[[list], list[PerformanceResult]],
    ) -> list[PerformanceResult]:
        """Serve ``items`` from the cache, evaluating each unique miss once.

        ``keys[i]`` is the cache key of ``items[i]``; ``evaluate`` scores a
        list of missed items in one batch.  A duplicate of an earlier miss in
        the same batch is served by that single evaluation, so it counts as a
        hit.
        """
        results: list[PerformanceResult | None] = [None] * len(items)
        pending: dict[CacheKey, list[int]] = {}
        for index, key in enumerate(keys):
            cached = self.cache.get(key)
            if cached is not None:
                self.cache.record(hit=True)
                results[index] = cached
            elif key in pending:
                self.cache.record(hit=True)
                pending[key].append(index)
            else:
                self.cache.record(hit=False)
                pending[key] = [index]

        if pending:
            evaluated = evaluate([items[indices[0]] for indices in pending.values()])
            for (key, indices), result in zip(pending.items(), evaluated):
                self.cache.store(key, result)
                for index in indices:
                    results[index] = result
        return results  # type: ignore[return-value]

    def evaluate_network_sets(
        self,
        sets: Sequence[tuple[list[Mapping], HardwareConfig]],
    ) -> list[NetworkPerformance]:
        """Evaluate several whole-network mapping sets in one batched pass.

        Each ``(mappings, hardware)`` set composes through
        :meth:`~repro.timeloop.model.NetworkPerformance.from_layers`, so
        per-set results are bit-identical to
        :func:`~repro.timeloop.model.evaluate_network_mappings` — but all
        sets' cache misses share a single vectorized evaluation, and
        duplicates *across* sets on the same hardware are served once.  An
        empty set is refused before any lookup, leaving the cache untouched.
        The DOSA searcher scores every active start point's rounding
        evaluation through this path — with the walk itself batched too (the
        ``(S, L)`` kernel in :mod:`repro.mapping.rounding_walk`), a rounding
        point is array-at-a-time end to end: round, re-select orderings,
        reference-evaluate, all without a per-start Python loop.
        """
        if any(not mappings for mappings, _hardware in sets):
            raise ValueError("evaluate_network_sets requires non-empty sets")
        flat = self.evaluate_pairs(
            [(mapping, hardware) for mappings, hardware in sets for mapping in mappings])
        performances: list[NetworkPerformance] = []
        cursor = 0
        for mappings, _hardware in sets:
            performances.append(NetworkPerformance.from_layers(
                flat[cursor:cursor + len(mappings)], mappings))
            cursor += len(mappings)
        return performances
