"""The evaluation engine: cached + batched + parallel reference-model queries.

:class:`EvaluationEngine` is the single entry point the search strategies use
to query the reference model.  It composes the three acceleration layers of
this package behind the scalar API's semantics:

1. an :class:`~repro.eval.cache.EvaluationCache` serves exact repeats from
   memory (rounded candidates recur constantly in every strategy),
2. the vectorized batch evaluator of :mod:`repro.eval.batch` amortizes the
   per-mapping Python overhead across cache misses,
3. an optional :class:`~repro.eval.parallel.ParallelEvaluator` spreads large
   miss batches over ``n_workers`` processes.

Every path returns results bit-identical to
:func:`repro.timeloop.model.evaluate_mapping`, so search outcomes are
unchanged — only faster.  The engine is deliberately *not* responsible for
search sample accounting: callers spend samples through their
:class:`~repro.search.api.SearchSession` for every requested evaluation,
cache hit or not, keeping the paper's accounting and trace comparability.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.config import HardwareConfig
from repro.arch.gemmini import GemminiSpec
from repro.eval.batch import evaluate_mapping_spec_pairs, evaluate_mappings_batched
from repro.eval.cache import CacheKey, CacheStats, EvaluationCache
from repro.eval.parallel import ParallelEvaluator
from repro.mapping.mapping import Mapping
from repro.timeloop.model import (
    NetworkPerformance,
    PerformanceResult,
    as_spec,
)

#: Below this many cache misses the serial vectorized path beats the pool.
_MIN_PARALLEL_BATCH = 64


class EvaluationEngine:
    """Cached, batched, optionally parallel reference-model evaluation.

    ``n_workers=None`` (or ``<= 1``) keeps everything in-process; larger
    values enable the process pool for big miss batches.  A shared ``cache``
    may be passed in to persist hits across searches; by default each engine
    owns a fresh unbounded cache.
    """

    def __init__(
        self,
        cache: EvaluationCache | None = None,
        n_workers: int | None = None,
        check_validity: bool = True,
    ) -> None:
        self.cache = cache if cache is not None else EvaluationCache()
        self.check_validity = check_validity
        self.n_workers = n_workers
        self._pool = (ParallelEvaluator(n_workers)
                      if n_workers is not None and n_workers > 1 else None)

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Cache hit/miss statistics accumulated by this engine."""
        return self.cache.stats

    # ------------------------------------------------------------------ #
    def evaluate(
        self, mapping: Mapping, spec: GemminiSpec | HardwareConfig
    ) -> PerformanceResult:
        """Evaluate one mapping (cache-first, scalar fallback)."""
        return self.cache.evaluate(mapping, as_spec(spec),
                                   check_validity=self.check_validity)

    def evaluate_many(
        self, mappings: list[Mapping], spec: GemminiSpec | HardwareConfig
    ) -> list[PerformanceResult]:
        """Evaluate a batch of mappings on one hardware spec, in order.

        Cache hits (including duplicates *within* the batch) are free; the
        remaining unique misses run through the vectorized batch evaluator,
        or the process pool when the miss batch is large enough.
        """
        if not mappings:
            return []
        spec = as_spec(spec)
        results: list[PerformanceResult | None] = [None] * len(mappings)
        pending: dict[CacheKey, list[int]] = {}
        for index, mapping in enumerate(mappings):
            key = self.cache.key_for(mapping, spec)
            cached = self.cache.get(key)
            if cached is not None:
                self.cache.record(hit=True)
                results[index] = cached
            elif key in pending:
                # A duplicate of an earlier miss in this same batch: it will
                # be served by that single evaluation, i.e. it is a hit.
                self.cache.record(hit=True)
                pending[key].append(index)
            else:
                self.cache.record(hit=False)
                pending[key] = [index]

        if pending:
            unique = [mappings[indices[0]] for indices in pending.values()]
            if self._pool is not None and len(unique) >= _MIN_PARALLEL_BATCH:
                evaluated = self._pool.evaluate_many(
                    unique, spec, check_validity=self.check_validity)
            else:
                evaluated = evaluate_mappings_batched(
                    unique, spec, check_validity=self.check_validity)
            for (key, indices), result in zip(pending.items(), evaluated):
                self.cache.store(key, result)
                for index in indices:
                    results[index] = result
        return results  # type: ignore[return-value]

    def evaluate_pairs(
        self, pairs: "Sequence[tuple[Mapping, GemminiSpec | HardwareConfig]]"
    ) -> list[PerformanceResult]:
        """Evaluate ``(mapping, spec)`` pairs with *mixed* hardware, in order.

        The mixed-spec counterpart of :meth:`evaluate_many`: cache hits
        (including duplicate pairs within the batch) are free, and the
        remaining unique misses run through one vectorized pass — the traffic
        walk is hardware-independent, so mappings bound for different specs
        still share a single stacked analysis.
        """
        if not pairs:
            return []
        resolved = [(mapping, as_spec(spec)) for mapping, spec in pairs]
        results: list[PerformanceResult | None] = [None] * len(resolved)
        pending: dict[CacheKey, list[int]] = {}
        for index, (mapping, spec) in enumerate(resolved):
            key = self.cache.key_for(mapping, spec)
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
            unique = [resolved[indices[0]] for indices in pending.values()]
            if self._pool is not None and len(unique) >= _MIN_PARALLEL_BATCH:
                evaluated = self._pool.evaluate_pairs(
                    unique, check_validity=self.check_validity)
            else:
                evaluated = evaluate_mapping_spec_pairs(
                    unique, check_validity=self.check_validity)
            for (key, indices), result in zip(pending.items(), evaluated):
                self.cache.store(key, result)
                for index in indices:
                    results[index] = result
        return results  # type: ignore[return-value]

    def evaluate_network_sets(
        self,
        sets: "Sequence[tuple[list[Mapping], GemminiSpec | HardwareConfig]]",
    ) -> list[NetworkPerformance]:
        """Evaluate several whole-network mapping sets in one batched pass.

        Each ``(mappings, spec)`` set composes exactly like
        :meth:`evaluate_network` (same repetition scaling, same summation
        order), so per-set results are bit-identical to evaluating the sets
        one at a time — but all sets' cache misses share a single vectorized
        evaluation, and duplicates *across* sets on the same hardware are
        served once.  The DOSA searcher scores every active start point's
        rounding evaluation through this path — with the walk itself batched
        too (the ``(S, L)`` kernel in :mod:`repro.mapping.rounding_walk`), a
        rounding point is array-at-a-time end to end: round, re-select
        orderings, reference-evaluate, all without a per-start Python loop.
        """
        pairs = [(mapping, spec) for mappings, spec in sets for mapping in mappings]
        flat = self.evaluate_pairs(pairs)
        performances: list[NetworkPerformance] = []
        cursor = 0
        for mappings, _spec in sets:
            if not mappings:
                raise ValueError("evaluate_network_sets requires non-empty sets")
            results = flat[cursor:cursor + len(mappings)]
            cursor += len(mappings)
            total_latency = sum(r.latency_cycles * m.layer.repeats
                                for r, m in zip(results, mappings))
            total_energy = sum(r.energy * m.layer.repeats
                               for r, m in zip(results, mappings))
            performances.append(NetworkPerformance(
                total_latency=total_latency,
                total_energy=total_energy,
                per_layer=tuple(results),
            ))
        return performances

    def evaluate_network(
        self, mappings: list[Mapping], spec: GemminiSpec | HardwareConfig
    ) -> NetworkPerformance:
        """Cached/batched :func:`repro.timeloop.model.evaluate_network_mappings`.

        Composition (repetition scaling, summation order) matches the scalar
        helper exactly, so whole-network EDPs are bit-identical as well.
        """
        if not mappings:
            raise ValueError("evaluate_network requires at least one mapping")
        results = self.evaluate_many(mappings, spec)
        total_latency = sum(r.latency_cycles * m.layer.repeats
                            for r, m in zip(results, mappings))
        total_energy = sum(r.energy * m.layer.repeats
                           for r, m in zip(results, mappings))
        return NetworkPerformance(
            total_latency=total_latency,
            total_energy=total_energy,
            per_layer=tuple(results),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the worker pool, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
