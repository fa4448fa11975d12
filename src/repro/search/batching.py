"""Budget-aware batched inner loops shared by the black-box searchers.

The two-loop baselines (random, Bayesian, fixed-hardware random) all run the
same inner loop: sample up to N random mappings for one layer, evaluate each
on the reference model, keep the best.  :func:`best_of_random_mappings` is
that loop restructured around the :class:`~repro.eval.engine.EvaluationEngine`
batch API: candidates are generated in chunks sized by the session's
remaining sample allowance, one ``generate(count)`` call per chunk (the
block sampler :func:`~repro.mapping.random_mapper.random_mappings_for_hardware`
draws a whole chunk at once), evaluated in one engine call (cache +
vectorized batch, in-process), and accounted sample-by-sample.

Semantics are preserved exactly relative to the per-sample loop:

* the RNG consumption order is unchanged (a ``generate(count)`` call draws
  what ``count`` one-candidate calls would), so seeded runs pick the same
  candidates,
* every requested evaluation spends one sample, cache hit or not,
* a chunk never overshoots ``max_samples`` (the chunk size is clamped to the
  session's :meth:`~repro.search.api.SearchSession.sample_allowance`), and
* the keep-the-first-design-feasible rule still allows a single in-flight
  evaluation per layer once the budget is spent, bounding the overshoot by
  the layer count exactly as the :class:`SearchBudget` contract documents.
"""

from __future__ import annotations

from typing import Callable

from repro.arch.config import HardwareConfig
from repro.eval.engine import EvaluationEngine
from repro.mapping.mapping import Mapping
from repro.search.api import SearchSession
from repro.timeloop.model import PerformanceResult

#: Evaluation chunk: large enough to amortize batch setup, small enough
#: that wall-time budgets are still checked frequently.
CHUNK_SIZE = 32


def best_of_random_mappings(
    session: SearchSession,
    engine: EvaluationEngine,
    hardware: HardwareConfig,
    attempts: int,
    generate: Callable[[int], list[Mapping | None]],
    on_evaluated: Callable[[Mapping, PerformanceResult], None] | None = None,
) -> tuple[Mapping | None, PerformanceResult | None]:
    """Best-of-``attempts`` random mappings for one layer, batched.

    ``generate(count)`` produces ``count`` candidates, each ``None`` when
    rejection sampling failed for it; ``on_evaluated`` observes every
    evaluated pair in order (the Bayesian searcher collects GP training
    features with it).  Returns the best ``(mapping, result)`` by EDP, or
    ``(None, None)`` when nothing was evaluated.
    """
    best_mapping: Mapping | None = None
    best_result: PerformanceResult | None = None
    remaining = attempts
    while remaining > 0:
        # Honor the budget, but keep the first design feasible: until any
        # design exists, every layer gets at least one evaluated mapping —
        # a single in-flight evaluation past exhaustion, never a full chunk.
        needs_one = best_mapping is None and session.best is None
        if session.exhausted():
            if not needs_one:
                break
            allowance = 1
        else:
            # Not exhausted implies samples < max_samples, so the allowance
            # is at least 1 here.
            allowance = session.sample_allowance(min(remaining, CHUNK_SIZE))
        batch = [candidate for candidate in generate(allowance) if candidate is not None]
        remaining -= allowance
        if not batch:
            continue
        results = engine.evaluate_many(batch, hardware)
        session.spend(len(batch))
        for mapping, result in zip(batch, results):
            if on_evaluated is not None:
                on_evaluated(mapping, result)
            if best_result is None or result.edp < best_result.edp:
                best_result = result
                best_mapping = mapping
    return best_mapping, best_result
