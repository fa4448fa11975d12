"""Fast reference-model evaluation: caching and batching, in-process.

Every search strategy, experiment and surrogate model scores mappings here,
with results bit-identical to the scalar reference (Timeloop-style) model in
:mod:`repro.timeloop`, which the tests and the benchmark re-score against;
this package makes that scoring cheap without changing a single result:

* :mod:`repro.eval.cache` — :class:`EvaluationCache` memoizes
  ``(mapping, hardware)`` evaluations with hit/miss statistics,
* :mod:`repro.eval.batch` — NumPy-vectorized traffic analysis for whole
  candidate batches, verified bit-identical to the scalar walk,
* :mod:`repro.eval.engine` — :class:`EvaluationEngine`, the facade the search
  strategies use: a cache lookup plus one vectorized batch call for the
  misses.

The benchmark (``perfbench/``) times both inside whole searches
(``eval.engine_s``, ``eval.batch_s``).
"""

from repro.eval.batch import (
    BatchTraffic,
    batch_analyze_traffic,
    evaluate_mappings_batched,
)
from repro.eval.cache import CacheStats, EvaluationCache, mapping_fingerprint
from repro.eval.engine import EvaluationEngine

__all__ = [
    "BatchTraffic",
    "batch_analyze_traffic",
    "evaluate_mappings_batched",
    "CacheStats",
    "EvaluationCache",
    "mapping_fingerprint",
    "EvaluationEngine",
]
