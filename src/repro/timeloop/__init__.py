"""Reference analytical model ("Gemmini-TL" stand-in for Timeloop + Accelergy).

The paper validates its differentiable model against Timeloop, an iterative
program-based analytical model, and uses Timeloop/Accelergy as the evaluation
oracle for the search baselines.  This package is the scalar statement of that
model: an independent, one-mapping-at-a-time implementation of the per-level
traffic, roofline latency and event-based energy analysis that

* works on integral (rounded) mappings only,
* uses integer/ceiling semantics for tile sizes, and
* charges DRAM energy per 64-byte block rather than per element,

which is exactly the behaviour the paper cites as the source of the small
disagreement with the differentiable model on tiny layers (Section 4.6).

It is the reference that the tests and the benchmark re-score against.  The
searches, the experiments and the surrogate models score mappings through
the bit-identical batch evaluator, :mod:`repro.eval.batch`; the shared result
types (:class:`PerformanceResult`, :class:`NetworkPerformance`) live here.
Every scorer takes the design point as a
:class:`~repro.arch.config.HardwareConfig` and prices it with the Table-2
functions of :mod:`repro.arch.components`.
"""

from repro.timeloop.loopnest import (
    TrafficBreakdown,
    analyze_traffic,
    reload_factor,
    tile_words,
)
from repro.timeloop.model import (
    PerformanceResult,
    evaluate_mapping,
    evaluate_network_mappings,
    NetworkPerformance,
)
from repro.timeloop.accelergy import energy_breakdown, EnergyBreakdown

__all__ = [
    "TrafficBreakdown",
    "analyze_traffic",
    "reload_factor",
    "tile_words",
    "PerformanceResult",
    "evaluate_mapping",
    "evaluate_network_mappings",
    "NetworkPerformance",
    "energy_breakdown",
    "EnergyBreakdown",
]
