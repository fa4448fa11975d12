"""Benchmark of the cross-start rounding-point reference evaluation.

The ROADMAP PR 4 follow-up identified the rounding / reference-evaluation
phase as the dominant cost of a (batched-descent) DOSA search.  This bench
measures exactly the change that addressed it: at every rounding point the
start-batched searcher now scores **all** active starts through one
``EvaluationEngine.evaluate_network_sets`` call — a single stacked traffic
analysis across S starts x L layers, even though each start derived its own
hardware — instead of one per-start ``evaluate_many`` batch composed with
``NetworkPerformance.from_layers``.

Standalone CI smoke::

    PYTHONPATH=src python benchmarks/bench_rounding_eval.py --quick

builds realistic rounding-point batches (the actual rounded mapping sets a
seeded multi-start resnet50 descent produces), verifies the cross-start path
is *bit-identical* to scoring the sets one at a time, and fails (non-zero
exit) if it is less than 1.2x faster on cold caches (measured ~1.6x; the bar
sits well below that so it catches regressions, not machine noise).
"""

import argparse
import sys
import time

import numpy as np

from repro.core.optimizer import DosaSettings
from repro.core.optimizer.dosa import DosaSearcher
from repro.core.optimizer.startpoints import generate_start_points
from repro.eval import EvaluationEngine
from repro.mapping.constraints import minimal_hardware_for_mappings
from repro.timeloop.model import NetworkPerformance
from repro.workloads import get_network

WORKLOAD = "resnet50"
NUM_STARTS = 7
ROUNDS = 30  # cold-cache repetitions per timed side


def build_rounding_sets(seed: int = 0) -> list:
    """The (mappings, hardware) sets of one realistic rounding point.

    Generates the seeded start points a DOSA search would descend and rounds
    them exactly like `_round_and_evaluate_all` does (ITERATE ordering
    re-selection + minimal-hardware derivation), so the benchmark scores the
    same kind of batch the searcher scores.
    """
    network = get_network(WORKLOAD)
    searcher = DosaSearcher(network, DosaSettings(num_start_points=NUM_STARTS,
                                                  seed=seed))
    starts = generate_start_points(network, count=NUM_STARTS, seed=seed)
    sets = searcher._prepare_rounded_sets(
        [[m.with_dram_inferred() for m in point.mappings] for point in starts])
    for rounded, hardware in sets:
        assert hardware == minimal_hardware_for_mappings(rounded)
    return sets


def score_per_start(sets) -> list:
    """The pre-change shape: one engine batch per start (shared cold cache)."""
    engine = EvaluationEngine()
    return [NetworkPerformance.from_layers(
                engine.evaluate_many(mappings, hardware), mappings)
            for mappings, hardware in sets]


def score_cross_start(sets) -> list:
    """The current shape: every start in one cross-start batch (cold cache)."""
    return EvaluationEngine().evaluate_network_sets(sets)


def assert_bit_identical(sets) -> None:
    for expected, actual in zip(score_per_start(sets), score_cross_start(sets)):
        assert actual.total_latency == expected.total_latency
        assert actual.total_energy == expected.total_energy
        assert actual.per_layer == expected.per_layer


def time_side(fn, sets, rounds: int) -> float:
    fn(sets)  # warmup (pays one-time wrap/memoization costs)
    start = time.perf_counter()
    for _ in range(rounds):
        fn(sets)
    return (time.perf_counter() - start) / rounds


def run_quick(minimum_speedup: float = 1.2) -> int:
    sets = build_rounding_sets(seed=0)
    layer_count = len(sets[0][0])
    print(f"[bench] rounding-point batch: {len(sets)} starts x "
          f"{layer_count} layers ({WORKLOAD}), "
          f"{len({hw for _, hw in sets})} distinct derived hardware configs")

    assert_bit_identical(sets)
    print("[bench] cross-start batch bit-identical to per-start evaluation: OK")

    per_start = time_side(score_per_start, sets, ROUNDS)
    cross_start = time_side(score_cross_start, sets, ROUNDS)
    speedup = per_start / cross_start
    print(f"[bench] per-start batches : {per_start * 1e3:8.2f} ms/rounding point")
    print(f"[bench] cross-start batch : {cross_start * 1e3:8.2f} ms/rounding point")
    print(f"[bench] speedup           : {speedup:.2f}x (bar: >={minimum_speedup}x)")
    if speedup < minimum_speedup:
        print(f"[bench] FAIL: cross-start rounding evaluation below "
              f"{minimum_speedup}x", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run the CI smoke (correctness + speedup bar)")
    parser.add_argument("--min-speedup", type=float, default=1.2)
    args = parser.parse_args()
    if not args.quick:
        parser.error("this benchmark only has a --quick mode")
    np.random.seed(0)
    return run_quick(minimum_speedup=args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
