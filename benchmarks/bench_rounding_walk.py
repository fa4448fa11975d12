"""Benchmark of the vectorized (S, L) integer-rounding walk.

PR 5 batched the reference-*evaluation* half of every DOSA rounding point
(`bench_rounding_eval.py`); this bench measures the other half: the
nearest-divisor rounding walk itself plus the ITERATE loop-ordering
re-selection, which used to run as S x L Python walks per rounding point and
now runs as two batched passes — one ``(S, L)`` integer-rounding kernel call
(`repro.mapping.rounding_walk`) and one restacked ``(3, S, L)``
`best_ordering_per_layer` pass.

Standalone CI smoke::

    PYTHONPATH=src python benchmarks/bench_rounding_walk.py --quick

builds the seeded multi-start resnet50 stack a DOSA search would round,
verifies the batched walk is *bit-identical* to the scalar
``round_mapping`` walk kept as the oracle in ``tests/oracles/rounding.py``
(and the batched re-selection decision-identical to per-start S=1 passes),
and fails (non-zero exit) if the kernel is less than 1.5x faster than the
per-start scalar walks.  ``--record PATH`` saves the
measurements as a JSON baseline (``benchmarks/BENCH_rounding_walk.json`` is
the checked-in one; see benchmarks/README.md for methodology).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.dmodel import MultiStartFactors, best_ordering_per_layer
from repro.core.optimizer.startpoints import generate_start_points, stack_start_points
from repro.workloads import get_network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles.rounding import rounded_mappings_of  # noqa: E402

WORKLOAD = "resnet50"
NUM_STARTS = 7
MAX_SPATIAL = 128  # the default search cap (HardwareBounds.max_pe_dim)
ROUNDS = 30  # repetitions per timed side
WALK_SPEEDUP_BAR = 1.5


def build_multistart(seed: int = 0) -> MultiStartFactors:
    """The seeded (S, L) factor stack a DOSA rounding point operates on."""
    network = get_network(WORKLOAD)
    points = generate_start_points(network, count=NUM_STARTS, seed=seed)
    return stack_start_points(points)


def walk_scalar(multi: MultiStartFactors) -> list:
    """The pre-change shape: one Python walk per start x layer."""
    return [rounded_mappings_of(multi, start, max_spatial=MAX_SPATIAL)
            for start in range(multi.num_starts)]


def walk_batched(multi: MultiStartFactors) -> list:
    """The current shape: every start through one (S, L) kernel pass."""
    return multi.rounded_mapping_sets(max_spatial=MAX_SPATIAL)


def reselect_per_start(rounded_sets: list) -> list:
    """The pre-change shape: one (3, 1, L) ordering pass per start."""
    return [best_ordering_per_layer(MultiStartFactors.from_mapping_sets([rounded]))[0]
            for rounded in rounded_sets]


def reselect_batched(rounded_sets: list) -> list:
    """The current shape: one restacked (3, S, L) ordering pass."""
    return best_ordering_per_layer(
        MultiStartFactors.from_mapping_sets(rounded_sets))


def assert_bit_identical(multi: MultiStartFactors) -> None:
    reference_sets = walk_scalar(multi)
    batched_sets = walk_batched(multi)
    for reference, batched in zip(reference_sets, batched_sets):
        for expected, actual in zip(reference, batched):
            assert np.array_equal(expected.temporal, actual.temporal)
            assert np.array_equal(expected.spatial, actual.spatial)
            assert expected.orderings == actual.orderings
    assert reselect_per_start(reference_sets) == reselect_batched(batched_sets)


def time_side(fn, argument, rounds: int) -> float:
    fn(argument)  # warmup (pays one-time divisor-table construction)
    start = time.perf_counter()
    for _ in range(rounds):
        fn(argument)
    return (time.perf_counter() - start) / rounds


def run_quick(minimum_speedup: float = WALK_SPEEDUP_BAR,
              record: str | None = None) -> int:
    multi = build_multistart(seed=0)
    layer_count = len(multi.layers)
    print(f"[bench] rounding walk: {multi.num_starts} starts x "
          f"{layer_count} layers ({WORKLOAD}), max_spatial={MAX_SPATIAL}")

    assert_bit_identical(multi)
    print("[bench] batched walk bit-identical to the scalar round_mapping "
          "oracle (and re-selection decision-identical): OK")

    scalar_walk = time_side(walk_scalar, multi, ROUNDS)
    batched_walk = time_side(walk_batched, multi, ROUNDS)
    walk_speedup = scalar_walk / batched_walk

    rounded_sets = walk_batched(multi)
    scalar_reselect = time_side(reselect_per_start, rounded_sets, ROUNDS)
    batched_reselect = time_side(reselect_batched, rounded_sets, ROUNDS)
    reselect_speedup = scalar_reselect / batched_reselect

    print(f"[bench] scalar walks      : {scalar_walk * 1e3:8.2f} ms/rounding point")
    print(f"[bench] batched kernel    : {batched_walk * 1e3:8.2f} ms/rounding point")
    print(f"[bench] walk speedup      : {walk_speedup:.2f}x "
          f"(bar: >={minimum_speedup}x)")
    print(f"[bench] per-start reselect: {scalar_reselect * 1e3:8.2f} ms/rounding point")
    print(f"[bench] batched reselect  : {batched_reselect * 1e3:8.2f} ms/rounding point")
    print(f"[bench] reselect speedup  : {reselect_speedup:.2f}x (reported, no bar)")

    if walk_speedup < minimum_speedup:
        # A failing run must not clobber a checked-in --record baseline.
        print(f"[bench] FAIL: batched rounding walk below {minimum_speedup}x",
              file=sys.stderr)
        return 1

    if record:
        payload = {
            "benchmark": "rounding_walk",
            "workload": WORKLOAD,
            "num_start_points": multi.num_starts,
            "unique_layers": layer_count,
            "max_spatial": MAX_SPATIAL,
            "measured_rounds": ROUNDS,
            "scalar_walk_ms": round(scalar_walk * 1e3, 3),
            "batched_walk_ms": round(batched_walk * 1e3, 3),
            "walk_speedup": round(walk_speedup, 2),
            "per_start_reselect_ms": round(scalar_reselect * 1e3, 3),
            "batched_reselect_ms": round(batched_reselect * 1e3, 3),
            "reselect_speedup": round(reselect_speedup, 2),
            "speedup_bar": minimum_speedup,
            "command": ("PYTHONPATH=src python benchmarks/bench_rounding_walk.py "
                        "--quick --record benchmarks/BENCH_rounding_walk.json"),
        }
        with open(record, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"recorded baseline -> {record}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run the CI smoke (correctness + speedup bar)")
    parser.add_argument("--min-speedup", type=float, default=WALK_SPEEDUP_BAR)
    parser.add_argument("--record", metavar="PATH",
                        help="write the measured baseline JSON to PATH")
    args = parser.parse_args()
    if not args.quick:
        parser.error("this benchmark only has a --quick mode")
    return run_quick(minimum_speedup=args.min_speedup, record=args.record)


if __name__ == "__main__":
    raise SystemExit(main())
