"""GD inner-loop throughput: per-layer oracle vs S=1 stack vs stack + tape
vs start-batched (multi-start).

The DOSA search spends essentially its whole budget in the gradient-descent
inner loop (``gd_steps x num_start_points`` steps of loss forward/backward +
Adam).  This module measures that loop in steps/second for four ways of
running the differentiable model:

* **per-layer** — the per-layer oracle model (``tests/oracles/layer_model.py``):
  one scalar-node graph per layer, re-traced every step,
* **batched** — one start point as an S=1
  :class:`~repro.core.dmodel.factors.MultiStartFactors` stack: one array-op
  graph per network, re-traced every step,
* **batched + tape** — the same graph compiled once into a
  :class:`~repro.autodiff.tape.Tape` and replayed,
* **multi-start** — all S start points x L layers in one ``(S, L, ...)``
  stack, so a single replayed step advances every start point (what the
  DOSA search runs).

Besides the pytest-benchmark entries, the module runs standalone as the CI
smoke check for the GD path::

    PYTHONPATH=src python benchmarks/bench_gd_throughput.py --quick

which verifies the implementations produce bit-identical losses from the same
start points on a ResNet-style workload and fails (non-zero exit) if the
batched + tape loop is less than 3x the per-layer steps/second, or if a
seeded 7-start multi-start descent is less than 2x faster (wall-clock) than
descending the same 7 start points sequentially.  ``--record PATH`` saves the
multi-start measurements as a JSON baseline
(``benchmarks/BENCH_gd_multistart.json`` is the checked-in one; see
benchmarks/README.md for methodology).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.arch import HardwareConfig
from repro.autodiff import Adam, Tape, ops
from repro.core.dmodel import (
    DifferentiableModel,
    MultiStartFactors,
    network_edp_loss,
    validity_penalty,
)
from repro.core.optimizer import generate_start_points
from repro.mapping import cosa_mapping
from repro.workloads import get_network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import layer_model as oracle  # noqa: E402

CONFIG = HardwareConfig(16, 32, 128)
PENALTY_WEIGHT = 1e9
LEARNING_RATE = 0.05
SPEEDUP_BAR = 3.0
MULTISTART_SPEEDUP_BAR = 2.0
MULTISTART_POINTS = 7


def _start_mappings(workload: str):
    network = get_network(workload)
    repeats = [layer.repeats for layer in network.layers]
    return [cosa_mapping(layer, CONFIG) for layer in network.layers], repeats


def make_per_layer_stepper(mappings, repeats):
    """The per-layer oracle inner loop: per-layer graphs, re-traced every step."""
    factors = [oracle.LayerFactors.from_mapping(m) for m in mappings]
    optimizer = Adam([p for f in factors for p in f.parameters()], lr=LEARNING_RATE)

    def step() -> float:
        optimizer.zero_grad()
        hardware = oracle.LayerModel.derive_hardware(factors)
        performances = oracle.LayerModel.evaluate_network(factors, hardware)
        loss = (oracle.network_edp_loss(performances, repeats)
                + PENALTY_WEIGHT * oracle.validity_penalty(factors))
        loss.backward()
        optimizer.step()
        return float(loss.data)

    return step


def make_batched_stepper(mappings, repeats, use_tape: bool):
    """One start point's inner loop on an S=1 stack; returns its loss."""
    step = make_multistart_stepper([mappings], repeats, use_tape=use_tape)
    return lambda: float(step()[0])


def make_multistart_stepper(mapping_sets, repeats, use_tape: bool = True):
    """The start-batched inner loop: one (S, L, ...) graph for all starts.

    ``step()`` returns the per-start loss vector, so callers can check each
    start's loss bitwise against its own S=1 stepper.
    """
    factors = MultiStartFactors.from_mapping_sets(mapping_sets)
    optimizer = Adam(factors.parameters(), lr=LEARNING_RATE, fused=True)
    traced = {}

    def build_loss():
        grid = factors.factor_grid()
        hardware = DifferentiableModel.derive_hardware(factors, grid=grid)
        performances = DifferentiableModel.evaluate_network(factors, hardware,
                                                            grid=grid)
        per_start = (network_edp_loss(performances, repeats)
                     + PENALTY_WEIGHT * validity_penalty(factors, grid=grid))
        traced["per_start"] = per_start
        return ops.fold_sum(per_start)

    tape = Tape(build_loss) if use_tape else None

    def step():
        optimizer.zero_grad()
        if tape is not None:
            tape.forward()
            tape.backward()
        else:
            build_loss().backward()
        optimizer.step()
        return traced["per_start"].data.copy()

    return step


def _seeded_start_mapping_sets(workload: str, count: int = MULTISTART_POINTS):
    """Seeded DOSA start points for ``workload`` (one mapping list per start)."""
    network = get_network(workload)
    repeats = [layer.repeats for layer in network.layers]
    points = generate_start_points(network, count=count, seed=0)
    return [point.mappings for point in points], repeats


def measure_steps_per_second(step, steps: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        step()
    start = time.perf_counter()
    for _ in range(steps):
        step()
    return steps / (time.perf_counter() - start)


# --------------------------------------------------------------------------- #
# pytest-benchmark entries
# --------------------------------------------------------------------------- #
def test_gd_step_per_layer(benchmark):
    mappings, repeats = _start_mappings("bert")
    step = make_per_layer_stepper(mappings, repeats)
    assert benchmark(step) > 0


def test_gd_step_batched(benchmark):
    mappings, repeats = _start_mappings("bert")
    step = make_batched_stepper(mappings, repeats, use_tape=False)
    assert benchmark(step) > 0


def test_gd_step_batched_tape(benchmark):
    mappings, repeats = _start_mappings("bert")
    step = make_batched_stepper(mappings, repeats, use_tape=True)
    assert benchmark(step) > 0


def test_gd_step_multistart(benchmark):
    """One step advancing all 7 seeded start points of a bert search."""
    mapping_sets, repeats = _seeded_start_mapping_sets("bert")
    step = make_multistart_stepper(mapping_sets, repeats, use_tape=True)
    assert benchmark(step).shape == (MULTISTART_POINTS,)


# --------------------------------------------------------------------------- #
# Standalone quick benchmark (CI smoke)
# --------------------------------------------------------------------------- #
def run_quick(workload: str = "resnet50", per_layer_steps: int = 10,
              batched_steps: int = 60) -> int:
    mappings, repeats = _start_mappings(workload)
    layer_count = len(mappings)

    # Correctness smoke: the three loops produce bit-identical first losses.
    first_losses = {
        "per-layer": make_per_layer_stepper(mappings, repeats)(),
        "batched": make_batched_stepper(mappings, repeats, use_tape=False)(),
        "batched+tape": make_batched_stepper(mappings, repeats, use_tape=True)(),
    }
    if len(set(first_losses.values())) != 1:
        print(f"FAIL: first-step losses disagree: {first_losses}")
        return 1
    print(f"{workload}: {layer_count} unique layers, first GD loss "
          f"{first_losses['per-layer']:.6e} (bit-identical across all three loops)")

    per_layer = measure_steps_per_second(
        make_per_layer_stepper(mappings, repeats), per_layer_steps)
    batched = measure_steps_per_second(
        make_batched_stepper(mappings, repeats, use_tape=False), batched_steps)
    taped = measure_steps_per_second(
        make_batched_stepper(mappings, repeats, use_tape=True), batched_steps)

    print(f"per-layer     : {per_layer:8.1f} steps/s")
    print(f"batched       : {batched:8.1f} steps/s ({batched / per_layer:.1f}x)")
    print(f"batched + tape: {taped:8.1f} steps/s ({taped / per_layer:.1f}x)")

    if taped < SPEEDUP_BAR * per_layer:
        print(f"FAIL: batched+tape speedup {taped / per_layer:.2f}x is below "
              f"the {SPEEDUP_BAR:.0f}x bar")
        return 1
    print(f"OK: batched+tape is {taped / per_layer:.1f}x the per-layer inner "
          f"loop (bar: {SPEEDUP_BAR:.0f}x)")
    return 0


def run_quick_multistart(workload: str = "resnet50", steps: int = 25,
                         record: str | None = None) -> int:
    """Multi-start smoke: per-start loss parity + the >=2x wall-clock bar.

    Descends the same seeded 7 start points (a) sequentially, one
    batched + tape stepper per start, and (b) in one start-batched graph, and
    compares the wall-clock for ``steps`` GD steps of every start.
    """
    mapping_sets, repeats = _seeded_start_mapping_sets(workload)
    starts = len(mapping_sets)
    layer_count = len(mapping_sets[0])

    # Correctness smoke: each start's first multi-start loss is bit-identical
    # to the first loss of its own S=1 stack + tape stepper.
    multi_first = make_multistart_stepper(mapping_sets, repeats)()
    single_first = [make_batched_stepper(mappings, repeats, use_tape=True)()
                    for mappings in mapping_sets]
    mismatches = [s for s in range(starts) if multi_first[s] != single_first[s]]
    if mismatches:
        print(f"FAIL: multi-start losses diverge from per-start losses at "
              f"start indices {mismatches}")
        return 1
    print(f"{workload}: {starts} seeded start points x {layer_count} unique "
          f"layers, per-start first losses bit-identical to sequential descents")

    sequential_seconds = 0.0
    for mappings in mapping_sets:
        rate = measure_steps_per_second(
            make_batched_stepper(mappings, repeats, use_tape=True), steps)
        sequential_seconds += steps / rate
    multistart_rate = measure_steps_per_second(
        make_multistart_stepper(mapping_sets, repeats), steps)
    multistart_seconds = steps / multistart_rate
    speedup = sequential_seconds / multistart_seconds

    print(f"sequential starts: {sequential_seconds:8.3f}s for {steps} steps "
          f"of each of {starts} starts")
    print(f"multi-start      : {multistart_seconds:8.3f}s for {steps} steps "
          f"of all {starts} starts ({speedup:.1f}x)")

    if speedup < MULTISTART_SPEEDUP_BAR:
        # A failing run must not clobber a checked-in --record baseline.
        print(f"FAIL: multi-start speedup {speedup:.2f}x is below the "
              f"{MULTISTART_SPEEDUP_BAR:.0f}x bar")
        return 1
    print(f"OK: multi-start descent is {speedup:.1f}x sequential starts "
          f"(bar: {MULTISTART_SPEEDUP_BAR:.0f}x)")

    if record:
        payload = {
            "benchmark": "gd_multistart",
            "workload": workload,
            "num_start_points": starts,
            "unique_layers": layer_count,
            "measured_steps": steps,
            "sequential_seconds": round(sequential_seconds, 4),
            "multistart_seconds": round(multistart_seconds, 4),
            "wall_clock_speedup": round(speedup, 2),
            "speedup_bar": MULTISTART_SPEEDUP_BAR,
            "command": ("PYTHONPATH=src python benchmarks/bench_gd_throughput.py "
                        "--quick --record benchmarks/BENCH_gd_multistart.json"),
        }
        with open(record, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"recorded baseline -> {record}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run the standalone smoke benchmark and enforce "
                             f"the {SPEEDUP_BAR:.0f}x batched and "
                             f"{MULTISTART_SPEEDUP_BAR:.0f}x multi-start bars")
    parser.add_argument("--workload", default="resnet50",
                        help="workload for --quick (default: resnet50)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write the multi-start measurements to PATH as a "
                             "JSON baseline")
    args = parser.parse_args(argv)
    if not args.quick:
        parser.error("run under pytest-benchmark, or pass --quick")
    status = run_quick(workload=args.workload)
    if status:
        return status
    return run_quick_multistart(workload=args.workload, record=args.record)


if __name__ == "__main__":
    sys.exit(main())
