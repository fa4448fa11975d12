"""Micro-benchmarks of the performance models and the evaluation engine.

Not tied to a specific figure; these document the evaluation throughput that
makes the one-loop search practical (the differentiable model replaces
thousands of reference-model samples with gradient steps of comparable cost)
and the speedup of the cached + batched evaluation engine over the seed's
per-mapping path.

Besides the pytest-benchmark entries, the module runs standalone as the CI
smoke check for the evaluation path::

    PYTHONPATH=src python benchmarks/bench_model_throughput.py --quick

which times the scalar loop against :class:`repro.eval.EvaluationEngine` on a
randomized mapping corpus with realistic candidate repetition, verifies the
batch evaluator's per-level access counts are *bit-identical* to
:func:`repro.timeloop.loopnest.analyze_traffic`, prints the cache hit
statistics, and fails (non-zero exit) if the engine is less than 5x faster.
"""

import argparse
import sys
import time

import numpy as np

from repro.arch import GemminiSpec, HardwareConfig
from repro.autodiff import Adam
from repro.core.dmodel import (
    DifferentiableHardware,
    DifferentiableModel,
    MultiStartFactors,
    network_edp_loss,
    validity_penalty,
)
from repro.eval import EvaluationEngine, batch_analyze_traffic
from repro.mapping import cosa_mapping
from repro.mapping.random_mapper import random_mapping
from repro.timeloop import analyze_traffic, evaluate_mapping
from repro.workloads import get_network

CONFIG = HardwareConfig(16, 32, 128)

# Corpus shape for the standalone engine benchmark: each unique mapping
# appears `DUPLICATION`x, modelling the repeated candidates that rounding
# produces for the random/Bayesian baselines.
DUPLICATION = 4


def build_corpus(num_unique: int, seed: int = 0) -> list:
    """Random valid mappings over ResNet-50/BERT layers, with repetition."""
    rng = np.random.default_rng(seed)
    layers = get_network("resnet50").layers[:8] + get_network("bert").layers[:2]
    unique = [random_mapping(layers[i % len(layers)], seed=rng, max_spatial=32)
              for i in range(num_unique)]
    corpus = [mapping for mapping in unique for _ in range(DUPLICATION)]
    order = np.random.default_rng(seed + 1).permutation(len(corpus))
    return [corpus[i] for i in order]


# --------------------------------------------------------------------------- #
# pytest-benchmark entries
# --------------------------------------------------------------------------- #
def test_reference_model_evaluation(benchmark):
    mapping = cosa_mapping(get_network("resnet50").layers[5], CONFIG)
    spec = GemminiSpec(CONFIG)
    result = benchmark(evaluate_mapping, mapping, spec)
    assert result.edp > 0


def test_differentiable_model_evaluation(benchmark):
    mapping = cosa_mapping(get_network("resnet50").layers[5], CONFIG)
    factors = MultiStartFactors.from_mapping_sets([[mapping]])
    hardware = DifferentiableHardware.from_config(CONFIG)
    performance = benchmark(DifferentiableModel.evaluate_layer, factors, hardware)
    assert performance.edp.data.item() > 0


def test_batched_engine_evaluation(benchmark):
    """One engine batch over a fresh-cache corpus (vectorized misses only)."""
    corpus = build_corpus(num_unique=64, seed=2)
    spec = GemminiSpec(CONFIG)

    def evaluate_batch():
        engine = EvaluationEngine()
        return engine.evaluate_many(corpus, spec)

    results = benchmark(evaluate_batch)
    assert len(results) == len(corpus) and results[0].edp > 0


def test_cached_engine_evaluation(benchmark):
    """Steady-state engine queries on a warm cache (pure hits)."""
    corpus = build_corpus(num_unique=32, seed=3)
    spec = GemminiSpec(CONFIG)
    engine = EvaluationEngine()
    engine.evaluate_many(corpus, spec)  # warm up

    results = benchmark(engine.evaluate_many, corpus, spec)
    assert len(results) == len(corpus)
    assert engine.stats.hit_rate > 0.7


def test_gradient_descent_step_bert(benchmark):
    network = get_network("bert")
    factors = MultiStartFactors.from_mapping_sets(
        [[cosa_mapping(layer, CONFIG) for layer in network.layers]])
    repeats = [layer.repeats for layer in network.layers]
    optimizer = Adam(factors.parameters(), lr=0.05)

    def step():
        optimizer.zero_grad()
        hardware = DifferentiableModel.derive_hardware(factors)
        performances = DifferentiableModel.evaluate_network(factors, hardware)
        loss = (network_edp_loss(performances, repeats)
                + 1e9 * validity_penalty(factors)).sum()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    loss_value = benchmark(step)
    assert loss_value > 0


# --------------------------------------------------------------------------- #
# Standalone smoke mode (CI): throughput ratio + bit-identical parity
# --------------------------------------------------------------------------- #
def check_parity(corpus: list) -> None:
    """Assert batch per-level access counts are bit-identical to the walk."""
    batch = batch_analyze_traffic(corpus)
    per_level = batch.per_level_accesses()
    for index, mapping in enumerate(corpus):
        reference = analyze_traffic(mapping)
        for position, level in enumerate(sorted(reference.per_level_accesses())):
            reference_accesses = reference.accesses(level)
            if per_level[index, position] != reference_accesses:
                raise AssertionError(
                    f"parity violation at mapping {index}, level {level}: "
                    f"batch={per_level[index, position]!r} "
                    f"reference={reference_accesses!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="evaluation-engine smoke benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI smoke); default is ~4x larger")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail below this engine-vs-scalar throughput ratio")
    args = parser.parse_args(argv)

    num_unique = 150 if args.quick else 600
    corpus = build_corpus(num_unique=num_unique)
    spec = GemminiSpec(CONFIG)
    print(f"[bench] corpus: {len(corpus)} mappings "
          f"({num_unique} unique x {DUPLICATION})")

    check_parity(corpus[: min(len(corpus), 200)])
    print("[bench] parity: batch per-level access counts bit-identical "
          "to analyze_traffic")

    start = time.perf_counter()
    scalar_results = [evaluate_mapping(mapping, spec) for mapping in corpus]
    scalar_seconds = time.perf_counter() - start

    engine = EvaluationEngine()
    start = time.perf_counter()
    engine_results = engine.evaluate_many(corpus, spec)
    engine_seconds = time.perf_counter() - start

    for scalar, fast in zip(scalar_results, engine_results):
        assert scalar.edp == fast.edp, "engine result diverged from scalar path"

    scalar_throughput = len(corpus) / scalar_seconds
    engine_throughput = len(corpus) / engine_seconds
    speedup = engine_throughput / scalar_throughput
    print(f"[bench] scalar path:  {scalar_seconds:.3f}s "
          f"({scalar_throughput:,.0f} mappings/s)")
    print(f"[bench] eval engine:  {engine_seconds:.3f}s "
          f"({engine_throughput:,.0f} mappings/s)")
    print(f"[bench] speedup:      {speedup:.1f}x (required: >= {args.min_speedup:.1f}x)")
    print(f"[bench] cache stats:  {engine.stats.describe()}")

    if speedup < args.min_speedup:
        print(f"[bench] FAIL: speedup {speedup:.1f}x below the "
              f"{args.min_speedup:.1f}x bar", file=sys.stderr)
        return 1
    print("[bench] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
