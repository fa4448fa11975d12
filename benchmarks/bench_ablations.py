"""Ablation benchmarks for three design choices of the DOSA search.

These are not paper figures; they quantify the knobs of the DOSA search on a
small workload so that a downstream user can see what each one buys:

* rounding period — how often fractional factors are snapped to valid mappings,
* number of GD start points — breadth vs depth under a fixed sample budget,
* whole-model EDP objective (Eq. 14) vs optimizing each layer separately.
"""

from repro.core.optimizer import DosaSearcher, DosaSettings
from repro.timeloop import evaluate_network_mappings
from repro.workloads import get_network
from repro.workloads.networks import Network


def _bert() -> Network:
    return get_network("bert")


def test_ablation_rounding_period(benchmark, record_results):
    """Frequent vs infrequent rounding under the same total step budget."""

    def run():
        results = {}
        for period in (30, 120):
            settings = DosaSettings(num_start_points=1, gd_steps=240,
                                    rounding_period=period, seed=0)
            results[period] = DosaSearcher(_bert(), settings).search().best_edp
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record_results(benchmark, best_edp_by_rounding_period=results)
    assert all(edp > 0 for edp in results.values())


def test_ablation_start_points(benchmark, record_results):
    """One deep descent vs several shallower descents at a matched budget."""

    def run():
        results = {}
        for start_points, steps in ((1, 240), (3, 80)):
            settings = DosaSettings(num_start_points=start_points, gd_steps=steps,
                                    rounding_period=40, seed=0)
            results[f"{start_points}x{steps}"] = DosaSearcher(_bert(), settings).search().best_edp
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record_results(benchmark, best_edp_by_start_points=results)
    assert all(edp > 0 for edp in results.values())


def test_ablation_whole_model_vs_per_layer_objective(benchmark, record_results):
    """Equation 14 (joint EDP) vs optimizing each layer in isolation.

    The per-layer variant runs an independent single-layer search per unique
    layer and merges the resulting hardware (parameter-wise max), which is the
    two-loop searchers' implicit objective; the joint variant is DOSA's.
    """

    def run():
        network = _bert()
        joint_settings = DosaSettings(num_start_points=1, gd_steps=120,
                                      rounding_period=60, seed=0)
        joint = DosaSearcher(network, joint_settings).search()

        per_layer_mappings = []
        per_layer_hardware = []
        for layer in network.layers:
            single = Network(name=layer.name or "layer", layers=[layer])
            settings = DosaSettings(num_start_points=1, gd_steps=120,
                                    rounding_period=60, seed=0)
            result = DosaSearcher(single, settings).search()
            per_layer_mappings.append(result.best.mappings[0])
            per_layer_hardware.append(result.best.hardware)
        from repro.arch import merge_hardware_configs

        merged = merge_hardware_configs(per_layer_hardware)
        per_layer_edp = evaluate_network_mappings(per_layer_mappings, merged).edp
        return {"joint": joint.best_edp, "per_layer": per_layer_edp}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record_results(benchmark, objective_ablation=results,
                   note="joint Eq.14 objective vs independently optimized layers")
    assert results["joint"] > 0 and results["per_layer"] > 0
