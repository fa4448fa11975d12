"""Reproduction of "DOSA: Differentiable Model-Based One-Loop Search for DNN
Accelerators" (Hong et al., MICRO 2023).

The package is organized bottom-up:

* :mod:`repro.autodiff` — reverse-mode automatic differentiation (PyTorch substitute),
* :mod:`repro.workloads` — DNN layer and network definitions (Table 6),
* :mod:`repro.arch` — the Gemmini-style accelerator and Table-2 cost model,
* :mod:`repro.mapping` — mappings, rounding, random and CoSA-style mappers,
* :mod:`repro.timeloop` — the iterative reference analytical model (Timeloop stand-in),
* :mod:`repro.eval` — the fast evaluation engine over the reference model
  (exact-result caching and vectorized batching, in-process), used by every
  search strategy,
* :mod:`repro.core` — the differentiable model (Eq. 1-18) and the DOSA searcher,
* :mod:`repro.search` — the unified search API (protocol, registry, budget,
  callbacks) plus the random-search and Bayesian-optimization baselines,
* :mod:`repro.campaign` — sharded, resumable experiment campaigns (declarative
  workload x strategy x seed x budget grids, a persistent JSONL result store
  that doubles as a cross-process evaluation-cache spill, and deterministic
  aggregate reports),
* :mod:`repro.service` — search-as-a-service: a job daemon serving searches
  and campaigns to many concurrent HTTP clients (bounded queue, SSE progress
  streams, per-tenant stores over one shared cache spill, graceful drain),
* :mod:`repro.surrogate` — the synthetic Gemmini-RTL simulator and learned latency models,
* :mod:`repro.experiments` — one harness per paper table/figure.

Quick start — one entry point for every search strategy::

    import repro

    outcome = repro.optimize("resnet50", strategy="dosa",
                             budget=repro.SearchBudget(max_samples=5000), seed=0)
    print(outcome.best_hardware.describe(), outcome.best_edp)

    for strategy in repro.available_strategies():   # dosa, random, bayesian, ...
        print(strategy)

Every strategy returns the same :class:`repro.SearchOutcome` with a
sample-indexed best-so-far trace, so methods are directly comparable as in
the paper's Figures 7-9.  The same search is available from the shell::

    python -m repro.cli search resnet50 --strategy dosa --max-samples 5000 --json out.json

``import repro`` loads no submodule and no NumPy: each top-level name is
resolved on first access (a module ``__getattr__``, PEP 562) by importing
the subpackage listed for it in ``_EXPORTS``, so a caller pays only for the
layers it uses.
"""

import importlib

#: The subpackage each public top-level name is imported from on first use.
_EXPORTS = {
    "HardwareConfig": "repro.arch",
    "CampaignReport": "repro.campaign",
    "CampaignScheduler": "repro.campaign",
    "CampaignSpec": "repro.campaign",
    "ResultStore": "repro.campaign",
    "StrategyVariant": "repro.campaign",
    "run_campaign": "repro.campaign",
    "DosaSearcher": "repro.core.optimizer",
    "DosaSettings": "repro.core.optimizer",
    "LoopOrderingStrategy": "repro.core.optimizer",
    "EvaluationCache": "repro.eval",
    "EvaluationEngine": "repro.eval",
    "Mapping": "repro.mapping",
    "cosa_mapping": "repro.mapping",
    "random_mapping": "repro.mapping",
    "CandidateDesign": "repro.search.api",
    "ProgressCallback": "repro.search.api",
    "SearchBudget": "repro.search.api",
    "SearchCallback": "repro.search.api",
    "Searcher": "repro.search.api",
    "SearchOutcome": "repro.search.api",
    "SearchTrace": "repro.search.api",
    "available_strategies": "repro.search.api",
    "get_searcher": "repro.search.api",
    "optimize": "repro.search.api",
    "register_searcher": "repro.search.api",
    "SearchService": "repro.service",
    "ServiceConfig": "repro.service",
    "evaluate_mapping": "repro.timeloop",
    "evaluate_network_mappings": "repro.timeloop",
    "LayerDims": "repro.workloads",
    "conv2d_layer": "repro.workloads",
    "get_network": "repro.workloads",
    "matmul_layer": "repro.workloads",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "3.0.0"

__all__ = [
    "HardwareConfig",
    "CampaignReport",
    "CampaignScheduler",
    "CampaignSpec",
    "ResultStore",
    "StrategyVariant",
    "run_campaign",
    "DosaSearcher",
    "DosaSettings",
    "LoopOrderingStrategy",
    "EvaluationCache",
    "EvaluationEngine",
    "Mapping",
    "cosa_mapping",
    "random_mapping",
    "CandidateDesign",
    "ProgressCallback",
    "SearchBudget",
    "SearchCallback",
    "Searcher",
    "SearchOutcome",
    "SearchTrace",
    "available_strategies",
    "get_searcher",
    "optimize",
    "register_searcher",
    "SearchService",
    "ServiceConfig",
    "evaluate_mapping",
    "evaluate_network_mappings",
    "LayerDims",
    "conv2d_layer",
    "matmul_layer",
    "get_network",
    "__version__",
]
