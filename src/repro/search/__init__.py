"""Search strategies behind one API (paper Sections 5 and 6.3).

All strategies implement the :class:`repro.search.api.Searcher` protocol
(``search(budget, callbacks) -> SearchOutcome``) and are reachable through the
strategy registry:

* ``"dosa"`` — the differentiable one-loop search (:mod:`repro.core.optimizer`),
* ``"random"`` — random two-loop search: random hardware designs, each explored
  with many random mappings per layer,
* ``"bayesian"`` — Bayesian-optimization two-loop search: a Gaussian-process
  surrogate over hardware/mapping features (hyperparameters follow the
  Spotlight-style setup described in Section 6.1),
* ``"fixed_hw_random"`` — a random-pruned mapping search for a *fixed* hardware
  design, used to give the expert baseline accelerators of Figure 8 well-tuned
  mappings.

Use :func:`repro.optimize` (or :func:`repro.search.api.optimize`) as the
single entry point.  Every strategy queries the reference model through the
:class:`repro.eval.EvaluationEngine` (cached + batched, in-process); results
are bit-identical to direct evaluation, only faster.
"""

from repro.search.api import (
    CandidateDesign,
    ProgressCallback,
    SearchBudget,
    SearchCallback,
    Searcher,
    SearchOutcome,
    SearchSession,
    SearchTrace,
    TracePoint,
    available_strategies,
    get_searcher,
    optimize,
    register_searcher,
)
from repro.search.random_search import RandomSearcher, RandomSearchSettings
from repro.search.random_mapper_search import (
    FixedHardwareMapperSearcher,
    FixedHardwareSettings,
)
from repro.search.gp import GaussianProcessRegressor
from repro.search.bayesian import BayesianSearcher, BayesianSettings

__all__ = [
    "CandidateDesign",
    "ProgressCallback",
    "SearchBudget",
    "SearchCallback",
    "Searcher",
    "SearchOutcome",
    "SearchSession",
    "SearchTrace",
    "TracePoint",
    "available_strategies",
    "get_searcher",
    "optimize",
    "register_searcher",
    "RandomSearcher",
    "RandomSearchSettings",
    "FixedHardwareMapperSearcher",
    "FixedHardwareSettings",
    "GaussianProcessRegressor",
    "BayesianSearcher",
    "BayesianSettings",
]
