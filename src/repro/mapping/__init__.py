"""Mapping representation and mappers.

A *mapping* fixes, for one layer, the spatial and temporal tiling factors at
every memory level and the per-level loop orderings (paper Section 3.1.2).
This package provides:

* :class:`~repro.mapping.mapping.Mapping` — the factor/ordering container used
  by both the differentiable model and the iterative reference model,
* rounding of fractional factors to the nearest valid divisors (Section 5.3.2)
  as a vectorized ``(S, L)`` integer-rounding kernel over stacked factor
  tensors (:mod:`~repro.mapping.rounding_walk`),
* a random valid mapper that draws, builds and fit-checks a block of
  candidate mappings at once (used by the search baselines and the
  correlation and surrogate-training datasets),
* a CoSA-style heuristic mapper used to seed gradient-descent start points and
  as the "constant mapper" of the Figure 9 study.
"""

from repro.mapping.mapping import (
    LoopOrdering,
    Mapping,
    SPATIAL_DIMS,
    ordering_for_tensor,
    DEFAULT_ORDERINGS,
)
from repro.mapping.rounding_walk import (
    RoundingTables,
    round_factor_tensors,
)
from repro.mapping.constraints import (
    validate_mapping,
    mapping_fits_hardware,
    capacity_requirements,
    minimal_hardware_for_mappings,
)
from repro.mapping.random_mapper import (
    random_mapping,
    random_mapping_for_hardware,
    random_mappings_for_hardware,
)
from repro.mapping.cosa import cosa_mapping

__all__ = [
    "LoopOrdering",
    "Mapping",
    "SPATIAL_DIMS",
    "ordering_for_tensor",
    "DEFAULT_ORDERINGS",
    "RoundingTables",
    "round_factor_tensors",
    "validate_mapping",
    "mapping_fits_hardware",
    "capacity_requirements",
    "minimal_hardware_for_mappings",
    "random_mapping",
    "random_mapping_for_hardware",
    "random_mappings_for_hardware",
    "cosa_mapping",
]
