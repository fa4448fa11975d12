"""The DOSA search with one start point descended at a time.

The production schedule descends all S start points in one ``(S, L)`` stack.
This oracle runs the same searcher on one S=1 stack per start point, in start
order: seeded best designs, candidate sets and sample counts must match; only
the order in which candidates arrive differs.
"""

from __future__ import annotations

from repro.core.optimizer.dosa import DosaSearcher, DosaSettings
from repro.search.api import SearchOutcome
from repro.workloads import get_network


class SequentialDosaSearcher(DosaSearcher):
    """A :class:`DosaSearcher` whose descent is a loop of S=1 stacks."""

    def _descend_all(self, start_points, session, engine) -> None:
        for start_point in start_points:
            if session.exhausted():
                break
            super()._descend_all([start_point], session, engine)


def sequential_search(network: str, settings: DosaSettings) -> SearchOutcome:
    """Seeded DOSA outcome of a registry network under the one-start-at-a-time schedule."""
    return SequentialDosaSearcher(get_network(network), settings).search()
