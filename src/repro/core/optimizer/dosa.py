"""The DOSA searcher: one-loop, mapping-first gradient-descent co-search.

For each start point (random hardware + CoSA mappings), DOSA descends the
differentiable whole-model EDP with Adam, jointly over all layers' tiling
factors.  Every ``rounding_period`` steps the fractional factors are snapped
to the nearest valid mapping, the loop orderings are (optionally) re-selected,
the minimal hardware configuration is derived, and the candidate design is
scored with the reference (Timeloop-style) model.  The best reference-scored
design across all start points is the search result.

The descent runs start-batched: all S start points x L layers live in one
:class:`~repro.core.dmodel.factors.MultiStartFactors` (an ``(S, L, ...)``
array-op graph, so a single gradient step advances every start point),
replayed between rounding points by a compiled
:class:`~repro.autodiff.tape.Tape` and updated by Adam in place.
Start points share no graph nodes, so each start's descent trajectory —
losses, gradients, Adam updates, rounded designs — is bit-identical to
descending it alone as an S=1 stack; only the *interleaving* differs from
such a one-start-at-a-time schedule (candidates arrive grouped by rounding
point rather than by start point, so ``candidates`` / ``trace`` ordering and
callback order differ, not membership).

Sample accounting follows the paper: every gradient step counts as one model
evaluation per start point ("evaluations done using Timeloop are considered
equivalent to evaluations done using DOSA's differentiable model"), and each
reference evaluation at a rounding point also counts one sample per layer
mapping.  Under a binding ``max_samples`` budget the batched descent narrows
via a per-start *active mask*: when the remaining allowance cannot fund one
sample for every active start, trailing starts are frozen (masked out of the
loss and no longer rounded) so the leading starts — the ones a
one-start-at-a-time schedule would have funded — keep descending.

The searcher implements the unified :mod:`repro.search.api` protocol: it is
registered as strategy ``"dosa"`` and returns a :class:`SearchOutcome` whose
``extras["start_points"]`` holds the generated GD start points.  Reference
evaluations at rounding points go through one per-run, in-process
:class:`~repro.eval.engine.EvaluationEngine`, so re-visited rounded designs
are served from cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from repro.arch.config import HardwareBounds, HardwareConfig
from repro.autodiff import Adam, Tape, Tensor, ops
from repro.eval.cache import EvaluationCache
from repro.eval.engine import EvaluationEngine
from repro.core.dmodel.factors import MultiStartFactors
from repro.core.dmodel.loss import (
    best_ordering_per_layer,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)
from repro.core.dmodel.model import DenseTerms, DifferentiableModel
from repro.core.optimizer.startpoints import (
    StartPoint,
    generate_start_points,
    stack_start_points,
)
from repro.mapping.constraints import minimal_hardware_for_mappings
from repro.mapping.mapping import Mapping, NUM_LEVELS
from repro.search.api import (
    CandidateDesign,
    SearchBudget,
    SearchOutcome,
    SearchSession,
    register_searcher,
)
from repro.timeloop.model import NetworkPerformance
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.networks import Network


class LoopOrderingStrategy(str, Enum):
    """Loop-ordering search strategies compared in Figure 6."""

    NONE = "baseline"      # keep the start point's orderings
    ITERATE = "iterate"    # re-select WS/IS/OS at every rounding point
    SOFTMAX = "softmax"    # gradient-based softmax weighting (Eq. 15-17)


@dataclass
class DosaSettings:
    """Hyperparameters of the DOSA search (paper Section 6.1).

    ``num_start_points`` GD start points descend together for ``gd_steps``
    Adam steps (``learning_rate``), rounding to valid mappings every
    ``rounding_period`` steps and at the end.  ``penalty_weight`` scales the
    Equation-18 validity penalty, ``ordering_strategy`` picks the Figure-6
    loop-ordering strategy, ``rejection_threshold`` drives start-point
    rejection (Section 5.3.1), ``fixed_pe_dim`` pins the PE array (the
    Gemmini-RTL experiments), and ``bounds`` caps the derived hardware.
    """

    num_start_points: int = 7
    gd_steps: int = 890
    rounding_period: int = 300
    learning_rate: float = 0.05
    penalty_weight: float = 1e9
    ordering_strategy: LoopOrderingStrategy = LoopOrderingStrategy.ITERATE
    rejection_threshold: float = 10.0
    fixed_pe_dim: int | None = None
    # A fresh HardwareBounds per settings object (never the shared module-level
    # DEFAULT_BOUNDS instance) so one searcher's bounds can't leak into another.
    bounds: HardwareBounds = field(default_factory=HardwareBounds)
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.num_start_points < 1:
            raise ValueError("num_start_points must be at least 1")
        if self.gd_steps < 1:
            raise ValueError("gd_steps must be at least 1")
        if self.rounding_period < 1:
            raise ValueError("rounding_period must be at least 1")
        self.ordering_strategy = LoopOrderingStrategy(self.ordering_strategy)


# A latency adjuster rescales per-layer reference latencies when selecting the
# best candidate (used by the Gemmini-RTL experiments, where latency may come
# from a DNN-augmented model or the RTL simulator instead of the analytical
# model).  It receives the mappings and hardware and returns per-layer latencies.
LatencyAdjuster = Callable[[list[Mapping], HardwareConfig], list[float]]


@register_searcher("dosa")
class DosaSearcher:
    """Runs the DOSA one-loop search for a target network."""

    settings_type = DosaSettings

    def __init__(
        self,
        network: Network,
        settings: DosaSettings | None = None,
        latency_adjuster: LatencyAdjuster | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        self.network = network
        self.settings = settings or DosaSettings()
        self.latency_adjuster = latency_adjuster
        self.cache = cache
        self._repeats = [layer.repeats for layer in network.layers]

    # ------------------------------------------------------------------ #
    def search(self, budget: SearchBudget | int | None = None,
               callbacks=None) -> SearchOutcome:
        """Run the full search and return the best reference-scored design."""
        settings = self.settings
        rng = make_rng(settings.seed)
        # The session is created first so start-point generation counts
        # against the wall-time budget and the reported wall_time_seconds.
        session = SearchSession("dosa", budget=budget, callbacks=callbacks,
                                settings=settings, network=self.network)
        start_points = generate_start_points(
            self.network,
            count=settings.num_start_points,
            seed=rng,
            rejection_threshold=settings.rejection_threshold,
            fixed_pe_dim=settings.fixed_pe_dim,
        )
        # One engine per run: rounding points snap onto the same divisors
        # across steps and start points, so repeats are common.  A shared
        # cache (e.g. from an experiment harness running several strategies)
        # persists those hits across runs.
        engine = EvaluationEngine(cache=self.cache)
        with session.absorb_interrupt():
            if not session.exhausted():
                self._descend_all(start_points, session, engine)
        return session.finish(extras={"start_points": start_points})

    # ------------------------------------------------------------------ #
    def _descend_all(self, start_points: list[StartPoint],
                     session: SearchSession, engine: EvaluationEngine) -> None:
        """Descend every start point at once on the start-batched model.

        One :class:`MultiStartFactors` graph advances all S starts per
        gradient step; ``active`` masks out starts frozen by a binding sample
        budget (the scalar training loss folds only active per-start losses,
        so frozen rows receive exactly-zero gradients).  Rounding points round,
        re-order and reference-evaluate each active start independently, in
        start order, with per-start sample accounting (one GD sample per
        start per step, one reference sample per layer per rounding
        evaluation).  The compiled tape replays one traced graph between
        rounding points; a rounding point may re-select loop orderings
        (changing the graph structure), so the tape is invalidated there and
        re-traced.
        """
        settings = self.settings
        factors = stack_start_points(start_points)
        optimizer = Adam(factors.parameters(), lr=settings.learning_rate)
        active = np.ones(factors.num_starts, dtype=bool)
        # The mask is read at trace time; every mask change below invalidates
        # the tape, so replays never see a stale mask.
        tape = Tape(lambda: self._loss(factors, active=active))
        evaluated_once = False

        for step in range(settings.gd_steps):
            count = int(active.sum())
            allowance = session.sample_allowance(count)
            if allowance == 0:
                # Unreachable when budget checks below ran (exhaustion
                # returns), but guards direct callers with a spent budget.
                return
            if allowance < count:
                # Freeze trailing starts: earlier start points are funded
                # first, so they keep descending.
                active[np.flatnonzero(active)[allowance:]] = False
                tape.invalidate()
            optimizer.zero_grad()
            tape.forward()
            tape.backward()
            optimizer.step()
            session.spend(int(active.sum()))

            out_of_budget = session.exhausted()
            at_rounding_point = ((step + 1) % settings.rounding_period == 0
                                 or step == settings.gd_steps - 1
                                 or out_of_budget)
            if not at_rounding_point:
                continue

            self._round_and_evaluate_all(factors, active, session, engine)
            evaluated_once = True
            tape.invalidate()
            # Re-check after the rounding evaluation: the reference samples it
            # spent may themselves have crossed the budget.
            if out_of_budget or session.exhausted():
                return
        if not evaluated_once:  # pragma: no cover - defensive; loop always rounds
            self._round_and_evaluate_all(factors, active, session, engine)

    # ------------------------------------------------------------------ #
    def _round_and_evaluate_all(self, factors: MultiStartFactors,
                                active: np.ndarray, session: SearchSession,
                                engine: EvaluationEngine) -> None:
        """Round + reference-evaluate every active start, then re-snap them.

        One ``(S, L)`` pass of the integer-rounding kernel rounds every active
        start, and one restacked :class:`MultiStartFactors` pass re-selects
        all starts' orderings, so a rounding point costs two kernel calls
        plus the evaluation batch.  All active starts' reference
        evaluations then go through one
        :meth:`~repro.eval.engine.EvaluationEngine.evaluate_network_sets`
        call: the traffic analysis is hardware-independent, so S starts' L
        mappings share a single vectorized pass even when each start derived
        different hardware, and starts that snapped onto identical rounded
        designs are evaluated once.  Sample accounting and every result stay
        identical to scoring the starts one at a time.
        """
        max_spatial = (self.settings.fixed_pe_dim
                       or self.settings.bounds.max_pe_dim)
        starts = [int(start) for start in np.flatnonzero(active)]
        prepared = self._prepare_rounded_sets(
            factors.rounded_mapping_sets(starts, max_spatial=max_spatial))
        performances = engine.evaluate_network_sets(prepared)
        snapped: dict[int, list[Mapping]] = {}
        for start, (rounded, hardware), performance in zip(starts, prepared,
                                                           performances):
            candidate = self._candidate_from(rounded, hardware, performance,
                                             session)
            session.offer(candidate)
            snapped[start] = candidate.mappings
        # Continue each active descent from its snapped point.
        factors.load_mapping_sets(snapped)

    # ------------------------------------------------------------------ #
    def _loss(self, factors: MultiStartFactors,
              active: np.ndarray | None = None) -> Tensor:
        """The scalar training loss: the fold of the ``(S,)`` per-start losses.

        One set of :class:`DenseTerms` serves hardware derivation, evaluation
        and the validity penalty — the whole loss is a single array-op graph.  Each
        start receives gradient 1.0 from the fold, exactly as if its own loss
        had been backpropagated.  Budget-frozen starts (``active`` False) are
        multiplied out (mask changes re-trace the tape); while every start is
        active no mask node is recorded.
        """
        settings = self.settings
        terms = DenseTerms(factors)
        hardware = DifferentiableModel.derive_hardware(factors, terms=terms)
        if settings.ordering_strategy is LoopOrderingStrategy.SOFTMAX:
            objective = softmax_ordering_loss(factors, self._repeats, hardware,
                                              terms=terms)
        else:
            performances = DifferentiableModel.evaluate_network(factors, hardware,
                                                                terms=terms)
            objective = network_edp_loss(performances, self._repeats)
        objective = objective + settings.penalty_weight * validity_penalty(
            factors, terms=terms)
        if active is not None and not active.all():
            objective = objective * Tensor(active.astype(np.float64))
        return ops.fold_sum(objective)

    # ------------------------------------------------------------------ #
    def _prepare_rounded_sets(
        self, rounded_sets: list[list[Mapping]],
    ) -> list[tuple[list[Mapping], HardwareConfig]]:
        """Ordering re-selection + hardware derivation for all rounded starts.

        ITERATE re-selection restacks every start's rounded mappings into one
        :class:`MultiStartFactors` and selects all starts' orderings in a
        single ``(3, S, L)`` EDP pass — per-start rows are bit-identical to
        S=1 passes, so decisions match.  Hardware derivation stays per start
        (each start's mappings imply their own minimal configuration).
        """
        settings = self.settings
        if settings.ordering_strategy is LoopOrderingStrategy.ITERATE and rounded_sets:
            selections = best_ordering_per_layer(
                MultiStartFactors.from_mapping_sets(rounded_sets))
            rounded_sets = [
                [m.with_orderings([ordering] * NUM_LEVELS)
                 for m, ordering in zip(rounded, per_start)]
                for rounded, per_start in zip(rounded_sets, selections)
            ]
        return [self._derive_hardware_for(rounded) for rounded in rounded_sets]

    def _derive_hardware_for(
        self, rounded: list[Mapping],
    ) -> tuple[list[Mapping], HardwareConfig]:
        """Minimal hardware for one start's rounded mappings (+ PE override)."""
        settings = self.settings
        hardware = minimal_hardware_for_mappings(rounded, bounds=settings.bounds)
        if settings.fixed_pe_dim is not None:
            hardware = HardwareConfig(
                pe_dim=settings.fixed_pe_dim,
                accumulator_kb=hardware.accumulator_kb,
                scratchpad_kb=hardware.scratchpad_kb,
            )
        return rounded, hardware

    def _candidate_from(
        self, rounded: list[Mapping], hardware: HardwareConfig,
        performance: NetworkPerformance, session: SearchSession,
    ) -> CandidateDesign:
        """Latency adjustment + sample accounting for one evaluated start."""
        performance = self._adjust_performance(rounded, hardware, performance)
        session.spend(len(rounded))
        return CandidateDesign(hardware=hardware, mappings=rounded,
                               performance=performance)

    # ------------------------------------------------------------------ #
    def _adjust_performance(
        self,
        mappings: list[Mapping],
        hardware: HardwareConfig,
        performance: NetworkPerformance,
    ) -> NetworkPerformance:
        """Apply the optional latency adjuster (RTL-model experiments)."""
        if self.latency_adjuster is None:
            return performance
        adjusted_latencies = self.latency_adjuster(mappings, hardware)
        if len(adjusted_latencies) != len(mappings):
            raise ValueError("latency adjuster must return one latency per mapping")
        total_latency = sum(
            latency * mapping.layer.repeats
            for latency, mapping in zip(adjusted_latencies, mappings)
        )
        return NetworkPerformance(
            total_latency=total_latency,
            total_energy=performance.total_energy,
            per_layer=performance.per_layer,
        )
