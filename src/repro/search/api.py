"""The unified search API: one protocol, one outcome type, one entry point.

Every co-search strategy in the reproduction — the DOSA one-loop gradient
search, the random and Bayesian two-loop baselines, and the fixed-hardware
random mapper — implements the same :class:`Searcher` protocol::

    searcher.search(budget=None, callbacks=None) -> SearchOutcome

and is registered under a short strategy name, so experiment harnesses can
iterate ``for strategy in ("dosa", "random", "bayesian")`` instead of
hand-wiring per-method glue.  The pieces:

* :class:`SearchBudget` — a uniform sample/wall-time cap.  Samples follow the
  paper's accounting (every reference-model *and* differentiable-model
  evaluation counts one sample), so best-so-far traces from different
  strategies are directly comparable, as in Figures 7-9.
* :class:`SearchTrace` — the single best-so-far curve implementation, keyed
  by reference-model sample count and monotone by construction.
* :class:`CandidateDesign` / :class:`SearchOutcome` — a reference-evaluated
  co-design point, and the common result container (method name, best design,
  all candidates, trace, wall time, seed, settings snapshot).
* :class:`SearchCallback` — progress hooks (``on_step`` / ``on_candidate`` /
  ``on_best``) replacing ad-hoc prints.
* :class:`SearchSession` — shared bookkeeping (sample counter, best-so-far,
  budget enforcement, callback dispatch) used by all searcher implementations.
* :func:`register_searcher` / :func:`get_searcher` /
  :func:`available_strategies` — the strategy registry.
* :func:`optimize` — the one-call facade, also exported as
  ``repro.optimize``::

      outcome = repro.optimize("bert", strategy="dosa", budget=5000, seed=0)
"""

from __future__ import annotations

import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Protocol, Sequence, get_type_hints, runtime_checkable

from repro.arch.config import HardwareConfig
from repro.mapping.mapping import Mapping
from repro.timeloop.model import NetworkPerformance
from repro.utils.log import get_logger
from repro.utils.rng import SeedLike
from repro.workloads.networks import Network, get_network

log = get_logger("search")


# --------------------------------------------------------------------------- #
# Budget
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchBudget:
    """Uniform resource cap for a search run.

    ``max_samples`` caps the number of model evaluations (paper sample
    accounting); ``max_seconds`` caps wall-clock time.  Either may be ``None``
    for "unlimited"; with both ``None`` the searcher's own settings decide
    when to stop.  Budgets are enforced at sample granularity: an in-flight
    reference evaluation (one sample per unique layer) is allowed to finish,
    so a run may overshoot ``max_samples`` by at most the layer count.
    """

    max_samples: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_samples is not None and self.max_samples < 1:
            raise ValueError("max_samples must be at least 1 (or None)")
        # ``NaN`` compares false with everything, so it would never expire.
        if self.max_seconds is not None and not (
                math.isfinite(self.max_seconds) and self.max_seconds >= 0):
            raise ValueError(f"max_seconds must be a finite non-negative number "
                             f"(or None), got {self.max_seconds!r}")

    def exhausted(self, samples: int, elapsed_seconds: float) -> bool:
        """Whether a run at ``samples`` evaluations / ``elapsed_seconds`` is done."""
        if self.max_samples is not None and samples >= self.max_samples:
            return True
        if self.max_seconds is not None and elapsed_seconds >= self.max_seconds:
            return True
        return False

    @staticmethod
    def coerce(budget: "SearchBudget | int | None") -> "SearchBudget":
        """Accept ``None`` (unlimited), an int (max samples), or a budget."""
        if budget is None:
            return SearchBudget()
        if isinstance(budget, SearchBudget):
            return budget
        if isinstance(budget, numbers.Integral):
            return SearchBudget(max_samples=int(budget))
        raise TypeError(f"budget must be SearchBudget, int or None, got {budget!r}")


# --------------------------------------------------------------------------- #
# Trace and result containers
# --------------------------------------------------------------------------- #
@dataclass
class TracePoint:
    """Best reference-evaluated EDP after a given number of samples."""

    samples: int
    best_edp: float


@dataclass
class SearchTrace:
    """Best-EDP-so-far as a function of the number of model evaluations.

    The single best-so-far implementation shared by every strategy: recording
    clamps each point to the running minimum, so the curve is monotone
    non-increasing by construction.
    """

    points: list[TracePoint] = field(default_factory=list)

    def record(self, samples: int, edp: float) -> None:
        best = min(edp, self.points[-1].best_edp) if self.points else edp
        self.points.append(TracePoint(samples=samples, best_edp=best))

    @property
    def total_samples(self) -> int:
        return max((p.samples for p in self.points), default=0)

    def as_pairs(self) -> list[tuple[int, float]]:
        """The curve as ``(samples, best_edp)`` pairs, e.g. for CSV output."""
        return [(p.samples, p.best_edp) for p in self.points]

    def to_dict(self) -> dict[str, list]:
        return {"samples": [p.samples for p in self.points],
                "best_edp": [p.best_edp for p in self.points]}

    @staticmethod
    def from_dict(payload: dict[str, list]) -> "SearchTrace":
        return SearchTrace(points=[
            TracePoint(samples=int(s), best_edp=float(e))
            for s, e in zip(payload["samples"], payload["best_edp"])
        ])


@dataclass
class CandidateDesign:
    """A rounded, reference-evaluated co-design point."""

    hardware: HardwareConfig
    mappings: list[Mapping]
    performance: NetworkPerformance

    @property
    def edp(self) -> float:
        return self.performance.edp


@dataclass
class SearchOutcome:
    """The common result of every search strategy.

    ``settings`` is a JSON-safe snapshot of the searcher's hyperparameters
    (it round-trips through the outcome JSON serialization for provenance).

    ``extras`` carries strategy-specific artifacts that are *not* serialized
    — live Python objects a caller may want to inspect after the run.  Keys
    are per-strategy; the ones currently produced:

    * ``"start_points"`` (strategy ``dosa``) — the list of
      :class:`~repro.core.optimizer.startpoints.StartPoint` objects the
      gradient descent was seeded from, in generation order.  The fig9
      separation study reads ``extras["start_points"][0]`` to re-run a
      mapping-only search on the first start's hardware.

    Seeded runs are design-identical across the batched/sequential descent
    schedules, but ``candidates``/``trace`` *ordering* (not membership) may
    differ between them — see :mod:`repro.core.optimizer.dosa`.
    """

    method: str
    best: CandidateDesign
    trace: SearchTrace
    candidates: list[CandidateDesign] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    seed: Any = None
    settings: dict[str, Any] = field(default_factory=dict)
    network: str = ""
    extras: dict[str, Any] = field(default_factory=dict)
    #: True when the search was cut short by ``KeyboardInterrupt`` (Ctrl-C)
    #: and this outcome carries the best design found *so far* rather than
    #: the result of a completed run.  Interrupted outcomes round-trip
    #: through the JSON serialization, and the campaign layer re-runs
    #: interrupted jobs on resume instead of treating them as complete.
    interrupted: bool = False
    #: How many candidates the search evaluated, as recorded at
    #: serialization time.  Live outcomes leave this ``None`` (the count is
    #: ``len(candidates)``); outcomes rebuilt from JSON — whose candidate
    #: *objects* are deliberately not persisted — carry the original count
    #: here so the round trip stays lossless (``num_candidates``).
    serialized_candidate_count: int | None = None

    @property
    def num_candidates(self) -> int:
        """Candidates evaluated, surviving the JSON round trip."""
        if self.serialized_candidate_count is not None:
            return self.serialized_candidate_count
        return len(self.candidates)

    @property
    def best_edp(self) -> float:
        return self.best.edp

    @property
    def best_hardware(self) -> HardwareConfig:
        return self.best.hardware

    @property
    def best_mappings(self) -> list[Mapping]:
        return self.best.mappings

    @property
    def total_samples(self) -> int:
        return self.trace.total_samples


# --------------------------------------------------------------------------- #
# Callbacks
# --------------------------------------------------------------------------- #
class SearchCallback:
    """Progress hooks invoked by every searcher; subclass and override.

    Invocation contract, shared across strategies:

    * ``on_step(samples)`` — the sample counter advanced (granularity is
      strategy-defined: one gradient step for DOSA, one reference evaluation
      batch for the black-box searchers).
    * ``on_candidate(candidate, samples)`` — a complete design was
      reference-evaluated.
    * ``on_best(candidate, samples)`` — that candidate improved on the best
      design seen so far; always fires *after* the matching ``on_candidate``.
    """

    def on_step(self, samples: int) -> None:  # pragma: no cover - default no-op
        pass

    def on_candidate(self, candidate: CandidateDesign, samples: int) -> None:
        pass

    def on_best(self, candidate: CandidateDesign, samples: int) -> None:
        pass


class ProgressCallback(SearchCallback):
    """Prints a line whenever the best design improves (CLI/example progress)."""

    def __init__(self, prefix: str = "[search]",
                 printer: Callable[[str], None] = print) -> None:
        self.prefix = prefix
        self.printer = printer

    def on_best(self, candidate: CandidateDesign, samples: int) -> None:
        self.printer(f"{self.prefix} new best EDP {candidate.edp:.4e} "
                     f"after {samples} samples "
                     f"({candidate.hardware.describe()})")


class _CallbackList(SearchCallback):
    """Fans one callback stream out to many registered callbacks."""

    def __init__(self, callbacks: Sequence[SearchCallback]) -> None:
        self.callbacks = list(callbacks)

    def on_step(self, samples: int) -> None:
        for callback in self.callbacks:
            callback.on_step(samples)

    def on_candidate(self, candidate: CandidateDesign, samples: int) -> None:
        for callback in self.callbacks:
            callback.on_candidate(candidate, samples)

    def on_best(self, candidate: CandidateDesign, samples: int) -> None:
        for callback in self.callbacks:
            callback.on_best(candidate, samples)


def as_callback(callbacks) -> SearchCallback:
    """Normalize ``None`` / a single callback / a sequence to one dispatcher."""
    if callbacks is None:
        return SearchCallback()
    if isinstance(callbacks, SearchCallback):
        return callbacks
    return _CallbackList(list(callbacks))


# --------------------------------------------------------------------------- #
# Settings snapshot
# --------------------------------------------------------------------------- #
def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _json_safe(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(item) for item in value]
    return repr(value)


def settings_snapshot(settings: Any) -> dict[str, Any]:
    """A JSON-safe dict view of a settings dataclass (for outcome provenance)."""
    if settings is None:
        return {}
    snapshot = _json_safe(settings)
    return snapshot if isinstance(snapshot, dict) else {"settings": snapshot}


# --------------------------------------------------------------------------- #
# Searcher protocol and the shared session bookkeeping
# --------------------------------------------------------------------------- #
@runtime_checkable
class Searcher(Protocol):
    """What every registered strategy implements."""

    def search(self, budget: SearchBudget | int | None = None,
               callbacks=None) -> SearchOutcome:
        ...


class SearchSession:
    """Per-run bookkeeping shared by all searcher implementations.

    Owns the sample counter, the best-so-far candidate, the unified trace,
    budget enforcement and callback dispatch, so each strategy only decides
    *what* to evaluate, never how to account for it.
    """

    def __init__(
        self,
        method: str,
        budget: SearchBudget | int | None = None,
        callbacks=None,
        settings: Any = None,
        network: Network | str | None = None,
    ) -> None:
        self.method = method
        self.budget = SearchBudget.coerce(budget)
        self.callbacks = as_callback(callbacks)
        self.settings = settings
        self.network_name = network.name if isinstance(network, Network) else (network or "")
        self.trace = SearchTrace()
        self.candidates: list[CandidateDesign] = []
        self.best: CandidateDesign | None = None
        self.samples = 0
        self.interrupted = False
        self._started = time.monotonic()

    # -- accounting ----------------------------------------------------- #
    @property
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started

    def spend(self, count: int = 1) -> int:
        """Advance the sample counter, firing ``on_step`` once per sample.

        Batched evaluation spends several samples in one call; per-sample
        ``on_step`` dispatch is kept so callback streams are independent of
        the evaluation batch size.
        """
        for _ in range(count):
            self.samples += 1
            self.callbacks.on_step(self.samples)
        return self.samples

    def exhausted(self) -> bool:
        """Whether the budget is spent (samples or wall time)."""
        return self.budget.exhausted(self.samples, self.elapsed_seconds)

    def sample_allowance(self, cap: int) -> int:
        """Samples spendable before crossing ``max_samples``, at most ``cap``.

        Batched searchers size their evaluation chunks with this so a batch
        never overshoots the sample budget (the documented overshoot bound —
        one in-flight evaluation per layer — is enforced by the callers'
        keep-the-first-design-feasible rule, not by batching).
        """
        if self.budget.max_samples is None:
            return cap
        return max(0, min(cap, self.budget.max_samples - self.samples))

    # -- candidates ----------------------------------------------------- #
    def offer(self, candidate: CandidateDesign) -> bool:
        """Record a reference-evaluated candidate; returns True if it is a new best."""
        self.candidates.append(candidate)
        self.callbacks.on_candidate(candidate, self.samples)
        improved = self.best is None or candidate.edp < self.best.edp
        if improved:
            self.best = candidate
            self.callbacks.on_best(candidate, self.samples)
        self.trace.record(self.samples, candidate.edp)
        return improved

    def checkpoint(self) -> None:
        """Extend the trace at the current sample count (e.g. after an
        infeasible round that evaluated mappings but produced no candidate)."""
        if self.best is not None:
            self.trace.record(self.samples, self.best.edp)

    # -- interruption ----------------------------------------------------- #
    @contextmanager
    def absorb_interrupt(self):
        """Turn a ``KeyboardInterrupt`` inside the block into graceful stop.

        Searchers wrap their main loop with this so Ctrl-C ends the search at
        the current point instead of unwinding with a bare traceback;
        :meth:`finish` then returns the best-so-far outcome flagged
        ``interrupted=True`` (or re-raises the ``KeyboardInterrupt`` when
        nothing feasible was found yet, so there is never a best-less
        outcome).
        """
        try:
            yield
        except KeyboardInterrupt:
            self.interrupted = True
            log.info("%s search on %s interrupted after %d samples "
                     "(returning best-so-far)", self.method,
                     self.network_name or "<network>", self.samples)

    # -- completion ------------------------------------------------------ #
    def finish(self, extras: dict[str, Any] | None = None) -> SearchOutcome:
        """Seal the session into a :class:`SearchOutcome`.

        ``extras`` becomes :attr:`SearchOutcome.extras` (strategy-specific,
        unserialized artifacts — see the key inventory on
        :class:`SearchOutcome`).  Raises :class:`RuntimeError` if no feasible
        design was ever offered, so callers never receive a best-less outcome
        (an interrupted best-less session re-raises ``KeyboardInterrupt``
        instead, preserving the interrupt for the caller)."""
        if self.best is None:
            if self.interrupted:
                raise KeyboardInterrupt(
                    f"{self.method} search interrupted before any feasible design")
            raise RuntimeError(
                f"{self.method} search produced no feasible design; "
                "increase the budget or the searcher's settings")
        seed = getattr(self.settings, "seed", None)
        log.debug("%s search on %s finished: best EDP %.4e after %d samples "
                  "in %.2fs%s", self.method, self.network_name or "<network>",
                  self.best.edp, self.samples, self.elapsed_seconds,
                  " (interrupted)" if self.interrupted else "")
        return SearchOutcome(
            method=self.method,
            best=self.best,
            trace=self.trace,
            candidates=self.candidates,
            wall_time_seconds=self.elapsed_seconds,
            seed=_json_safe(seed),
            settings=settings_snapshot(self.settings),
            network=self.network_name,
            extras=extras or {},
            interrupted=self.interrupted,
        )


# --------------------------------------------------------------------------- #
# Strategy registry
# --------------------------------------------------------------------------- #
_SEARCHERS: dict[str, type] = {}
_BUILTINS_LOADED = False


def register_searcher(name: str) -> Callable[[type], type]:
    """Class decorator registering a searcher under ``name``.

    The class must implement the :class:`Searcher` protocol and take the
    target :class:`Network` as its first constructor argument (plus an
    optional ``settings`` object; see ``settings_type``).
    """

    def decorator(cls: type) -> type:
        _SEARCHERS[name] = cls
        cls.strategy_name = name
        return cls

    return decorator


def _ensure_builtin_strategies() -> None:
    """Import the built-in strategy modules so their registrations run."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.core.optimizer.dosa  # noqa: F401  (registers "dosa")
    import repro.search.bayesian  # noqa: F401  (registers "bayesian")
    import repro.search.random_mapper_search  # noqa: F401  ("fixed_hw_random")
    import repro.search.random_search  # noqa: F401  (registers "random")
    # Only mark loaded once every import succeeded, so a transient failure
    # (e.g. a broken optional dependency) surfaces again on the next call
    # instead of leaving the registry silently half-populated.
    _BUILTINS_LOADED = True


def get_searcher(name: str) -> type:
    """Look up a registered searcher class by strategy name."""
    _ensure_builtin_strategies()
    if name not in _SEARCHERS:
        raise KeyError(f"unknown search strategy {name!r}; "
                       f"options: {sorted(_SEARCHERS)}")
    return _SEARCHERS[name]


def _override_kind(annotation: Any) -> tuple[str, Callable[[Any], bool]] | None:
    """What an override of a field annotated ``annotation`` may be.

    Returns ``(description, test)`` for the field types JSON can carry —
    ``int``, ``float``, ``int | None`` and string enums — and ``None`` for
    any other field, which overrides cannot set.
    """
    def is_int(value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    if annotation is int:
        return "an integer", is_int
    if annotation is float:
        return "a number", lambda value: is_int(value) or isinstance(value, float)
    if annotation == (int | None):
        return "an integer or null", lambda value: value is None or is_int(value)
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        values = [member.value for member in annotation]
        return f"one of {values}", lambda value: (
            isinstance(value, (str, Enum)) and value in values)
    return None


def check_settings_overrides(strategy: str, overrides: dict[str, Any]) -> None:
    """Refuse settings overrides that ``strategy``'s settings type lacks or
    that do not fit their field.

    Campaign jobs build ``settings_type(seed=seed, **overrides)``; checking
    up front turns a misspelt or removed setting, or a value of the wrong
    type, into an error before any job runs.  An ``int`` field takes a
    non-bool integer, a ``float`` field a non-bool integer or float, an
    ``int | None`` field also ``None``, and an enum field one of its values;
    a field of any other type (e.g. DOSA's ``bounds``, a
    :class:`~repro.arch.config.HardwareBounds` that JSON cannot build) is
    refused by name.  ``seed`` is not an override (every job supplies its
    own).  Raises ``ValueError`` naming the first offending key.
    """
    settings_type = getattr(get_searcher(strategy), "settings_type", None)
    allowed = ({item.name for item in fields(settings_type)} - {"seed"}
               if settings_type is not None else set())
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise ValueError(f"unknown {strategy} setting {unknown[0]!r}; "
                         f"options: {sorted(allowed)}")
    hints = get_type_hints(settings_type) if overrides else {}
    for name in sorted(overrides):
        kind = _override_kind(hints[name])
        if kind is None:
            type_name = getattr(hints[name], "__name__", hints[name])
            raise ValueError(f"{strategy} setting {name!r} cannot be overridden: "
                             f"JSON has no {type_name} value")
        description, fits = kind
        if not fits(overrides[name]):
            raise ValueError(f"{strategy} setting {name!r} must be {description}, "
                             f"got {overrides[name]!r}")


def available_strategies() -> tuple[str, ...]:
    """Names of all registered search strategies, sorted."""
    _ensure_builtin_strategies()
    return tuple(sorted(_SEARCHERS))


# --------------------------------------------------------------------------- #
# The facade
# --------------------------------------------------------------------------- #
def optimize(
    network: Network | str,
    strategy: str = "dosa",
    budget: SearchBudget | int | None = None,
    settings: Any = None,
    callbacks=None,
    seed: SeedLike | None = None,
    **searcher_kwargs,
) -> SearchOutcome:
    """Run one co-search strategy on a network and return its outcome.

    ``network`` may be a :class:`Network` or a registry name (``"bert"``,
    ``"resnet50"``, ...).  ``budget`` may be a :class:`SearchBudget` or an
    int (max samples).  ``settings`` overrides the strategy's default
    hyperparameters; when omitted, ``seed`` seeds the defaults.
    Extra keyword arguments go to the searcher constructor (e.g.
    ``hardware=`` for the ``fixed_hw_random`` strategy, or ``cache=`` to
    share one :class:`~repro.eval.cache.EvaluationCache` across searches).
    """
    if isinstance(network, str):
        network = get_network(network)
    cls = get_searcher(strategy)
    if seed is not None:
        if settings is not None:
            raise TypeError("pass either settings= or seed=, not both: the seed "
                            "lives inside the settings object, so a separate "
                            "seed= would be silently ignored")
        settings_type = getattr(cls, "settings_type", None)
        if settings_type is None:
            raise TypeError(f"strategy {strategy!r} does not expose settings_type; "
                            "pass an explicit settings object instead of seed=")
        settings = settings_type(seed=seed)
    searcher = cls(network, settings=settings, **searcher_kwargs)
    return searcher.search(budget=budget, callbacks=callbacks)
