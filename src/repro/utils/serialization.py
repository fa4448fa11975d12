"""JSON persistence for search results and experiment artifacts.

Search runs are expensive; these helpers let the examples, the CLI ``search``
subcommand and the experiment harnesses save the winning design (hardware +
per-layer mappings + trace) and reload it later for re-evaluation, which is
how the paper's artifact ships the DOSA-generated mappings to the FireSim
evaluation step.

:func:`save_outcome` / :func:`load_outcome` persist a full unified
:class:`repro.search.api.SearchOutcome` (method, best design, best-so-far
trace, wall time, seed and settings snapshot).  Per-layer performance details
and non-best candidates are not serialized; the best design's totals are
stored so ``outcome.best_edp`` survives the round trip even for
adjusted-latency (RTL) searches.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.arch.config import HardwareConfig
from repro.mapping.mapping import Mapping
from repro.search.api import CandidateDesign, SearchBudget, SearchOutcome, SearchTrace
from repro.timeloop.model import NetworkPerformance
from repro.utils.atomic import write_atomic


def budget_to_dict(budget: SearchBudget) -> dict[str, Any]:
    """Serialize a :class:`SearchBudget` (used by campaign specs)."""
    return {"max_samples": budget.max_samples, "max_seconds": budget.max_seconds}


def _json_int(value: Any, field: str) -> int:
    """``value`` if it is an integer; a bool, float or string is refused
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _json_seconds(value: Any) -> float:
    """``value`` as a float if it is a non-bool number; a bool or string is
    refused rather than coerced (:class:`SearchBudget` refuses ``NaN`` and
    infinity)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"max_seconds must be a finite number, got {value!r}")
    return float(value)


def budget_from_dict(payload: dict[str, Any]) -> SearchBudget:
    max_samples = payload.get("max_samples")
    max_seconds = payload.get("max_seconds")
    return SearchBudget(
        max_samples=None if max_samples is None else _json_int(max_samples, "max_samples"),
        max_seconds=None if max_seconds is None else _json_seconds(max_seconds),
    )


def hardware_to_dict(config: HardwareConfig) -> dict[str, int]:
    return {
        "pe_dim": config.pe_dim,
        "accumulator_kb": config.accumulator_kb,
        "scratchpad_kb": config.scratchpad_kb,
    }


def hardware_from_dict(payload: dict[str, Any]) -> HardwareConfig:
    return HardwareConfig(
        pe_dim=_json_int(payload["pe_dim"], "pe_dim"),
        accumulator_kb=_json_int(payload["accumulator_kb"], "accumulator_kb"),
        scratchpad_kb=_json_int(payload["scratchpad_kb"], "scratchpad_kb"),
    )


# --------------------------------------------------------------------------- #
# Unified search outcomes
# --------------------------------------------------------------------------- #
def outcome_to_dict(outcome: SearchOutcome) -> dict[str, Any]:
    """Serialize a unified :class:`SearchOutcome` to a JSON-safe dict."""
    best = outcome.best
    return {
        "method": outcome.method,
        "network": outcome.network,
        "seed": outcome.seed,
        "settings": outcome.settings,
        "wall_time_seconds": outcome.wall_time_seconds,
        "interrupted": outcome.interrupted,
        "num_candidates": outcome.num_candidates,
        "best": {
            "hardware": hardware_to_dict(best.hardware),
            "mappings": [m.as_dict() for m in best.mappings],
            "total_latency": best.performance.total_latency,
            "total_energy": best.performance.total_energy,
            # repro-lint: allow[serde-parity] derived: CandidateDesign.edp recomputes it from latency*energy
            "edp": best.edp,
        },
        "trace": outcome.trace.to_dict(),
    }


def outcome_from_dict(payload: dict[str, Any]) -> SearchOutcome:
    """Rebuild a :class:`SearchOutcome` written by :func:`outcome_to_dict`.

    Per-layer performance results and non-best candidates are not persisted;
    the restored outcome carries the best design's aggregate latency/energy
    (``per_layer`` is empty) and an empty candidate list — but the *count*
    of evaluated candidates survives via ``serialized_candidate_count``, so
    ``outcome.num_candidates`` and re-serialization are lossless.
    """
    best_payload = payload["best"]
    performance = NetworkPerformance(
        total_latency=float(best_payload["total_latency"]),
        total_energy=float(best_payload["total_energy"]),
        per_layer=(),
    )
    best = CandidateDesign(
        hardware=hardware_from_dict(best_payload["hardware"]),
        mappings=[Mapping.from_dict(entry) for entry in best_payload["mappings"]],
        performance=performance,
    )
    return SearchOutcome(
        method=payload["method"],
        best=best,
        trace=SearchTrace.from_dict(payload["trace"]),
        wall_time_seconds=float(payload.get("wall_time_seconds", 0.0)),
        seed=payload.get("seed"),
        settings=dict(payload.get("settings", {})),
        network=payload.get("network", ""),
        interrupted=bool(payload.get("interrupted", False)),
        serialized_candidate_count=int(payload.get("num_candidates", 0)),
    )


def deterministic_outcome_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Strip the nondeterministic fields from an outcome payload.

    ``wall_time_seconds`` is the only field of :func:`outcome_to_dict` that
    varies between bit-reproducible runs of the same seeded search; dropping
    it leaves a payload two such runs produce *identically*, whichever
    machine or process ran them.
    """
    payload = dict(payload)
    payload.pop("wall_time_seconds", None)
    return payload


def canonical_outcome_json(source: SearchOutcome | dict[str, Any],
                           deterministic: bool = True) -> str:
    """One canonical JSON text per outcome, for byte-for-byte comparison.

    Accepts a live :class:`SearchOutcome` or an already-serialized payload
    dict (e.g. one reloaded from a campaign store) — both produce the same
    bytes for the same search, because JSON round-trips floats exactly.  With
    ``deterministic=True`` (the default) the wall-clock field is stripped, so
    a service-run job can be byte-compared against an offline
    :func:`repro.optimize` run with the same seed.  Keys are sorted and the
    layout fixed (2-space indent, trailing newline).
    """
    payload = source if isinstance(source, dict) else outcome_to_dict(source)
    if deterministic:
        payload = deterministic_outcome_payload(payload)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_outcome(path: str | Path, outcome: SearchOutcome) -> Path:
    """Write a unified search outcome to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(outcome_to_dict(outcome), indent=2))
    return path


def load_outcome(path: str | Path) -> SearchOutcome:
    """Load a search outcome previously written by :func:`save_outcome`."""
    return outcome_from_dict(json.loads(Path(path).read_text()))
