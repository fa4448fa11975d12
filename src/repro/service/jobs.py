"""The service's job model: records, tenancy layout, and spec construction.

A *service job* wraps one unit of client-submitted work — a single search or
a whole campaign grid — as data that survives daemon restarts:

* the :class:`JobRecord` (tenant, kind, normalized request, lifecycle state,
  timestamps) lives in ``job.json``, written atomically on every transition,
* the job's results live in a per-job
  :class:`~repro.campaign.store.ResultStore` under the same directory, keyed
  by a campaign spec derived *deterministically* from the normalized request
  (so a restarted daemon rebuilds the identical spec and the store accepts
  it).

Directory layout under the service root::

    <root>/
      service.json                      # live endpoint (host/port/pid)
      cache/                            # shared evaluation-cache spill
      tenants/<tenant>/jobs/<job_id>/
        job.json                        # JobRecord (atomic)
        store/                          # ResultStore (manifest + results)

Search jobs become single-cell campaign grids, so one code path — the
campaign scheduler — executes, persists and resumes everything, and a
service-run search is bit-reproducible against an offline
:func:`repro.optimize` call with the same seed.
"""

from __future__ import annotations

import json
import re
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.spec import CampaignSpec, StrategyVariant
from repro.search.api import available_strategies
from repro.utils.atomic import write_json_atomic
from repro.utils.serialization import (
    budget_from_dict,
    budget_to_dict,
    hardware_from_dict,
    hardware_to_dict,
)
from repro.workloads.networks import NETWORK_BUILDERS

#: Job lifecycle states.  ``queued`` and ``running`` jobs are re-enqueued by
#: a restarted daemon; ``done``, ``failed`` and ``cancelled`` are terminal.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"
JOB_STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED,
              STATE_CANCELLED)
TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)

JOB_KINDS = ("search", "campaign")

DEFAULT_TENANT = "default"

RECORD_NAME = "job.json"
STORE_DIR_NAME = "store"
#: Cancellation sentinel inside a job dir: the durable record of a cancel
#: request, which a restarted daemon's ``recover()`` honours (a running job
#: stops through a ``stop`` message; see ``campaign.scheduler.worker_main``).
CANCEL_NAME = "cancel"

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_IDEMPOTENCY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:-]{0,127}$")


class RequestError(ValueError):
    """A client request that cannot be accepted (HTTP 400)."""


def validate_tenant(tenant: Any) -> str:
    """A filesystem-safe tenant id (``default`` when omitted)."""
    if tenant is None:
        return DEFAULT_TENANT
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise RequestError(
            f"invalid tenant {tenant!r}: expected 1-64 characters of "
            "[A-Za-z0-9_.-] starting with an alphanumeric")
    return tenant


def validate_idempotency_key(key: Any) -> str | None:
    """An optional client-chosen submit dedupe key (``None`` when omitted).

    The key is transport-level: it deduplicates ambiguous submit retries but
    is *not* part of the normalized request, so it never influences the job's
    campaign spec or results.
    """
    if key is None:
        return None
    if not isinstance(key, str) or not _IDEMPOTENCY_RE.match(key):
        raise RequestError(
            f"invalid idempotency_key {key!r}: expected 1-128 characters of "
            "[A-Za-z0-9_.:-] starting with an alphanumeric")
    return key


def new_job_id() -> str:
    return f"j-{uuid.uuid4().hex[:12]}"


# --------------------------------------------------------------------------- #
# Request normalization
# --------------------------------------------------------------------------- #
def _normalize_budget(value: Any) -> dict[str, Any]:
    if value is None:
        payload: dict[str, Any] = {}
    elif isinstance(value, bool):
        raise RequestError(f"invalid budget {value!r}")
    elif isinstance(value, int):
        payload = {"max_samples": value}
    elif isinstance(value, Mapping):
        unknown = set(value) - {"max_samples", "max_seconds"}
        if unknown:
            raise RequestError(f"unknown budget fields {sorted(unknown)}")
        payload = dict(value)
    else:
        raise RequestError(f"budget must be an int or "
                           f"{{max_samples, max_seconds}}, got {value!r}")
    try:
        return budget_to_dict(budget_from_dict(payload))
    except (TypeError, ValueError) as error:
        raise RequestError(f"invalid budget: {error}") from None


def normalize_search_request(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and canonicalize a ``kind="search"`` request body.

    The normalized dict fully determines the job's campaign spec, so two
    daemons (or one daemon before and after a restart) derive identical specs
    from it.
    """
    unknown = set(payload) - {"tenant", "kind", "network", "strategy", "seed",
                              "budget", "settings", "hardware",
                              "idempotency_key"}
    if unknown:
        raise RequestError(f"unknown request fields {sorted(unknown)}")
    network = payload.get("network")
    if network not in NETWORK_BUILDERS:
        raise RequestError(f"unknown network {network!r}; "
                           f"options: {sorted(NETWORK_BUILDERS)}")
    strategy = payload.get("strategy", "dosa")
    if strategy not in available_strategies():
        raise RequestError(f"unknown strategy {strategy!r}; "
                           f"options: {list(available_strategies())}")
    seed = payload.get("seed", 0)
    settings = payload.get("settings") or {}
    if not isinstance(settings, Mapping):
        raise RequestError(f"settings must be an object, got {settings!r}")
    hardware = payload.get("hardware")
    if hardware is not None:
        if not isinstance(hardware, Mapping):
            raise RequestError(f"hardware must be an object with "
                               f"pe_dim/accumulator_kb/scratchpad_kb, got {hardware!r}")
        try:
            hardware = hardware_to_dict(hardware_from_dict(hardware))
        except (KeyError, ValueError) as error:
            raise RequestError(f"invalid hardware: {error}") from None
    request = {
        "network": network,
        "strategy": strategy,
        "seed": seed,
        "budget": _normalize_budget(payload.get("budget")),
        "settings": dict(settings),
        "hardware": hardware,
    }
    # Building the spec runs the full campaign-grade validation (the seed
    # included).
    _check_settings(build_campaign_spec("validate", "search", request))
    return request


def _check_settings(spec: CampaignSpec) -> None:
    try:
        spec.check_settings()
    except ValueError as error:
        raise RequestError(str(error)) from None


def normalize_campaign_request(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and canonicalize a ``kind="campaign"`` request body."""
    unknown = set(payload) - {"tenant", "kind", "spec", "idempotency_key"}
    if unknown:
        raise RequestError(f"unknown request fields {sorted(unknown)}")
    spec_payload = payload.get("spec")
    if not isinstance(spec_payload, Mapping):
        raise RequestError("campaign jobs need a 'spec' object "
                           "(see docs/campaign.md)")
    try:
        spec = CampaignSpec.from_dict(spec_payload)
    except (KeyError, TypeError, ValueError) as error:
        raise RequestError(f"invalid campaign spec: {error}") from None
    _check_settings(spec)
    return {"spec": spec.to_dict()}


def normalize_request(payload: Any) -> tuple[str, str, dict[str, Any]]:
    """``(tenant, kind, normalized_request)`` of a submit body, or raise."""
    if not isinstance(payload, Mapping):
        raise RequestError("request body must be a JSON object")
    tenant = validate_tenant(payload.get("tenant"))
    kind = payload.get("kind", "search")
    if kind == "search":
        return tenant, kind, normalize_search_request(payload)
    if kind == "campaign":
        return tenant, kind, normalize_campaign_request(payload)
    raise RequestError(f"unknown job kind {kind!r}; options: {JOB_KINDS}")


# --------------------------------------------------------------------------- #
# Spec construction (deterministic in the normalized request)
# --------------------------------------------------------------------------- #
def build_campaign_spec(job_id: str, kind: str,
                        request: Mapping[str, Any]) -> CampaignSpec:
    """The campaign spec a job's store is keyed on.

    Deterministic: the same ``(job_id, kind, request)`` always produces the
    same spec dict, which is what lets a restarted daemon reopen the job's
    :class:`~repro.campaign.store.ResultStore` (the store refuses a changed
    spec) and resume exactly where the crashed daemon left off.
    """
    if kind == "campaign":
        return CampaignSpec.from_dict(request["spec"])
    hardware = request.get("hardware")
    try:
        variant = StrategyVariant(
            name=request["strategy"],
            settings=dict(request.get("settings", {})),
            hardware=None if hardware is None else hardware_from_dict(hardware),
        )
        return CampaignSpec(
            name=f"service-{job_id}",
            workloads=(request["network"],),
            strategies=(variant,),
            seeds=(request.get("seed", 0),),
            budgets=(budget_from_dict(request.get("budget", {})),),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise RequestError(str(error)) from None


# --------------------------------------------------------------------------- #
# The persistent record
# --------------------------------------------------------------------------- #
@dataclass
class JobRecord:
    """One service job's persistent lifecycle state (``job.json``)."""

    job_id: str
    tenant: str
    kind: str
    request: dict[str, Any]
    state: str = STATE_QUEUED
    # repro-lint: allow[determinism-clock] submission timestamp for queue ordering display, not part of any result
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    attempts: int = 0
    #: Small deterministic summary of a finished job (best EDP / samples for
    #: searches, cell count for campaigns); the full outcome lives in the
    #: job's result store.
    result: dict[str, Any] | None = None
    #: Client-supplied submit dedupe key (transport-level; not part of the
    #: normalized request, never influences the spec or the results).
    idempotency_key: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "request": self.request,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "attempts": self.attempts,
            "result": self.result,
            "idempotency_key": self.idempotency_key,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "JobRecord":
        state = payload.get("state", STATE_QUEUED)
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        return JobRecord(
            job_id=str(payload["job_id"]),
            tenant=str(payload.get("tenant", DEFAULT_TENANT)),
            kind=str(payload.get("kind", "search")),
            request=dict(payload["request"]),
            state=state,
            created_at=float(payload.get("created_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 0)),
            result=payload.get("result"),
            idempotency_key=payload.get("idempotency_key"),
        )

    def summary(self) -> dict[str, Any]:
        """The API view of this record (what ``GET /v1/jobs/<id>`` returns)."""
        payload = self.to_dict()
        payload["terminal"] = self.terminal
        return payload

    def spec(self) -> CampaignSpec:
        return build_campaign_spec(self.job_id, self.kind, self.request)


# --------------------------------------------------------------------------- #
# Layout
# --------------------------------------------------------------------------- #
class ServiceLayout:
    """Path arithmetic for one service root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def endpoint_path(self) -> Path:
        return self.root / "service.json"

    @property
    def tenants_dir(self) -> Path:
        return self.root / "tenants"

    def job_dir(self, tenant: str, job_id: str) -> Path:
        return self.tenants_dir / tenant / "jobs" / job_id

    def record_path(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / RECORD_NAME

    def store_dir(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / STORE_DIR_NAME

    def cancel_path(self, tenant: str, job_id: str) -> Path:
        return self.job_dir(tenant, job_id) / CANCEL_NAME

    @property
    def fault_ledger_dir(self) -> Path:
        """The fault-injection fire ledger (shared by daemon + workers)."""
        return self.root / "fault-ledger"

    # ------------------------------------------------------------------ #
    def save_record(self, record: JobRecord) -> None:
        """Atomically persist a record (crash leaves old or new, never half)."""
        path = self.record_path(record.tenant, record.job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json_atomic(path, record.to_dict())

    def load_records(self) -> list[JobRecord]:
        """Every decodable job record under the root, oldest first.

        Undecodable records are skipped (a crash can only ever leave the
        previous complete ``job.json`` thanks to the atomic writes; anything
        else is external damage and should not take the daemon down).
        """
        records: list[JobRecord] = []
        if not self.tenants_dir.is_dir():
            return records
        for path in sorted(self.tenants_dir.glob(f"*/jobs/*/{RECORD_NAME}")):
            try:
                records.append(JobRecord.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError, OSError):
                continue
        records.sort(key=lambda r: (r.created_at, r.job_id))
        return records
