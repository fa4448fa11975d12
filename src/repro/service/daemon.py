"""Search-as-a-service: the long-running job daemon.

One daemon process serves many concurrent clients over HTTP/JSON (stdlib
``http.server`` only — no new dependencies):

* ``POST /v1/jobs`` submits a search or campaign job into a **bounded**
  queue (429 + ``Retry-After`` when full — backpressure, not buffering),
* ``n_workers`` dispatcher threads each own **one forked worker and one
  duplex pipe**: a :class:`~repro.campaign.scheduler.CampaignScheduler`
  sends the job's pending cells down the pipe in order, so at most
  ``n_workers`` cells run at once however many clients are connected,
* every job persists into its own per-tenant
  :class:`~repro.campaign.store.ResultStore`, all sharing a single
  cross-process evaluation-cache spill (``<root>/cache``) — tenants benefit
  from each other's reference-model evaluations, and because cache entries
  are bit-identical to fresh evaluations, sharing never changes results,
* ``GET /v1/jobs/<id>/events`` streams per-job progress as server-sent
  events, relayed from the frames a worker's search callbacks write,
* SIGTERM/SIGINT drains gracefully: the queue closes (503), a job-tagged
  ``stop`` message makes every in-flight search raise at its next step, the
  searchers' ``absorb_interrupt`` path persists flagged best-so-far
  outcomes, and a restarted daemon resumes exactly those jobs (seeded
  determinism makes the resumed results identical to an uninterrupted run).

Results are **byte-identical** to offline :func:`repro.optimize` runs with
the same seed: ``GET /v1/jobs/<id>/result`` serves the canonical outcome
JSON (wall-clock stripped), so clients can diff service output against local
runs.

The daemon is additionally hardened for hostile conditions (all of it
exercised deterministically by ``repro.service.faults`` plans and
``benchmarks/bench_chaos.py``):

* a **watchdog**: a worker silent mid-cell is SIGKILLed; a dead worker is
  respawned alone and only its job requeues (its store already holds every
  completed cell, so the retry resumes bit-identically),
* **per-tenant admission quotas and round-robin dispatch**, so one tenant's
  campaign cannot starve other tenants' jobs,
* ``DELETE /v1/jobs/<id>`` **cancellation** through the same ``stop``
  message, plus a per-job sentinel file a restarted daemon honours
  (terminal state ``cancelled``),
* submit **idempotency keys**, so a client retrying an ambiguous submit
  never double-runs a job,
* **TTL garbage collection** of terminal jobs plus periodic cache-spill
  compaction on a timer.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import socket
import threading
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro import __version__
from repro.campaign.report import CampaignReport
from repro.campaign.scheduler import (
    CampaignScheduler,
    PoolProgress,
    Worker,
    WorkerLost,
)
from repro.campaign.store import ResultStore, compact_cache_dir
from repro.service import faults
from repro.service.faults import FaultDrop, FaultPlan
from repro.service.jobs import (
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRecord,
    RequestError,
    ServiceLayout,
    new_job_id,
    normalize_request,
    validate_idempotency_key,
)
from repro.service.metrics import ServiceMetrics
from repro.utils.atomic import write_atomic, write_json_atomic
from repro.utils.log import get_logger
from repro.utils.serialization import (
    canonical_outcome_json,
    deterministic_outcome_payload,
)

log = get_logger("service.daemon")

#: Submit bodies larger than this are rejected outright (413).
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: How long :meth:`SearchService.drain` waits for in-flight jobs to stop
#: before it SIGKILLs their workers: well under the 60 s that process
#: managers (the chaos supervisor, the served benchmark) give SIGTERM.
DRAIN_SECONDS = 20.0

#: SSE keep-alive comment period while a job is idle in the queue.
HEARTBEAT_SECONDS = 10.0


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    root: Path
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; the actual endpoint is discoverable via
    #: ``<root>/service.json``.
    port: int = 0
    #: Dispatcher threads, each with its own forked worker process: at most
    #: this many cells run concurrently across all clients and tenants.
    n_workers: int = 2
    #: Bounded submit queue: beyond this many queued (not yet running) jobs,
    #: submits get 429 + Retry-After instead of unbounded buffering.
    queue_limit: int = 64
    #: Socket timeout applied to each HTTP request (slowloris guard).
    request_timeout: float = 30.0
    #: Stream an ``on_step`` SSE event every N samples.
    step_period: int = 25
    #: Per-tenant cap on active (queued + running) jobs; beyond it submits
    #: get 429 + Retry-After.  ``None`` disables quotas.
    tenant_quota: int | None = None
    #: Dispatch attempts per job before it is failed for good — worker
    #: crashes and transient store I/O errors requeue up to this many tries.
    max_attempts: int = 3
    #: SIGKILL a worker that sends no frame for this long while inside a
    #: cell (hung/stalled worker detection); workers heartbeat every quarter
    #: of it.  ``None`` disables both.
    watchdog_seconds: float | None = 60.0
    #: Delete terminal jobs (record + store) this long after they finished;
    #: ``None`` keeps them forever.
    job_ttl_seconds: float | None = None
    #: GC sweep period (only relevant with a TTL or compaction interval).
    gc_interval_seconds: float = 30.0
    #: Compact the shared cache spill every this many seconds; ``None``
    #: leaves compaction to the ``repro.cli campaign compact`` command.
    compact_interval_seconds: float | None = None
    #: Armed fault-injection plan (chaos testing only; ``None`` keeps every
    #: fault site a no-op).
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1 or None, "
                             f"got {self.tenant_quota}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.watchdog_seconds is not None and self.watchdog_seconds <= 0:
            raise ValueError(f"watchdog_seconds must be > 0 or None, "
                             f"got {self.watchdog_seconds}")
        if self.job_ttl_seconds is not None and self.job_ttl_seconds < 0:
            raise ValueError(f"job_ttl_seconds must be >= 0 or None, "
                             f"got {self.job_ttl_seconds}")
        if self.gc_interval_seconds <= 0:
            raise ValueError(f"gc_interval_seconds must be > 0, "
                             f"got {self.gc_interval_seconds}")
        if self.compact_interval_seconds is not None \
                and self.compact_interval_seconds <= 0:
            raise ValueError(f"compact_interval_seconds must be > 0 or None, "
                             f"got {self.compact_interval_seconds}")


class ServiceRejection(Exception):
    """A request the daemon refuses with a specific HTTP status."""

    def __init__(self, status: int, reason: str,
                 retry_after: float | None = None) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.retry_after = retry_after


class _JobEvents:
    """One job's in-memory event log: append-only, bounded, replayable.

    SSE handlers tail it by sequence number, so a client that reconnects
    with ``Last-Event-ID`` resumes where it left off (within the retention
    window).  ``close()`` wakes every tail and marks the stream finished.
    """

    CAP = 1024

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._events: list[tuple[int, str, dict]] = []
        self._base = 0
        self.closed = False

    def emit(self, event: str, payload: dict) -> None:
        with self._cond:
            if self.closed:
                return
            seq = self._base + len(self._events)
            self._events.append((seq, event, dict(payload)))
            overflow = len(self._events) - self.CAP
            if overflow > 0:
                del self._events[:overflow]
                self._base += overflow
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def since(self, seq: int, timeout: float) -> tuple[list, bool]:
        """Events with sequence >= ``seq`` (blocking up to ``timeout``)."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.closed or self._base + len(self._events) > seq,
                timeout=timeout)
            start = max(0, seq - self._base)
            return list(self._events[start:]), self.closed


class SearchService:
    """The daemon's engine: queue, dispatchers, workers, persistence.

    Separate from the HTTP layer so tests (and embedders) can drive it
    directly; :func:`create_server` wraps it in a ``ThreadingHTTPServer``.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.layout = ServiceLayout(config.root)
        self.layout.root.mkdir(parents=True, exist_ok=True)
        self.layout.cache_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = ServiceMetrics()
        # repro-lint: allow[determinism-clock] daemon start timestamp feeds uptime only, never a result payload
        self.started_at = time.time()
        #: Identifies this daemon process in SSE event ids
        #: (``<epoch>.<seq>``).  Event logs are in-memory, so sequence
        #: numbers reset on restart; a client resuming with a
        #: ``Last-Event-ID`` minted by a *previous* daemon must get a full
        #: replay instead of waiting for sequence numbers that may never
        #: come.
        self.events_epoch = f"{os.getpid():x}-{int(self.started_at):x}"
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._registry: dict[str, JobRecord] = {}
        #: Per-tenant FIFO queues plus a rotating tenant cursor: dispatch is
        #: round-robin *across tenants* (one tenant's campaign flood cannot
        #: starve another tenant's single search), FIFO within each tenant.
        self._queues: dict[str, deque[str]] = {}
        self._rr: deque[str] = deque()
        self._events: dict[str, _JobEvents] = {}
        #: Jobs whose cancellation was requested while running (the on-disk
        #: sentinel file is authoritative; this mirrors it for lock-cheap
        #: checks and survives only this process).
        self._cancel_requested: set[str] = set()
        #: ``(tenant, idempotency_key) -> job_id`` submit dedupe map,
        #: rebuilt from the persisted records on recovery.
        self._idempotency: dict[tuple[str, str], str] = {}
        self._draining = threading.Event()
        self._drained = threading.Event()
        #: One worker per dispatcher thread, by dispatcher index.
        self._workers: list[Worker] = []
        self._dispatchers: list[threading.Thread] = []
        self._gc_stop = threading.Event()
        self._gc_thread: threading.Thread | None = None
        self._fault_hook: Callable[[str, str], None] | None = None
        #: The HTTP listening socket once :func:`create_server` has bound
        #: it; a worker forked after the bind closes its inherited copy.
        self._listener: socket.socket | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Fork the workers, recover persisted jobs, start the threads.

        The workers are forked *before* any service thread exists: forking a
        process that already runs threads risks inheriting locks
        mid-acquire.  A respawn forks from a dispatcher thread; that child
        runs only :func:`~repro.campaign.scheduler.worker_main` over its own
        new pipe.
        """
        if self.config.fault_plan is not None:
            faults.arm(self.config.fault_plan, self.layout.fault_ledger_dir)
            self._fault_hook = faults.fire
        self._workers = [self._spawn_worker()
                         for _ in range(self.config.n_workers)]
        self.recover()
        for index in range(self.config.n_workers):
            thread = threading.Thread(target=self._dispatch_loop,
                                      args=(index,),
                                      name=f"svc-dispatch-{index}", daemon=True)
            thread.start()
            self._dispatchers.append(thread)
        if self.config.job_ttl_seconds is not None \
                or self.config.compact_interval_seconds is not None:
            self._gc_thread = threading.Thread(
                target=self._gc_loop, name="svc-gc", daemon=True)
            self._gc_thread.start()
        log.info("service started: root=%s workers=%d queue_limit=%d",
                 self.layout.root, self.config.n_workers,
                 self.config.queue_limit)

    def _spawn_worker(self) -> Worker:
        plan = self.config.fault_plan
        return Worker(None if plan is None else plan.to_dict(),
                      None if plan is None
                      else str(self.layout.fault_ledger_dir),
                      self._listener)

    def _respawn(self, index: int) -> None:
        """Reap dispatcher ``index``'s dead worker and fork its replacement."""
        self._workers[index].close(timeout=0.0)
        if self._draining.is_set():
            return
        self._workers[index] = self._spawn_worker()
        self.metrics.count("pool_respawns")
        log.warning("service: worker %d respawned (pid %d)", index,
                    self._workers[index].process.pid)

    # ------------------------------------------------------------------ #
    def fault_fire(self, site: str, key: str = "") -> None:
        """Hit a parent-side fault site (no-op unless a plan is armed)."""
        if self._fault_hook is not None:
            self._fault_hook(site, key)

    def _stop_running(self, job_id: str | None = None) -> None:
        """Send ``stop`` for ``job_id`` (every running job if ``None``)."""
        with self._lock:
            running = [(worker, worker.job) for worker in self._workers
                       if worker.job is not None
                       and job_id in (None, worker.job)]
        for worker, tag in running:
            worker.send("stop", tag)

    def recover(self) -> None:
        """Re-register persisted jobs; re-enqueue the incomplete ones.

        A job that was ``running`` when the previous daemon died goes back to
        ``queued``: its store already holds any flagged best-so-far outcome,
        and the scheduler's resume path re-runs exactly the incomplete cells.
        """
        for record in self.layout.load_records():
            self._registry[record.job_id] = record
            if record.idempotency_key:
                self._idempotency[(record.tenant, record.idempotency_key)] \
                    = record.job_id
            if record.terminal:
                continue
            if self.layout.cancel_path(record.tenant,
                                       record.job_id).exists():
                # Cancelled while the daemon was down (or between the
                # cancel request and the crash): honor the sentinel now
                # instead of resuming a job nobody wants.
                log.info("service: honoring persisted cancellation of %s",
                         record.job_id)
                self._finish(record, STATE_CANCELLED)
                continue
            resumed = record.state == STATE_RUNNING or record.attempts > 0
            record.state = STATE_QUEUED
            self.layout.save_record(record)
            with self._lock:
                self._enqueue_locked(record)
            self._events_for(record.job_id).emit(
                "queued", {"job_id": record.job_id, "resumed": resumed})
            if resumed:
                self.metrics.count("jobs_resumed")
                log.info("service: resuming job %s (attempt %d)",
                         record.job_id, record.attempts + 1)

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, interrupt, persist, wind down.

        In-flight searches raise at their next step (a ``stop`` message),
        the schedulers persist their flagged best-so-far outcomes, and the
        affected jobs return to ``queued`` on disk so the next daemon resumes
        them; a worker still busy after :data:`DRAIN_SECONDS` is SIGKILLed.
        Idempotent; blocks until fully drained.
        """
        with self._cond:
            first = not self._draining.is_set()
            self._draining.set()
            self._cond.notify_all()
        if not first:
            self._drained.wait()
            return
        log.info("service draining: interrupting in-flight jobs")
        self._stop_running()
        deadline = time.monotonic() + DRAIN_SECONDS
        for thread in self._dispatchers:
            thread.join(max(0.0, deadline - time.monotonic()))
        for worker, thread in zip(self._workers, self._dispatchers):
            if thread.is_alive():
                log.warning("service: worker %d still busy at the %.0fs "
                            "drain deadline; killing it", worker.process.pid,
                            DRAIN_SECONDS)
                self.metrics.count("workers_killed")
                worker.process.kill()
        for thread in self._dispatchers:
            thread.join()
        for worker in self._workers:
            worker.close(timeout=5.0)
        self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join()
        with self._lock:
            events = list(self._events.values())
        for log_ in events:
            log_.close()
        self._drained.set()
        log.info("service drained")

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------ #
    # Client-facing operations (HTTP handlers call these)
    # ------------------------------------------------------------------ #
    def submit(self, payload: Any) -> JobRecord:
        """Validate, persist and enqueue one job; raise on rejection.

        With an ``idempotency_key`` in the body, a retried submit whose
        first attempt actually landed returns the original record instead
        of enqueueing a duplicate — safe submit retries over a lossy
        connection.
        """
        if self._draining.is_set():
            self.metrics.count("jobs_rejected_draining")
            raise ServiceRejection(503, "service is draining")
        try:
            key = (validate_idempotency_key(payload.get("idempotency_key"))
                   if isinstance(payload, Mapping) else None)
            tenant, kind, request = normalize_request(payload)
        except RequestError:
            self.metrics.count("jobs_rejected_invalid")
            raise
        with self._cond:
            if key is not None:
                existing_id = self._idempotency.get((tenant, key))
                existing = (self._registry.get(existing_id)
                            if existing_id is not None else None)
                if existing is not None:
                    self.metrics.count("jobs_deduplicated")
                    log.info("service: submit dedupe for tenant %s key %s "
                             "-> %s", tenant, key, existing.job_id)
                    return existing
            if self._queue_depth_locked() >= self.config.queue_limit:
                self.metrics.count("jobs_rejected_full")
                raise ServiceRejection(
                    429, f"queue is full ({self.config.queue_limit} jobs)",
                    retry_after=1.0)
            quota = self.config.tenant_quota
            if quota is not None:
                active = sum(1 for r in self._registry.values()
                             if r.tenant == tenant
                             and r.state in (STATE_QUEUED, STATE_RUNNING))
                if active >= quota:
                    self.metrics.count("jobs_rejected_quota")
                    raise ServiceRejection(
                        429, f"tenant {tenant} is at its quota of {quota} "
                             "active jobs", retry_after=2.0)
            record = JobRecord(job_id=new_job_id(), tenant=tenant,
                               kind=kind, request=request,
                               idempotency_key=key)
            self.layout.save_record(record)
            self._registry[record.job_id] = record
            if key is not None:
                self._idempotency[(tenant, key)] = record.job_id
            self._enqueue_locked(record)
            events = self._events_for(record.job_id)
            self._cond.notify()
        events.emit("queued", {"job_id": record.job_id, "resumed": False})
        self.metrics.count("jobs_submitted")
        log.info("service: accepted %s job %s (tenant %s)",
                 kind, record.job_id, tenant)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job (``DELETE /v1/jobs/<id>``), cooperatively.

        A queued job is cancelled immediately.  A running job's worker gets
        the drain's ``stop`` message: the scheduler persists flagged
        best-so-far outcomes and the job finishes as ``cancelled``.  An
        on-disk sentinel records the request for a restarted daemon.
        Terminal jobs are a 409 (cancellation is cooperative — a job that
        completes before its worker reads the ``stop`` stays ``done``).
        """
        with self._cond:
            record = self._registry.get(job_id)
            if record is None:
                raise KeyError(job_id)
            if record.terminal:
                raise ServiceRejection(
                    409, f"job {job_id} is already {record.state}")
            queued_now = record.state == STATE_QUEUED
            if queued_now:
                queue = self._queues.get(record.tenant)
                if queue is not None:
                    try:
                        queue.remove(job_id)
                    except ValueError:  # pragma: no cover - resumed races
                        pass
            self._cancel_requested.add(job_id)
        sentinel = self.layout.cancel_path(record.tenant, job_id)
        sentinel.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(sentinel, "cancel requested\n")
        if queued_now:
            self._finish(record, STATE_CANCELLED)
            log.info("service: cancelled queued job %s", job_id)
        else:
            self._stop_running(job_id)
            self._events_for(job_id).emit("cancelling", {"job_id": job_id})
            log.info("service: cancellation requested for running job %s",
                     job_id)
        return record

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._registry.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    def job_summaries(self, tenant: str | None = None) -> list[dict]:
        with self._lock:
            records = list(self._registry.values())
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        records.sort(key=lambda r: (r.created_at, r.job_id))
        return [r.summary() for r in records]

    def job_events(self, job_id: str) -> _JobEvents:
        """The job's event log; terminal jobs from before a restart get a
        synthetic terminal frame so late subscribers still see an ending."""
        with self._lock:
            record = self._registry.get(job_id)
            if record is None:
                raise KeyError(job_id)
            events = self._events_for(job_id)
        if record.terminal and not events.closed:
            if record.state == STATE_DONE:
                events.emit("done", {"job_id": job_id, "result": record.result})
            elif record.state == STATE_CANCELLED:
                events.emit("cancelled", {"job_id": job_id})
            else:
                events.emit("failed", {"job_id": job_id, "error": record.error})
            events.close()
        return events

    def result_bytes(self, job_id: str, deterministic: bool = True) -> bytes:
        """The finished job's result document, as served bytes.

        For search jobs this is exactly
        :func:`~repro.utils.serialization.canonical_outcome_json` of the
        persisted outcome — byte-identical to canonicalizing an offline
        :func:`repro.optimize` run with the same seed.
        """
        record = self.job(job_id)
        if record.state != STATE_DONE:
            raise ServiceRejection(
                409, f"job {job_id} is {record.state}, not done")
        store = ResultStore(self.layout.store_dir(record.tenant, job_id),
                            writer=False, create=False,
                            cache_dir=self.layout.cache_dir)
        latest = store.latest_outcomes()
        if record.kind == "search":
            cell = record.spec().jobs()[0].job_id
            return canonical_outcome_json(
                latest[cell], deterministic=deterministic).encode()
        cells = {cell: (deterministic_outcome_payload(payload)
                        if deterministic else payload)
                 for cell, payload in latest.items()}
        document = {
            "kind": "campaign",
            "campaign": record.spec().name,
            "jobs": cells,
            "report": CampaignReport.from_store(store).to_text(),
        }
        return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()

    def health_payload(self) -> dict:
        with self._lock:
            depth = self._queue_depth_locked()
            tenants = {tenant: len(queue)
                       for tenant, queue in self._queues.items() if queue}
        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "pid": os.getpid(),
            "root": str(self.layout.root),
            "workers": self.config.n_workers,
            "queue": {"depth": depth, "limit": self.config.queue_limit,
                      "tenants": tenants},
            # repro-lint: allow[determinism-clock] health endpoint uptime is operational metadata, not a result
            "uptime_seconds": time.time() - self.started_at,
        }

    def metrics_payload(self) -> dict:
        with self._lock:
            queued = self._queue_depth_locked()
            running = sum(1 for r in self._registry.values()
                          if r.state == STATE_RUNNING)
        return self.metrics.snapshot(queued=queued, running=running)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _events_for(self, job_id: str) -> _JobEvents:
        with self._lock:
            events = self._events.get(job_id)
            if events is None:
                events = self._events[job_id] = _JobEvents()
            return events

    def _enqueue_locked(self, record: JobRecord) -> None:
        queue = self._queues.get(record.tenant)
        if queue is None:
            queue = self._queues[record.tenant] = deque()
            self._rr.append(record.tenant)
        queue.append(record.job_id)

    def _next_job_locked(self) -> JobRecord | None:
        """Round-robin across tenants, FIFO within each tenant."""
        for _ in range(len(self._rr)):
            tenant = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return self._registry[queue.popleft()]
        return None

    def _queue_depth_locked(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _dispatch_loop(self, index: int) -> None:
        while True:
            with self._cond:
                record = None
                while not self._draining.is_set():
                    record = self._next_job_locked()
                    if record is not None:
                        break
                    self._cond.wait(0.5)
                if record is None:
                    # Draining: leave still-queued jobs for the next daemon,
                    # they are already persisted as queued.
                    return
                record.state = STATE_RUNNING
                # repro-lint: allow[determinism-clock] job lifecycle timestamp; excluded from served result payloads
                record.started_at = time.time()
                record.attempts += 1
                self._workers[index].job = record.job_id
            # Everything per-job stays inside the try: a dispatcher thread
            # that dies takes its share of the throughput (and any job it
            # would ever have run) with it, so no per-job error may escape.
            try:
                self.layout.save_record(record)
                self.fault_fire("daemon.dispatch",
                                f"{record.tenant}:{record.kind}")
                self._events_for(record.job_id).emit(
                    "running",
                    {"job_id": record.job_id, "attempt": record.attempts})
                self._execute(record, index)
            except Exception as error:  # noqa: BLE001 - keep dispatching
                log.error("service: job %s crashed the dispatcher: %r",
                          record.job_id, error)
                try:
                    self._finish(record, STATE_FAILED, error=repr(error))
                except Exception:  # noqa: BLE001 - job dir may be gone
                    log.exception("service: could not record job %s as "
                                  "failed", record.job_id)
            finally:
                with self._lock:
                    self._workers[index].job = None

    def _run_on_worker(self, index: int, events: _JobEvents,
                       *args) -> tuple[str, Any]:
        """Run one cell (``_pool_run_job``'s arguments) on worker ``index``,
        relaying its frames until its ``result`` or ``error`` frame, which it
        returns.  A worker silent for ``watchdog_seconds`` is SIGKILLed; a
        dead one raises ``WorkerLost``.
        """
        worker = self._workers[index]
        worker.send("run", args)
        timeout = self.config.watchdog_seconds
        while True:
            frame = worker.receive(timeout)
            if frame is None:
                log.warning("service: worker %d silent for over %.1fs; "
                            "killing it", worker.process.pid, timeout)
                self.metrics.count("workers_killed")
                worker.process.kill()
                continue
            event, payload = frame
            if event in ("result", "error"):
                return frame
            if event == "stats":
                self.metrics.add_cache(payload["hits"], payload["misses"],
                                       payload["evictions"])
            elif event != "hb":  # a heartbeat only resets the watchdog
                events.emit("cell_started" if event == "job" else event,
                            payload)

    def _execute(self, record: JobRecord, index: int) -> None:
        events = self._events_for(record.job_id)
        started = time.monotonic()
        watchdog = self.config.watchdog_seconds
        try:
            spec = record.spec()
            store = ResultStore(
                self.layout.store_dir(record.tenant, record.job_id),
                spec=spec, cache_dir=self.layout.cache_dir)
            scheduler = CampaignScheduler(
                spec, store,
                run_job=functools.partial(self._run_on_worker, index, events),
                progress=PoolProgress(
                    tag=record.job_id,
                    step_period=self.config.step_period,
                    heartbeat_seconds=(None if watchdog is None
                                       else watchdog / 4.0)),
                fault_hook=self._fault_hook)

            def on_cell(job, outcome) -> None:
                events.emit("cell_done", {
                    "cell": job.job_id,
                    "best_edp": outcome.best_edp,
                    "samples": outcome.total_samples,
                    "interrupted": outcome.interrupted,
                })

            run = scheduler.run(on_job_done=on_cell)
        except WorkerLost as error:
            # The worker died hard (watchdog SIGKILL, OOM, a crash): respawn
            # it alone and requeue only this job — completed cells are
            # persisted, so the retry resumes bit-identically.
            log.warning("service: job %s lost its worker (%s)",
                        record.job_id, error)
            self._respawn(index)
            self._requeue_or_fail(record, f"worker died: {error}")
            return
        except OSError as error:
            # Transient store I/O (disk full, partial write): the append
            # failed *before* the result line landed, so a retry re-runs
            # only the unpersisted cells.
            log.warning("service: job %s hit an I/O error (%r)",
                        record.job_id, error)
            self._requeue_or_fail(record, f"store I/O error: {error!r}")
            return
        except Exception as error:  # noqa: BLE001 - job-level failure
            log.warning("service: job %s failed: %r", record.job_id, error)
            self._finish(record, STATE_FAILED, error=repr(error))
            return
        if run.was_interrupted:
            if self._cancel_pending(record):
                # The interrupt came from a cancellation, not the drain:
                # flagged best-so-far cells are persisted, the job ends as
                # cancelled.
                self._finish(record, STATE_CANCELLED)
                log.info("service: job %s cancelled "
                         "(%d best-so-far cells persisted)",
                         record.job_id, len(run.interrupted))
                return
            # Drain: flagged best-so-far cells are persisted in the store;
            # the record goes back to queued for the next daemon to resume.
            # As in _finish, the record is re-queued and persisted before the
            # terminal frame so a client that saw it observes the final state.
            with self._lock:
                record.state = STATE_QUEUED
            self.layout.save_record(record)
            self.metrics.count("jobs_interrupted")
            events.emit("interrupted",
                        {"job_id": record.job_id,
                         "persisted_cells": run.interrupted})
            events.close()
            log.info("service: job %s interrupted by drain "
                     "(%d best-so-far cells persisted)",
                     record.job_id, len(run.interrupted))
            return
        if run.failed:
            first_id, first_error = run.failed[0]
            self._finish(record, STATE_FAILED,
                         error=f"{len(run.failed)} cells failed "
                               f"(first: {first_id}: {first_error})")
            return
        if run.pending_after:
            self._finish(record, STATE_FAILED,
                         error=f"{len(run.pending_after)} cells unexpectedly "
                               "pending after a full run")
            return
        summary = {
            "cells": len(run.outcomes),
            "samples": sum(o.total_samples for o in run.outcomes.values()),
        }
        if run.outcomes:
            summary["best_edp"] = min(o.best_edp
                                      for o in run.outcomes.values())
        # Latency is observed before the terminal event: a client that saw
        # the "done" frame must find this job in the /metrics percentiles.
        self.metrics.observe_latency(time.monotonic() - started)
        self._finish(record, STATE_DONE, result=summary)

    def _finish(self, record: JobRecord, state: str, error: str | None = None,
                result: dict | None = None) -> None:
        # State, persisted record and counters must all be in place before
        # the terminal frame goes out: a client that saw "done" on the event
        # stream may immediately fetch the result (no 409) and the metrics
        # (this job counted).  If a subscriber lands in between, job_events
        # synthesizes the terminal frame and closes the log first — emit on
        # a closed log is a no-op, so the frame is never duplicated.
        events = self._events_for(record.job_id)
        with self._lock:
            record.state = state
            # repro-lint: allow[determinism-clock] job lifecycle timestamp; excluded from served result payloads
            record.finished_at = time.time()
            record.error = error
            record.result = result
            self._cancel_requested.discard(record.job_id)
        self.layout.save_record(record)
        if state == STATE_DONE:
            self.metrics.count("jobs_done")
            events.emit("done", {"job_id": record.job_id, "result": result})
        elif state == STATE_CANCELLED:
            self.metrics.count("jobs_cancelled")
            events.emit("cancelled", {"job_id": record.job_id})
        else:
            self.metrics.count("jobs_failed")
            events.emit("failed", {"job_id": record.job_id, "error": error})
        events.close()

    def _cancel_pending(self, record: JobRecord) -> bool:
        with self._lock:
            if record.job_id in self._cancel_requested:
                return True
        # The sentinel is authoritative (covers a cancel issued against the
        # previous daemon just before it crashed).
        return self.layout.cancel_path(record.tenant,
                                       record.job_id).exists()

    def _requeue_or_fail(self, record: JobRecord, reason: str) -> None:
        """Retry a job after an infrastructure failure, up to max_attempts."""
        if self._cancel_pending(record):
            self._finish(record, STATE_CANCELLED)
            return
        if record.attempts >= self.config.max_attempts:
            self._finish(record, STATE_FAILED,
                         error=f"{reason} (giving up after "
                               f"{record.attempts} attempts)")
            return
        # Persist the queued state *before* the record becomes poppable: a
        # dispatcher woken by the notify would otherwise race this thread's
        # save_record with its own running-state save of the same job.
        with self._lock:
            record.state = STATE_QUEUED
        self.layout.save_record(record)
        with self._cond:
            if not self._draining.is_set():
                self._enqueue_locked(record)
            self._cond.notify()
        self.metrics.count("jobs_retried")
        self._events_for(record.job_id).emit(
            "retrying", {"job_id": record.job_id,
                         "attempt": record.attempts, "reason": reason})
        log.info("service: job %s requeued after attempt %d (%s)",
                 record.job_id, record.attempts, reason)

    def _gc_loop(self) -> None:
        """Expire terminal jobs past their TTL; compact the spill on a timer."""
        compact_every = self.config.compact_interval_seconds
        next_compact = (time.monotonic() + compact_every
                        if compact_every is not None else None)
        while not self._gc_stop.wait(self.config.gc_interval_seconds):
            try:
                self._collect_expired()
            except Exception as error:  # noqa: BLE001 - keep sweeping
                log.warning("service: GC sweep failed: %r", error)
            if next_compact is not None \
                    and time.monotonic() >= next_compact:
                next_compact = time.monotonic() + compact_every
                try:
                    stats = compact_cache_dir(self.layout.cache_dir)
                    self.metrics.count("spill_compactions")
                    log.info("service: spill compacted (%s)", stats)
                except Exception as error:  # noqa: BLE001 - keep sweeping
                    log.warning("service: spill compaction failed: %r", error)

    def _collect_expired(self) -> None:
        ttl = self.config.job_ttl_seconds
        if ttl is None:
            return
        # repro-lint: allow[determinism-clock] TTL expiry compares persisted lifecycle timestamps, never result data
        now = time.time()
        expired: list[tuple[JobRecord, _JobEvents | None]] = []
        with self._lock:
            for record in list(self._registry.values()):
                if not record.terminal:
                    continue
                finished = record.finished_at or record.created_at
                if now - finished < ttl:
                    continue
                self._registry.pop(record.job_id, None)
                if record.idempotency_key:
                    self._idempotency.pop(
                        (record.tenant, record.idempotency_key), None)
                # Counted and deleted before the lock is released: a client
                # that sees the job's 404 also sees both.
                self.metrics.count("jobs_expired")
                shutil.rmtree(self.layout.job_dir(record.tenant, record.job_id),
                              ignore_errors=True)
                expired.append((record,
                                self._events.pop(record.job_id, None)))
        for record, events in expired:
            if events is not None:
                events.close()
            log.info("service: expired %s job %s (%s, ttl %.0fs)",
                     record.state, record.job_id, record.tenant, ttl)


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #
def _build_handler(service: SearchService) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service"
        timeout = service.config.request_timeout

        # -------------------------------------------------------------- #
        def log_message(self, format: str, *args) -> None:  # noqa: A002
            log.debug("http %s: " + format, self.address_string(), *args)

        def _send_bytes(self, status: int, body: bytes, content_type: str,
                        headers: dict[str, str] | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: dict,
                       headers: dict[str, str] | None = None) -> None:
            body = (json.dumps(payload, indent=2, sort_keys=True)
                    + "\n").encode()
            self._send_bytes(status, body, "application/json", headers)

        def _send_error_json(self, status: int, message: str,
                             headers: dict[str, str] | None = None) -> None:
            self._send_json(status, {"error": message}, headers)

        def _send_rejection(self, rejection: ServiceRejection) -> None:
            headers = {}
            if rejection.retry_after is not None:
                headers["Retry-After"] = str(int(rejection.retry_after) or 1)
            self._send_error_json(rejection.status, rejection.reason, headers)

        # -------------------------------------------------------------- #
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            from urllib.parse import parse_qs, urlsplit

            parts = urlsplit(self.path)
            path, query = parts.path, parse_qs(parts.query)
            try:
                if path == "/healthz":
                    self._send_json(200, service.health_payload())
                elif path == "/metrics":
                    self._send_json(200, service.metrics_payload())
                elif path == "/v1/jobs":
                    tenant = query.get("tenant", [None])[0]
                    self._send_json(
                        200, {"jobs": service.job_summaries(tenant)})
                elif path.startswith("/v1/jobs/"):
                    rest = path[len("/v1/jobs/"):]
                    if rest.endswith("/events"):
                        self._stream_events(rest[:-len("/events")])
                    elif rest.endswith("/result"):
                        flag = query.get("deterministic", ["1"])[0]
                        deterministic = flag not in ("0", "false", "no")
                        body = service.result_bytes(rest[:-len("/result")],
                                                    deterministic)
                        self._send_bytes(200, body, "application/json")
                    elif "/" not in rest and rest:
                        self._send_json(200, service.job(rest).summary())
                    else:
                        self._send_error_json(404, f"no route for {path}")
                else:
                    self._send_error_json(404, f"no route for {path}")
            except KeyError as error:
                self._send_error_json(404, f"unknown job {error.args[0]}")
            except ServiceRejection as rejection:
                self._send_rejection(rejection)

        def do_DELETE(self) -> None:  # noqa: N802 - http.server API
            path = urlsplit_path(self.path)
            if not path.startswith("/v1/jobs/"):
                self._send_error_json(404, f"no route for {path}")
                return
            job_id = path[len("/v1/jobs/"):]
            if not job_id or "/" in job_id:
                self._send_error_json(404, f"no route for {path}")
                return
            try:
                record = service.cancel(job_id)
            except KeyError:
                self._send_error_json(404, f"unknown job {job_id}")
                return
            except ServiceRejection as rejection:
                self._send_rejection(rejection)
                return
            self._send_json(202, record.summary())

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if urlsplit_path(self.path) != "/v1/jobs":
                self._send_error_json(404, f"no route for {self.path}")
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._send_error_json(400, "bad Content-Length")
                return
            if length > MAX_REQUEST_BYTES:
                self._send_error_json(413, "request body too large")
                return
            try:
                payload = json.loads(self.rfile.read(length) or b"null")
            except (ValueError, OSError):
                self._send_error_json(400, "request body is not valid JSON")
                return
            try:
                record = service.submit(payload)
            except RequestError as error:
                self._send_error_json(400, str(error))
                return
            except ServiceRejection as rejection:
                self._send_rejection(rejection)
                return
            self._send_json(202, record.summary())

        # -------------------------------------------------------------- #
        def _stream_events(self, job_id: str) -> None:
            try:
                events = service.job_events(job_id)
            except KeyError:
                self._send_error_json(404, f"unknown job {job_id}")
                return
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            seq = 0
            last_id = self.headers.get("Last-Event-ID")
            if last_id is not None:
                # Ids are "<epoch>.<seq>"; a bare integer (same-daemon
                # shorthand) is honored too.  An id from another daemon's
                # epoch means the in-memory log restarted — replay from 0.
                epoch, _, num = last_id.rpartition(".")
                if not epoch or epoch == service.events_epoch:
                    try:
                        seq = int(num) + 1
                    except ValueError:
                        pass
            try:
                while True:
                    batch, closed = events.since(
                        seq, timeout=HEARTBEAT_SECONDS)
                    for seq_i, name, payload in batch:
                        try:
                            service.fault_fire("sse.frame",
                                               f"{job_id}:{name}:{seq_i}")
                        except FaultDrop:
                            # Injected connection drop: close the stream
                            # abruptly, mid-job — the client reconnects
                            # with Last-Event-ID and replays from here.
                            return
                        frame = (f"id: {service.events_epoch}.{seq_i}\n"
                                 f"event: {name}\n"
                                 f"data: {json.dumps(payload, sort_keys=True)}"
                                 "\n\n")
                        self.wfile.write(frame.encode())
                        seq = seq_i + 1
                    if not batch and not closed:
                        self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    if closed and not batch:
                        return
            except (BrokenPipeError, ConnectionResetError,
                    socket.timeout, OSError):
                return  # client went away; nothing to clean up

    return Handler


def urlsplit_path(path: str) -> str:
    from urllib.parse import urlsplit

    return urlsplit(path).path


def create_server(service: SearchService) -> ThreadingHTTPServer:
    """Bind the HTTP front-end at the config's host and port (``port=0``
    picks an ephemeral port)."""
    server = ThreadingHTTPServer((service.config.host, service.config.port),
                                 _build_handler(service))
    server.daemon_threads = True
    service._listener = server.socket
    return server


def write_endpoint_file(service: SearchService,
                        server: ThreadingHTTPServer) -> Path:
    """Publish the live endpoint at ``<root>/service.json`` (atomic)."""
    host, port = server.server_address[:2]
    return write_json_atomic(service.layout.endpoint_path, {
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "started_at": service.started_at,
    })


def serve(config: ServiceConfig) -> int:
    """Blocking daemon entry point (the body of ``repro.cli serve``).

    Installs SIGTERM/SIGINT handlers that drain gracefully (a second signal
    hard-exits).  Once the socket is bound the endpoint is published at
    ``<root>/service.json``, which clients poll for (``Client.from_root``).
    """
    import signal

    service = SearchService(config)
    service.start()
    server = create_server(service)
    write_endpoint_file(service, server)
    host, port = server.server_address[:2]
    log.info("service listening on http://%s:%d (root %s)",
             host, port, service.layout.root)
    stopping = threading.Event()

    def _shutdown() -> None:
        service.drain()
        server.shutdown()

    def _graceful(signum, frame) -> None:
        if stopping.is_set():  # pragma: no cover - second-signal hard exit
            os._exit(130)
        stopping.set()
        threading.Thread(target=_shutdown, name="svc-shutdown",
                         daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _graceful)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        if not stopping.is_set():
            service.drain()
        try:
            service.layout.endpoint_path.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
    return 0
