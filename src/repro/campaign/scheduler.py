"""The campaign scheduler: shard independent jobs across workers, resumably.

Every grid cell of a :class:`~repro.campaign.spec.CampaignSpec` is an
independent seeded search, so scheduling is embarrassingly parallel.  The
scheduler:

* skips jobs whose ids are already completed in the
  :class:`~repro.campaign.store.ResultStore` (crash-safe resume: seeded
  determinism means an interrupt + resume reproduces the uninterrupted
  campaign exactly),
* optionally takes a deterministic ``shard_index``/``shard_count`` slice of
  the grid (for spreading one campaign over several machines or CI jobs) and
  an at-most-``max_jobs`` cap per invocation,
* runs jobs inline (default — live :class:`SearchOutcome` objects, shared
  in-memory evaluation cache), hands them out over ``n_workers`` forked
  :class:`Worker` processes (one pipe each, the worker the search service
  runs too), or hands them in order to one worker of the search service
  (``run_job``); a worker preloads the store's cache spill and the parent
  remains the store's single writer,
* persists each finished job atomically, including interrupted best-so-far
  outcomes (flagged, so resume re-runs them), and spills the
  reference-model cache entries each job stored back to the store.

The campaign parallelizes at job granularity only: each job's searcher
evaluates the reference model in-process, through one vectorized
:class:`~repro.eval.engine.EvaluationEngine` batch per query.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore
from repro.eval.cache import EvaluationCache
from repro.search.api import (
    SearchCallback,
    SearchOutcome,
    available_strategies,
    get_searcher,
)
from repro.utils.log import get_logger
from repro.utils.serialization import outcome_from_dict, outcome_to_dict
from repro.workloads.networks import get_network

log = get_logger("campaign.scheduler")

#: Called after each persisted job: (job, outcome).  May raise
#: KeyboardInterrupt to stop the campaign gracefully (the CLI uses it for
#: progress lines; tests use it to simulate mid-campaign interrupts).
JobCallback = Callable[[JobSpec, SearchOutcome], None]


def execute_job(job: JobSpec, cache: EvaluationCache | None = None,
                callbacks=None) -> SearchOutcome:
    """Run one grid cell: construct the seeded searcher and search.

    The job's seed is injected into the variant's settings overrides via the
    strategy's ``settings_type``, so identical jobs are bit-reproducible no
    matter which process (or machine) runs them.
    """
    cls = get_searcher(job.variant.strategy)
    settings_type = getattr(cls, "settings_type", None)
    if settings_type is None:
        raise TypeError(f"strategy {job.variant.strategy!r} exposes no "
                        "settings_type; campaign jobs need seeded settings")
    settings = settings_type(seed=job.seed, **dict(job.variant.settings))
    kwargs: dict[str, Any] = {}
    if job.variant.hardware is not None:
        kwargs["hardware"] = job.variant.hardware
    searcher = cls(get_network(job.workload), settings=settings,
                   cache=cache, **kwargs)
    return searcher.search(budget=job.budget, callbacks=callbacks)


#: Per-worker-process spill state, keyed by *cache directory*: the shared
#: in-memory cache and the spill segment names already folded into it.  Pool
#: workers are long-lived (one process runs many jobs), so each segment is
#: parsed once per worker instead of once per job — and stores pointed at one
#: shared ``cache_dir`` (the search service's tenants) share one in-worker
#: cache.  That cache is an LRU of :data:`_WORKER_CACHE_ENTRIES` entries, so a
#: worker serving jobs for days stops growing once it is full.
_WORKER_SPILL: dict[str, tuple[EvaluationCache, set[str]]] = {}

#: Entry cap of a pool worker's shared cache.  An entry holds ~1.8 KB
#: (tracemalloc: 1,782 B per entry over 40 60-sample bert random jobs, which
#: store 64 entries each), and the largest default job stores 5,000 entries
#: (a 5,000-sample random search; default DOSA on resnet50 stores 421), so
#: the cap keeps four such working sets in ~36 MB per worker.
_WORKER_CACHE_ENTRIES = 20_000

#: A worker's end of its pipe to its owner, installed by :func:`worker_main`.
#: ``None`` in the process that runs a campaign inline.
_WORKER_CHANNEL: _WorkerChannel | None = None

#: Fault-injection hook armed in service workers by :func:`worker_main` when
#: the service passes a fault plan.  ``None`` (the default) keeps the worker
#: fault sites zero-cost; the campaign layer never imports the service
#: package at module scope, so plain campaign runs stay service-free.
_WORKER_FAULT: Callable[[str, str], None] | None = None


#: How often (seconds) a worker checks that the process that forked it is
#: still alive (see :func:`worker_main`).
_PARENT_POLL_SECONDS = 1.0


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once its parent, pid ``parent``, is gone.

    An idle worker blocks reading its pipe, whose owner's end fork copied
    into the worker itself, so an owner killed hard would leave its workers
    asleep, reparented, for good.  A reparented worker has a new parent pid.
    """
    while True:
        time.sleep(_PARENT_POLL_SECONDS)
        if os.getppid() != parent:
            os._exit(1)


class WorkerLost(RuntimeError):
    """The worker process running a job died before returning it (an
    infrastructure failure: the daemon respawns the worker and retries; a
    pool run propagates it)."""


class _WorkerChannel:
    """A worker's end of its pipe: ``(event, payload)`` frames out; ``run``,
    ``stop`` and ``exit`` messages in (only ``stop`` mid-job)."""

    def __init__(self, conn) -> None:
        self.conn = conn
        #: The last job the owner asked to stop: a ``stop`` read between
        #: cells still stops that job's next cell, never another job.
        self.stopped: str | None = None

    def send(self, event: str, payload: Any) -> None:
        self.conn.send((event, payload))

    def stop_requested(self, tag: str) -> bool:
        """Whether the owner asked to stop job ``tag`` (non-blocking)."""
        while self.stopped != tag and self.conn.poll():
            kind, body = self.conn.recv()
            if kind == "stop":
                self.stopped = body
        return self.stopped == tag


def worker_main(conn, fault_plan=None, fault_ledger=None, listener=None) -> None:
    """A :class:`Worker` process: run the jobs its owner sends, one at a time.

    Each ``("run", args)`` message runs :func:`_pool_run_job` (looked up at
    call time, so wrappers installed on the module reach the worker) and
    ends with a ``result`` or ``error`` frame.  A ``("stop", tag)`` message
    makes job ``tag`` raise ``KeyboardInterrupt`` at its next step, which
    the searchers' ``absorb_interrupt`` turns into a flagged best-so-far
    outcome.  Fault injection arms here, post-fork, with fresh hit counters.
    SIGINT is ignored and SIGTERM reset (a terminal Ctrl-C reaches the owner
    only, which stops its cells; a respawned worker would inherit a daemon's
    handlers), and a thread started here, after the fork, exits the worker
    soon after its owner dies.  A worker forked after its daemon bound its
    HTTP port gets that ``listener`` and closes it, so an orphaned worker
    never keeps the port.
    """
    global _WORKER_CHANNEL, _WORKER_FAULT
    if listener is not None:
        listener.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    channel = _WORKER_CHANNEL = _WorkerChannel(conn)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-orphan-watch", daemon=True).start()
    if fault_plan is not None and fault_ledger is not None:
        from repro.service import faults

        faults.arm(faults.FaultPlan.from_dict(fault_plan), fault_ledger)
        _WORKER_FAULT = faults.fire
    while True:
        kind, body = conn.recv()
        if kind == "exit":
            return
        if kind == "stop":
            channel.stopped = body
            continue
        try:
            frame = ("result", _pool_run_job(*body))
        except KeyboardInterrupt as error:  # stopped before any best design
            frame = ("error", error)
        except Exception as error:  # noqa: BLE001 - the daemon records it
            log.exception("campaign job %s failed in its worker", body[1])
            frame = ("error", error)
        try:
            conn.send(frame)
        except Exception:  # noqa: BLE001 - an exception that cannot pickle
            conn.send(("error", RuntimeError(repr(frame[1]))))


#: Held while a worker forks, so no sibling inherits the child end of its
#: pipe: a worker that dies mid-frame must leave its owner an end of file.
_FORK_LOCK = threading.Lock()


class Worker:
    """One forked worker running :func:`worker_main`, and its duplex pipe.

    The pipe is created before the fork.  Only the owner calls
    :meth:`receive`; :meth:`send` may be called from any thread.  A pool run
    of :class:`CampaignScheduler` owns up to ``n_workers`` of them, the
    search service one per dispatcher.

    Every built-in strategy module is imported before the fork.  The
    registry imports them on first use, and the daemon's request threads
    may be doing so while a dispatcher respawns a worker: a child forked in
    the middle of an import would inherit that module's import lock, held
    by a thread that does not exist in the child.
    """

    def __init__(self, fault_plan: dict | None = None,
                 fault_ledger: str | None = None, listener=None) -> None:
        available_strategies()  # imports every built-in strategy (see above)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        with _FORK_LOCK:
            self.conn, child = context.Pipe()
            self.process = context.Process(
                target=worker_main,
                args=(child, fault_plan, fault_ledger, listener),
                name="repro-worker", daemon=True)
            self.process.start()
            child.close()
        self._send_lock = threading.Lock()
        #: The service job this worker runs, if any (set under the
        #: service lock), so cancel and drain know where to send ``stop``.
        self.job: str | None = None

    def send(self, kind: str, body: Any = None) -> None:
        """Send one message; a dead worker shows in :meth:`receive`."""
        with self._send_lock:
            try:
                self.conn.send((kind, body))
            except OSError:
                pass

    def receive(self, timeout: float | None) -> tuple[str, Any] | None:
        """The next ``(event, payload)`` frame, or ``None`` after ``timeout``
        seconds of silence; raises :class:`WorkerLost` once the process is
        gone."""
        ready = wait([self.conn, self.process.sentinel], timeout)
        if not ready:
            return None
        try:
            if self.process.sentinel in ready:
                self.process.join()  # exiting: reap it for its status
                raise EOFError(f"exit status {self.process.exitcode}")
            return self.conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerLost(f"worker {self.process.pid} died "
                             f"({error})") from None

    def close(self, timeout: float) -> None:
        """Tell the worker to exit; SIGKILL it if it has not within ``timeout``."""
        self.send("exit")
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


@dataclass(frozen=True)
class PoolProgress:
    """How a worker job should stream progress (picklable).

    ``tag`` names the job a ``stop`` addresses (the service job, or a pool
    run's cell); ``step_period`` rate-limits ``on_step`` events (every N
    samples; the first sample and every ``on_best`` always stream).
    ``heartbeat_seconds`` paces ``hb`` frames for the daemon's hung-worker
    watchdog (``None``: none).
    """

    tag: str
    step_period: int = 25
    heartbeat_seconds: float | None = None


class _ChannelProgressCallback(SearchCallback):
    """Streams search progress over the worker channel; honors ``stop``."""

    def __init__(self, progress: PoolProgress, channel: _WorkerChannel,
                 cell: str = "") -> None:
        self.progress = progress
        self.channel = channel
        #: Campaign cell id — the deterministic key for worker fault sites.
        self.cell = cell
        self._next_beat = (None if progress.heartbeat_seconds is None
                           else time.monotonic() + progress.heartbeat_seconds)

    def on_step(self, samples: int) -> None:
        if self.channel.stop_requested(self.progress.tag):
            raise KeyboardInterrupt("service stop requested")
        if _WORKER_FAULT is not None:
            _WORKER_FAULT("worker.step", f"{self.cell}@{samples}")
        if self._next_beat is not None:
            now = time.monotonic()
            if now >= self._next_beat:
                self._next_beat = now + self.progress.heartbeat_seconds
                self.channel.send("hb", {"samples": samples})
        if samples == 1 or samples % max(1, self.progress.step_period) == 0:
            self.channel.send("step", {"samples": samples})

    def on_best(self, candidate, samples: int) -> None:
        self.channel.send("best", {"samples": samples, "edp": candidate.edp,
                                   "hardware": candidate.hardware.describe()})


def _worker_spill_state(store: ResultStore) -> tuple[EvaluationCache, set[str]]:
    state = _WORKER_SPILL.get(str(store.cache_dir))
    if state is None:
        state = (EvaluationCache(max_entries=_WORKER_CACHE_ENTRIES), set())
        _WORKER_SPILL[str(store.cache_dir)] = state
    cache, seen = state
    seen.update(store.load_cache_segments(cache, skip=seen))
    return cache, seen


def _pool_run_job(spec_payload: dict, job_id: str, store_dir: str,
                  persist_cache: bool, cache_dir: str | None = None,
                  progress: PoolProgress | None = None) -> dict[str, Any]:
    """Worker entry point: run one job against the store's cache spill.

    Workers never touch ``results.jsonl`` (the parent is the single writer —
    ``writer=False`` also skips the crash-tail repair, which would race the
    parent's appends); they only read the spill and write their own atomic
    cache segment.  In a :class:`Worker` (see :func:`worker_main`) with a
    ``progress`` spec, the search additionally streams ``job``, step, best
    and ``stats`` frames and obeys its owner's ``stop`` messages.
    """
    spec = CampaignSpec.from_dict(spec_payload)
    job = spec.job_named(job_id)
    store = ResultStore(store_dir, writer=False, cache_dir=cache_dir)
    if persist_cache:
        cache, seen = _worker_spill_state(store)
    else:
        cache, seen = EvaluationCache(), set()
    callbacks = None
    channel = _WORKER_CHANNEL if progress is not None else None
    if channel is not None:
        channel.send("job", {"campaign_job": job_id, "pid": os.getpid()})
        callbacks = _ChannelProgressCallback(progress, channel, cell=job_id)
    if _WORKER_FAULT is not None:
        _WORKER_FAULT("worker.cell", job_id)
    stats = cache.stats
    hits, misses, evictions = stats.hits, stats.misses, stats.evictions
    with cache.recording() as stored:
        try:
            outcome = execute_job(job, cache=cache, callbacks=callbacks)
        finally:
            if persist_cache:
                segment = store.append_cache_segment(job_id, stored)
                if segment is not None:
                    seen.add(segment)  # our own entries went through this cache
            if channel is not None:
                # Sent before the result frame on the same pipe, so the
                # daemon counts it before the job can finish.
                channel.send("stats", {"campaign_job": job_id,
                                       "hits": stats.hits - hits,
                                       "misses": stats.misses - misses,
                                       "evictions": stats.evictions - evictions})
    return {"job_id": job_id, "outcome": outcome_to_dict(outcome)}


@dataclass
class CampaignRun:
    """What one scheduler invocation did (and what remains)."""

    campaign: str
    ran: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    interrupted: list[str] = field(default_factory=list)
    pending_after: list[str] = field(default_factory=list)
    #: True when this invocation stopped early on a KeyboardInterrupt (its
    #: own or one re-raised out of a best-less job).
    stopped: bool = False
    #: ``(job_id, error)`` pairs for pool jobs that raised instead of
    #: returning an outcome (e.g. a deterministic "no feasible design").
    #: Failed jobs stay pending; other jobs' results are persisted anyway.
    failed: list = field(default_factory=list)
    #: Outcomes of the jobs this invocation ran.  Inline runs hold the live
    #: objects (including unserialized ``extras``); pool runs hold outcomes
    #: round-tripped through JSON.
    outcomes: dict[str, SearchOutcome] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether the whole campaign grid is now complete."""
        return not self.pending_after and not self.stopped

    @property
    def was_interrupted(self) -> bool:
        return self.stopped or bool(self.interrupted)

    def complete_outcomes(self) -> dict[str, SearchOutcome]:
        """Every grid job's outcome, or a clean error for partial runs.

        Re-raises ``KeyboardInterrupt`` when the run stopped on one (so
        callers like the figure harnesses propagate the interrupt instead of
        tripping over missing jobs) and ``RuntimeError`` when jobs remain for
        another reason (``max_jobs`` / a shard slice).
        """
        if self.was_interrupted:
            raise KeyboardInterrupt(
                f"campaign {self.campaign!r} was interrupted with "
                f"{len(self.pending_after)} jobs pending")
        if self.failed:
            job_id, error = self.failed[0]
            raise RuntimeError(
                f"campaign {self.campaign!r}: {len(self.failed)} jobs "
                f"failed (first: {job_id}: {error})")
        if self.pending_after:
            raise RuntimeError(
                f"campaign {self.campaign!r} is incomplete: "
                f"{len(self.pending_after)} jobs pending (ran with max_jobs "
                "or a shard slice?)")
        return self.outcomes


@dataclass
class CampaignStatus:
    """Completed / interrupted / pending id partition of one campaign grid."""

    campaign: str
    completed: list[str]
    interrupted: list[str]
    pending: list[str]

    @property
    def total(self) -> int:
        return len(self.completed) + len(self.pending)


class CampaignScheduler:
    """Drives one campaign's grid against one result store."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        n_workers: int | None = None,
        persist_cache: bool = True,
        cache: EvaluationCache | None = None,
        run_job: Callable[..., tuple[str, Any]] | None = None,
        progress: PoolProgress | None = None,
        fault_hook: Callable[[str, str], None] | None = None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1 or None, got {n_workers}")
        self.spec = spec
        self.store = store
        self.n_workers = n_workers
        self.persist_cache = persist_cache
        #: Optional caller-owned evaluation cache used by *inline* runs (the
        #: fig9 harness shares it with its dependent post-campaign searches).
        #: Worker-pool jobs keep their own per-process caches instead.
        self.cache = cache
        #: Optional runner of one job elsewhere (the service passes its
        #: dispatcher's worker): called in grid order with
        #: :func:`_pool_run_job`'s arguments, it returns the worker's final
        #: ``("result", payload)`` or ``("error", exception)`` frame, or
        #: raises :class:`WorkerLost`.
        self.run_job = run_job
        #: Optional progress-streaming spec forwarded to ``run_job``.
        self.progress = progress
        #: Optional parent-side fault-injection hook, ``(site, key) -> None``
        #: (the service passes ``repro.service.faults.fire``).  Covers the
        #: ``store.append`` site; worker-side sites arm in the worker
        #: (:func:`worker_main`) instead.
        self.fault_hook = fault_hook

    # ------------------------------------------------------------------ #
    def status(self) -> CampaignStatus:
        completed = self.store.completed_job_ids()
        interrupted = self.store.interrupted_job_ids()
        jobs = self.spec.jobs()
        return CampaignStatus(
            campaign=self.spec.name,
            completed=[j.job_id for j in jobs if j.job_id in completed],
            interrupted=[j.job_id for j in jobs if j.job_id in interrupted],
            pending=[j.job_id for j in jobs if j.job_id not in completed],
        )

    def _select_jobs(self, max_jobs: int | None, shard_index: int | None,
                     shard_count: int | None) -> tuple[list[JobSpec], list[str]]:
        if (shard_index is None) != (shard_count is None):
            raise ValueError("pass shard_index and shard_count together")
        if shard_count is not None:
            if shard_count < 1 or not 0 <= shard_index < shard_count:
                raise ValueError(f"invalid shard {shard_index}/{shard_count}")
        if max_jobs is not None and max_jobs < 1:
            raise ValueError(f"max_jobs must be >= 1 or None, got {max_jobs}")
        jobs = self.spec.jobs()
        if shard_count is not None:
            # Sharding slices the *full grid* (not the pending set), so each
            # shard owns a stable subset across resumes.
            jobs = [job for index, job in enumerate(jobs)
                    if index % shard_count == shard_index]
        completed = self.store.completed_job_ids()
        skipped = [job.job_id for job in jobs if job.job_id in completed]
        pending = [job for job in jobs if job.job_id not in completed]
        if max_jobs is not None:
            pending = pending[:max_jobs]
        return pending, skipped

    # ------------------------------------------------------------------ #
    def run(
        self,
        max_jobs: int | None = None,
        shard_index: int | None = None,
        shard_count: int | None = None,
        on_job_done: JobCallback | None = None,
    ) -> CampaignRun:
        """Run (up to ``max_jobs``) pending jobs of this shard and persist them.

        Raises ``ValueError`` before any job starts if a variant overrides a
        setting its strategy does not have.
        """
        self.spec.check_settings()
        selected, skipped = self._select_jobs(max_jobs, shard_index, shard_count)
        run = CampaignRun(campaign=self.spec.name, skipped=skipped)
        log.debug("campaign %s: running %d jobs (%d already complete)",
                  self.spec.name, len(selected), len(skipped))
        if selected:
            if self.run_job is not None:
                self._run_through(selected, run, on_job_done)
            elif self.n_workers is not None and self.n_workers > 1:
                self._run_pool(selected, run, on_job_done)
            else:
                self._run_inline(selected, run, on_job_done)
        completed = self.store.completed_job_ids()
        run.pending_after = [job.job_id for job in self.spec.jobs()
                             if job.job_id not in completed]
        if skipped:
            # Backfill previously-completed jobs from the store so resumed
            # runs expose the full grid through run.outcomes /
            # complete_outcomes() (reloaded outcomes carry no extras).
            payloads = self.store.latest_outcomes()
            for job_id in skipped:
                payload = payloads.get(job_id)
                if job_id not in run.outcomes and payload is not None \
                        and not payload.get("interrupted", False):
                    run.outcomes[job_id] = outcome_from_dict(payload)
        return run

    # ------------------------------------------------------------------ #
    def _persist(self, run: CampaignRun, job: JobSpec,
                 outcome: SearchOutcome,
                 payload: dict[str, Any] | None = None) -> None:
        # Pool runs hand back the worker's serialized payload; persist those
        # bytes as-is rather than re-serializing the JSON-round-tripped
        # outcome object, so byte-identity with inline runs never depends on
        # the round trip being lossless.
        if self.fault_hook is not None:
            self.fault_hook("store.append", job.job_id)
        self.store.append(job.job_id,
                          outcome_to_dict(outcome) if payload is None
                          else payload)
        run.outcomes[job.job_id] = outcome
        if outcome.interrupted:
            run.interrupted.append(job.job_id)
            run.stopped = True
            log.info("campaign %s: %s interrupted (best-so-far EDP %.4e "
                     "persisted; re-runs on resume)", self.spec.name,
                     job.job_id, outcome.best_edp)
        else:
            run.ran.append(job.job_id)
            log.info("campaign %s: %s done (best EDP %.4e after %d samples)",
                     self.spec.name, job.job_id, outcome.best_edp,
                     outcome.total_samples)

    def _run_inline(self, jobs: list[JobSpec], run: CampaignRun,
                    on_job_done: JobCallback | None) -> None:
        cache = self.cache if self.cache is not None else EvaluationCache()
        if self.persist_cache:
            self.store.load_cache(cache)
        for job in jobs:
            with cache.recording() as stored:
                try:
                    outcome = execute_job(job, cache=cache)
                except KeyboardInterrupt:
                    # Interrupted before the job had any feasible design:
                    # there is nothing worth persisting, the job simply
                    # re-runs later.
                    run.stopped = True
                    return
                finally:
                    if self.persist_cache:
                        self.store.append_cache_segment(job.job_id, stored)
            self._persist(run, job, outcome)
            if on_job_done is not None:
                try:
                    on_job_done(job, outcome)
                except KeyboardInterrupt:
                    run.stopped = True
                    return
            if outcome.interrupted:
                return

    def _collect(self, run: CampaignRun, job: JobSpec, event: str,
                 payload: Any, on_job_done: JobCallback | None) -> bool:
        """Persist a worker's ``result`` frame or record its ``error``;
        False: stop here."""
        if isinstance(payload, KeyboardInterrupt):
            # The worker was stopped before its job had any feasible
            # design; nothing to persist, stop cleanly.
            run.stopped = True
            return False
        if event == "error":
            # A deterministic job failure must not discard the other jobs'
            # results: record it and go on.
            run.failed.append((job.job_id, repr(payload)))
            log.warning("campaign %s: %s failed: %r",
                        self.spec.name, job.job_id, payload)
            return True
        outcome = outcome_from_dict(payload["outcome"])
        self._persist(run, job, outcome, payload["outcome"])
        if on_job_done is not None:
            on_job_done(job, outcome)
        return not outcome.interrupted

    def _worker_args(self, job: JobSpec,
                     progress: PoolProgress | None) -> tuple:
        """:func:`_pool_run_job`'s arguments for ``job``."""
        return (self.spec.to_dict(), job.job_id, str(self.store.directory),
                self.persist_cache, str(self.store.cache_dir), progress)

    def _run_through(self, jobs: list[JobSpec], run: CampaignRun,
                     on_job_done: JobCallback | None) -> None:
        for job in jobs:
            frame = self.run_job(*self._worker_args(job, self.progress))
            if not self._collect(run, job, *frame, on_job_done):
                return

    def _run_pool(self, jobs: list[JobSpec], run: CampaignRun,
                  on_job_done: JobCallback | None) -> None:
        """Run ``jobs`` on ``min(n_workers, len(jobs))`` forked workers.

        One loop in this thread hands each idle worker the next cell and
        persists results in completion order.  A ``KeyboardInterrupt`` — a
        terminal Ctrl-C, which reaches only this process because workers
        ignore SIGINT, or one raised by ``on_job_done`` — sends each running
        cell a ``stop``, persists what comes back and starts nothing else; a
        second one SIGKILLs the busy workers.  A worker that dies hard
        raises :class:`WorkerLost` (results persisted before it stay
        persisted, so a rerun resumes bit-identically).
        """
        pending = jobs[::-1]
        workers: list[Worker] = []
        running: dict[Worker, JobSpec] = {}
        try:
            for _ in range(min(self.n_workers, len(jobs))):
                workers.append(Worker())
            idle = list(workers)
            while True:
                try:
                    while idle and pending and not run.stopped:
                        worker, job = idle.pop(), pending.pop()
                        worker.send("run", self._worker_args(
                            job, PoolProgress(tag=job.job_id)))
                        running[worker] = job
                    if not running:  # wait() on no connection never returns
                        return
                    ready = wait([worker.conn for worker in running])
                    for worker in [w for w in running if w.conn in ready]:
                        event, payload = worker.receive(0)
                        if event in ("result", "error"):
                            idle.append(worker)
                            self._collect(run, running.pop(worker), event,
                                          payload, on_job_done)
                except KeyboardInterrupt:
                    if run.stopped:  # the second interrupt
                        return
                    run.stopped = True
                    for worker, job in running.items():
                        worker.send("stop", job.job_id)
        finally:
            for worker in running:  # abandoned mid-cell
                worker.process.kill()
            for worker in workers:
                worker.close(timeout=5.0)


def run_campaign(
    spec: CampaignSpec,
    directory: str | Path | None = None,
    cache: EvaluationCache | None = None,
) -> CampaignRun:
    """One-call facade: open (or create) the store and run the whole campaign.

    ``directory=None`` runs the campaign through an ephemeral store in a
    temporary directory — the full campaign machinery (store, spill, resume
    bookkeeping) with nothing left on disk afterwards.  The experiment
    harnesses use that mode, so figure results flow through exactly the code
    path a persistent campaign exercises.  ``cache`` lets an inline caller
    share one evaluation cache with work it runs after the campaign (results
    are bit-identical with or without it).  Shards, job caps and per-job
    callbacks are :meth:`CampaignScheduler.run`'s.
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as temp:
            return run_campaign(spec, directory=temp, cache=cache)
    store = ResultStore(directory, spec=spec)
    return CampaignScheduler(spec, store, cache=cache).run()
