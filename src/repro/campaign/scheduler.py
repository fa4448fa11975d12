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
  in-memory evaluation cache) or fans them out over a ``fork`` process pool
  (``n_workers``), in which case each worker preloads the store's cache
  spill and the parent remains the store's single writer,
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
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore
from repro.eval.cache import EvaluationCache
from repro.search.api import SearchCallback, SearchOutcome, get_searcher
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

#: ``(progress_queue, stop_event)`` installed into pool workers by
#: :func:`install_worker_channel` (via the executor's ``initializer``).
#: ``None`` in plain campaign runs: progress streaming and cooperative stops
#: are service features, workers without a channel behave exactly as before.
_WORKER_CHANNEL: tuple | None = None

#: Fault-injection hook armed in pool workers by :func:`install_worker_channel`
#: when the service passes a fault plan.  ``None`` (the default) keeps the
#: worker fault sites zero-cost; the campaign layer never imports the service
#: package at module scope, so plain campaign runs stay service-free.
_WORKER_FAULT: Callable[[str, str], None] | None = None


#: How often (seconds) a pool worker checks that the process that forked it
#: is still alive (see :func:`install_worker_channel`).
_PARENT_POLL_SECONDS = 1.0


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker once its parent, pid ``parent``, is gone.

    An idle ``ProcessPoolExecutor`` worker blocks reading its call queue,
    whose write end it holds itself, so the death of the process that forked
    it never wakes it: a daemon killed hard would leave its workers asleep,
    reparented, for good.  A reparented worker has a different parent pid.
    """
    while True:
        time.sleep(_PARENT_POLL_SECONDS)
        if os.getppid() != parent:
            os._exit(1)


def install_worker_channel(queue, stop_event, fault_plan=None,
                           fault_ledger=None) -> None:
    """Executor initializer: give this worker a progress/stop channel.

    ``queue`` is a ``multiprocessing`` queue the worker pushes
    ``(event, tag, payload)`` tuples into; ``stop_event`` is a shared event
    that, once set, makes every in-flight search raise ``KeyboardInterrupt``
    at its next step — which the searchers' ``absorb_interrupt`` turns into a
    graceful best-so-far outcome (the SIGTERM drain path of the service
    daemon, without ever signalling worker processes).

    ``fault_plan`` (a serialized ``repro.service.faults.FaultPlan`` dict) plus
    ``fault_ledger`` (its shared on-disk fire ledger) arm deterministic fault
    injection inside this worker — the import happens here, post-fork, so the
    campaign layer has no module-level dependency on the service package.

    The worker also starts a daemon thread that exits it (``os._exit``)
    within about :data:`_PARENT_POLL_SECONDS` of its parent's death.  The
    thread starts here, in the worker after the fork, so the daemon's
    fork-before-threads ordering is untouched.
    """
    global _WORKER_CHANNEL, _WORKER_FAULT
    _WORKER_CHANNEL = (queue, stop_event)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-orphan-watch", daemon=True).start()
    if fault_plan is not None and fault_ledger is not None:
        from repro.service import faults

        faults.arm(faults.FaultPlan.from_dict(fault_plan), fault_ledger)
        _WORKER_FAULT = faults.fire


@dataclass(frozen=True)
class PoolProgress:
    """How a pool job should stream progress (picklable, service-provided).

    ``tag`` identifies the submitting service job in the event stream;
    ``step_period`` rate-limits ``on_step`` events (every N samples; the
    first sample and every ``on_best`` always stream).  ``heartbeat_seconds``
    paces liveness heartbeats for the daemon's hung-worker watchdog, and
    ``cancel_path`` names a sentinel file whose appearance makes the search
    raise ``KeyboardInterrupt`` at its next step — per-job cooperative
    cancellation through the same best-so-far drain path the stop event uses
    (a file, not a new multiprocessing primitive, so it can be created long
    after the pool forked).
    """

    tag: str
    step_period: int = 25
    heartbeat_seconds: float = 2.0
    cancel_path: str | None = None


#: How often (seconds) a worker re-checks the cancellation sentinel file.
_CANCEL_POLL_SECONDS = 0.1


class _ChannelProgressCallback(SearchCallback):
    """Streams search progress over the worker channel; honors the stop event."""

    def __init__(self, progress: PoolProgress, queue, stop_event,
                 cell: str = "") -> None:
        self.progress = progress
        self.queue = queue
        self.stop_event = stop_event
        #: Campaign cell id — the deterministic key for worker fault sites.
        self.cell = cell
        self._cancel_path = (Path(progress.cancel_path)
                             if progress.cancel_path else None)
        now = time.monotonic()
        self._next_beat = now + progress.heartbeat_seconds
        self._next_cancel_check = now

    def _put(self, event: str, payload: dict) -> None:
        try:
            self.queue.put((event, self.progress.tag, payload))
        except (OSError, ValueError):  # pragma: no cover - parent went away
            pass

    def on_step(self, samples: int) -> None:
        if self.stop_event is not None and self.stop_event.is_set():
            raise KeyboardInterrupt("service drain requested")
        now = time.monotonic()
        if self._cancel_path is not None and now >= self._next_cancel_check:
            self._next_cancel_check = now + _CANCEL_POLL_SECONDS
            if self._cancel_path.exists():
                raise KeyboardInterrupt("job cancellation requested")
        if _WORKER_FAULT is not None:
            _WORKER_FAULT("worker.step", f"{self.cell}@{samples}")
        if now >= self._next_beat:
            self._next_beat = now + max(0.1, self.progress.heartbeat_seconds)
            self._put("hb", {"pid": os.getpid(), "samples": samples})
        if samples == 1 or samples % max(1, self.progress.step_period) == 0:
            self._put("step", {"samples": samples})

    def on_best(self, candidate, samples: int) -> None:
        self._put("best", {"samples": samples, "edp": candidate.edp,
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
    cache segment.  With a worker channel installed and a ``progress`` spec,
    the search additionally streams step/best events and obeys the
    cooperative stop event (see :func:`install_worker_channel`).
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
        queue, stop_event = channel
        queue.put(("job", progress.tag,
                   {"campaign_job": job_id, "pid": os.getpid()}))
        callbacks = _ChannelProgressCallback(progress, queue, stop_event,
                                             cell=job_id)
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
                queue.put(("stats", progress.tag,
                           {"campaign_job": job_id, "pid": os.getpid(),
                            "hits": stats.hits - hits,
                            "misses": stats.misses - misses,
                            "evictions": stats.evictions - evictions}))
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
        executor: ProcessPoolExecutor | None = None,
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
        #: Optional externally-owned fork pool.  The search service shares
        #: one pool across many concurrent schedulers (one per service job);
        #: when set, jobs always run through it — even a single-job grid —
        #: and the scheduler never shuts it down.
        self.executor = executor
        #: Optional progress-streaming spec forwarded to pool workers (only
        #: effective when the pool was created with ``install_worker_channel``
        #: as its initializer).
        self.progress = progress
        #: Optional parent-side fault-injection hook, ``(site, key) -> None``
        #: (the service passes ``repro.service.faults.fire``).  Covers the
        #: ``store.append`` site; worker-side sites arm through the executor
        #: initializer instead.
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
            if self.executor is not None or (
                    self.n_workers is not None and self.n_workers > 1):
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

    def _run_pool(self, jobs: list[JobSpec], run: CampaignRun,
                  on_job_done: JobCallback | None) -> None:
        spec_payload = self.spec.to_dict()
        store_dir = str(self.store.directory)
        cache_dir = str(self.store.cache_dir)
        executor = self.executor
        owns_executor = executor is None
        if owns_executor:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            executor = ProcessPoolExecutor(max_workers=self.n_workers,
                                           mp_context=context)
        try:
            futures = {
                executor.submit(_pool_run_job, spec_payload, job.job_id,
                                store_dir, self.persist_cache, cache_dir,
                                self.progress): job
                for job in jobs
            }
            outstanding = set(futures)
            unprocessed: set = set()  # done futures not yet persisted
            try:
                while outstanding or unprocessed:
                    if not unprocessed:
                        done, outstanding = wait(outstanding,
                                                 return_when=FIRST_COMPLETED)
                        unprocessed |= done
                    future = unprocessed.pop()
                    job = futures[future]
                    try:
                        payload = future.result()
                    except KeyboardInterrupt:
                        # The worker was interrupted before its job had any
                        # feasible design; nothing to persist, stop cleanly.
                        run.stopped = True
                        continue
                    except BrokenProcessPool:
                        # A worker died hard (SIGKILL, OOM) — this is
                        # executor-level infrastructure failure, not a job
                        # failure: the pool is permanently broken and every
                        # outstanding future is lost.  Propagate so the owner
                        # (the service daemon) can respawn the pool and retry;
                        # results persisted before the crash stay persisted,
                        # so the retry resumes bit-identically.
                        raise
                    except Exception as error:  # noqa: BLE001 - job failure
                        # A deterministic job failure must not discard the
                        # other workers' results: record it, keep draining.
                        run.failed.append((job.job_id, repr(error)))
                        log.warning("campaign %s: %s failed: %r",
                                    self.spec.name, job.job_id, error)
                        continue
                    outcome = outcome_from_dict(payload["outcome"])
                    self._persist(run, job, outcome, payload["outcome"])
                    if on_job_done is not None:
                        on_job_done(job, outcome)
            except KeyboardInterrupt:
                # A terminal Ctrl-C delivers SIGINT to the whole process
                # group, so workers absorb it and return interrupted
                # best-so-far outcomes; if only the parent was signalled,
                # running workers finish their jobs normally.  Either way the
                # executor shutdown waits for the running futures — persist
                # everything they hand back (including futures that finished
                # but were not yet processed) instead of discarding it.  A
                # second interrupt abandons the drain.
                run.stopped = True
                remaining = unprocessed | {future for future in outstanding
                                           if not future.cancel()}
                try:
                    while remaining:
                        done, remaining = wait(remaining,
                                               return_when=FIRST_COMPLETED)
                        for future in done:
                            job = futures[future]
                            if job.job_id in run.outcomes:
                                continue  # persisted before the interrupt
                            try:
                                payload = future.result()
                            except BaseException:  # noqa: BLE001 - drain
                                continue
                            self._persist(run, job,
                                          outcome_from_dict(payload["outcome"]),
                                          payload["outcome"])
                except KeyboardInterrupt:
                    pass
        finally:
            if owns_executor:
                executor.shutdown(wait=True)


def run_campaign(
    spec: CampaignSpec,
    directory: str | Path | None = None,
    n_workers: int | None = None,
    persist_cache: bool = True,
    max_jobs: int | None = None,
    shard_index: int | None = None,
    shard_count: int | None = None,
    on_job_done: JobCallback | None = None,
    cache: EvaluationCache | None = None,
) -> CampaignRun:
    """One-call facade: open (or create) the store and run the campaign.

    ``directory=None`` runs the campaign through an ephemeral store in a
    temporary directory — the full campaign machinery (store, spill, resume
    bookkeeping) with nothing left on disk afterwards.  The experiment
    harnesses use that mode, so figure results flow through exactly the code
    path a persistent campaign exercises.  ``cache`` lets an inline caller
    share one evaluation cache with work it runs after the campaign (results
    are bit-identical with or without it).
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as temp:
            return run_campaign(spec, directory=temp, n_workers=n_workers,
                                persist_cache=persist_cache, max_jobs=max_jobs,
                                shard_index=shard_index, shard_count=shard_count,
                                on_job_done=on_job_done, cache=cache)
    store = ResultStore(directory, spec=spec)
    scheduler = CampaignScheduler(spec, store, n_workers=n_workers,
                                  persist_cache=persist_cache, cache=cache)
    return scheduler.run(max_jobs=max_jobs, shard_index=shard_index,
                         shard_count=shard_count, on_job_done=on_job_done)
