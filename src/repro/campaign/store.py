"""The on-disk campaign result store: append-only JSONL + manifest + cache spill.

Layout of a campaign directory::

    <dir>/
      manifest.json    # {"version": 1, "spec": CampaignSpec.to_dict()}
      results.jsonl    # one record per finished job: {"job_id", "outcome"}
      cache/           # reference-model cache spill, one segment per job
        job-<cell>-<content>.jsonl

Write semantics are chosen for crash safety without locks:

* ``manifest.json`` and cache segments are written to a temporary file and
  atomically renamed into place, so they are either absent or complete.
* ``results.jsonl`` has a **single writer** (the scheduler parent process,
  even when jobs run in a worker pool) that appends one line per record and
  flushes+fsyncs it.  A crash can therefore leave at most a truncated *final*
  line; :meth:`ResultStore.records` detects that tail, drops it, and the
  interrupted job simply re-runs on resume.  An undecodable line anywhere
  *else* means real corruption and raises instead of silently skipping data.
* interrupted jobs are persisted too (their best-so-far outcome has
  ``interrupted: true``); they are excluded from :meth:`completed_job_ids`,
  so resume re-runs them and the final aggregate report only ever contains
  completed, deterministic results.

The cache spill is what makes the store double as a persistent cross-process
:class:`~repro.eval.cache.EvaluationCache`: each job writes the exact-
fingerprint entries it stored as one segment, and later jobs — in this
process or any other — preload them.  Entries are bit-identical
reference-model results, so spilling never changes outcomes, only
wall-clock time.  A segment is named by its job's cell id *and* a digest
of its bytes (:func:`segment_name_for`), compacted segments by their bytes
alone, so equal content shares a name and different content never
overwrites: two service jobs of one cell with different budgets, or a
resumed cell and its interrupted attempt, each keep their segment, and a
worker that loaded one compaction sees the next under a new name.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.arch.config import HardwareConfig
from repro.campaign.spec import CampaignSpec
from repro.eval.cache import CacheKey, EvaluationCache
from repro.timeloop.model import PerformanceResult
from repro.utils.atomic import write_atomic
from repro.utils.log import get_logger

STORE_VERSION = 1

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"
CACHE_DIR_NAME = "cache"

#: Name prefix of the segment a spill compaction folds every other segment
#: into; the rest of the name is a digest of its bytes.
COMPACTED_PREFIX = "segment-compacted-"

log = get_logger("campaign.store")


class StoreCorruptionError(ValueError):
    """A non-tail record of ``results.jsonl`` could not be decoded."""


# --------------------------------------------------------------------------- #
# Cache entry (de)serialization
# --------------------------------------------------------------------------- #
def cache_entry_to_dict(key: CacheKey, result: PerformanceResult) -> dict[str, Any]:
    """JSON payload of one exact-fingerprint cache entry.

    The mapping fingerprint's factor bytes are hex-encoded verbatim, and all
    floats ride on JSON's ``repr`` round-trip, so a reloaded entry is
    bit-identical to the stored one.
    """
    fingerprint, config = key
    dims, orderings, temporal, spatial = fingerprint
    return {
        "k": {
            "dims": list(dims),
            "ord": list(orderings),
            "t": temporal.hex(),
            "s": spatial.hex(),
            "hw": [config.pe_dim, config.accumulator_kb, config.scratchpad_kb],
        },
        "r": {
            "latency_cycles": result.latency_cycles,
            "energy": result.energy,
            "compute_latency": result.compute_latency,
            "memory_latency": {str(level): value
                               for level, value in result.memory_latency.items()},
            "accesses": {str(level): value
                         for level, value in result.accesses.items()},
            "macs": result.macs,
        },
    }


def cache_entry_from_dict(payload: Mapping[str, Any]) -> tuple[CacheKey, PerformanceResult]:
    key_payload = payload["k"]
    result_payload = payload["r"]
    pe_dim, accumulator_kb, scratchpad_kb = key_payload["hw"]
    key: CacheKey = (
        (
            tuple(int(value) for value in key_payload["dims"]),
            tuple(str(value) for value in key_payload["ord"]),
            bytes.fromhex(key_payload["t"]),
            bytes.fromhex(key_payload["s"]),
        ),
        HardwareConfig(pe_dim=int(pe_dim), accumulator_kb=int(accumulator_kb),
                       scratchpad_kb=int(scratchpad_kb)),
    )
    result = PerformanceResult(
        latency_cycles=float(result_payload["latency_cycles"]),
        energy=float(result_payload["energy"]),
        compute_latency=float(result_payload["compute_latency"]),
        memory_latency={int(level): float(value)
                        for level, value in result_payload["memory_latency"].items()},
        accesses={int(level): float(value)
                  for level, value in result_payload["accesses"].items()},
        macs=float(result_payload["macs"]),
    )
    return key, result


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def segment_name_for(job_id: str, text: str) -> str:
    """Filesystem-safe name of one job's spill segment holding ``text``.

    ``job-<cell>-<content>.jsonl``: a digest of the job's cell id, then a
    digest of the segment's bytes.  The cell part keeps a job's segments
    recognizable; the content part makes the name a function of the bytes,
    so a cell that spills twice with different entries (a service cell's id
    carries no budget; a resumed cell re-runs) writes two segments.
    """
    return f"job-{_digest(job_id)}-{_digest(text)}.jsonl"


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #
class ResultStore:
    """One campaign's persistent results (append-only) and cache spill.

    Opening a directory that already holds a manifest loads its spec; passing
    ``spec`` as well verifies it matches (resuming a campaign with a
    *different* grid would silently mix results, so it is an error).  A fresh
    directory requires ``spec`` and writes the manifest atomically.

    ``writer=False`` opens the store as a non-writing reader of
    ``results.jsonl`` (campaign *worker* processes use this): the
    crash-tail repair is skipped — repairing would race the parent's
    concurrent appends — and :meth:`append` is forbidden.  Cache spill
    segments may still be written; each job owns its own segment file.

    ``create=False`` opens an *existing* store only: a missing directory or
    manifest raises a clean :class:`ValueError` instead of creating the
    directory as a side effect (the CLI's read-only ``status``/``report``
    paths use this).

    ``cache_dir`` relocates the evaluation-cache spill.  By default each
    store spills under its own ``<dir>/cache/``; the search service points
    every tenant store at one shared directory so all jobs — across tenants
    and daemon restarts — warm each other's caches.  Entries are exact
    bit-identical reference-model results, so sharing never changes
    outcomes.
    """

    def __init__(self, directory: str | Path,
                 spec: CampaignSpec | None = None,
                 writer: bool = True,
                 cache_dir: str | Path | None = None,
                 create: bool = True) -> None:
        self.writer = writer
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not create and not manifest_path.exists():
            raise ValueError(f"no campaign store at {self.directory} "
                             f"(missing {MANIFEST_NAME})")
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Where this store spills (and preloads) evaluation-cache segments.
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else self.directory / CACHE_DIR_NAME)
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            self.spec = CampaignSpec.from_dict(manifest["spec"])
            if spec is not None and spec.to_dict() != self.spec.to_dict():
                raise ValueError(
                    f"campaign store {self.directory} was created for spec "
                    f"{self.spec.name!r} with a different grid; refusing to mix "
                    "results (use a fresh directory for a changed spec)")
        else:
            if spec is None:
                raise ValueError(f"{self.directory} holds no campaign manifest; "
                                 "pass the CampaignSpec to create one")
            self.spec = spec
            payload = {"version": STORE_VERSION, "spec": spec.to_dict()}
            write_atomic(manifest_path, json.dumps(payload, indent=2) + "\n")
        #: True when a truncated tail record (crash mid-append) was detected
        #: and dropped, either while opening the store or while reading.
        self.dropped_truncated_tail = False
        if self.writer:
            self._repair_tail()

    # ------------------------------------------------------------------ #
    @property
    def results_path(self) -> Path:
        return self.directory / RESULTS_NAME

    # ------------------------------------------------------------------ #
    # Result records
    # ------------------------------------------------------------------ #
    def _repair_tail(self) -> None:
        """Heal a crash-truncated final line before any further appends.

        A crash mid-append leaves ``results.jsonl`` ending in a partial line
        (no trailing newline).  Appending after it without repair would glue
        the next record onto the fragment, corrupting *both*; so on open, a
        complete-but-unterminated final record gets its newline restored and
        a half-written one is truncated away (the job re-runs on resume).
        """
        path = self.results_path
        if not path.exists():
            return
        data = path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        complete, _, tail = data.rpartition(b"\n")
        try:
            record = json.loads(tail)
            intact = (isinstance(record, dict)
                      and "job_id" in record and "outcome" in record)
        except ValueError:
            intact = False
        with open(path, "r+b") as handle:
            if intact:
                # The record made it to disk, only its newline did not.
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            else:
                handle.truncate(len(complete) + 1 if complete else 0)
                self.dropped_truncated_tail = True
                log.warning("%s: dropped a crash-truncated tail record "
                            "(the interrupted job re-runs on resume)",
                            path)
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, job_id: str, outcome_payload: Mapping[str, Any]) -> None:
        """Append one finished job's record (single-writer, flushed+fsynced)."""
        if not self.writer:
            raise RuntimeError("this store was opened writer=False (worker "
                               "mode); only the scheduler parent appends "
                               "result records")
        record = {"job_id": job_id, "outcome": dict(outcome_payload)}
        line = json.dumps(record, separators=(",", ":"))
        with open(self.results_path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> list[dict[str, Any]]:
        """All decodable records, oldest first (duplicates *not* collapsed).

        A truncated final line — the signature of a crash mid-append — is
        dropped (and flagged on :attr:`dropped_truncated_tail`) so the
        half-written job re-runs on resume; an invalid line before the tail
        raises :class:`StoreCorruptionError`.  (Opening the store already
        repairs such a tail on disk; the tolerance here additionally covers
        reading a file another process is appending to.)
        """
        if not self.results_path.exists():
            return []
        lines = self.results_path.read_text().splitlines()
        records: list[dict[str, Any]] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "job_id" not in record \
                        or "outcome" not in record:
                    raise ValueError("record missing job_id/outcome")
            except ValueError:
                if number == len(lines):
                    self.dropped_truncated_tail = True
                    continue
                raise StoreCorruptionError(
                    f"{self.results_path}:{number}: undecodable result record "
                    "(not a truncated tail; the store is corrupt)") from None
            records.append(record)
        return records

    def latest_outcomes(self) -> dict[str, dict[str, Any]]:
        """Last persisted outcome payload per job id (later records win)."""
        latest: dict[str, dict[str, Any]] = {}
        for record in self.records():
            latest[str(record["job_id"])] = record["outcome"]
        return latest

    def completed_job_ids(self) -> set[str]:
        """Jobs whose latest record is a *completed* (non-interrupted) run."""
        return {job_id for job_id, outcome in self.latest_outcomes().items()
                if not outcome.get("interrupted", False)}

    def interrupted_job_ids(self) -> set[str]:
        """Jobs whose latest persisted record is an interrupted best-so-far."""
        return {job_id for job_id, outcome in self.latest_outcomes().items()
                if outcome.get("interrupted", False)}

    # ------------------------------------------------------------------ #
    # Evaluation-cache spill
    # ------------------------------------------------------------------ #
    def append_cache_segment(
        self, job_id: str,
        entries: Iterable[tuple[CacheKey, PerformanceResult]],
    ) -> str | None:
        """Persist the cache entries job ``job_id`` stored as a segment file.

        Returns the segment's name (:func:`segment_name_for`, so it depends
        on the entries as well as the job), or ``None`` when ``entries`` is
        empty and nothing was written.  Segments are complete-or-absent
        (temp file + rename), so a crash mid-spill never leaves a partial
        segment behind — at worst the entries are re-evaluated later, which
        is only a wall-clock cost.
        """
        lines = [json.dumps(cache_entry_to_dict(key, result),
                            separators=(",", ":"))
                 for key, result in entries]
        if not lines:
            return None
        text = "\n".join(lines) + "\n"
        name = segment_name_for(job_id, text)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(self.cache_dir / name, text)
        return name

    def load_cache(self, cache: EvaluationCache | None = None) -> EvaluationCache:
        """Preload every spilled entry into ``cache`` (a new one by default).

        Undecodable spill lines are skipped — the spill is purely an
        accelerator, so dropping a damaged entry is always safe.
        """
        cache = cache if cache is not None else EvaluationCache()
        self.load_cache_segments(cache, skip=frozenset())
        return cache

    def load_cache_segments(self, cache: EvaluationCache,
                            skip: "frozenset[str] | set[str]") -> set[str]:
        """Load spill segments whose names are not in ``skip`` into ``cache``.

        Returns the names actually loaded, so long-lived processes (pool
        workers running many jobs) can load each segment once and only pick
        up segments other jobs added since: one directory listing minus
        ``skip`` names the new segments, and only those are read, in sorted
        name order.  Entries are bit-identical reference-model results, so
        incremental loading can never go stale.  A listed segment that is
        gone by the time it is read — a concurrent compaction folded it into
        a compacted segment and unlinked it — is skipped and not reported as
        loaded; its entries live on in the compacted segment, which carries
        a name no earlier listing saw.
        """
        loaded: set[str] = set()
        for name in self._segment_names(skip):
            text = self._read_segment(name)
            if text is None:
                continue
            loaded.add(name)
            for line in text.splitlines():
                if not line.strip():
                    continue
                try:
                    key, result = cache_entry_from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    continue
                cache.store(key, result)
        return loaded

    def spilled_entry_count(self) -> int:
        """Total entries across all spill segments (for status displays)."""
        texts = (self._read_segment(name) for name in self._segment_names())
        return sum(len(text.splitlines()) for text in texts if text is not None)

    def _segment_names(self, skip: Iterable[str] = ()) -> list[str]:
        """Sorted names of the spill's segment files, minus ``skip``."""
        try:
            # repro-lint: allow[determinism-listdir] only the names left after skip get sorted, below
            names = set(os.listdir(self.cache_dir)).difference(skip)
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(name for name in names if name.endswith(".jsonl"))

    def _read_segment(self, name: str) -> str | None:
        """One segment's text, or ``None`` once it was unlinked after listing."""
        try:
            return (self.cache_dir / name).read_text()
        except FileNotFoundError:
            return None

    def compact_spill(self) -> "CompactionStats":
        """Fold this store's spill segments into one (see :func:`compact_cache_dir`)."""
        return compact_cache_dir(self.cache_dir)

    # ------------------------------------------------------------------ #
    # Shard merging
    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, destination: str | Path,
              sources: Sequence[str | Path]) -> tuple["ResultStore", "MergeStats"]:
        """Merge independent shard stores of *one* campaign into ``destination``.

        Every source must carry the same spec (shards of one grid); a spec
        mismatch raises.  Duplicate job ids — jobs run by more than one shard
        (or already present in the destination) — are resolved
        deterministically and independently of the order sources are listed:

        1. completed outcomes beat interrupted best-so-far outcomes,
        2. ties break on the lexicographically-smallest canonical JSON
           serialization of the outcome payload.

        Seeded campaign jobs are bit-reproducible, so duplicate *completed*
        payloads differ at most in ``wall_time_seconds``; whichever wins, the
        deterministic report fields are identical.  Records are appended in
        spec grid order, so merging shards of a deterministic campaign yields
        the same report byte-for-byte as one uninterrupted run.

        Cache spill segments are unioned line-by-line (sources in sorted
        path order); entries are bit-identical accelerator data, so the union
        only affects future wall-clock time, never results.
        """
        if not sources:
            raise ValueError("merge needs at least one source store")
        opened = [cls(path, writer=False, create=False) for path in sources]
        spec = opened[0].spec
        for source in opened[1:]:
            if source.spec.to_dict() != spec.to_dict():
                raise ValueError(
                    f"cannot merge {source.directory}: its campaign spec "
                    f"({source.spec.name!r}) differs from {opened[0].directory} "
                    f"({spec.name!r}); shards of one campaign share one spec")
        store = cls(destination, spec=spec)

        def canonical(payload: Mapping[str, Any]) -> str:
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))

        def rank(payload: Mapping[str, Any]) -> tuple:
            # Completed (False) sorts before interrupted (True).
            return (bool(payload.get("interrupted", False)), canonical(payload))

        candidates: dict[str, list[dict[str, Any]]] = {}
        for source in opened:
            for job_id, payload in source.latest_outcomes().items():
                candidates.setdefault(job_id, []).append(payload)
        duplicate_ids = sum(1 for payloads in candidates.values()
                            if len(payloads) > 1)
        existing = store.latest_outcomes()
        jobs_written = 0
        for job in spec.jobs():
            payloads = list(candidates.get(job.job_id, ()))
            current = existing.get(job.job_id)
            if current is not None:
                payloads.append(current)
            if not payloads:
                continue
            winner = min(payloads, key=rank)
            if current is not None and canonical(current) == canonical(winner):
                continue  # destination already holds the winning record
            store.append(job.job_id, winner)
            jobs_written += 1

        segments_merged = lines_merged = 0
        for source in sorted(opened, key=lambda s: str(s.directory.resolve())):
            if not source.cache_dir.is_dir() \
                    or source.cache_dir == store.cache_dir:
                continue
            for segment in sorted(source.cache_dir.glob("*.jsonl")):
                incoming = [line for line in segment.read_text().splitlines()
                            if line.strip()]
                if not incoming:
                    continue
                target = store.cache_dir / segment.name
                if target.exists():
                    kept = [line for line in target.read_text().splitlines()
                            if line.strip()]
                    merged = list(dict.fromkeys([*kept, *incoming]))
                    if merged == kept:
                        continue
                    added = len(merged) - len(kept)
                else:
                    store.cache_dir.mkdir(parents=True, exist_ok=True)
                    merged = list(dict.fromkeys(incoming))
                    added = len(merged)
                write_atomic(target, "\n".join(merged) + "\n")
                segments_merged += 1
                lines_merged += added
        stats = MergeStats(sources=len(opened), jobs_written=jobs_written,
                           duplicate_ids=duplicate_ids,
                           segments_merged=segments_merged,
                           cache_lines_merged=lines_merged)
        log.info("merged %d shard stores into %s: %s",
                 len(opened), store.directory, stats)
        return store, stats


@dataclass
class MergeStats:
    """What one :meth:`ResultStore.merge` call did."""

    sources: int
    jobs_written: int
    duplicate_ids: int
    segments_merged: int
    cache_lines_merged: int

    def __str__(self) -> str:
        return (f"{self.jobs_written} records written "
                f"({self.duplicate_ids} duplicate job ids resolved), "
                f"{self.segments_merged} cache segments merged "
                f"(+{self.cache_lines_merged} entries)")


@dataclass
class CompactionStats:
    """What one spill compaction did."""

    segments_before: int
    lines_before: int
    entries_after: int

    def __str__(self) -> str:
        return (f"{self.segments_before} segments / {self.lines_before} lines "
                f"-> 1 segment / {self.entries_after} entries")


def compact_cache_dir(cache_dir: str | Path) -> CompactionStats:
    """Fold every spill segment in ``cache_dir`` into one deduplicated segment.

    Long-lived spills (multi-day servers, many-job campaigns) accumulate one
    segment per job, many holding entries later segments repeat.  Compaction
    rewrites the union as a single segment keeping the *first* line stored
    for each exact cache key — entry lines for the same key are bit-identical
    by construction, so a reload of the compacted spill is bit-identical to a
    reload of the original segments.  The compacted segment is named
    :data:`COMPACTED_PREFIX` plus a digest of its bytes, and earlier
    compacted segments fold and unlink like any other, so every compaction
    that adds entries yields a name a long-lived reader has not loaded yet,
    and compacting an already-compacted spill rewrites the same name.

    Crash-safe and concurrent-writer-safe: the compacted segment is written
    atomically *before* the snapshot of old segments is deleted (a crash in
    between merely leaves redundant entries), and segments appearing after
    the snapshot (e.g. a live worker's spill) are left untouched.
    Undecodable lines are dropped — the spill is purely an accelerator.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return CompactionStats(0, 0, 0)
    snapshot = sorted(cache_dir.glob("*.jsonl"))
    lines_before = 0
    winners: dict[CacheKey, str] = {}
    for segment in snapshot:
        for line in segment.read_text().splitlines():
            if not line.strip():
                continue
            lines_before += 1
            try:
                key, _ = cache_entry_from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
            winners.setdefault(key, line)
    stats = CompactionStats(segments_before=len(snapshot),
                            lines_before=lines_before,
                            entries_after=len(winners))
    if not snapshot:
        return stats
    compacted = None
    if winners:
        text = "\n".join(winners.values()) + "\n"
        compacted = f"{COMPACTED_PREFIX}{_digest(text)}.jsonl"
        write_atomic(cache_dir / compacted, text)
    for segment in snapshot:
        if segment.name == compacted:
            continue
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent compaction
            pass
    log.info("compacted spill %s: %s", cache_dir, stats)
    return stats
