"""Daemon-side operational metrics (``GET /metrics``).

Plain counters plus a bounded latency reservoir, all behind one lock —
nothing here is persisted, the numbers describe the current daemon process
only (job *outcomes* are persisted in the per-job result stores).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float | None:
    """Linear-interpolated percentile (``q`` in [0, 100]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class ServiceMetrics:
    """Thread-safe counters + completed-job latency percentiles.

    A job's latency runs dispatch→done (queue wait excluded): the clock
    starts when a dispatcher thread begins executing the job, after it has
    left the queue.
    """

    #: Completed-job latencies kept for percentile estimates; older samples
    #: age out so a long-lived daemon reports recent behaviour.
    LATENCY_WINDOW = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs_submitted = 0
        self.jobs_rejected_full = 0
        self.jobs_rejected_draining = 0
        self.jobs_rejected_invalid = 0
        self.jobs_rejected_quota = 0
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_interrupted = 0
        self.jobs_resumed = 0
        self.jobs_cancelled = 0
        self.jobs_retried = 0
        self.jobs_deduplicated = 0
        self.jobs_expired = 0
        self.workers_killed = 0
        self.pool_respawns = 0
        self.spill_compactions = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self._latencies: deque[float] = deque(maxlen=self.LATENCY_WINDOW)

    # ------------------------------------------------------------------ #
    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)

    def add_cache(self, hits: int, misses: int, evictions: int) -> None:
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses
            self.cache_evictions += evictions

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latencies.append(seconds)

    # ------------------------------------------------------------------ #
    def snapshot(self, queued: int, running: int) -> dict:
        """The ``/metrics`` payload (gauges are passed in by the service)."""
        with self._lock:
            latencies = list(self._latencies)
            lookups = self.cache_hits + self.cache_misses
            return {
                "jobs": {
                    "submitted": self.jobs_submitted,
                    "queued": queued,
                    "running": running,
                    "done": self.jobs_done,
                    "failed": self.jobs_failed,
                    "interrupted": self.jobs_interrupted,
                    "resumed": self.jobs_resumed,
                    "cancelled": self.jobs_cancelled,
                    "retried": self.jobs_retried,
                    "deduplicated": self.jobs_deduplicated,
                    "expired": self.jobs_expired,
                    "rejected_full": self.jobs_rejected_full,
                    "rejected_draining": self.jobs_rejected_draining,
                    "rejected_invalid": self.jobs_rejected_invalid,
                    "rejected_quota": self.jobs_rejected_quota,
                },
                "recovery": {
                    "workers_killed": self.workers_killed,
                    "pool_respawns": self.pool_respawns,
                    "spill_compactions": self.spill_compactions,
                },
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "evictions": self.cache_evictions,
                    "hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
                },
                "latency_seconds": {
                    "count": len(latencies),
                    "p50": percentile(latencies, 50.0),
                    "p99": percentile(latencies, 99.0),
                    "max": max(latencies) if latencies else None,
                },
            }
