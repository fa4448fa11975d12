"""The ``served`` workload: a closed loop against the search-service daemon.

The daemon is ``python -m repro.cli serve --n-workers 1`` in its own process.
One client (one tenant, one connection at a time) submits seeded 60-sample
``random`` searches on bert, follows each job's SSE stream to its terminal
frame and fetches the result, then submits the next.  A second client would
only queue behind the first on the one worker and make the two cores the
bottleneck (see the README).

A run is a sequence of segments, each on a fresh daemon under a fresh root.
Its start (spawn -> first ``/healthz`` 200) is one cold start of
``setup_s``.  It then serves untimed a share of a fixed panel of job seeds,
whose results must equal the canonical JSON of their offline
``repro.optimize()`` twins byte for byte (their best EDPs give
``best_edp_geomean``), and then a timed load segment, with job seeds derived
from the benchmark seed; every eighth load job is checked against its twin
after the run.  The load metrics pool the segments' jobs.  A fresh daemon
per segment keeps each segment's state the same: a daemon's per-job latency
grows with the jobs it has served (see the README), so one long load would
make the tail depend on how many jobs a run's machine speed allowed.
``search_s`` and ``samples_per_s`` come from the load jobs' records
(dispatch -> done).  The client samples a :class:`common.SpeedProbe` before
each daemon start and after each load job (the daemon is idle then), and
every timing is scaled to the reference speed by the probe's mean over the
run.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common
import layers

NETWORK = "bert"
STRATEGY = "random"
BUDGET = 60
TENANT = "bench"
#: Fixed job seeds served before the load segments (quality and twin
#: panel), an equal share on each segment's daemon.
PANEL_SEEDS = tuple(range(40))
#: Load jobs whose index within their segment is a multiple of this are
#: twin-checked.
CHECK_EVERY = 8
#: Untimed jobs before each load segment of a traced run.
WARMUP_JOBS = 8


@dataclass
class Job:
    index: int
    seed: int
    job_id: str = ""
    submitted: float = 0.0    # perf_counter before the POST
    accepted: float = 0.0     # perf_counter after the POST returned
    terminal: float = 0.0     # perf_counter at the terminal frame
    terminal_wall: float = 0.0  # time.time() at the terminal frame
    fetched: float = 0.0      # perf_counter after the result arrived
    result: bytes = b""
    error: str = ""
    record: dict | None = None  # the daemon's job record, once read

    @property
    def latency(self) -> float:
        return self.terminal - self.submitted


@dataclass
class Segment:
    """One fresh daemon's share of a run (see :func:`_segment`)."""
    startup: float        # spawn -> first /healthz 200
    warmup: list[Job]     # untimed jobs before the load
    load: list[Job]       # the timed load segment's jobs
    busy: float           # the load jobs' summed submit -> result seconds
    peak_rss_mb: float    # daemon + pool worker, read before the stop
    cache: dict           # the daemon's /metrics cache counts


class Daemon:
    """One daemon process under a fresh root; stopped with SIGTERM."""

    def __init__(self, work: Path, name: str, trace_dir: Path | None = None):
        self.root = work / name
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli", "serve",
                    "--root", str(self.root), "--n-workers", "1"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name(
                "serve_traced.py")), "--root", str(self.root),
                "--trace-dir", str(trace_dir)]
        self._log = open(work / f"{name}.log", "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(argv, env=common.child_env(),
                                        cwd=common.ROOT, stdout=self._log,
                                        stderr=subprocess.STDOUT)
        try:
            self.client = self._wait_healthy()
        except BaseException:  # stop the process, then re-raise
            self.stop()
            raise
        #: Spawn -> first ``/healthz`` 200.
        self.startup = time.perf_counter() - start

    def _wait_healthy(self):
        from repro.service import Client, ServiceError

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                client = Client.from_root(self.root, timeout=30.0, retries=0)
                client.healthz()
                return client
            except (ServiceError, OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise common.BenchmarkError(f"daemon under {self.root} never became "
                                    f"healthy (log: {self._log.name})")

    def pids(self) -> list[int]:
        return [self.process.pid] + common.child_pids(self.process.pid)

    def stop(self) -> None:
        workers = []
        if self.process.poll() is None:
            workers = common.child_pids(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in workers:  # a pool worker must not outlive its daemon
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._log.close()


def _run_job(client, job: Job) -> None:
    from repro.service.client import TERMINAL_EVENTS

    try:
        job.submitted = time.perf_counter()
        summary = client.submit_search(NETWORK, strategy=STRATEGY,
                                       seed=job.seed, budget=BUDGET,
                                       tenant=TENANT)
        job.accepted = time.perf_counter()
        job.job_id = summary["job_id"]
        terminal = None
        for name, _payload in client.events(job.job_id):
            if name in TERMINAL_EVENTS:
                job.terminal = time.perf_counter()
                job.terminal_wall = time.time()
                terminal = name
                break
        if terminal != "done":
            job.error = f"job ended {terminal!r}"
            return
        job.result = client.result_bytes(job.job_id)
        job.fetched = time.perf_counter()
    except Exception as error:  # noqa: BLE001 - every failure is counted
        job.error = repr(error)


def _drive(daemon: Daemon, seeds, deadline: float | None = None,
           probe: common.SpeedProbe | None = None) -> list[Job]:
    """The closed loop: one job after another, until ``seeds`` run out or,
    with a deadline, until it passed; ``probe`` is sampled after each job."""
    jobs = []
    for index, seed in enumerate(seeds):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        jobs.append(Job(index, seed))
        _run_job(daemon.client, jobs[-1])
        if probe is not None:
            probe.sample(2)
    return jobs


def _load_phase(daemon: Daemon, seed: int, seconds: float, segment: int,
                probe: common.SpeedProbe | None):
    start = time.perf_counter()
    seeds = itertools.count(1_000_000 + seed * 100_000 + segment * 10_000)
    jobs = _drive(daemon, seeds, deadline=start + seconds, probe=probe)
    # The closed loop's busy time: submit -> result of each job, which
    # leaves out the probe samples between jobs.
    busy = sum((job.fetched or job.terminal or job.submitted) - job.submitted
               for job in jobs)
    return jobs, busy


def _twin(network, seed: int):
    import repro

    return repro.optimize(network, STRATEGY, seed=seed, budget=BUDGET)


def _verify(jobs: list[Job], network, twins: dict | None = None) -> None:
    """Flag each completed job whose result differs from its offline twin.

    ``twins`` maps seeds to outcomes already computed; others are run here.
    """
    from repro.utils.serialization import canonical_outcome_json

    for job in jobs:
        if not job.fetched:
            continue
        twin = twins[job.seed] if twins else _twin(network, job.seed)
        if job.result != canonical_outcome_json(twin).encode():
            job.error = "served result differs from its offline twin"


def _tally(jobs: list[Job]):
    """``(attempted, failed, problems)`` over every job of a run."""
    problems = [f"job {job.job_id or '?'} (seed {job.seed}): {job.error}"
                for job in jobs if job.error]
    return len(jobs), len(problems), problems


def _read_records(root: Path, jobs: list[Job]) -> None:
    from repro.service.jobs import ServiceLayout

    layout = ServiceLayout(root)
    for job in jobs:
        job.record = json.loads(
            layout.record_path(TENANT, job.job_id).read_text())


def _segment(work: Path, name: str, seed: int, seconds: float, index: int,
             warmup_seeds, trace_dir: Path | None = None,
             probe: common.SpeedProbe | None = None) -> Segment:
    """Start a fresh daemon, serve ``warmup_seeds`` untimed, then a load
    segment of ``seconds``, and stop it; ``probe`` is sampled before the
    start and after each load job."""
    if probe is not None:
        probe.sample(common.PROBES_PER_START)
    daemon = Daemon(work, name, trace_dir)
    try:
        warmup = _drive(daemon, warmup_seeds)
        load, busy = _load_phase(daemon, seed, seconds, index, probe)
        peak_rss = common.peak_rss_mb_of(daemon.pids())
        cache = daemon.client.metrics()["cache"]
    finally:
        daemon.stop()
    _read_records(daemon.root, [job for job in load if job.fetched])
    return Segment(daemon.startup, warmup, load, busy, peak_rss, cache)


def _jobs(segments: list[Segment], warmup: bool = False) -> list[Job]:
    return [job for segment in segments
            for job in (segment.warmup if warmup else []) + segment.load]


def run(seed: int, seconds: float, trace: bool, work: Path):
    from repro.workloads.networks import get_network

    network = get_network(NETWORK)
    if trace:
        return _run_traced(seed, seconds, work, network)

    count = common.COLD_STARTS
    share = len(PANEL_SEEDS) // count
    probe = common.SpeedProbe()
    segments = [
        _segment(work, f"service{index}", seed, seconds / count, index,
                 PANEL_SEEDS[index * share:(index + 1) * share], probe=probe)
        for index in range(count)]
    panel = [job for seg in segments for job in seg.warmup]
    jobs = _jobs(segments)
    done = [job for job in jobs if job.fetched]
    if len(done) < 2:
        raise common.BenchmarkError("the load segments completed no jobs")
    scale = probe.scale()
    latencies = [job.latency * scale for job in done]
    run_s = [(job.record["finished_at"] - job.record["started_at"]) * scale
             for job in done]
    twins = [_twin(network, s) for s in PANEL_SEEDS]
    _verify(panel, network, dict(zip(PANEL_SEEDS, twins)))
    _verify([job for job in jobs if job.index % CHECK_EVERY == 0], network)
    metrics = {
        "setup_s": (statistics.median(seg.startup for seg in segments)
                    * scale, "s"),
        "search_s": (statistics.median(run_s), "s"),
        "samples_per_s": (statistics.median(
            [job.record["result"]["samples"] / s
             for job, s in zip(done, run_s)]), "1/s"),
        "best_edp_geomean": (
            statistics.geometric_mean([t.best_edp for t in twins]),
            "cycle.pJ"),
        "job_latency_p50_s": (np.percentile(latencies, 50), "s"),
        "job_latency_p95_s": (np.percentile(latencies, 95), "s"),
        "jobs_per_s": (len(done) / (sum(seg.busy for seg in segments)
                                    * scale), "1/s"),
        "peak_rss_mb": (max(seg.peak_rss_mb for seg in segments), "MB"),
    }
    return (*_tally(panel + jobs), metrics)


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _p50_p95(prefix: str, values: list[float]) -> dict[str, float]:
    return {f"{prefix}_p50_s": np.percentile(values, 50),
            f"{prefix}_p95_s": np.percentile(values, 95)}


def _run_traced(seed: int, seconds: float, work: Path, network):
    """Untraced and traced daemons in turn, each serving WARMUP_JOBS and then
    one load segment, so both halves see the same stretches of drift; which
    of a pair goes first alternates."""
    count = common.COLD_STARTS
    plain, traced = [], []
    for index in range(count):
        trace_dir = work / "trace" / str(index)
        trace_dir.mkdir(parents=True)
        for mode in ("plain", "traced")[::1 if index % 2 == 0 else -1]:
            segment = _segment(work, f"{mode}{index}", seed, seconds / count,
                               index, range(WARMUP_JOBS),
                               trace_dir if mode == "traced" else None)
            (traced if mode == "traced" else plain).append(segment)
        if not (trace_dir / "daemon.json").exists():
            raise common.BenchmarkError("a traced daemon wrote no spans")
    snapshots = [json.loads(path.read_text())
                 for path in sorted((work / "trace").rglob("*.json"))]
    done = [job for job in _jobs(traced) if job.fetched]
    values = layers.from_snapshots(snapshots,
                                   per=len(_jobs(traced, warmup=True)))

    compute: dict[str, float] = {}
    for snapshot in snapshots:
        for name, _parent, request, start, end, _child in snapshot["spans"]:
            if name == "campaign.job_compute" and request:
                compute[request] = end - start
    queue_wait, run_s, overhead, deliver = [], [], [], []
    for job in done:
        record = job.record
        queue_wait.append(record["started_at"] - record["created_at"])
        run_s.append(record["finished_at"] - record["started_at"])
        overhead.append(run_s[-1] - compute.get(job.job_id, 0.0))
        deliver.append(job.terminal_wall - record["finished_at"])
    values.update(_p50_p95("service.submit",
                           [job.accepted - job.submitted for job in done]))
    values.update(_p50_p95("service.queue_wait", queue_wait))
    values.update(_p50_p95("service.run", run_s))
    values.update(_p50_p95("service.overhead", overhead))
    values.update(_p50_p95("service.deliver", deliver))
    values.update(_p50_p95("service.result_fetch",
                           [job.fetched - job.terminal for job in done]))
    values["service.jobs"] = len(done)
    hits = sum(segment.cache["hits"] for segment in traced)
    lookups = hits + sum(segment.cache["misses"] for segment in traced)
    values["service.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    plain_done = [job.latency for job in _jobs(plain) if job.fetched]
    values["bench.trace_overhead"] = (
        np.percentile([job.latency for job in done], 50)
        / np.percentile(plain_done, 50))

    load = _jobs(plain + traced)
    _verify([job for job in load if job.index % CHECK_EVERY == 0], network)
    return (*_tally(_jobs(plain + traced, warmup=True)), values)
