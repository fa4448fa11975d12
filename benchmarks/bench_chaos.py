"""Chaos test: the service under deterministic fault injection.

Runs the job daemon as a real subprocess under a supervisor, arms a seeded
:class:`~repro.service.faults.FaultPlan` that — at deterministic points —
SIGKILLs a worker mid-search, stalls another past the watchdog, fails a
store append, crashes the whole daemon process mid-dispatch, and drops SSE
connections mid-stream.  Concurrently, multiple tenants submit seeded
search jobs through resilient clients (retry/backoff, idempotent submits,
auto-reconnecting event streams, restart-tolerant waits).  The harness
then asserts the service's recovery invariants:

* **zero lost jobs** — every submitted job reaches a terminal state, the
  registry holds exactly the submitted jobs (no duplicates from retried
  submits or requeues), and every one of them is ``done``,
* **the plan actually fired** — the shared fault ledger shows at least one
  worker kill, one worker stall, one store I/O fault, one daemon crash
  (plus a supervisor restart), and one SSE drop,
* **fairness** — with round-robin dispatch, every tenant's first completion
  lands within the first ``n_workers + tenants + 1`` completions (no tenant
  starves behind another's backlog even while the daemon is being killed),
* **byte-identity** — every served result equals the canonical outcome
  JSON of the same seeded search run offline through :func:`repro.optimize`:
  crashes, kills and retries must never perturb a result, only delay it,
* **no orphans** — within 5 s of the last daemon's shutdown no process
  whose command line names the run's root is alive: the workers of a
  daemon that crashed must exit on their own (checked through ``/proc``).

A run never hangs silently: past its wall deadline (120 s with ``--quick``)
the harness stops restarting the daemon, sends it SIGABRT (the daemon runs
with ``PYTHONFAULTHANDLER=1``, so every thread's stack lands in
``daemon.log``), prints each unfinished job's state and attempts and the
log's tail, and fails with the run root kept.

CI smoke::

    PYTHONPATH=src python benchmarks/bench_chaos.py --quick

A longer soak: ``--jobs-per-tenant 5 --budget 120``.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import repro
from repro.service import Client, FaultPlan, FaultRule
from repro.utils.serialization import canonical_outcome_json

NETWORK = "bert"
STRATEGY = "random"
TENANTS = ("acme", "zeno")
#: Plan seed chosen so the probability rules' seeded hash draws fire early:
#: daemon.dispatch at hits {2, 4, 8, 12}, sse.frame at hits {1, 11, 15, ...}.
PLAN_SEED = 10
MAX_RESTARTS = 5
#: Wall deadline of a run: a fixed allowance plus this much per job (120 s
#: for ``--quick``'s six jobs; a passing quick run takes 4-6 s).
DEADLINE_BASE_SECONDS = 30.0
DEADLINE_PER_JOB_SECONDS = 15.0

#: What each plan rule proves, by rule index (= ledger marker prefix).
RULE_LABELS = (
    "worker SIGKILL mid-search",
    "worker stall mid-search",
    "store append I/O fault",
    "daemon crash mid-dispatch",
    "SSE connection drop",
)


def build_plan(watchdog_seconds: float) -> FaultPlan:
    """The chaos schedule; rule order must match :data:`RULE_LABELS`.

    The worker-side rules use exact ``at`` hits (step callbacks are
    sequential within a worker process); the daemon-side rules use seeded
    probabilities because their hit counters are shared across handler /
    dispatcher threads, where an exact-count match could be skipped by a
    racing increment.
    """
    return FaultPlan(seed=PLAN_SEED, rules=(
        FaultRule(site="worker.step", action="kill",
                  match="/seed=0/", at=10),
        # The stall outlives the watchdog, whose SIGKILL sends the stalled
        # worker's job down the kill rule's respawn + requeue path.  (The
        # watchdog alone is pinned deterministically in
        # tests/test_service_faults.py.)
        FaultRule(site="worker.step", action="stall",
                  match="/seed=1/", at=5,
                  seconds=watchdog_seconds * 4),
        FaultRule(site="store.append", action="error", at=1),
        FaultRule(site="daemon.dispatch", action="exit", probability=0.25),
        FaultRule(site="sse.frame", action="drop", probability=0.10,
                  max_fires=2),
    ))


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class DaemonSupervisor:
    """Run the daemon as a subprocess; restart it when it crashes.

    This is the process-manager role (systemd, k8s) the service is designed
    to run under: a crashed daemon comes back on the same root and port, and
    its ``recover()`` re-registers every persisted job.
    """

    def __init__(self, root: Path, port: int, n_workers: int,
                 watchdog_seconds: float, tenant_quota: int,
                 plan_path: Path) -> None:
        self.root = root
        self.port = port
        self.restarts = 0
        self.failures: list[str] = []
        self._argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--root", str(root), "--port", str(port),
            "--n-workers", str(n_workers),
            "--step-period", "10",
            "--max-attempts", "5",
            "--tenant-quota", str(tenant_quota),
            "--watchdog-seconds", str(watchdog_seconds),
            "--fault-plan", str(plan_path),
        ]
        #: ``faulthandler`` dumps every thread's stack on SIGABRT.
        self._env = dict(os.environ, PYTHONFAULTHANDLER="1")
        self._log = open(root / "daemon.log", "ab")
        self._stop = threading.Event()
        self._proc: subprocess.Popen | None = None
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def _spawn(self) -> None:
        self._proc = subprocess.Popen(self._argv, stdout=self._log,
                                      stderr=subprocess.STDOUT, env=self._env)

    def start(self) -> None:
        self._spawn()
        self._thread.start()

    def _watch(self) -> None:
        while not self._stop.is_set():
            status = self._proc.wait()
            if self._stop.is_set():
                return
            if self.restarts >= MAX_RESTARTS:
                self.failures.append(
                    f"daemon kept crashing (exit {status}); gave up after "
                    f"{self.restarts} restarts")
                return
            self.restarts += 1
            print(f"  supervisor: daemon exited with status {status}; "
                  f"restart #{self.restarts}")
            self._spawn()

    def stop(self) -> None:
        """Graceful shutdown: SIGTERM -> daemon drains -> exit 0."""
        self._stop.set()
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.abort()
                self.failures.append("daemon did not drain within 60s "
                                     "(thread stacks in daemon.log)")
        self._thread.join(timeout=5)
        self._log.close()

    def abort(self) -> None:
        """No more restarts; SIGABRT the live daemon so that it dumps its
        thread stacks into ``daemon.log``, then make sure it is gone."""
        self._stop.set()
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGABRT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def processes_naming(root: Path) -> list[int]:
    """Live processes whose command line names ``root`` (zombies have none)."""
    needle = str(root).encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if any(needle in arg for arg in cmdline.split(b"\0")):
            pids.append(int(entry))
    return sorted(pids)


def orphan_problems(root: Path, timeout: float = 5.0) -> list[str]:
    """Processes of this run still alive ``timeout`` s after shutdown.

    Every daemon and every pool worker (a fork of a daemon) carries ``root``
    on its command line.  Once the supervisor has stopped the last daemon,
    none may remain; leftovers are reported, then killed so the harness
    leaks nothing.
    """
    if not Path("/proc/self/cmdline").exists():
        print("orphan check skipped: no /proc")
        return []
    deadline = time.monotonic() + timeout
    while (pids := processes_naming(root)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return [f"process {pid} naming {root} outlived the daemon by "
            f"{timeout:.0f}s" for pid in pids]


def report_hang(root: Path, supervisor: DaemonSupervisor,
                deadline: float) -> int:
    """The run missed its wall deadline: show where it stands, then fail."""
    print(f"FAIL: clients still waiting after the {deadline:.0f}s deadline; "
          "SIGABRT to the daemon (thread stacks in daemon.log)")
    supervisor.abort()
    supervisor.stop()
    for path in sorted(root.glob("tenants/*/jobs/*/job.json")):
        record = json.loads(path.read_text())
        if record["state"] not in ("done", "failed", "cancelled"):
            print(f"  job {record['job_id']} ({record['tenant']}): "
                  f"{record['state']}, attempts {record['attempts']}")
    print("daemon.log tail:")
    tail = (root / "daemon.log").read_text(errors="replace").splitlines()
    for line in tail[-60:]:
        print(f"  {line}")
    for problem in orphan_problems(root):
        print(f"  {problem}")
    return 1


def wait_healthy(client: Client, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.healthz()
            return
        except Exception as error:  # noqa: BLE001 - daemon still starting
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"daemon not healthy after {timeout:.0f}s: "
                    f"{error!r}") from None
            time.sleep(0.25)


def run_chaos(jobs_per_tenant: int, budget: int, n_workers: int,
              watchdog_seconds: float) -> int:
    if jobs_per_tenant < 2:
        print("FAIL: need --jobs-per-tenant >= 2 so every tenant has at "
              "least one fault-free job for the fairness bound")
        return 1
    root = Path(tempfile.mkdtemp(prefix="bench-chaos-"))
    status = 1
    try:
        status = chaos_under(root, jobs_per_tenant, budget, n_workers,
                             watchdog_seconds)
    finally:
        # A passing run has stopped its daemon and found no orphan by now.
        # A failing one keeps its daemon log, stores and fault ledger.
        if status == 0:
            shutil.rmtree(root)
        else:
            print(f"run root kept for inspection: {root}")
    return status


def chaos_under(root: Path, jobs_per_tenant: int, budget: int,
                n_workers: int, watchdog_seconds: float) -> int:
    """One chaos run with ``root`` as the daemon's service root."""
    plan_path = root / "fault_plan.json"
    build_plan(watchdog_seconds).save(plan_path)
    port = free_port()
    total_jobs = len(TENANTS) * jobs_per_tenant
    deadline = DEADLINE_BASE_SECONDS + DEADLINE_PER_JOB_SECONDS * total_jobs
    give_up = time.monotonic() + deadline
    supervisor = DaemonSupervisor(
        root, port, n_workers=n_workers, watchdog_seconds=watchdog_seconds,
        tenant_quota=jobs_per_tenant + 1, plan_path=plan_path)
    print(f"chaos: {len(TENANTS)} tenants x {jobs_per_tenant} jobs "
          f"({STRATEGY}@{NETWORK}, budget={budget}), {n_workers} workers, "
          f"watchdog {watchdog_seconds:.0f}s, plan seed {PLAN_SEED}, "
          f"deadline {deadline:.0f}s")
    supervisor.start()

    def make_client() -> Client:
        return Client(f"http://127.0.0.1:{port}", timeout=120.0,
                      retries=6, backoff_cap=2.0)

    wait_healthy(make_client())

    results: dict[int, dict] = {}
    completions: list[tuple[str, int]] = []
    failures: list[str] = []
    lock = threading.Lock()

    def one_job(tenant: str, seed: int, follow_events: bool) -> None:
        try:
            client = make_client()
            job = client.submit_search(NETWORK, strategy=STRATEGY,
                                       seed=seed, budget=budget,
                                       tenant=tenant)
            job_id = job["job_id"]
            if follow_events:
                # Follow the SSE stream through drops and daemon restarts;
                # the reconnect loop ends at the terminal frame.
                terminal = None
                for name, _ in client.events(job_id, reconnect=True,
                                             reconnect_grace=120.0):
                    if name in ("done", "failed", "cancelled"):
                        terminal = name
                if terminal != "done":
                    raise RuntimeError(
                        f"event stream ended with {terminal!r}")
            record = client.wait(job_id, timeout=600.0, poll=0.1,
                                 restart_grace=120.0)
            served = client.result_bytes(job_id, deterministic=True)
            with lock:
                completions.append((tenant, seed))
                results[seed] = {"job_id": job_id,
                                 "state": record["state"],
                                 "attempts": record.get("attempts"),
                                 "served": served}
        except Exception as error:  # noqa: BLE001 - recorded as a failure
            with lock:
                failures.append(f"{tenant}/seed={seed}: {error!r}")

    wall_start = time.perf_counter()
    threads = []
    for index in range(jobs_per_tenant):
        for tenant_index, tenant in enumerate(TENANTS):
            seed = index * len(TENANTS) + tenant_index
            # Daemon threads: a client stuck past the deadline must not
            # keep the harness alive.
            threads.append(threading.Thread(
                target=one_job, args=(tenant, seed, seed % 2 == 0),
                daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, give_up - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        return report_hang(root, supervisor, deadline)
    wall_seconds = time.perf_counter() - wall_start

    # Registry census before shutdown: exactly the submitted jobs, no
    # duplicates minted by submit retries or crash/requeue cycles.
    census_problems = []
    try:
        records = make_client().jobs()
        if len(records) != total_jobs:
            census_problems.append(
                f"registry holds {len(records)} jobs, expected {total_jobs}")
        for record in records:
            if record["state"] != "done":
                census_problems.append(
                    f"job {record['job_id']} ended {record['state']!r} "
                    f"(error: {record.get('error')})")
    except Exception as error:  # noqa: BLE001 - daemon unreachable at the end
        census_problems.append(f"final registry census failed: {error!r}")

    supervisor.stop()
    print(f"all clients finished in {wall_seconds:.2f}s; "
          f"daemon restarts: {supervisor.restarts}")

    problems = list(supervisor.failures)
    problems.extend(failures)
    problems.extend(census_problems)
    problems.extend(orphan_problems(root))
    if len(results) != total_jobs:
        problems.append(f"only {len(results)}/{total_jobs} jobs completed")

    # The plan must actually have fired: one ledger marker per rule.
    fired = sorted(path.name
                   for path in (root / "fault-ledger").glob("rule*"))
    print(f"fault ledger: {fired}")
    for index, label in enumerate(RULE_LABELS):
        if not any(name.startswith(f"rule{index}.") for name in fired):
            problems.append(f"fault rule {index} ({label}) never fired")
    if supervisor.restarts < 1:
        problems.append("the daemon was never crashed + restarted")

    # Fairness: round-robin dispatch must get every tenant started early,
    # even while workers are being killed out from under it.
    fairness_bound = n_workers + len(TENANTS) + 1
    order = [tenant for tenant, _ in completions]
    for tenant in TENANTS:
        position = order.index(tenant) if tenant in order else None
        if position is None:
            problems.append(f"tenant {tenant} completed nothing")
        elif position >= fairness_bound:
            problems.append(
                f"tenant {tenant}'s first completion was #{position + 1}, "
                f"past the fairness bound of {fairness_bound}")

    if problems:
        print(f"FAIL: {len(problems)} invariant violations:")
        for line in problems[:20]:
            print(f"  {line}")
        return 1

    # Byte-identity: every served result must equal the offline canonical
    # form of the same seeded search, faults or not.
    mismatched = []
    for seed, entry in sorted(results.items()):
        offline = repro.optimize(NETWORK, strategy=STRATEGY, seed=seed,
                                 budget=budget)
        if entry["served"] != canonical_outcome_json(offline).encode():
            mismatched.append(seed)
    if mismatched:
        print(f"FAIL: served results diverge from offline runs for seeds "
              f"{mismatched}")
        return 1

    retried = sum(1 for entry in results.values()
                  if (entry["attempts"] or 1) > 1)
    print(f"OK: {total_jobs} jobs done across {len(TENANTS)} tenants under "
          f"{len(fired)} injected faults + {supervisor.restarts} daemon "
          f"restart(s); {retried} jobs retried; every result byte-identical "
          "to its offline twin")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 2 tenants x 3 jobs, small budget")
    parser.add_argument("--jobs-per-tenant", type=int, default=None,
                        help="jobs per tenant (default: 5, or 3 with "
                             "--quick)")
    parser.add_argument("--budget", type=int, default=None,
                        help="max_samples per job (default: 120, or 60 "
                             "with --quick)")
    parser.add_argument("--n-workers", type=int, default=2,
                        help="daemon worker processes (default: 2)")
    parser.add_argument("--watchdog-seconds", type=float, default=None,
                        help="daemon watchdog timeout (default: 6, or 4 "
                             "with --quick)")
    args = parser.parse_args(argv)
    jobs_per_tenant = args.jobs_per_tenant or (3 if args.quick else 5)
    budget = args.budget or (60 if args.quick else 120)
    watchdog = args.watchdog_seconds or (4.0 if args.quick else 6.0)
    return run_chaos(jobs_per_tenant=jobs_per_tenant, budget=budget,
                     n_workers=args.n_workers, watchdog_seconds=watchdog)


if __name__ == "__main__":
    sys.exit(main())
