"""Fault injection, recovery and multi-tenant hardening of the service.

Covers the :mod:`repro.service.faults` model and injector, then each
recovery path of the hardened daemon end-to-end over HTTP: worker
SIGKILL -> pool respawn -> bit-identical retry, watchdog kills of hung
workers, store I/O retry, cooperative cancellation, tenant quotas +
round-robin fairness, idempotent submits, TTL garbage collection, the
resilient client (backoff, ``Retry-After`` parsing, SSE reconnect with
``Last-Event-ID``), and a focused repro-lint pass over the new code.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service import (
    Client,
    FaultDrop,
    FaultPlan,
    FaultRule,
    InjectedFault,
    SearchService,
    ServiceConfig,
    ServiceError,
    create_server,
    write_endpoint_file,
)
from repro.service import faults
from repro.utils.serialization import canonical_outcome_json


@contextlib.contextmanager
def running_service(root, client_retries=0, start=True, **overrides):
    """An in-process daemon + bound HTTP server + discovered client."""
    config = ServiceConfig(root=root, **overrides)
    service = SearchService(config)
    if start:
        service.start()
    server = create_server(service)
    write_endpoint_file(service, server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, Client.from_root(config.root, timeout=120.0,
                                        retries=client_retries)
    finally:
        faults.disarm()  # the daemon armed the plan in this process
        service.drain()
        server.shutdown()
        server.server_close()
        thread.join()


# --------------------------------------------------------------------------- #
# Fault plan model
# --------------------------------------------------------------------------- #
class TestFaultPlanModel:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="worker.step", action="kill", match="seed=0",
                      at=10),
            FaultRule(site="sse.frame", action="drop", probability=0.5,
                      max_fires=3),
            FaultRule(site="worker.cell", action="stall", seconds=0.5),
        ))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="worker.nap", action="kill")
        with pytest.raises(ValueError, match="not valid at site"):
            FaultRule(site="store.append", action="kill")
        with pytest.raises(ValueError, match="at must be"):
            FaultRule(site="worker.step", action="kill", at=0)
        with pytest.raises(ValueError, match="stall rules need seconds"):
            FaultRule(site="worker.step", action="stall")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="sse.frame", action="drop", probability=1.5)
        with pytest.raises(ValueError, match="unknown fault rule fields"):
            FaultRule.from_dict({"site": "sse.frame", "action": "drop",
                                 "when": 3})
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"version": 99, "rules": []})

    def test_hash_fraction_is_deterministic_and_uniform_ish(self):
        draws = [faults._hash_fraction(1, 0, hit) for hit in range(200)]
        assert draws == [faults._hash_fraction(1, 0, hit)
                         for hit in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Different seeds decorrelate the schedule.
        assert draws != [faults._hash_fraction(2, 0, hit)
                         for hit in range(200)]


# --------------------------------------------------------------------------- #
# Injector semantics
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_fires_on_nth_matching_hit_only(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", action="error", match="seed=1",
                      at=2),
        ))
        injector = faults.FaultInjector(plan, tmp_path / "ledger")
        injector.fire("store.append", "cell/seed=0")   # no match
        injector.fire("store.append", "cell/seed=1")   # hit 1 of 2
        injector.fire("worker.step", "cell/seed=1")    # wrong site
        with pytest.raises(InjectedFault):
            injector.fire("store.append", "cell/seed=1")
        assert injector.fires() == ["rule0.fire0"]

    def test_ledger_caps_fires_across_injectors(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="sse.frame", action="drop", at=1, max_fires=2),
        ))
        ledger = tmp_path / "ledger"
        # Two injectors over one ledger model a worker that fired, died,
        # and was respawned: the per-process hit counter resets but the
        # global fire budget does not.
        for _ in range(2):
            with pytest.raises(FaultDrop):
                faults.FaultInjector(plan, ledger).fire("sse.frame")
        faults.FaultInjector(plan, ledger).fire("sse.frame")  # budget spent
        assert faults.FaultInjector(plan, ledger).fires() == \
            ["rule0.fire0", "rule0.fire1"]

    def test_module_hooks_are_noops_unless_armed(self, tmp_path):
        assert not faults.armed()
        faults.fire("worker.step", "anything")  # must not raise
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", action="error"),))
        faults.arm(plan, tmp_path / "ledger")
        try:
            assert faults.armed()
            with pytest.raises(InjectedFault):
                faults.fire("store.append")
        finally:
            faults.disarm()
        assert not faults.armed()

    def test_stall_sleeps(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="worker.cell", action="stall", seconds=0.2),))
        injector = faults.FaultInjector(plan, tmp_path / "ledger")
        start = time.monotonic()
        injector.fire("worker.cell", "cell")
        assert time.monotonic() - start >= 0.2


# --------------------------------------------------------------------------- #
# Recovery paths, end to end
# --------------------------------------------------------------------------- #
class TestWorkerRecovery:
    def test_worker_kill_respawns_pool_and_retries_bit_identically(
            self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="worker.step", action="kill", match="seed=6",
                      at=10),
        ))
        with running_service(tmp_path / "svc", n_workers=1,
                             fault_plan=plan) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=6,
                                       budget=40)
            record = client.wait(job["job_id"], timeout=120)
            assert record["state"] == "done"
            assert record["attempts"] == 2
            metrics = client.metrics()
            assert metrics["jobs"]["retried"] == 1
            assert metrics["recovery"]["pool_respawns"] == 1
            served = client.result_bytes(job["job_id"])
        offline = repro.optimize("bert", strategy="random", seed=6,
                                 budget=40)
        assert served == canonical_outcome_json(offline).encode()

    def test_watchdog_kills_hung_worker(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="worker.step", action="stall", at=5,
                      seconds=30.0),
        ))
        with running_service(tmp_path / "svc", n_workers=1,
                             fault_plan=plan, watchdog_seconds=1.0,
                             worker_heartbeat_seconds=0.2) \
                as (service, client):
            job = client.submit_search("bert", strategy="random", seed=3,
                                       budget=40)
            record = client.wait(job["job_id"], timeout=120)
            assert record["state"] == "done"
            metrics = client.metrics()
            assert metrics["recovery"]["workers_killed"] >= 1
            assert metrics["recovery"]["pool_respawns"] >= 1
            served = client.result_bytes(job["job_id"])
        offline = repro.optimize("bert", strategy="random", seed=3,
                                 budget=40)
        assert served == canonical_outcome_json(offline).encode()

    def test_store_append_fault_is_retried(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", action="error", at=1),
        ))
        with running_service(tmp_path / "svc", n_workers=1,
                             fault_plan=plan) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=1,
                                       budget=30)
            record = client.wait(job["job_id"], timeout=120)
            assert record["state"] == "done"
            assert client.metrics()["jobs"]["retried"] == 1
            served = client.result_bytes(job["job_id"])
        offline = repro.optimize("bert", strategy="random", seed=1,
                                 budget=30)
        assert served == canonical_outcome_json(offline).encode()

    def test_max_attempts_gives_up(self, tmp_path):
        # probability=1.0 fires on *every* append (an ``at`` counter passes
        # its mark only once per process), so each retry fails again.
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", action="error", probability=1.0,
                      max_fires=10),
        ))
        with running_service(tmp_path / "svc", n_workers=1,
                             fault_plan=plan, max_attempts=2) \
                as (service, client):
            job = client.submit_search("bert", strategy="random", seed=2,
                                       budget=20)
            with pytest.raises(ServiceError, match="giving up after 2"):
                client.wait(job["job_id"], timeout=120)
            assert client.job(job["job_id"])["state"] == "failed"


#: A process that forks a one-worker pool the way the daemon does, prints
#: the worker's pid, and dies without shutting the pool down.
_DYING_DAEMON = """
import multiprocessing, os
from concurrent.futures import ProcessPoolExecutor
from repro.campaign.scheduler import install_worker_channel
context = multiprocessing.get_context("fork")
pool = ProcessPoolExecutor(max_workers=1, mp_context=context,
                           initializer=install_worker_channel,
                           initargs=(context.Queue(), context.Event()))
print(pool.submit(os.getpid).result(), flush=True)
os._exit(70)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to see the orphaned worker")
class TestOrphanedWorkers:
    def test_pool_worker_exits_when_its_daemon_dies_hard(self):
        src = Path(repro.__file__).resolve().parents[1]
        daemon = subprocess.Popen([sys.executable, "-c", _DYING_DAEMON],
                                  cwd=src, stdout=subprocess.PIPE, text=True)
        with daemon.stdout:
            worker = int(daemon.stdout.readline())
        assert daemon.wait(timeout=60) == 70
        try:
            deadline = time.monotonic() + 5.0
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker)
        finally:
            if _running(worker):
                os.kill(worker, signal.SIGKILL)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        with running_service(tmp_path / "svc", start=False) \
                as (service, client):
            job = client.submit_search("bert", strategy="random", budget=10)
            summary = client.cancel(job["job_id"])
            assert summary["state"] == "cancelled"
            assert client.metrics()["jobs"]["cancelled"] == 1
            # Terminal jobs reject a second cancel.
            with pytest.raises(ServiceError) as error:
                client.cancel(job["job_id"])
            assert error.value.status == 409
            # The SSE replay ends with the cancelled frame.
            names = [name for name, _ in client.events(job["job_id"])]
            assert names[-1] == "cancelled"

    def test_cancel_running_job_persists_best_so_far(self, tmp_path):
        with running_service(tmp_path / "svc", n_workers=1,
                             step_period=1) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=9,
                                       budget=6000)
            job_id = job["job_id"]
            for name, _ in client.events(job_id):
                if name == "best":
                    break
            client.cancel(job_id)
            record = client.wait(job_id, timeout=60)
            assert record["state"] == "cancelled"
            store_dir = service.layout.store_dir("default", job_id)
            outcomes = repro.ResultStore(
                store_dir, writer=False, create=False).latest_outcomes()
            assert outcomes and all(payload["interrupted"]
                                    for payload in outcomes.values())
            # A cancelled job serves no result document.
            with pytest.raises(ServiceError) as error:
                client.result(job_id)
            assert error.value.status == 409

    def test_cancel_unknown_job_is_404(self, tmp_path):
        with running_service(tmp_path / "svc", start=False) \
                as (service, client):
            with pytest.raises(ServiceError) as error:
                client.cancel("j-missing")
            assert error.value.status == 404


class TestTenantFairness:
    def test_quota_rejects_with_retry_after(self, tmp_path):
        with running_service(tmp_path / "svc", start=False,
                             tenant_quota=1) as (service, client):
            client.submit_search("bert", strategy="random", budget=10,
                                 tenant="acme")
            with pytest.raises(ServiceError) as error:
                client.submit_search("bert", strategy="random", budget=10,
                                     tenant="acme", seed=1)
            assert error.value.status == 429
            assert error.value.retry_after is not None
            assert "quota" in str(error.value)
            # Quotas are per tenant: another tenant still gets in.
            client.submit_search("bert", strategy="random", budget=10,
                                 tenant="zeno")
            assert client.metrics()["jobs"]["rejected_quota"] == 1
            # Cancelling the active job frees the quota slot.
            client.cancel(client.jobs(tenant="acme")[0]["job_id"])
            client.submit_search("bert", strategy="random", budget=10,
                                 tenant="acme", seed=1)

    def test_round_robin_interleaves_tenants(self, tmp_path):
        # Submit 2 jobs for a backlogged tenant, then 1 for a newcomer,
        # with no dispatchers running; round-robin must serve the newcomer
        # second, not last.
        with running_service(tmp_path / "svc", start=False) \
                as (service, client):
            first = client.submit_search("bert", strategy="random", seed=0,
                                         budget=10, tenant="hog")
            client.submit_search("bert", strategy="random", seed=1,
                                 budget=10, tenant="hog")
            late = client.submit_search("bert", strategy="random", seed=2,
                                        budget=10, tenant="newcomer")
            assert client.healthz()["queue"]["tenants"] == \
                {"hog": 2, "newcomer": 1}
            with service._cond:
                order = [service._next_job_locked().job_id
                         for _ in range(3)]
            assert order[0] == first["job_id"]
            assert order[1] == late["job_id"]
            # Drained queues drop out of the health payload.
            assert client.healthz()["queue"]["tenants"] == {}


class TestIdempotency:
    def test_duplicate_submit_returns_original_job(self, tmp_path):
        with running_service(tmp_path / "svc", start=False) \
                as (service, client):
            first = client.submit_search("bert", strategy="random",
                                         budget=10, idempotency_key="k-1")
            again = client.submit_search("bert", strategy="random",
                                         budget=10, idempotency_key="k-1")
            assert again["job_id"] == first["job_id"]
            # Keys are scoped per tenant.
            other = client.submit_search("bert", strategy="random",
                                         budget=10, idempotency_key="k-1",
                                         tenant="zeno")
            assert other["job_id"] != first["job_id"]
            assert client.metrics()["jobs"]["deduplicated"] == 1
            assert len(client.jobs()) == 2

    def test_bad_idempotency_key_rejected(self, tmp_path):
        with running_service(tmp_path / "svc", start=False) \
                as (service, client):
            with pytest.raises(ServiceError) as error:
                client.submit_search("bert", strategy="random", budget=10,
                                     idempotency_key="bad key!")
            assert error.value.status == 400

    def test_idempotency_map_survives_restart(self, tmp_path):
        root = tmp_path / "svc"
        with running_service(root, start=False) as (service, client):
            first = client.submit_search("bert", strategy="random",
                                         budget=10, idempotency_key="k-9")
        # The restarted daemon rebuilds the (tenant, key) -> job map from
        # the persisted records in recover().
        with running_service(root, n_workers=1) as (service, client):
            again = client.submit_search("bert", strategy="random",
                                         budget=10, idempotency_key="k-9")
            assert again["job_id"] == first["job_id"]


class TestJobGC:
    def test_ttl_expires_terminal_jobs(self, tmp_path):
        # TTL of 1s: long enough for wait() to observe "done" before the
        # sweeper (0.2s period) deletes the record out from under it.
        with running_service(tmp_path / "svc", n_workers=1,
                             job_ttl_seconds=1.0,
                             gc_interval_seconds=0.2) as (service, client):
            job = client.submit_search("bert", strategy="random", budget=10)
            job_id = job["job_id"]
            client.wait(job_id, timeout=120)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    client.job(job_id)
                except ServiceError as error:
                    assert error.status == 404
                    break
                time.sleep(0.1)
            else:
                pytest.fail("done job was never garbage-collected")
            assert client.metrics()["jobs"]["expired"] == 1
            assert not service.layout.job_dir("default", job_id).exists()


# --------------------------------------------------------------------------- #
# Resilient client
# --------------------------------------------------------------------------- #
class TestClientResilience:
    def test_error_from_parses_numeric_retry_after(self):
        error = Client._error_from(429, b'{"error": "slow down"}', "1.5")
        assert error.retry_after == 1.5
        assert error.reason == "slow down"

    def test_error_from_tolerates_http_date_retry_after(self):
        error = Client._error_from(
            503, b"busy", "Wed, 21 Oct 2026 07:28:00 GMT")
        assert error.retry_after is None
        assert error.status == 503

    def test_backoff_delay_grows_capped_and_honors_retry_after(self):
        client = Client("http://127.0.0.1:1", backoff_base=0.25,
                        backoff_cap=4.0)
        for attempt in range(8):
            nominal = min(4.0, 0.25 * 2 ** attempt)
            delay = client._backoff_delay(attempt)
            assert 0.5 * nominal <= delay < 1.5 * nominal
        assert client._backoff_delay(0, retry_after=2.5) >= 2.5
        # A hostile Retry-After cannot park the client for an hour.
        assert client._backoff_delay(0, retry_after=3600.0) <= 30.0

    def test_request_retries_transient_429(self, tmp_path):
        # queue_limit=1 with no dispatchers: the first submit fills the
        # queue.  A retrying client then sees 429s until a slot frees up.
        with running_service(tmp_path / "svc", start=False, queue_limit=1) \
                as (service, client):
            blocker = client.submit_search("bert", strategy="random",
                                           budget=10)
            retrying = Client.from_root(service.config.root, retries=8,
                                        backoff_base=0.05, backoff_cap=0.2)

            def free_slot():
                time.sleep(0.4)
                client.cancel(blocker["job_id"])

            threading.Thread(target=free_slot).start()
            job = retrying.submit_search("bert", strategy="random",
                                         budget=10, seed=1)
            assert job["job_id"] != blocker["job_id"]
            assert client.metrics()["jobs"]["rejected_full"] >= 1

    def test_wait_failure_message_includes_last_event(self, tmp_path):
        plan = FaultPlan(rules=(
            FaultRule(site="store.append", action="error", at=1,
                      max_fires=10),
        ))
        with running_service(tmp_path / "svc", n_workers=1,
                             fault_plan=plan, max_attempts=1) \
                as (service, client):
            job = client.submit_search("bert", strategy="random", budget=20)
            with pytest.raises(ServiceError) as error:
                client.wait(job["job_id"], timeout=120)
            assert "last event: failed" in str(error.value)


# --------------------------------------------------------------------------- #
# SSE resume (Last-Event-ID)
# --------------------------------------------------------------------------- #
class TestSSEResume:
    def test_replay_resumes_after_given_event_id(self, tmp_path):
        with running_service(tmp_path / "svc", n_workers=1,
                             step_period=10) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=2,
                                       budget=60)
            client.wait(job["job_id"], timeout=120)
            full = list(client._events_stream(job["job_id"], None))
            assert len(full) >= 4 and full[-1][1] == "done"
            # Every frame carries an epoch-qualified id.
            assert all(event_id.startswith(f"{service.events_epoch}.")
                       for event_id, _, _ in full)
            # Resuming after the k-th frame replays exactly the tail.
            resumed = list(client._events_stream(job["job_id"],
                                                 full[1][0]))
            assert resumed == full[2:]
            # Bare integer ids (pre-epoch clients) still work.
            bare = list(client._events_stream(job["job_id"], 1))
            assert bare == full[2:]
            # An id from another daemon epoch replays from the start.
            stale = list(client._events_stream(job["job_id"],
                                               "deadbeef-0.1"))
            assert stale == full

    def test_reconnect_rides_through_forced_mid_stream_drops(self, tmp_path):
        # Two distinct drop rules (an ``at`` counter passes its mark only
        # once per process): the stream is severed on the 3rd frame and
        # again on the 8th hit, which lands inside the resumed stream.
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="sse.frame", action="drop", at=3),
            FaultRule(site="sse.frame", action="drop", at=8),
        ))
        with running_service(tmp_path / "svc", n_workers=1, step_period=10,
                             fault_plan=plan) as (service, client):
            resilient = Client.from_root(service.config.root, retries=4,
                                         backoff_base=0.05, backoff_cap=0.2)
            job = resilient.submit_search("bert", strategy="random", seed=2,
                                          budget=60)
            names = [name for name, _ in
                     resilient.events(job["job_id"], reconnect=True,
                                      reconnect_grace=60.0)]
            assert names[-1] == "done"
            # Both drops actually happened (one marker per rule)...
            ledger = service.layout.fault_ledger_dir
            assert sorted(p.name for p in ledger.glob("rule*")) == \
                ["rule0.fire0", "rule1.fire0"]
            # ...and the reconnecting client still saw a gap-free history:
            # the replay of the finished stream equals what it collected.
            replay = [name for name, _ in client.events(job["job_id"])]
            assert names == replay


# --------------------------------------------------------------------------- #
# The new code passes its own linter
# --------------------------------------------------------------------------- #
class TestReproLintClean:
    def test_fault_and_recovery_code_is_lint_clean(self):
        from repro.analysis.runner import default_package_dir, run_lint

        result = run_lint(package_dir=default_package_dir(),
                          use_baseline=False)
        watched = ("service/faults.py", "service/daemon.py",
                   "service/client.py", "campaign/scheduler.py",
                   "utils/atomic.py")
        dirty = [f for f in result.findings
                 if any(f.path.endswith(name) for name in watched)]
        assert dirty == [], [f"{f.path}:{f.line} {f.rule}" for f in dirty]
