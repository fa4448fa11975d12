"""Search-as-a-service: daemon, HTTP API, SSE streams, drain and resume."""

import contextlib
import json
import threading

import pytest

import repro
import repro.campaign.scheduler as scheduler_module
from repro.campaign import CampaignReport, CampaignSpec, StrategyVariant, run_campaign
from repro.service import (
    Client,
    SearchService,
    ServiceConfig,
    ServiceError,
    create_server,
    write_endpoint_file,
)
from repro.service.jobs import (
    RequestError,
    build_campaign_spec,
    normalize_request,
    validate_tenant,
)
from repro.utils.serialization import canonical_outcome_json


@contextlib.contextmanager
def running_service(root, start=True, **overrides):
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
        # retries=0: unit tests assert raw rejection semantics (429/503);
        # the client's transparent retry layer is exercised on its own in
        # tests/test_service_faults.py and benchmarks/bench_chaos.py.
        yield service, Client.from_root(config.root, timeout=120.0,
                                        retries=0)
    finally:
        service.drain()
        server.shutdown()
        server.server_close()
        thread.join()


def tiny_campaign_spec():
    return CampaignSpec(
        name="svc-grid",
        workloads=("bert",),
        strategies=(
            StrategyVariant("random", settings={"num_hardware_designs": 2,
                                                "mappings_per_layer": 5}),
        ),
        seeds=(0, 1),
    )


# --------------------------------------------------------------------------- #
# Job model
# --------------------------------------------------------------------------- #
class TestJobModel:
    def test_tenant_validation(self):
        assert validate_tenant(None) == "default"
        assert validate_tenant("team-a.prod") == "team-a.prod"
        for bad in ("", "../escape", "a/b", "x" * 65, 7):
            with pytest.raises(RequestError):
                validate_tenant(bad)

    def test_normalize_search_request(self):
        tenant, kind, request = normalize_request(
            {"network": "bert", "strategy": "random", "seed": 3,
             "budget": 40, "tenant": "alice"})
        assert (tenant, kind) == ("alice", "search")
        assert request["budget"] == {"max_samples": 40, "max_seconds": None}
        # The normalized request rebuilds the identical spec every time
        # (what restart-resume relies on).
        assert build_campaign_spec("j-1", kind, request).to_dict() == \
            build_campaign_spec("j-1", kind, request).to_dict()

    def test_rejects_bad_requests(self):
        for bad in (
            None,
            {"kind": "teapot"},
            {"network": "not-a-network"},
            {"network": "bert", "strategy": "not-a-strategy"},
            {"network": "bert", "budget": {"max_sample": 5}},
            {"network": "bert", "unexpected": 1},
            {"kind": "campaign"},
            {"kind": "campaign", "spec": {"name": "x"}},
        ):
            with pytest.raises(RequestError):
                normalize_request(bad)

    def test_rejects_unknown_settings_keys(self):
        """A setting the strategy lacks is refused at submit, by name."""
        stale = {"batched_starts": False}
        for bad in (
            {"network": "bert", "settings": stale},
            {"network": "bert", "strategy": "random", "settings": {"seed": 1}},
            {"kind": "campaign", "spec": {
                "name": "stale", "workloads": ["bert"],
                "strategies": [{"name": "dosa", "settings": stale}]}},
        ):
            with pytest.raises(RequestError, match="batched_starts|seed"):
                normalize_request(bad)


GOOD_HARDWARE = {"pe_dim": 16, "accumulator_kb": 32, "scratchpad_kb": 128}

#: Seeds, hardware fields and budgets that JSON input must not truncate or
#: coerce, and a hardware object ``HardwareConfig`` refuses: ``(field,
#: value)`` of a search request.
BAD_INPUTS = {
    "seed-null": ("seed", None),
    "seed-negative": ("seed", -3),
    "seed-float": ("seed", 1.5),
    "seed-string": ("seed", "x"),
    "seed-bool": ("seed", True),
    "pe_dim-float": ("hardware", {**GOOD_HARDWARE, "pe_dim": 16.9}),
    "accumulator_kb-float": ("hardware", {**GOOD_HARDWARE, "accumulator_kb": 32.7}),
    "scratchpad_kb-string": ("hardware", {**GOOD_HARDWARE, "scratchpad_kb": "128"}),
    "pe_dim-bool": ("hardware", {**GOOD_HARDWARE, "pe_dim": True}),
    "pe_dim-zero": ("hardware", {**GOOD_HARDWARE, "pe_dim": 0}),
    "max_samples-float": ("budget", {"max_samples": 60.9}),
    "max_samples-bool": ("budget", {"max_samples": True}),
    "max_seconds-bool": ("budget", {"max_seconds": True}),
    "max_seconds-string": ("budget", {"max_seconds": "5"}),
    "max_seconds-nan": ("budget", {"max_seconds": float("nan")}),
    "max_seconds-infinity": ("budget", {"max_seconds": float("inf")}),
}

#: Settings overrides whose value does not fit the field, or that the
#: settings type refuses: ``(strategy, settings)`` of a search request.
BAD_SETTINGS = {
    "int-float": ("random", {"num_hardware_designs": 1.5}),
    "int-string": ("random", {"mappings_per_layer": "3"}),
    "int-bool": ("random", {"num_hardware_designs": True}),
    "float-bool": ("dosa", {"learning_rate": True}),
    "float-string": ("dosa", {"penalty_weight": "1e9"}),
    "optional-int-float": ("dosa", {"fixed_pe_dim": 16.0}),
    "enum-unknown": ("dosa", {"ordering_strategy": "greedy"}),
    "bounds": ("dosa", {"bounds": {"max_pe_dim": 64}}),
    "learning_rate-nan": ("dosa", {"learning_rate": float("nan")}),
    "learning_rate-infinity": ("dosa", {"learning_rate": float("inf")}),
    "penalty_weight-negative": ("dosa", {"penalty_weight": -1e9}),
    "rejection_threshold-negative": ("dosa", {"rejection_threshold": -5}),
    "fixed_pe_dim-above-bounds": ("dosa", {"fixed_pe_dim": 1000}),
    "num_start_points-zero": ("dosa", {"num_start_points": 0}),
    "gd_steps-negative": ("dosa", {"gd_steps": -1}),
}


class TestInputValidation:
    """Where JSON comes in (a submit, a campaign spec file), seeds must be
    non-negative ints, hardware fields and ``max_samples`` ints,
    ``max_seconds`` a finite number, and every settings override a value of
    its field's type."""

    @pytest.fixture(scope="class")
    def client(self, tmp_path_factory):
        with running_service(tmp_path_factory.mktemp("svc"), start=False) as (_, client):
            yield client

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_daemon_answers_400(self, client, case):
        field, value = BAD_INPUTS[case]
        request = {"seed": 0, "budget": {"max_samples": 10}, "hardware": GOOD_HARDWARE,
                   field: value}
        with pytest.raises(ServiceError) as error:
            client.submit_search("bert", strategy="fixed_hw_random", **request)
        assert error.value.status == 400

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_campaign_spec_refuses_it(self, tmp_path, capsys, case):
        from repro.cli import main
        field, value = BAD_INPUTS[case]
        payload = {"name": "bad", "workloads": ["bert"],
                   "strategies": [{"name": "fixed_hw_random", "hardware": GOOD_HARDWARE}],
                   "seeds": [0], "budgets": [{"max_samples": 10}]}
        if field == "hardware":
            payload["strategies"][0]["hardware"] = value
        else:
            payload[f"{field}s"] = [value]
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(payload)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["campaign", "run", str(path), "--dir", str(tmp_path / "s")]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_daemon_answers_400_to_bad_setting(self, client, case):
        strategy, settings = BAD_SETTINGS[case]
        with pytest.raises(ServiceError) as error:
            client.submit_search("bert", strategy=strategy, seed=0, budget=10,
                                 settings=settings)
        assert error.value.status == 400
        assert next(iter(settings)) in str(error.value)

    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_campaign_run_refuses_bad_setting(self, tmp_path, capsys, case):
        from repro.cli import main
        strategy, settings = BAD_SETTINGS[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "bad", "workloads": ["bert"],
            "strategies": [{"name": strategy, "settings": settings}],
            "seeds": [0], "budgets": [{"max_samples": 10}]}))
        assert main(["campaign", "run", str(path), "--dir", str(tmp_path / "s")]) == 2
        assert next(iter(settings)) in capsys.readouterr().err

    def test_fitting_settings_are_accepted(self):
        settings = {"learning_rate": 1, "penalty_weight": 1e6, "fixed_pe_dim": None,
                    "ordering_strategy": "softmax", "gd_steps": 3}
        _, _, request = normalize_request({"network": "bert", "seed": 0,
                                           "settings": settings})
        assert request["settings"] == settings
        _, _, request = normalize_request({"network": "bert", "seed": 0,
                                           "budget": {"max_seconds": 2}})
        assert request["budget"]["max_seconds"] == 2

    def test_integer_hardware_is_accepted(self):
        _, _, request = normalize_request({"network": "bert", "strategy": "fixed_hw_random",
                                           "seed": 3, "hardware": GOOD_HARDWARE})
        assert request["hardware"] == GOOD_HARDWARE and request["seed"] == 3


# --------------------------------------------------------------------------- #
# End-to-end over HTTP
# --------------------------------------------------------------------------- #
class TestServiceEndToEnd:
    def test_search_job_matches_offline_byte_for_byte(self, tmp_path):
        with running_service(tmp_path / "svc", n_workers=2) as (service, client):
            assert client.healthz()["status"] == "ok"
            job = client.submit_search("bert", strategy="random", seed=5,
                                       budget=40, tenant="alice")
            record = client.wait(job["job_id"], timeout=120)
            assert record["state"] == "done"
            assert record["result"]["cells"] == 1
            served = client.result_bytes(job["job_id"])

            metrics = client.metrics()
            assert metrics["jobs"]["done"] == 1
            assert metrics["latency_seconds"]["p50"] is not None

        offline = repro.optimize("bert", strategy="random", seed=5, budget=40)
        assert served == canonical_outcome_json(offline).encode()

    def test_campaign_job_and_tenant_listing(self, tmp_path):
        spec = tiny_campaign_spec()
        with running_service(tmp_path / "svc", n_workers=2) as (service, client):
            job = client.submit_campaign(spec, tenant="team-a")
            client.submit_search("bert", strategy="random", seed=0,
                                 budget=20, tenant="team-b")
            client.wait(job["job_id"], timeout=180)
            document = client.result(job["job_id"])
            assert document["kind"] == "campaign"
            assert len(document["jobs"]) == spec.grid_size

            team_a = client.jobs(tenant="team-a")
            assert [j["job_id"] for j in team_a] == [job["job_id"]]
            assert len(client.jobs()) == 2

        # The served report is byte-identical to an offline campaign run of
        # the same spec (deterministic report, seeded jobs).
        offline_dir = tmp_path / "offline"
        run_campaign(spec, directory=offline_dir)
        offline_report = CampaignReport.from_store(
            repro.ResultStore(offline_dir)).to_text()
        assert document["report"] == offline_report

    def test_sse_stream_reaches_done(self, tmp_path):
        with running_service(tmp_path / "svc", n_workers=1,
                             step_period=10) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=2,
                                       budget=60)
            names = [name for name, _ in client.events(job["job_id"])]
            assert names[0] == "queued"
            assert "running" in names and "cell_started" in names
            assert "best" in names
            assert names[-1] == "done"

            # Replaying after completion (e.g. a reconnecting client) still
            # ends with a terminal frame.
            replay = [name for name, _ in client.events(job["job_id"])]
            assert replay[-1] == "done"

    @pytest.mark.parametrize("cap", [None, 16], ids=["default", "capped"])
    def test_metrics_count_worker_cache_evictions(self, tmp_path, monkeypatch,
                                                  cap):
        if cap is not None:
            # Patched before the daemon forks its worker: it inherits it.
            monkeypatch.setattr(scheduler_module, "_WORKER_CACHE_ENTRIES", cap)
        with running_service(tmp_path / "svc", n_workers=1) as (service,
                                                                client):
            for seed in (0, 1):
                job = client.submit_search("bert", strategy="random",
                                           seed=seed, budget=40)
                assert client.wait(job["job_id"], timeout=120)["state"] \
                    == "done"
            # A job's stats frame precedes its result on the worker's pipe,
            # so /metrics counts it before the job is done.
            cache = client.metrics()["cache"]
        assert cache["misses"] > 0
        assert (cache["evictions"] > 0) == (cap is not None)

    def test_http_error_paths(self, tmp_path):
        # No dispatchers (start=False): jobs stay queued, which exposes the
        # 409/429 paths deterministically.
        with running_service(tmp_path / "svc", start=False,
                             queue_limit=2) as (service, client):
            with pytest.raises(ServiceError) as error:
                client.submit_search("no-such-network")
            assert error.value.status == 400

            with pytest.raises(ServiceError) as error:
                client.submit_search("bert", settings={"batched_starts": False})
            assert error.value.status == 400
            assert "batched_starts" in str(error.value)

            with pytest.raises(ServiceError) as error:
                client.job("j-missing")
            assert error.value.status == 404

            job = client.submit_search("bert", strategy="random", budget=10)
            with pytest.raises(ServiceError) as error:
                client.result(job["job_id"])
            assert error.value.status == 409  # queued, not done

            client.submit_search("bert", strategy="random", budget=10)
            with pytest.raises(ServiceError) as error:
                client.submit_search("bert", strategy="random", budget=10)
            assert error.value.status == 429  # bounded queue: backpressure
            assert error.value.retry_after is not None
            assert client.metrics()["jobs"]["rejected_full"] == 1

            service.drain()  # stop accepting; the server itself stays up
            with pytest.raises(ServiceError) as error:
                client.submit_search("bert", strategy="random", budget=10)
            assert error.value.status == 503
            assert client.healthz()["status"] == "draining"


# --------------------------------------------------------------------------- #
# Drain + restart resume
# --------------------------------------------------------------------------- #
class TestDrainAndResume:
    def test_drain_persists_best_so_far_and_restart_resumes(self, tmp_path):
        root = tmp_path / "svc"
        budget = 6000
        with running_service(root, n_workers=1,
                             step_period=1) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=9,
                                       budget=budget)
            job_id = job["job_id"]
            # Wait until the search is genuinely in flight (first best found),
            # then drain mid-job.
            for name, _ in client.events(job_id):
                if name == "best":
                    break
            service.drain()
            record = client.job(job_id)
            assert record["state"] == "queued"  # persisted for the next daemon
            store_dir = service.layout.store_dir("default", job_id)
            outcomes = repro.ResultStore(
                store_dir, writer=False, create=False).latest_outcomes()
            assert all(payload["interrupted"]
                       for payload in outcomes.values())

        # A fresh daemon over the same root resumes the job to completion.
        with running_service(root, n_workers=1) as (service, client):
            record = client.wait(job_id, timeout=240)
            assert record["state"] == "done"
            assert client.metrics()["jobs"]["resumed"] == 1
            served = client.result_bytes(job_id)

        offline = repro.optimize("bert", strategy="random", seed=9,
                                 budget=budget)
        assert served == canonical_outcome_json(offline).encode()

    def test_restart_without_drain_recovers_queued_jobs(self, tmp_path):
        root = tmp_path / "svc"
        # Simulate a crash: jobs accepted but the daemon never ran them.
        with running_service(root, start=False) as (service, client):
            job = client.submit_search("bert", strategy="random", seed=4,
                                       budget=30)
        with running_service(root, n_workers=1) as (service, client):
            record = client.wait(job["job_id"], timeout=120)
            assert record["state"] == "done"
