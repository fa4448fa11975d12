"""A resilient stdlib HTTP client for the search service.

Wraps the daemon's JSON API (submit / poll / stream / cancel / fetch) in
methods that speak the repo's own types where it helps (budgets, hardware
configs) and raw dicts elsewhere.  One ``http.client`` connection per
request — the service is a job queue, not a chat channel, and per-request
connections keep the client trivially thread-safe.

Resilience (all of it exercised by ``benchmarks/bench_chaos.py``):

* every request retries transient failures — 429/503 (honoring
  ``Retry-After``) and dropped/refused connections — with capped
  exponential backoff plus jitter,
* submits carry an **idempotency key** by default, so a retry whose first
  attempt actually landed returns the original job instead of double-running
  the search,
* :meth:`events` can auto-reconnect a dropped SSE stream with
  ``Last-Event-ID``, replaying exactly the missed frames (daemon restarts
  replay from the start: the event log is per-process),
* :meth:`wait` polls with capped exponential backoff and tolerates brief
  daemon restarts.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from pathlib import Path
from typing import Any, Iterator, Mapping
from urllib.parse import quote, urlsplit

from repro.search.api import SearchBudget
from repro.utils.serialization import budget_to_dict, hardware_to_dict

#: SSE events after which nothing more will happen.
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: Cap on how long a server-sent ``Retry-After`` can make us sleep.
MAX_RETRY_AFTER = 30.0

#: Cap on :meth:`Client.wait`'s backed-off poll interval.
MAX_POLL_SECONDS = 2.0


class ServiceError(RuntimeError):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.reason = message
        self.retry_after = retry_after


class Client:
    """Talk to one running search-service daemon."""

    def __init__(self, base_url: str, timeout: float = 60.0,
                 retries: int = 4, backoff_base: float = 0.25,
                 backoff_cap: float = 4.0) -> None:
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {parts.scheme!r} "
                             "(the service speaks plain http)")
        if parts.hostname is None:
            raise ValueError(f"no host in service URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        # Client-side retry jitter only (decorrelates a thundering herd of
        # retrying clients); never feeds anything result-affecting.
        self._jitter = random.Random()

    @classmethod
    def from_root(cls, root: str | Path, timeout: float = 60.0,
                  **kwargs: Any) -> "Client":
        """Discover the daemon through its ``<root>/service.json`` file."""
        endpoint_path = Path(root) / "service.json"
        try:
            endpoint = json.loads(endpoint_path.read_text())
        except OSError as error:
            raise ServiceError(
                0, f"no running service under {root} "
                   f"(cannot read {endpoint_path}: {error})") from None
        return cls(f"http://{endpoint['host']}:{endpoint['port']}",
                   timeout=timeout, **kwargs)

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _backoff_delay(self, attempt: int,
                       retry_after: float | None = None) -> float:
        """Capped exponential backoff with jitter; honors ``Retry-After``."""
        delay = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        delay *= 0.5 + self._jitter.random()  # jitter in [0.5, 1.5)
        if retry_after is not None:
            delay = max(delay, min(retry_after, MAX_RETRY_AFTER))
        return delay

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None) -> tuple[int, bytes]:
        """One API call, with transparent retries on transient failures.

        Retries 429/503 (honoring ``Retry-After``) and transport-level
        errors (connection refused/reset, timeouts — a restarting daemon).
        Retrying is safe across the whole API: GETs and DELETEs are
        idempotent, and submit POSTs carry an idempotency key.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as error:
                if error.status in (429, 503) and attempt < self.retries:
                    time.sleep(self._backoff_delay(attempt,
                                                   error.retry_after))
                    attempt += 1
                    continue
                raise
            except (http.client.HTTPException, OSError):
                if attempt < self.retries:
                    time.sleep(self._backoff_delay(attempt))
                    attempt += 1
                    continue
                raise

    def _request_once(self, method: str, path: str,
                      body: Mapping[str, Any] | None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            payload = None
            headers = {"Accept": "application/json"}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            if response.status >= 400:
                raise self._error_from(response.status, data,
                                       response.getheader("Retry-After"))
            return response.status, data
        finally:
            connection.close()

    @staticmethod
    def _error_from(status: int, data: bytes,
                    retry_after: str | None) -> ServiceError:
        try:
            message = json.loads(data).get("error", data.decode(errors="replace"))
        except ValueError:
            message = data.decode(errors="replace")
        seconds: float | None = None
        if retry_after:
            # Retry-After may be delta-seconds or an HTTP-date; only the
            # numeric form is parsed, anything else falls back to None
            # (better an unhinted retry than a crashed client).
            try:
                seconds = float(retry_after)
            except ValueError:
                seconds = None
        return ServiceError(status, message, retry_after=seconds)

    def _get_json(self, path: str) -> dict:
        _, data = self._request("GET", path)
        return json.loads(data)

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def metrics(self) -> dict:
        return self._get_json("/metrics")

    def submit_search(self, network: str, strategy: str = "dosa",
                      seed: int = 0,
                      budget: int | Mapping[str, Any] | SearchBudget
                      | None = None,
                      settings: Mapping[str, Any] | None = None,
                      hardware: Any = None,
                      tenant: str | None = None,
                      idempotency_key: str | None = None) -> dict:
        """Submit one seeded search; returns the accepted job summary.

        A fresh ``idempotency_key`` is minted when none is given, so
        transparent submit retries (connection lost after the daemon
        accepted) can never double-run the job.
        """
        body: dict[str, Any] = {
            "kind": "search",
            "network": network,
            "strategy": strategy,
            "seed": seed,
            "idempotency_key": idempotency_key or f"c-{uuid.uuid4().hex}",
        }
        if budget is not None:
            body["budget"] = (budget_to_dict(budget)
                              if isinstance(budget, SearchBudget)
                              else budget)
        if settings:
            body["settings"] = dict(settings)
        if hardware is not None:
            body["hardware"] = (hardware if isinstance(hardware, Mapping)
                                else hardware_to_dict(hardware))
        if tenant is not None:
            body["tenant"] = tenant
        _, data = self._request("POST", "/v1/jobs", body=body)
        return json.loads(data)

    def submit_campaign(self, spec: Any,
                        tenant: str | None = None,
                        idempotency_key: str | None = None) -> dict:
        """Submit a whole campaign grid (a CampaignSpec or its dict form)."""
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        body: dict[str, Any] = {
            "kind": "campaign",
            "spec": payload,
            "idempotency_key": idempotency_key or f"c-{uuid.uuid4().hex}",
        }
        if tenant is not None:
            body["tenant"] = tenant
        _, data = self._request("POST", "/v1/jobs", body=body)
        return json.loads(data)

    def job(self, job_id: str) -> dict:
        return self._get_json(f"/v1/jobs/{quote(job_id, safe='')}")

    def jobs(self, tenant: str | None = None) -> list[dict]:
        path = "/v1/jobs"
        if tenant is not None:
            path += f"?tenant={quote(tenant, safe='')}"
        return self._get_json(path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        """Request cancellation (``DELETE``); returns the job summary.

        Cancellation is cooperative: a queued job is cancelled immediately,
        a running job stops at its next step with best-so-far persisted (a
        job that completes first stays ``done``)."""
        _, data = self._request("DELETE",
                                f"/v1/jobs/{quote(job_id, safe='')}")
        return json.loads(data)

    def result_bytes(self, job_id: str, deterministic: bool = True) -> bytes:
        """The raw result document — for search jobs, the canonical outcome
        JSON, byte-comparable against an offline run's canonical form."""
        flag = "1" if deterministic else "0"
        _, data = self._request(
            "GET",
            f"/v1/jobs/{quote(job_id, safe='')}/result?deterministic={flag}")
        return data

    def result(self, job_id: str, deterministic: bool = True) -> dict:
        return json.loads(self.result_bytes(job_id, deterministic))

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.2, restart_grace: float = 20.0) -> dict:
        """Poll until the job reaches a terminal state; raise on failure.

        The poll interval backs off exponentially from ``poll`` up to
        :data:`MAX_POLL_SECONDS` (a slow daemon is not hammered forever at
        5 Hz).
        Transport errors are tolerated for up to ``restart_grace`` seconds
        beyond the per-request retries — long enough to ride out a daemon
        drain + restart, which re-registers every persisted job.  Returns
        the record for ``done`` and ``cancelled`` jobs; raises
        ``ServiceError`` (including the job's last event) for ``failed``.
        """
        deadline = time.monotonic() + timeout
        interval = max(0.01, poll)
        last_contact = time.monotonic()
        while True:
            record = None
            try:
                record = self.job(job_id)
            except ServiceError:
                raise
            except (http.client.HTTPException, OSError) as error:
                if time.monotonic() - last_contact > restart_grace:
                    raise ServiceError(
                        0, f"lost the daemon while waiting for {job_id}: "
                           f"{error!r}") from None
            if record is not None:
                last_contact = time.monotonic()
                state = record["state"]
                if state in ("done", "cancelled"):
                    return record
                if state == "failed":
                    raise ServiceError(
                        500, self._failure_message(job_id, record))
            if time.monotonic() >= deadline:
                state = record["state"] if record is not None else "unreachable"
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:.0f}s")
            time.sleep(interval)
            interval = min(MAX_POLL_SECONDS, interval * 1.6)

    def _failure_message(self, job_id: str, record: Mapping[str, Any]) -> str:
        message = f"job {job_id} failed: {record.get('error')}"
        last = self._last_event(job_id)
        if last is not None:
            name, payload = last
            message += (f" (last event: {name} "
                        f"{json.dumps(payload, sort_keys=True)})")
        return message

    def _last_event(self, job_id: str) -> tuple[str, dict] | None:
        """The last event of a terminal job's stream (replay, then closed)."""
        try:
            last = None
            for _, name, payload in self._events_stream(job_id, None):
                last = (name, payload)
            return last
        except (ServiceError, http.client.HTTPException, OSError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # Events (SSE)
    # ------------------------------------------------------------------ #
    def events(self, job_id: str,
               last_event_id: int | str | None = None,
               reconnect: bool = False,
               reconnect_grace: float = 30.0) -> Iterator[tuple[str, dict]]:
        """Stream the job's server-sent events as ``(event, payload)`` pairs.

        Blocks on a dedicated connection until the daemon closes the stream
        (job reached a terminal state, or the daemon drained).  With
        ``reconnect=True``, a dropped connection — or a stream the daemon
        closed *without* a terminal frame, e.g. a drain — is transparently
        resumed with ``Last-Event-ID`` until a terminal event arrives:
        within one daemon process exactly the missed frames replay; across
        a daemon restart the fresh event log replays from its start.  Gives
        up (``ServiceError``) after ``reconnect_grace`` seconds without
        receiving anything.
        """
        if not reconnect:
            for _, name, payload in self._events_stream(job_id,
                                                        last_event_id):
                yield name, payload
            return
        last_seen = last_event_id
        last_alive = time.monotonic()
        attempt = 0
        while True:
            terminal = False
            try:
                for event_id, name, payload in self._events_stream(
                        job_id, last_seen):
                    last_alive = time.monotonic()
                    attempt = 0
                    if event_id is not None:
                        last_seen = event_id
                    yield name, payload
                    if name in TERMINAL_EVENTS:
                        terminal = True
            except ServiceError:
                raise  # 404 and friends are not transient
            except (http.client.HTTPException, OSError):
                pass  # dropped mid-stream; reconnect below
            if terminal:
                return
            if time.monotonic() - last_alive > reconnect_grace:
                raise ServiceError(
                    0, f"event stream for {job_id} lost for over "
                       f"{reconnect_grace:.0f}s")
            time.sleep(self._backoff_delay(attempt))
            attempt += 1

    def _events_stream(
            self, job_id: str,
            last_event_id: int | str | None) -> Iterator[tuple[str | None,
                                                               str, dict]]:
        """One SSE connection: yields ``(event_id, event, payload)``."""
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            headers = {"Accept": "text/event-stream"}
            if last_event_id is not None:
                headers["Last-Event-ID"] = str(last_event_id)
            connection.request(
                "GET", f"/v1/jobs/{quote(job_id, safe='')}/events",
                headers=headers)
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error_from(response.status, response.read(),
                                       response.getheader("Retry-After"))
            event, event_id, data_lines = None, None, []
            for raw in response:
                line = raw.decode().rstrip("\n").rstrip("\r")
                if line.startswith(":"):
                    continue  # heartbeat comment
                if line.startswith("id:"):
                    event_id = line[len("id:"):].strip()
                elif line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif not line:
                    if event is not None or data_lines:
                        payload = json.loads("\n".join(data_lines) or "{}")
                        yield (event_id, event or "message", payload)
                    event, event_id, data_lines = None, None, []
        finally:
            connection.close()
