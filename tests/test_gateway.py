"""Tests for the multi-tenant HTTP gateway: auth, rate limits, priorities,
and the end-to-end wire protocol.

Covers the contract of `repro.api.gateway` / `auth` / `ratelimit` /
`client`:

* unit level — API-key auth (401 vs 403), deterministic token buckets, and
  the weighted two-level priority queue (batch can never starve
  interactive, interactive can never starve batch);
* wire level — submit over HTTP, stream chunked NDJSON events equivalent
  to ``Job.events()``, fetch a result byte-identical to the stored ``run()``
  envelope, resubmit as a store hit with zero scheduler invocations, and
  the error surface (401/403/404/400/429 with ``Retry-After``);
* tenancy — separate store subtrees, id namespaces, and no cross-tenant
  reads;
* disk tail — a gateway that does not run the job streams its persisted
  log, and ends only with the terminal event; ``wait`` outlasts a stream
  that ends at its deadline;
* connections — a client's round trip reuses one kept-alive connection,
  survives a gateway restart, and closes cleanly; a store hit's round trip
  is two requests; the gateway ends idle connections when it closes.
"""

import gc
import json
import socket
import sys
import threading
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import pytest

from repro.api import RunSpec, run, spec_fingerprint
from repro.api.auth import (
    ApiKeyAuth,
    AuthenticationError,
    AuthorizationError,
)
from repro.api.client import GatewayClient, GatewayError
from repro.api.events import TERMINAL_EVENTS, RunFinished, RunQueued, RunStarted
from repro.api.gateway import SchedulingGateway, _GatewayHandler
from repro.api.ratelimit import RateLimiter, TokenBucket
from repro.api.service import (
    INTERACTIVE_WEIGHT,
    JobState,
    TwoLevelPriorityQueue,
    _SHUTDOWN,
    job_record,
)
from repro.api.store import ResultStore
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import FabricWorker

#: Cheap deterministic schedule run (seeded random search, tiny layer).
SCHEDULE_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _Item:
    """Minimal queue item: jobs are anything with a ``priority``."""

    def __init__(self, name, priority):
        self.name = name
        self.priority = priority


# --------------------------------------------------------------------- auth


class TestApiKeyAuth:
    def test_authorize_happy_path(self):
        auth = ApiKeyAuth({"k1": "acme", "k2": "bobco"})
        assert auth.authorize("k1", "acme") == "acme"
        assert auth.tenant_for("k2") == "bobco"
        assert auth.tenants == ("acme", "bobco")

    def test_missing_and_unknown_keys_are_401(self):
        auth = ApiKeyAuth({"k1": "acme"})
        with pytest.raises(AuthenticationError):
            auth.authorize(None, "acme")
        with pytest.raises(AuthenticationError):
            auth.authorize("nope", "acme")
        assert AuthenticationError("x").status == 401

    def test_cross_tenant_is_403(self):
        auth = ApiKeyAuth({"k1": "acme"})
        with pytest.raises(AuthorizationError):
            auth.authorize("k1", "bobco")
        assert AuthorizationError("x").status == 403

    def test_from_file_both_shapes(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text('{"k1": "acme"}')
        nested = tmp_path / "nested.json"
        nested.write_text('{"keys": {"k1": "acme"}}')
        assert ApiKeyAuth.from_file(flat).tenant_for("k1") == "acme"
        assert ApiKeyAuth.from_file(nested).tenant_for("k1") == "acme"

    def test_rejects_malformed_configs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            ApiKeyAuth.from_file(bad)
        with pytest.raises(ValueError, match="at least one"):
            ApiKeyAuth({})
        with pytest.raises(ValueError, match="non-empty string"):
            ApiKeyAuth({"k1": 7})


# --------------------------------------------------------------- rate limit


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        delay = bucket.try_acquire()
        assert delay == pytest.approx(0.5)  # 1 token at 2 tokens/sec
        clock.advance(0.5)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60)  # refill far beyond capacity
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1, burst=0)

    def test_limiter_isolates_keys_and_rounds_retry_after_up(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=0.5, burst=1, clock=clock)
        assert limiter.check("a") == 0.0
        assert limiter.check("b") == 0.0  # b has its own bucket
        delay = limiter.check("a")
        assert delay == pytest.approx(2.0)
        assert RateLimiter.retry_after_header(delay) == "2"
        assert RateLimiter.retry_after_header(0.2) == "1"  # never 0


# ----------------------------------------------------------- priority queue


class TestTwoLevelPriorityQueue:
    def test_interactive_overtakes_queued_batch(self):
        q = TwoLevelPriorityQueue()
        for i in range(10):
            q.put(_Item(f"b{i}", "batch"))
        q.put(_Item("i0", "interactive"))
        assert q.get().name == "i0"  # not stuck behind ten batch items

    def test_weighted_dequeue_never_starves_batch(self):
        q = TwoLevelPriorityQueue()
        for i in range(INTERACTIVE_WEIGHT + 2):
            q.put(_Item(f"i{i}", "interactive"))
        q.put(_Item("b0", "batch"))
        names = [q.get().name for _ in range(INTERACTIVE_WEIGHT + 2)]
        # After INTERACTIVE_WEIGHT interactive dequeues the batch item runs.
        interactive = [f"i{i}" for i in range(INTERACTIVE_WEIGHT + 1)]
        assert names == interactive[:-1] + ["b0", interactive[-1]]

    def test_sentinels_drain_only_after_jobs(self):
        q = TwoLevelPriorityQueue()
        q.put(_SHUTDOWN)
        q.put(_Item("b0", "batch"))
        q.put(_Item("i0", "interactive"))
        assert q.get().name == "i0"
        assert q.get().name == "b0"
        assert q.get() is _SHUTDOWN


# ------------------------------------------------------------ HTTP end-to-end


@pytest.fixture()
def gateway(tmp_path):
    auth = ApiKeyAuth({"k-acme": "acme", "k-bobco": "bobco"})
    gw = SchedulingGateway(tmp_path / "gw-store", auth=auth, max_workers=2)
    gw.start()
    yield gw
    gw.close()


@pytest.fixture()
def open_client():
    """A ``GatewayClient`` factory whose clients close at teardown."""
    clients = []

    def build(*args, **kwargs):
        clients.append(GatewayClient(*args, **kwargs))
        return clients[-1]

    yield build
    for built in clients:
        built.close()


@pytest.fixture()
def client(gateway):
    with GatewayClient(gateway.url, tenant="acme", api_key="k-acme") as client:
        yield client


class TestGatewayEndToEnd:
    def test_healthz_and_registry(self, gateway, client):
        assert client.health()["status"] == "ok"
        listing = client.registry()
        assert {"schedulers", "architectures", "platforms", "workloads"} <= set(listing)
        assert "cosa" in listing["schedulers"]

    def test_healthz_reads_package_metadata_once(self, gateway, client, monkeypatch):
        from importlib import metadata

        import repro

        lookups = []
        real_version = metadata.version

        def counting_version(name):
            lookups.append(name)
            return real_version(name)

        monkeypatch.setattr(metadata, "version", counting_version)
        repro.package_version.cache_clear()
        try:
            first, second = client.health(), client.health()
        finally:
            repro.package_version.cache_clear()
        assert first == second
        assert lookups == ["cosa-repro"]

    def test_submit_stream_fetch_round_trip(self, gateway, client):
        record = client.submit(SCHEDULE_SPEC)
        assert record["state"] == "queued"
        assert record["priority"] == "interactive"
        assert record["job_id"].startswith("acme-job-000001-")

        events = list(client.events(record["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds == ["run_queued", "run_started", "layer_scheduled", "run_finished"]

        # The streamed NDJSON is exactly Job.events() serialized (satellite:
        # event-stream equivalence between the wire and the in-process API).
        job = gateway.service.job(record["job_id"])
        assert events == [event.to_dict() for event in job.events(timeout=1)]

        final = client.job(record["job_id"])
        assert final["state"] == "done"
        assert final["store_hit"] is False
        result = client.result(record["job_id"])
        assert result.kind == "schedule"
        assert result.data["succeeded"] is True
        # The final streamed event carries the same envelope the result
        # endpoint serves.
        assert events[-1]["result"] == result.to_dict()

    def test_result_bytes_identical_to_stored_run_envelope(self, gateway, client):
        record = client.submit(SCHEDULE_SPEC)
        client.wait(record["job_id"])
        raw = client.result_text(record["job_id"])
        store = gateway.store_for("acme")
        fingerprint = spec_fingerprint(RunSpec.from_dict(SCHEDULE_SPEC))
        assert raw == store.result_path(fingerprint).read_text()
        # And semantically equal to a synchronous run() envelope (wall-clock
        # floats aside, every deterministic field matches).
        sync = run(RunSpec.from_dict(SCHEDULE_SPEC)).to_dict()
        over_http = json.loads(raw)
        assert over_http["schema_version"] == sync["schema_version"]
        assert over_http["spec"] == sync["spec"]
        assert over_http["data"]["outcomes"][0]["layer"] == sync["data"]["outcomes"][0]["layer"]

    def test_http_resubmission_is_store_hit_with_zero_scheduler_invocations(
        self, gateway, client, monkeypatch
    ):
        first = client.submit(SCHEDULE_SPEC)
        assert client.wait(first["job_id"])["store_hit"] is False

        import repro.api.runner as runner_module

        def exploding_execute(*args, **kwargs):
            raise AssertionError("store hit must not re-run the scheduler")

        monkeypatch.setattr(runner_module, "execute", exploding_execute)
        second = client.submit(SCHEDULE_SPEC)
        final = client.wait(second["job_id"])
        assert final["state"] == "done"
        assert final["store_hit"] is True
        assert client.result(second["job_id"]).to_dict() == client.result(
            first["job_id"]
        ).to_dict()

    def test_batch_priority_and_query_validation(self, gateway, client):
        record = client.submit(SCHEDULE_SPEC, priority="batch")
        assert record["priority"] == "batch"
        client.wait(record["job_id"])
        with pytest.raises(GatewayError) as excinfo:
            client.submit(SCHEDULE_SPEC, priority="urgent")
        assert excinfo.value.status == 400

    def test_jobs_listing_includes_persisted_record(self, gateway, client):
        record = client.submit(SCHEDULE_SPEC)
        client.wait(record["job_id"])
        ids = [job["job_id"] for job in client.jobs()]
        assert record["job_id"] in ids


def stream_in_background(client, job_id):
    """Start reading ``job_id``'s event stream; returns (thread, events)."""
    events = []
    reader = threading.Thread(
        target=lambda: events.extend(client.events(job_id)), daemon=True
    )
    reader.start()
    return reader, events


def count_accepted(gateway) -> list:
    """Record every connection the gateway's server accepts from now on."""
    accepted = []
    get_request = gateway._server.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    gateway._server.get_request = counting
    return accepted


def count_requests(monkeypatch) -> list:
    """Record ``(method, path)`` of every request the gateway serves from now on."""
    requests = []
    dispatch = _GatewayHandler._dispatch

    def counting(handler, method):
        requests.append((method, handler.path))
        return dispatch(handler, method)

    monkeypatch.setattr(_GatewayHandler, "_dispatch", counting)
    return requests


def raw_exchange(gateway, request: bytes) -> bytes:
    """Send one raw request on a fresh socket and read until the server closes."""
    with socket.create_connection(gateway.address, timeout=30) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestGatewayConnections:
    def test_round_trip_uses_one_connection(self, gateway, client):
        accepted = count_accepted(gateway)
        record = client.submit(SCHEDULE_SPEC)
        assert client.wait(record["job_id"])["state"] == "done"
        client.result_text(record["job_id"])
        again = client.submit(SCHEDULE_SPEC)  # a store hit
        assert again["state"] == "done" and again["store_hit"] is True
        assert client.wait(again["job_id"])["store_hit"] is True
        assert len(accepted) == 1

    def test_store_hit_round_trip_is_two_requests_and_a_miss_four(
        self, gateway, client, monkeypatch
    ):
        requests = count_requests(monkeypatch)
        miss = client.submit(SCHEDULE_SPEC)
        assert client.wait(miss["job_id"])["state"] == "done"
        client.result_text(miss["job_id"])
        jobs = "/v1/acme/jobs"
        assert requests == [
            ("POST", f"{jobs}?priority=interactive"),
            ("GET", f"{jobs}/{miss['job_id']}/events"),
            ("GET", f"{jobs}/{miss['job_id']}"),
            ("GET", f"{jobs}/{miss['job_id']}/result"),
        ]
        requests.clear()
        hit = client.submit(SCHEDULE_SPEC)
        final = client.wait(hit["job_id"])
        client.result_text(hit["job_id"])
        assert requests == [
            ("POST", f"{jobs}?priority=interactive"),
            ("GET", f"{jobs}/{hit['job_id']}/result"),
        ]
        # The record the POST returned is the one the gateway still serves.
        assert final == hit == client.job(hit["job_id"])
        assert final["state"] == "done" and final["store_hit"] is True

    def test_terminal_records_are_kept_bounded_until_wait_pops_them(
        self, gateway, client, monkeypatch
    ):
        monkeypatch.setattr(client, "MAX_TERMINAL", 2)
        miss = client.submit(SCHEDULE_SPEC)
        client.wait(miss["job_id"])
        assert list(client._terminal) == []  # a queued record is not kept
        hits = [client.submit(SCHEDULE_SPEC) for _ in range(3)]
        # The oldest record went first.
        assert list(client._terminal) == [hits[1]["job_id"], hits[2]["job_id"]]
        requests = count_requests(monkeypatch)
        assert client.wait(hits[2]["job_id"]) == hits[2]
        assert requests == []
        assert list(client._terminal) == [hits[1]["job_id"]]
        # A record no longer kept is followed and fetched again.
        assert client.wait(hits[0]["job_id"]) == hits[0]
        assert [method for method, _ in requests] == ["GET", "GET"]
        assert client.wait(hits[2]["job_id"]) == hits[2]  # popped, so fetched
        assert len(requests) == 4

    def test_threads_sharing_a_client_each_wait_on_their_own_hit(
        self, gateway, client, monkeypatch
    ):
        client.wait(client.submit(SCHEDULE_SPEC)["job_id"])
        requests = count_requests(monkeypatch)
        errors = []

        def submit_and_wait():
            try:
                for _ in range(10):
                    record = client.submit(SCHEDULE_SPEC)
                    assert client.wait(record["job_id"]) == record
            except BaseException as error:  # re-raised by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_and_wait) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Every wait was answered from the kept record, and none is left.
        assert [method for method, _ in requests] == ["POST"] * 40
        assert len(client._terminal) == 0

    def test_stale_connection_is_retried_after_a_restart(self, tmp_path):
        first = SchedulingGateway(tmp_path / "store").start()
        port = first.address[1]
        with GatewayClient(first.url, tenant="acme") as client:
            record = client.submit(SCHEDULE_SPEC)
            client.wait(record["job_id"])
            first.close()  # the client's pooled connection is now stale
            with SchedulingGateway(tmp_path / "store", port=port) as second:
                second.start()
                assert client.health()["status"] == "ok"
                assert client.job(record["job_id"])["state"] == "done"

    def test_close_ends_idle_kept_alive_connections(self, tmp_path):
        gateway = SchedulingGateway(tmp_path / "store").start()
        with socket.create_connection(gateway.address, timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n\r\n")
            reply = b""
            while b'"status"' not in reply:
                reply += sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 200")
            gateway.close()
            # The handler was blocked reading the next request line; closing
            # the gateway ends it, so the client reads end-of-stream.
            assert sock.recv(65536) == b""

    def test_closed_client_leaks_no_socket(self, gateway):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = GatewayClient(gateway.url, tenant="acme", api_key="k-acme")
            record = client.submit(SCHEDULE_SPEC)
            client.wait(record["job_id"])
            client.result(record["job_id"])
            client.close()
            del client
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_closed_client_refuses_requests(self, gateway):
        client = GatewayClient(gateway.url)
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.health()

    def test_unread_body_of_a_refused_post_closes_the_connection(self, gateway):
        with GatewayClient(gateway.url, tenant="acme") as anonymous:
            with pytest.raises(GatewayError) as excinfo:
                anonymous.submit(SCHEDULE_SPEC)  # 401 before the body is read
            assert excinfo.value.status == 401
            # The next request does not read the leftover body as a request.
            assert anonymous.health()["status"] == "ok"

    def test_finished_job_log_is_one_chunk(self, gateway, client):
        record = client.submit(SCHEDULE_SPEC)
        client.wait(record["job_id"])
        reply = raw_exchange(
            gateway,
            f"GET /v1/acme/jobs/{record['job_id']}/events HTTP/1.1\r\n"
            "Host: gateway\r\nAuthorization: Bearer k-acme\r\n"
            "Connection: close\r\n\r\n".encode(),
        )
        body = reply.split(b"\r\n\r\n", 1)[1]
        size, rest = body.split(b"\r\n", 1)
        chunk, terminator = rest[: int(size, 16)], rest[int(size, 16):]
        assert terminator == b"\r\n0\r\n\r\n"
        assert [json.loads(line) for line in chunk.splitlines()] == (
            gateway.store_for("acme").read_events(record["job_id"])
        )

    def test_result_evicted_before_it_is_read_is_404(self, gateway, client, monkeypatch):
        record = client.submit(SCHEDULE_SPEC)
        client.wait(record["job_id"])
        read_bytes = Path.read_bytes

        def evicting_read_bytes(path):
            path.unlink(missing_ok=True)  # a gc() eviction wins the race
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", evicting_read_bytes)
        with pytest.raises(GatewayError) as excinfo:
            client.result_text(record["job_id"])
        assert excinfo.value.status == 404
        assert "missing" in str(excinfo.value)


class TestGatewayDiskTail:
    """``/events`` for a job this gateway's service does not run."""

    def test_second_gateway_replays_a_finished_job(self, gateway, client, open_client):
        record = client.submit(SCHEDULE_SPEC)
        live = list(client.events(record["job_id"]))
        with SchedulingGateway(gateway.store_root, auth=gateway.auth) as second:
            second.start()
            other = open_client(second.url, tenant="acme", api_key="k-acme")
            replayed = list(other.events(record["job_id"]))
            assert other.job(record["job_id"])["state"] == "done"
        assert replayed == live
        assert replayed == gateway.store_for("acme").read_events(record["job_id"])
        assert [event["event"] for event in replayed][-1] == "run_finished"

    def test_terminal_record_beside_a_short_log_waits_for_the_terminal_event(
        self, gateway, client
    ):
        # What every writer leaves between its terminal record write and its
        # terminal append: a done record counting 3 events, 2 logged.
        store = gateway.store_for("acme")
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fingerprint = spec_fingerprint(spec)
        job_id = store.record_job(
            job_record(
                None, JobState.DONE, spec.to_dict(), fingerprint, "interactive",
                num_events=3,
            )
        )
        store.record_events(
            job_id,
            [
                RunQueued(job_id=job_id, seq=0, kind="schedule", spec_fingerprint=fingerprint),
                RunStarted(job_id=job_id, seq=1),
            ],
        )
        reader, events = stream_in_background(client, job_id)
        reader.join(timeout=0.5)
        assert reader.is_alive()  # the record alone never ends the stream
        store.record_events(
            job_id, [RunFinished(job_id=job_id, seq=2, store_hit=False, result={})]
        )
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert [event["event"] for event in events] == [
            "run_queued",
            "run_started",
            "run_finished",
        ]

    def test_wait_outlasts_a_stream_that_ends_at_its_deadline(
        self, gateway, client, monkeypatch
    ):
        tail = _GatewayHandler._tail_events
        streams = []
        second_stream = threading.Event()

        def short_tail(handler, store, job_id):
            streams.append(job_id)
            if len(streams) == 2:
                second_stream.set()
            return tail(handler, store, job_id, timeout=0.2)

        monkeypatch.setattr(_GatewayHandler, "_tail_events", short_tail)
        store = gateway.store_for("acme")
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fingerprint = spec_fingerprint(spec)

        def record(job_id, state, num_events):
            return job_record(
                job_id, state, spec.to_dict(), fingerprint, "interactive",
                num_events=num_events,
            )

        job_id = f"acme-job-000001-{fingerprint[:12]}"
        store.record_job(record(job_id, JobState.RUNNING, 2))
        store.record_events(
            job_id,
            [
                RunQueued(job_id=job_id, seq=0, kind="schedule", spec_fingerprint=fingerprint),
                RunStarted(job_id=job_id, seq=1),
            ],
        )

        def finish():
            # Only once the first stream has ended without a terminal event.
            if second_stream.wait(30):
                store.record_job(record(job_id, JobState.DONE, 3))
                store.record_events(
                    job_id, [RunFinished(job_id=job_id, seq=2, store_hit=False, result={})]
                )

        finisher = threading.Thread(target=finish, daemon=True)
        finisher.start()
        try:
            final = client.wait(job_id)
        finally:
            second_stream.set()
            finisher.join(timeout=30)
        assert final["state"] == "done"
        assert len(streams) >= 2

    def test_writer_paused_before_its_terminal_append(
        self, gateway, client, tmp_path, monkeypatch
    ):
        paused, resume = threading.Event(), threading.Event()
        record_events = ResultStore.record_events

        def pausing_record_events(self, job_id, events):
            events = list(events)
            if any(event.KIND in TERMINAL_EVENTS for event in events):
                paused.set()
                assert resume.wait(60)
            return record_events(self, job_id, events)

        monkeypatch.setattr(ResultStore, "record_events", pausing_record_events)
        store = gateway.store_for("acme")
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fingerprint = spec_fingerprint(spec)
        job_id = store.record_job(
            job_record(None, JobState.QUEUED, spec.to_dict(), fingerprint, "interactive")
        )
        WorkQueue(tmp_path / "fabric").enqueue(
            spec.to_dict(),
            fingerprint,
            job_id=job_id,
            store_root=str(store.root),
            results_root=str(store.results_root),
            job_prefix=store.job_prefix,
        )
        worker = FabricWorker(tmp_path / "fabric", worker_id="w1", max_tasks=1)
        executing = threading.Thread(target=worker.run, daemon=True)
        executing.start()
        try:
            assert paused.wait(60)
            assert store.load_job(job_id)["state"] == "done"
            reader, events = stream_in_background(client, job_id)
            reader.join(timeout=0.5)
            assert reader.is_alive()
        finally:
            resume.set()
            executing.join(timeout=60)
        assert not executing.is_alive()
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert [event["event"] for event in events] == [
            "run_started",
            "layer_scheduled",
            "run_finished",
        ]


class TestGatewayAuthOverHTTP:
    def test_missing_key_is_401_with_www_authenticate(self, gateway, open_client):
        anonymous = open_client(gateway.url, tenant="acme")
        with pytest.raises(GatewayError) as excinfo:
            anonymous.jobs()
        assert excinfo.value.status == 401
        # Raw request to inspect the headers.
        request = urllib.request.Request(f"{gateway.url}/v1/acme/jobs")
        with pytest.raises(urllib.error.HTTPError) as http_excinfo:
            urllib.request.urlopen(request)
        http_excinfo.value.close()
        assert http_excinfo.value.code == 401
        assert http_excinfo.value.headers["WWW-Authenticate"] == "Bearer"

    def test_wrong_tenant_key_is_403(self, gateway, open_client):
        crossed = open_client(gateway.url, tenant="acme", api_key="k-bobco")
        with pytest.raises(GatewayError) as excinfo:
            crossed.jobs()
        assert excinfo.value.status == 403

    def test_x_api_key_header_is_accepted(self, gateway):
        request = urllib.request.Request(
            f"{gateway.url}/v1/acme/jobs", headers={"X-API-Key": "k-acme"}
        )
        with urllib.request.urlopen(request) as response:
            assert json.loads(response.read()) == {"jobs": []}

    def test_registry_requires_any_valid_key(self, gateway, open_client):
        with pytest.raises(GatewayError) as excinfo:
            open_client(gateway.url).registry()
        assert excinfo.value.status == 401
        assert open_client(gateway.url, api_key="k-bobco").registry()

    def test_healthz_needs_no_key(self, gateway, open_client):
        assert open_client(gateway.url).health()["status"] == "ok"

    def test_tenant_isolation_ids_and_stores(self, gateway, open_client):
        acme = open_client(gateway.url, tenant="acme", api_key="k-acme")
        bobco = open_client(gateway.url, tenant="bobco", api_key="k-bobco")
        record = acme.submit(SCHEDULE_SPEC)
        acme.wait(record["job_id"])
        assert bobco.jobs() == []  # separate store subtree
        # Even with its own valid key, bobco cannot read acme's job: the id
        # prefix guard answers 404, never leaking the record's existence.
        with pytest.raises(GatewayError) as excinfo:
            bobco.job(record["job_id"])
        assert excinfo.value.status == 404
        # Stores live in separate subtrees with prefixed ids.
        assert gateway.store_for("acme").root != gateway.store_for("bobco").root
        assert record["job_id"].startswith("acme-")


class TestGatewayErrorSurface:
    def test_unknown_routes_and_jobs_are_404(self, gateway, client):
        with pytest.raises(GatewayError) as excinfo:
            client.job("acme-job-999999-cafecafecafe")
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            client._json("GET", "/v1/acme/nope")
        assert excinfo.value.status == 404

    def test_invalid_spec_body_is_400(self, gateway, client):
        with pytest.raises(GatewayError) as excinfo:
            client._json("POST", "/v1/acme/jobs", payload={"kind": "nonsense"})
        assert excinfo.value.status == 400
        assert "invalid RunSpec" in str(excinfo.value)

    def test_spec_naming_a_cache_file_is_400_and_writes_nothing(self, gateway, client, tmp_path):
        outside = tmp_path / "outside_store.json"
        spec = {**SCHEDULE_SPEC, "engine": {"cache": str(outside)}}
        with pytest.raises(GatewayError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert "engine.cache" in str(excinfo.value)
        assert client.jobs() == []
        gateway.service.shutdown(wait=True)
        assert not outside.exists()

    def test_invalid_tenant_name_is_400(self, gateway, open_client):
        probe = open_client(gateway.url, tenant="-bad", api_key="k-acme")
        with pytest.raises(GatewayError) as excinfo:
            probe.jobs()
        assert excinfo.value.status == 400

    def test_result_of_unfinished_job_is_409(self, gateway, client, monkeypatch):
        import repro.api.runner as runner_module

        def failing_execute(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_module, "execute", failing_execute)
        record = client.submit(SCHEDULE_SPEC)
        final = client.wait(record["job_id"])
        assert final["state"] == "failed"
        with pytest.raises(GatewayError) as excinfo:
            client.result(record["job_id"])
        assert excinfo.value.status == 409
        assert "boom" in str(excinfo.value)


class TestGatewayRateLimit:
    def test_burst_gets_429_with_retry_after(self, tmp_path, open_client):
        clock = FakeClock()
        limiter = RateLimiter(rate=0.5, burst=2, clock=clock)
        with SchedulingGateway(tmp_path / "store", rate_limiter=limiter) as gateway:
            gateway.start()
            client = open_client(gateway.url, tenant="t1")
            assert client.jobs() == []
            assert client.jobs() == []
            with pytest.raises(GatewayError) as excinfo:
                client.jobs()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 2.0
            # Another tenant has its own bucket and is unaffected.
            assert open_client(gateway.url, tenant="t2").jobs() == []
            # Refill admits t1 again.
            clock.advance(2.0)
            assert client.jobs() == []

    def test_healthz_is_never_rate_limited(self, tmp_path, open_client):
        clock = FakeClock()
        limiter = RateLimiter(rate=0.1, burst=1, clock=clock)
        with SchedulingGateway(tmp_path / "store", rate_limiter=limiter) as gateway:
            gateway.start()
            client = open_client(gateway.url, tenant="t1")
            assert client.jobs() == []
            for _ in range(3):
                assert client.health()["status"] == "ok"


class TestDevModeGateway:
    def test_no_auth_accepts_any_tenant(self, tmp_path, open_client):
        with SchedulingGateway(tmp_path / "store") as gateway:
            gateway.start()
            client = open_client(gateway.url, tenant="whoever")
            record = client.submit(SCHEDULE_SPEC)
            final = client.wait(record["job_id"])
            assert final["state"] == "done"
