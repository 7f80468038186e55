"""The multi-tenant HTTP/JSON gateway over :class:`SchedulingService`.

This is the network front door of the scheduling stack — stdlib only
(:mod:`http.server`), no new runtime dependencies — exposing the PR 4 job
machinery over the wire:

====================================  =======================================
``GET  /healthz``                     liveness + version (no auth, no limit)
``GET  /v1/registry``                 the four plugin registries (JSON)
``POST /v1/{tenant}/jobs``            submit a ``RunSpec`` (JSON body);
                                      ``?priority=interactive|batch`` picks
                                      the queue lane; returns the job record
``GET  /v1/{tenant}/jobs``            every recorded job of the tenant
``GET  /v1/{tenant}/jobs/{id}``       one job record (live or persisted)
``GET  /v1/{tenant}/jobs/{id}/events``  chunked NDJSON stream of the typed
                                      event protocol, live until terminal
``GET  /v1/{tenant}/jobs/{id}/result``  the stored envelope, byte-identical
                                      to what ``run()`` produced
====================================  =======================================

Multi-tenancy
-------------
Every tenant gets its own :class:`~repro.api.store.ResultStore` subtree
(``<root>/tenants/<tenant>``) and job-id namespace (ids are prefixed
``<tenant>-job-…``), so stores, records and event logs never mix.  All
tenants share **one** worker pool behind the service's
:class:`~repro.api.service.TwoLevelPriorityQueue`: interactive submissions
overtake queued batch sweeps (one batch job per
:data:`~repro.api.service.INTERACTIVE_WEIGHT` interactive ones), so one
tenant's 1000-layer sweep cannot starve another's interactive submit — and
the fabric work queue applies the same lane rule.  Identical
specs are deduplicated twice — against the tenant's result store
(cross-process) and against in-flight jobs (single-flight) — so
resubmission over HTTP reports ``store_hit`` with zero scheduler
invocations.

Auth and admission
------------------
With an :class:`~repro.api.auth.ApiKeyAuth` attached, ``/v1/...`` requests
must carry ``Authorization: Bearer <key>`` (or ``X-API-Key``); missing or
unknown keys get **401**, valid keys aimed at another tenant's namespace
get **403**.  A :class:`~repro.api.ratelimit.RateLimiter` charges each
tenant-scoped request to the tenant's token bucket and answers bursts with
**429** plus a ``Retry-After`` header.

Quickstart::

    from repro.api.gateway import SchedulingGateway

    with SchedulingGateway("gw-store", max_workers=2) as gateway:
        gateway.start()                      # serve on a background thread
        print(gateway.url)                   # http://127.0.0.1:<port>
        ...

See ``docs/gateway.md`` for curl examples and the
:class:`~repro.api.client.GatewayClient` for the Python client the CLI's
``--server`` flag uses.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro import package_version
from repro.api.auth import ApiKeyAuth, AuthError
from repro.api.ratelimit import RateLimiter
from repro.api.events import TERMINAL_EVENTS
from repro.api.service import PRIORITIES, TERMINAL_STATES, SchedulingService
from repro.api.specs import RunSpec
from repro.api.store import ResultStore

logger = logging.getLogger("repro.gateway")

#: Tenant names are path segments and directory names; keep them boring.
TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")

#: Largest accepted request body (a RunSpec is a few KB; this is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024


class GatewayRequestError(Exception):
    """A request failure with a definite HTTP status."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def registry_listing() -> dict:
    """The plugin registries as stable JSON (same shape as ``repro registry --json``)."""
    from repro.api import ALL_REGISTRIES

    return {
        axis: dict(sorted(registry.describe().items()))
        for axis, registry in sorted(ALL_REGISTRIES.items())
    }


class SchedulingGateway:
    """One shared service + per-tenant stores behind an HTTP server.

    Parameters
    ----------
    store_root:
        Directory holding every tenant's store subtree
        (``<store_root>/tenants/<tenant>``).
    auth:
        Optional :class:`ApiKeyAuth`; ``None`` disables authentication
        (single-user/dev mode — any URL tenant is accepted).
    rate_limiter:
        Optional :class:`RateLimiter` charged per tenant; ``None`` disables
        admission control.
    max_workers:
        Worker-pool width.
    backend / fabric_root:
        ``backend="fabric"`` turns the gateway into a pure front-end: every
        submission lands in the persistent work queue under ``fabric_root``
        and external ``repro worker`` processes execute it —
        ``max_workers=0`` then runs the gateway with zero in-process
        workers.  ``backend="local"`` (default) keeps the PR 7 thread pool.
    host / port:
        Bind address; port ``0`` picks a free port (see :attr:`address`).

    All tenants share one content-addressed results tier
    (``<store_root>/shared``): an identical spec submitted by two tenants
    executes **once** — the second submission is a store hit (or rides the
    first in-flight solve) — while job records and event logs stay in each
    tenant's private subtree and id namespace.
    """

    def __init__(
        self,
        store_root: str | Path,
        *,
        auth: ApiKeyAuth | None = None,
        rate_limiter: RateLimiter | None = None,
        max_workers: int = 2,
        backend: str = "local",
        fabric_root: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.store_root = Path(store_root)
        self.auth = auth
        self.rate_limiter = rate_limiter
        self.backend = backend
        self.service = SchedulingService(
            max_workers=max_workers,
            backend=backend,
            fabric_root=fabric_root,
        )
        self._stores: dict[str, ResultStore] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._serving = threading.Event()
        self._server = _GatewayServer((host, port), _GatewayHandler, gateway=self)

    # ---------------------------------------------------------------- serving
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — authoritative after construction."""
        return self._server.server_address[0], self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close`."""
        self._serving.set()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._serving.clear()

    def start(self) -> "SchedulingGateway":
        """Serve on a daemon background thread (returns immediately)."""
        if self._thread is None:
            # Set before the thread exists so a close() racing start() still
            # posts the shutdown request instead of skipping it.
            self._serving.set()
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-gateway", daemon=True
            )
            self._thread.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop the HTTP server, end kept-alive connections, shut the service down.

        ``socketserver.shutdown()`` blocks until the serve loop acknowledges
        — forever, if the loop never ran (e.g. a signal interrupted the CLI
        between binding and serving) — so it is only called while the loop
        is live.  Clients keep connections open between requests; each one's
        handler thread is then blocked reading the next request line, so the
        read side of every open connection is shut down: idle handlers see
        end-of-stream and exit, busy ones finish their response first.
        """
        if self._serving.is_set():
            self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.service.shutdown(wait=wait)

    def __enter__(self) -> "SchedulingGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- tenancy
    def store_for(self, tenant: str) -> ResultStore:
        """The tenant's store subtree (ids prefixed ``<tenant>-``).

        Job records and event logs live under the tenant; the envelope tier
        is the gateway-wide shared results root, so identical specs from
        different tenants are one content-addressed entry.
        """
        with self._lock:
            store = self._stores.get(tenant)
            if store is None:
                store = ResultStore(
                    self.store_root / "tenants" / tenant,
                    job_prefix=f"{tenant}-",
                    results_root=self.store_root / "shared",
                )
                self._stores[tenant] = store
            return store

    def authorize(self, key: str | None, tenant: str | None) -> None:
        """Apply the auth policy; raises :class:`AuthError` on failure."""
        if self.auth is None:
            return
        if tenant is None:
            # Tenant-less endpoints (the registry) accept any known key.
            if not key or self.auth.tenant_for(key) is None:
                from repro.api.auth import AuthenticationError

                raise AuthenticationError("missing or unknown API key")
            return
        self.auth.authorize(key, tenant)

    def admit(self, tenant: str) -> float:
        """Charge one request to the tenant's bucket; retry-after on refusal."""
        if self.rate_limiter is None:
            return 0.0
        return self.rate_limiter.check(tenant)


class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, gateway: SchedulingGateway):
        self.gateway = gateway
        #: Accepted connections whose handler has not finished yet.
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut the read side of every open connection (see ``close``)."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway"
    #: Connections stay open between requests, so a response's separate
    #: header and body writes must not wait on the client's delayed ACK.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------- plumbing
    @property
    def gateway(self) -> SchedulingGateway:
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload, headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, headers: dict | None = None) -> None:
        self._send_json(
            status, {"error": {"status": status, "message": message}}, headers
        )

    def _api_key(self) -> str | None:
        bearer = self.headers.get("Authorization", "")
        if bearer.startswith("Bearer "):
            return bearer[len("Bearer ") :].strip() or None
        return self.headers.get("X-API-Key") or None

    def _guard(self, tenant: str | None) -> None:
        """Auth + admission for one request; raises GatewayRequestError."""
        try:
            self.gateway.authorize(self._api_key(), tenant)
        except AuthError as error:
            headers = {"WWW-Authenticate": "Bearer"} if error.status == 401 else {}
            raise GatewayRequestError(error.status, str(error), headers) from None
        if tenant is not None:
            delay = self.gateway.admit(tenant)
            if delay > 0:
                raise GatewayRequestError(
                    429,
                    f"tenant {tenant!r} is rate limited",
                    {"Retry-After": RateLimiter.retry_after_header(delay)},
                )

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise GatewayRequestError(411, "Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise GatewayRequestError(400, "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise GatewayRequestError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        self._body_read = True
        return self.rfile.read(length)

    def _unread_body(self) -> bool:
        """Whether the request carries a body this handler did not read."""
        return not self._body_read and (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

    def _stream_ndjson(self, chunks) -> None:
        """Send NDJSON text chunks as a chunked HTTP/1.1 response."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            for chunk in chunks:
                if chunk:  # an empty chunk would end the stream early
                    self._write_chunk(chunk.encode())
            self._write_chunk(b"")  # chunked terminator
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client hung up mid-stream

    # -------------------------------------------------------------- dispatch
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        self._body_read = False
        try:
            self._route(method)
        except GatewayRequestError as error:
            headers = error.headers
            if self._unread_body():
                # The connection would parse the unread body as the next
                # request; close it after this response instead.
                headers = {**headers, "Connection": "close"}
            self._send_error_json(error.status, str(error), headers)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception:  # pragma: no cover - last-resort guard
            logger.exception("unhandled gateway error on %s %s", method, self.path)
            try:
                self._send_error_json(500, "internal gateway error", {"Connection": "close"})
            except OSError:
                pass

    def _route(self, method: str) -> None:
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        parts = [part for part in url.path.split("/") if part]

        if parts == ["healthz"] and method == "GET":
            self._send_json(
                200, {"status": "ok", "version": package_version()}
            )
            return
        if parts == ["v1", "registry"] and method == "GET":
            self._guard(tenant=None)
            self._send_json(200, registry_listing())
            return
        if len(parts) >= 3 and parts[0] == "v1" and parts[2] == "jobs":
            tenant = parts[1]
            if not TENANT_PATTERN.match(tenant):
                raise GatewayRequestError(400, f"invalid tenant name {tenant!r}")
            self._guard(tenant)
            rest = parts[3:]
            if not rest:
                if method == "POST":
                    return self._submit(tenant, query)
                return self._list_jobs(tenant)
            if method != "GET":
                raise GatewayRequestError(405, f"{method} not allowed here")
            job_id = rest[0]
            if not job_id.startswith(f"{tenant}-"):
                raise GatewayRequestError(404, f"no job {job_id!r} for tenant {tenant!r}")
            if len(rest) == 1:
                return self._job_record(tenant, job_id)
            if len(rest) == 2 and rest[1] == "events":
                return self._events(tenant, job_id)
            if len(rest) == 2 and rest[1] == "result":
                return self._result(tenant, job_id)
        raise GatewayRequestError(404, f"no route for {method} {url.path}")

    # ------------------------------------------------------------- endpoints
    def _submit(self, tenant: str, query: dict) -> None:
        priority = query.get("priority", ["interactive"])[0]
        if priority not in PRIORITIES:
            raise GatewayRequestError(
                400, f"priority must be one of {', '.join(PRIORITIES)}, got {priority!r}"
            )
        body = self._read_body()
        try:
            payload = json.loads(body)
            spec = RunSpec.from_dict(payload)
        except (json.JSONDecodeError, ValueError, TypeError) as error:
            raise GatewayRequestError(400, f"invalid RunSpec: {error}") from None
        try:
            job = self.gateway.service.submit(
                spec, priority=priority, store=self.gateway.store_for(tenant)
            )
        except RuntimeError as error:  # service shut down
            raise GatewayRequestError(503, str(error)) from None
        self._send_json(202, job.to_dict())

    def _list_jobs(self, tenant: str) -> None:
        self._send_json(200, {"jobs": self.gateway.store_for(tenant).load_jobs()})

    def _live_job(self, job_id: str):
        try:
            return self.gateway.service.job(job_id)
        except KeyError:
            return None

    def _job_record(self, tenant: str, job_id: str) -> None:
        job = self._live_job(job_id)
        record = job.to_dict() if job is not None else None
        if record is None:
            record = self.gateway.store_for(tenant).load_job(job_id)
        if record is None:
            raise GatewayRequestError(404, f"no job {job_id!r} for tenant {tenant!r}")
        self._send_json(200, record)

    def _events(self, tenant: str, job_id: str) -> None:
        job = self._live_job(job_id)
        if job is not None:
            lines = (json.dumps(event.to_dict()) + "\n" for event in job.events())
            # A finished job's log goes out as one chunk; a live one streams
            # each event as it is delivered.
            self._stream_ndjson(["".join(lines)] if job.done else lines)
            return
        store = self.gateway.store_for(tenant)
        if store.load_job(job_id) is None:
            raise GatewayRequestError(404, f"no events for job {job_id!r}")
        # Not live in this process — a fabric job being executed by an
        # external worker, or a finished job from a previous run.  Tail the
        # persisted NDJSON log (live for fabric jobs, instant replay for
        # finished ones).
        self._stream_ndjson(self._tail_events(store, job_id))

    def _tail_events(self, store: ResultStore, job_id: str, timeout: float = 600.0):
        """Stream the job's log until a terminal event, or until a terminal
        record's ``num_events`` lines are out.  Never on the record's state
        alone: writers write the terminal record before the terminal line.
        Yields one chunk per poll: the lines that are new since the last."""
        streamed = 0
        terminal = {state.value for state in TERMINAL_STATES}
        deadline = time.monotonic() + timeout
        while True:
            lines = []
            for event in store.read_events(job_id, start=streamed):
                streamed += 1
                lines.append(json.dumps(event) + "\n")
                if event.get("event") in TERMINAL_EVENTS:
                    yield "".join(lines)
                    return
            if lines:
                yield "".join(lines)
            record = store.load_job(job_id) or {}
            if record.get("state") in terminal and streamed >= record.get("num_events", 0):
                return  # a terminal log without a terminal event
            if time.monotonic() > deadline:
                return
            time.sleep(0.1)

    def _result(self, tenant: str, job_id: str) -> None:
        store = self.gateway.store_for(tenant)
        job = self._live_job(job_id)
        record = job.to_dict() if job is not None else store.load_job(job_id)
        if record is None:
            raise GatewayRequestError(404, f"no job {job_id!r} for tenant {tenant!r}")
        if record["state"] != "done":
            error = record.get("error") or {}
            detail = f": {error.get('type')}: {error.get('message')}" if error else ""
            raise GatewayRequestError(
                409, f"job {job_id} has no result (state: {record['state']}){detail}"
            )
        # The stored file IS the envelope `run()` would have produced; serve
        # its bytes verbatim so the HTTP result is byte-identical.  One read:
        # a gc() eviction may remove the file at any moment.
        try:
            body = store.result_path(record["spec_fingerprint"]).read_bytes()
        except FileNotFoundError:
            raise GatewayRequestError(404, f"stored result of {job_id!r} is missing") from None
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
