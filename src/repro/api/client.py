"""Thin stdlib HTTP client for the scheduling gateway.

:class:`GatewayClient` speaks the wire protocol of
:mod:`repro.api.gateway` — submit a spec, list jobs, follow the chunked
NDJSON event stream, fetch the stored envelope — over HTTP/1.1
:mod:`http.client` connections that it keeps alive and reuses, so a
submit → wait → result round trip costs one TCP connection, not four.
A record that ``submit`` gets back terminal (a store hit answered at
submit) is kept until ``wait`` asks for it, so a hit's round trip is two
requests: the POST and the result.
Environment proxies (``http_proxy``) are not consulted.  The CLI's
``submit`` / ``jobs`` / ``result`` verbs route through it when
``--server URL`` is given, so the shell workflow is identical whether the
service is in-process or across the network.

Quickstart::

    from repro.api import RunSpec
    from repro.api.client import GatewayClient

    with GatewayClient("http://127.0.0.1:8123", tenant="acme", api_key="k1") as client:
        record = client.submit(RunSpec.from_dict({...}))
        for event in client.events(record["job_id"]):   # streams live NDJSON
            print(event["event"])
        result = client.result(record["job_id"])        # a parsed RunResult
"""

from __future__ import annotations

import http.client
import json
import threading
from collections import OrderedDict
from typing import Iterator
from urllib.parse import urlsplit

from repro.api.events import TERMINAL_EVENTS
from repro.api.result import RunResult
from repro.api.service import TERMINAL_STATES
from repro.api.specs import RunSpec

#: Job-record ``state`` values a job never leaves.
TERMINAL_STATE_VALUES = frozenset(state.value for state in TERMINAL_STATES)

#: Failures of a reused connection that mean the server closed it while it
#: sat idle: the request never reached a handler, so it is sent again once
#: on a fresh connection.
STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class GatewayError(RuntimeError):
    """A non-2xx gateway response, carrying the HTTP status and payload."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        #: Seconds the server asked to wait (from ``Retry-After``, 429s).
        self.retry_after = retry_after


class GatewayClient:
    """Client for one tenant's namespace on one gateway.

    Thread-safe: each request borrows a connection from a small pool of
    idle keep-alive connections (or opens one) and returns it once the
    response is read to the end.  :meth:`close` (or leaving a ``with``
    block) closes the idle ones; a client is unusable afterwards.
    """

    #: Idle connections kept for reuse; more concurrent requests still
    #: work, their extra connections close after one use.
    MAX_IDLE = 4

    #: Terminal records ``submit`` keeps for ``wait``; the oldest goes first.
    MAX_TERMINAL = 64

    def __init__(
        self,
        base_url: str,
        tenant: str = "default",
        api_key: str | None = None,
        timeout: float = 600.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.api_key = api_key
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"gateway URL must be http:// or https://, got {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._prefix = url.path
        self._idle: list[http.client.HTTPConnection] = []
        #: Terminal records returned by ``submit``, by job id, oldest first;
        #: a terminal record never changes, so ``wait`` needs no request.
        self._terminal: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Close every idle connection; later requests raise ``RuntimeError``."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- plumbing
    def _checkout(self, fresh: bool) -> tuple[http.client.HTTPConnection, bool]:
        """A connection and whether it was reused from the pool."""
        with self._lock:
            if self._closed:
                raise RuntimeError("GatewayClient is closed")
            if self._idle and not fresh:
                return self._idle.pop(), True
        return self._connection_class(self._netloc, timeout=self.timeout), False

    def _release(self, connection: http.client.HTTPConnection, response) -> None:
        """Pool ``connection`` once ``response`` is read to its end."""
        if not response.will_close and response.isclosed():
            with self._lock:
                if not self._closed and len(self._idle) < self.MAX_IDLE:
                    self._idle.append(connection)
                    return
        connection.close()

    def _request(self, method: str, path: str, payload=None):
        """Send one request; returns ``(connection, response)`` on a 2xx.

        A reused connection that fails before any response byte arrives is
        retried once on a fresh one.  A non-2xx response is read, its
        connection released, and raised as :class:`GatewayError`.
        """
        body = None
        headers = {"Accept": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        fresh = False
        while True:
            connection, reused = self._checkout(fresh)
            try:
                connection.request(method, self._prefix + path, body=body, headers=headers)
                response = connection.getresponse()
            except STALE_CONNECTION_ERRORS:
                connection.close()
                if not reused:
                    raise
                fresh = True
                continue
            except BaseException:
                connection.close()
                raise
            break
        if 200 <= response.status < 300:
            return connection, response
        try:
            text = response.read()
        except BaseException:
            connection.close()
            raise
        self._release(connection, response)
        raise self._to_gateway_error(response, text)

    @staticmethod
    def _to_gateway_error(response, text: bytes) -> GatewayError:
        message = f"HTTP {response.status}"
        try:
            message = json.loads(text.decode())["error"]["message"]
        except Exception:
            pass
        retry_after = response.getheader("Retry-After")
        return GatewayError(
            response.status,
            message,
            retry_after=float(retry_after) if retry_after else None,
        )

    def _read(self, method: str, path: str, payload=None) -> bytes:
        """One request's whole response body."""
        connection, response = self._request(method, path, payload)
        try:
            body = response.read()
        except BaseException:
            connection.close()
            raise
        self._release(connection, response)
        return body

    def _json(self, method: str, path: str, payload=None):
        return json.loads(self._read(method, path, payload).decode())

    def _tenant_path(self, suffix: str = "") -> str:
        return f"/v1/{self.tenant}/jobs{suffix}"

    # ------------------------------------------------------------- endpoints
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def registry(self) -> dict:
        return self._json("GET", "/v1/registry")

    def submit(self, spec: RunSpec | dict, priority: str = "interactive") -> dict:
        """Submit a spec; returns the job record without waiting for a run.

        A store hit is answered at submit, so its record is already
        ``done``; anything else comes back ``queued``.  A terminal record is
        kept for the next :meth:`wait` on its job.
        """
        if isinstance(spec, RunSpec):
            spec = spec.to_dict()
        record = self._json(
            "POST", self._tenant_path(f"?priority={priority}"), payload=spec
        )
        if record["state"] in TERMINAL_STATE_VALUES:
            with self._lock:
                self._terminal[record["job_id"]] = record
                if len(self._terminal) > self.MAX_TERMINAL:
                    self._terminal.popitem(last=False)
        return record

    def jobs(self) -> list[dict]:
        return self._json("GET", self._tenant_path())["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", self._tenant_path(f"/{job_id}"))

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's NDJSON events, parsed, until the stream ends.

        For a queued or running job this blocks on the live stream and ends
        with the terminal ``run_finished``/``run_failed`` event; for a
        finished job it replays the persisted log.  The rest of the stream
        is read before the terminal event is yielded, so a caller that stops
        there leaves the connection reusable.
        """
        connection, response = self._request(
            "GET", self._tenant_path(f"/{job_id}/events")
        )
        try:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode())
                if event["event"] in TERMINAL_EVENTS:
                    response.read()  # the chunked terminator
                    self._release(connection, response)
                    connection = None
                    yield event
                    return
                yield event
            self._release(connection, response)
            connection = None
        finally:
            if connection is not None:  # abandoned or failed mid-stream
                connection.close()

    def result(self, job_id: str) -> RunResult:
        """The stored envelope of a finished job, parsed."""
        return RunResult.from_json(self.result_text(job_id))

    def result_text(self, job_id: str) -> str:
        """The stored envelope verbatim — byte-identical to ``run()``'s."""
        return self._read("GET", self._tenant_path(f"/{job_id}/result")).decode()

    def wait(self, job_id: str) -> dict:
        """Block until the job is terminal; returns the final job record.

        A record ``submit`` got back terminal is returned without a request.
        Otherwise the event stream is followed, and followed again if it
        ends before the record is terminal (the gateway ends a stream that
        outlives its deadline).
        """
        with self._lock:
            record = self._terminal.pop(job_id, None)
        while record is None or record["state"] not in TERMINAL_STATE_VALUES:
            for _ in self.events(job_id):  # ends at the terminal event
                pass
            record = self.job(job_id)
        return record
