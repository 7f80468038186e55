"""The ``repro worker`` process: drain fabric claims through the engine.

A :class:`FabricWorker` is the execution half of the fabric: it claims tasks
from the :class:`~repro.fabric.queue.WorkQueue`, runs them through the
**same** :func:`repro.api.runner.execute` path a local ``run()`` uses (so the
stored envelope is bit-identical to a single-process run of the same spec),
and narrates progress through the typed event protocol of
:mod:`repro.api.events` — appended live, line by line, to the job's NDJSON
event log (:meth:`ResultStore.record_events`) so gateways and
``Job.events()`` watchers can tail it while the solve runs elsewhere.

Execution of one claim::

    store = ResultStore(task.store_root, results_root=task.results_root)
    result, store_hit = runner.execute_job(spec, fingerprint, store)
    record_job(DONE) -> append run_finished -> complete()

:func:`repro.api.runner.execute_job` is the body a service worker thread
runs too: a store hit on the shared, content-addressed tier invokes no
scheduler.  The job record is written *before* the terminal event is
appended, because the submitting service releases ``Job.result()`` when it
reads that line — persist, then emit.

A heartbeat thread renews the lease at ``lease_ttl / 3`` while the solve
runs.  If renewal discovers the lease was reclaimed (this worker was
presumed dead), the worker demotes itself: the solve finishes and its
content-addressed store write stands (identical bytes, harmless), but task
and job bookkeeping belong to whoever re-dispatched it — the job completes
exactly once.

Lifecycle: :meth:`FabricWorker.stop` (wired to SIGTERM/SIGINT by the CLI)
stops new claims; the in-flight task finishes, the event log is flushed,
and :meth:`run` returns cleanly with exit code 0.
"""

from __future__ import annotations

import os
import socket
import threading

from repro.api.events import LayerScheduled, RunFailed, RunFinished, RunStarted
from repro.api.service import JobState, job_record
from repro.api.specs import RunSpec
from repro.api.store import ResultStore
from repro.fabric.queue import Claim, WorkQueue


def default_worker_id() -> str:
    """A worker id unique per (host, pid) — stable across one process life."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _EventAppender:
    """Append typed events to a job's log with continuous ``seq``.

    The submitting service wrote ``run_queued`` (seq 0) before enqueueing,
    and an earlier attempt may have appended more, so the worker continues
    numbering from the logged event count — the combined file reads exactly
    like a local job's log.
    """

    def __init__(self, store: ResultStore, job_id: str):
        self.store = store
        self.job_id = job_id
        self.seq = len(store.read_events(job_id))

    def emit(self, cls, **fields) -> None:
        event = cls(job_id=self.job_id, seq=self.seq, **fields)
        self.store.record_events(self.job_id, [event])
        self.seq += 1


class FabricWorker:
    """One claim-execute loop over a fabric root.

    Parameters
    ----------
    fabric_root:
        The directory the :class:`WorkQueue` lives under (shared with the
        enqueueing service and every other worker).
    worker_id:
        Name recorded in leases and the journal; defaults to ``host-pid``.
    lease_ttl / heartbeat_interval:
        Claim TTL and renewal period (default: ``ttl / 3``).  The period
        must lie in ``(0, lease_ttl)``: a longer one lets the lease lapse
        between renewals, and another worker's sweep reclaims the task.
    poll_interval:
        Idle sleep between empty claim scans; must be positive, or an idle
        worker busy-polls the queue.
    max_tasks:
        Exit after this many executed tasks (``None`` = run until stopped);
        the knob subprocess tests and bounded CI smoke runs use.
    """

    def __init__(
        self,
        fabric_root,
        *,
        worker_id: str | None = None,
        lease_ttl: float | None = None,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.2,
        max_tasks: int | None = None,
        log=None,
    ):
        queue_kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
        self.queue = WorkQueue(fabric_root, **queue_kwargs)
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else self.queue.lease_ttl / 3
        )
        if not 0 < self.heartbeat_interval < self.queue.lease_ttl:
            raise ValueError(
                f"heartbeat_interval must be in (0, lease_ttl={self.queue.lease_ttl}), "
                f"got {self.heartbeat_interval}"
            )
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        self.poll_interval = poll_interval
        self.max_tasks = max_tasks
        self.tasks_done = 0
        self._log = log or (lambda message: None)
        self._stop = threading.Event()
        self._lease_lost = threading.Event()

    # -------------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Request a graceful exit: no new claims; the in-flight task finishes."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def run(self) -> int:
        """Claim and execute until stopped (or ``max_tasks``); returns 0."""
        self._log(f"worker {self.worker_id} draining {self.queue.root}")
        while not self._stop.is_set():
            if not self.run_one():
                self._stop.wait(self.poll_interval)
            if self.max_tasks is not None and self.tasks_done >= self.max_tasks:
                break
        self._log(f"worker {self.worker_id} exiting after {self.tasks_done} task(s)")
        return 0

    def run_one(self) -> bool:
        """One sweep + claim + execute; ``False`` when the queue was idle."""
        self.queue.reclaim_expired(sweeper=self.worker_id)
        claim = self.queue.claim(self.worker_id)
        if claim is None:
            return False
        self._execute(claim)
        self.tasks_done += 1
        return True

    # -------------------------------------------------------------- execution
    def _execute(self, claim: Claim) -> None:
        task = claim.task
        store = ResultStore(
            task["store_root"],
            job_prefix=task.get("job_prefix", ""),
            results_root=task.get("results_root"),
        )
        events = _EventAppender(store, task["job_id"])
        self._lease_lost.clear()
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(claim, stop_heartbeat),
            name=f"repro-heartbeat-{claim.task_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            self._run_task(claim, store, events)
        finally:
            stop_heartbeat.set()
            heartbeat.join()

    def _run_task(self, claim: Claim, store: ResultStore, events: _EventAppender) -> None:
        task = claim.task
        spec = RunSpec.from_dict(task["spec"])
        self._record_job(store, task, JobState.RUNNING, num_events=events.seq + 1)
        events.emit(RunStarted)
        self._log(
            f"worker {self.worker_id} claimed {claim.task_id} "
            f"(job {task['job_id']}, attempt {task['attempts']})"
        )
        from repro.api import runner

        try:
            result, store_hit = runner.execute_job(
                spec,
                task["fingerprint"],
                store,
                emit_layer=lambda payload: events.emit(LayerScheduled, **payload),
            )
        except BaseException as error:
            failure = {"type": type(error).__name__, "message": str(error)}
            self._record_job(
                store, task, JobState.FAILED, error=failure, num_events=events.seq + 1
            )
            events.emit(
                RunFailed, error_type=failure["type"], error_message=failure["message"]
            )
            self.queue.fail(claim, failure)
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            return
        if self._lease_lost.is_set():
            # Presumed dead and re-dispatched: the store write stands (same
            # bytes), but the re-dispatched attempt owns all bookkeeping.
            self._log(f"worker {self.worker_id} lost the lease on {claim.task_id}")
            return
        self._record_job(
            store, task, JobState.DONE, store_hit=store_hit, num_events=events.seq + 1
        )
        events.emit(RunFinished, store_hit=store_hit, result=result.to_dict())
        self.queue.complete(claim, store_hit=store_hit)
        origin = "store hit" if store_hit else "fresh solve"
        self._log(
            f"worker {self.worker_id} finished {claim.task_id} "
            f"(job {task['job_id']}, {origin})"
        )

    def _heartbeat_loop(self, claim: Claim, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            if not self.queue.heartbeat(claim):
                self._lease_lost.set()
                return

    # ------------------------------------------------------------ bookkeeping
    def _record_job(self, store: ResultStore, task: dict, state: JobState, **fields) -> None:
        """Write the job's whole record from ``task``, stamped with this attempt."""
        record = job_record(
            task["job_id"], state, task["spec"], task["fingerprint"], task["priority"], **fields
        )
        record["worker"] = self.worker_id
        record["task_id"] = task["task_id"]
        store.record_job(record)


def serve(argv=None) -> int:
    """``python -m repro.fabric.worker`` — a minimal standalone entry point.

    The full-featured spelling is ``repro worker`` (see :mod:`repro.cli`);
    this module entry exists so the worker can run from a bare checkout.
    """
    from repro.cli import main

    return main(["worker", *(argv if argv is not None else [])])


if __name__ == "__main__":  # pragma: no cover - thin module runner
    import sys

    raise SystemExit(serve(sys.argv[1:]))
