"""The asynchronous scheduling service: jobs, events and the result store.

The paper's experiments are long-running sweeps, so the service API has the
shape production schedulers converge on — submit work, observe progress,
fetch and de-duplicate results:

* :meth:`SchedulingService.submit` turns a
  :class:`~repro.api.specs.RunSpec` into a first-class :class:`Job` executed
  on a bounded worker pool (or, with ``backend="fabric"``, by external
  ``repro worker`` processes);
* every job narrates its life through the typed, schema-versioned event
  protocol of :mod:`repro.api.events` (``run_queued`` → ``run_started`` →
  one ``layer_scheduled`` per layer → ``run_finished``/``run_failed``),
  consumable via :meth:`Job.events` or an ``on_event`` callback;
* with a :class:`~repro.api.store.ResultStore` attached, finished envelopes
  are persisted under the spec fingerprint and **resubmitting an identical
  spec is a store hit** — the stored envelope is returned verbatim and no
  scheduler runs.  On the local backend ``submit`` looks the fingerprint up
  itself and answers a hit before it returns, without the queue.

Quickstart::

    from repro.api import RunSpec, SchedulingService

    with SchedulingService(max_workers=4, store="run-store") as service:
        job = service.submit(RunSpec.from_dict({
            "kind": "compare",
            "workload": {"network": "resnet50", "first_layers": 4},
        }))
        for event in job.events():            # streams as layers finish
            print(event.to_dict())
        result = job.result()                 # the stamped RunResult

The synchronous :func:`repro.api.run` is a thin wrapper over
``submit(spec).result()`` on a private single-worker service, so both entry
points share one execution path and produce bit-identical envelopes.

One lifecycle: every way a job can end — success, a store hit answered at
submit, failure, cancellation, the submit-vs-shutdown race, an aborted
submission, a single-flight follower sharing its leader's result, and
fabric ``run_finished`` / ``run_failed`` / dead-letter — goes through
:meth:`SchedulingService._finish`, which sets the state, appends the
terminal event, writes the record, appends the event to the log, delivers
the event, releases ``result()`` waiters and settles followers, in that
order.  A subscriber that sees a terminal event, or a caller that
``result()`` releases, therefore always reads the terminal record from the
store.  Every event is appended to the job's log before it is delivered,
so a subscriber finds each event it is handed on disk.  A job's first
record mints its id (:meth:`ResultStore.record_job`); a store hit answered
at submit writes only that record, already terminal, and appends its three
events in one write.

Threading notes: jobs run on a bounded pool of **daemon** worker threads
(``max_workers`` concurrent runs) draining one
:class:`TwoLevelPriorityQueue`: interactive submissions overtake batch
ones, and when all traffic is interactive the queue is FIFO.  Daemon
workers keep the process interruptible: Ctrl-C during a long sweep exits
promptly instead of blocking until the sweep drains, matching the
pre-service inline ``run()`` behaviour.  ``on_event`` callbacks and
:meth:`Job.events` deliveries originate from the worker thread that
executes the job (``run_queued`` alone fires from the submitting thread),
except for a store hit answered at submit: all of its events fire from the
submitting thread before ``submit`` returns.  Event payloads are
deterministic even under ``engine.jobs > 1`` because the engine reports
layers in input order (see :class:`~repro.engine.engine.LayerReport`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

from repro.api.events import (
    TERMINAL_EVENTS,
    Event,
    LayerScheduled,
    RunFailed,
    RunFinished,
    RunQueued,
    RunStarted,
    event_from_dict,
)
from repro.api.result import RunResult
from repro.api.specs import RunSpec
from repro.api.store import ResultStore, spec_fingerprint


class JobState(str, Enum):
    """Lifecycle of one submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job can never leave.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

#: Valid ``submit(priority=...)`` levels, highest first.
PRIORITIES = ("interactive", "batch")

#: Interactive picks served per batch pick while both lanes wait.
INTERACTIVE_WEIGHT = 4


def pick_lane(interactive, batch, streak: int):
    """The lane rule of every job queue (in-process and fabric).

    Serve ``interactive`` first, but after ``INTERACTIVE_WEIGHT`` consecutive
    interactive picks serve one ``batch`` item, so a sweep makes progress
    underneath a steady interactive stream.  At least one lane must be
    non-empty; returns the lane to pop from and the new interactive streak.
    """
    if batch and (not interactive or streak >= INTERACTIVE_WEIGHT):
        return batch, 0
    return interactive, streak + 1


def job_record(
    job_id: str, state: JobState, spec: dict, fingerprint: str, priority: str, *,
    store_hit: bool = False, error: dict | None = None, num_events: int = 0,
) -> dict:
    """The one job-record shape (what ``repro jobs`` lists), for ``Job.to_dict``
    and fabric workers.  A record is written before the event it counts."""
    return {
        "job_id": job_id,
        "state": state.value,
        "kind": spec["kind"],
        "priority": priority,
        "spec_fingerprint": fingerprint,
        "store_hit": store_hit,
        "error": error,
        "num_events": num_events,
        "spec": spec,
    }


class JobCancelled(RuntimeError):
    """Raised by :meth:`Job.result` when the job was cancelled."""


class JobTimeout(TimeoutError):
    """Raised by :meth:`Job.result` / :meth:`Job.events` on timeout."""


class Job:
    """One submitted run: state, events, and eventually a result.

    Jobs are created by :meth:`SchedulingService.submit`; the constructor is
    not public API.  All attributes are safe to read from any thread.
    """

    def __init__(
        self,
        service: "SchedulingService",
        job_id: str,
        spec: RunSpec,
        fingerprint: str,
        store: ResultStore | None,
        on_event: Callable[[Event], None] | None = None,
        priority: str = "interactive",
    ):
        self.id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.priority = priority
        self.state = JobState.QUEUED
        #: ``True`` when the result was served from the result store — or
        #: from an identical in-flight job (single-flight dedup).
        self.store_hit = False
        #: The original exception of a failed job.
        self.error: BaseException | None = None
        self._result: RunResult | None = None
        self._done = threading.Event()
        #: Guards state, log and subscribers.  Appending an event and
        #: persisting it happen under one hold, so a subscriber's replay
        #: never holds an event that is not on disk yet.  Reentrant: the
        #: record written under it reads ``event_log``.
        self._lock = threading.RLock()
        self._log: list[Event] = []
        self._subscribers: list[queue.SimpleQueue] = []
        self._on_event = on_event
        #: The owning service: it runs every terminal transition.
        self._service = service
        #: The store this job records to (per-job: the gateway gives every
        #: tenant its own subtree on one shared service).
        self._store = store
        #: Single-flight bookkeeping: the dedup key this job flies under and
        #: identical-spec jobs waiting on this one (guarded by the service
        #: lock, not the job lock).
        self._flight_key = (
            None if store is None else str(store.resolved_results_root),
            fingerprint,
        )
        self._followers: list["Job"] = []
        #: Fabric bookkeeping (``backend="fabric"`` jobs only).
        self._task_id: str | None = None

    def __repr__(self) -> str:
        return f"Job(id={self.id!r}, kind={self.spec.kind!r}, state={self.state.value!r})"

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    @property
    def event_log(self) -> list[Event]:
        """Snapshot of every event emitted so far, in ``seq`` order."""
        with self._lock:
            return list(self._log)

    # -------------------------------------------------------------- emission
    def _append(self, cls: type[Event], **fields) -> tuple[Event, list]:
        """Log one event (caller holds ``_lock``).

        Returns the event and the channels subscribed at append time — the
        ones :meth:`_deliver` must reach; later subscribers replay it from
        the log.
        """
        event = cls(job_id=self.id, seq=len(self._log), **fields)
        self._log.append(event)
        return event, list(self._subscribers)

    def _deliver(self, event: Event, channels: list) -> None:
        for channel in channels:
            channel.put(event)
        if self._on_event is not None:
            self._on_event(event)

    def _emit(self, cls: type[Event], *, persisted: bool = False, **fields) -> Event:
        """Append, persist, then deliver one non-terminal event (``persisted``:
        tailed from a fabric worker's log, so on disk already)."""
        with self._lock:
            event, channels = self._append(cls, **fields)
            if self._store is not None and not persisted:
                self._store.record_events(self.id, [event])
        self._deliver(event, channels)
        return event

    def _start(self) -> bool:
        """``QUEUED`` → ``RUNNING``; ``False`` when the job is not queued."""
        with self._lock:
            if self.state is not JobState.QUEUED:
                return False
            self.state = JobState.RUNNING
        return True

    # ------------------------------------------------------------ observation
    def events(self, timeout: float | None = None) -> Iterator[Event]:
        """Iterate the job's events from the beginning, live.

        Replays everything already emitted, then blocks for new events until
        the terminal ``run_finished``/``run_failed`` arrives.  ``timeout``
        bounds the wait for each *individual* event (:class:`JobTimeout` on
        expiry); ``None`` waits indefinitely.  Multiple concurrent iterators
        each see the complete stream.
        """
        channel: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            backlog = list(self._log)
            finished = any(event.KIND in TERMINAL_EVENTS for event in backlog)
            if not finished:
                self._subscribers.append(channel)
        try:
            yield from backlog
            if finished:
                return
            while True:
                try:
                    event = channel.get(timeout=timeout)
                except queue.Empty:
                    raise JobTimeout(
                        f"job {self.id} emitted no event within {timeout} seconds"
                    ) from None
                yield event
                if event.KIND in TERMINAL_EVENTS:
                    return
        finally:
            with self._lock:
                if channel in self._subscribers:
                    self._subscribers.remove(channel)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; ``False`` on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> RunResult:
        """Block for and return the job's :class:`RunResult`.

        Raises :class:`JobTimeout` when the job is still running after
        ``timeout`` seconds, :class:`JobCancelled` for cancelled jobs, and
        re-raises the original exception for failed ones.
        """
        if not self._done.wait(timeout):
            raise JobTimeout(
                f"job {self.id} did not finish within {timeout} seconds "
                f"(state: {self.state.value})"
            )
        if self.state is JobState.CANCELLED:
            raise JobCancelled(f"job {self.id} was cancelled")
        if self.state is JobState.FAILED:
            assert self.error is not None
            raise self.error
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------ cancellation
    def cancel(self) -> bool:
        """Cancel the job if it has not started executing yet.

        Returns ``True`` when the job was still queued and is now
        ``CANCELLED`` (a terminal ``run_failed`` event is emitted so event
        streams drain, and the persisted job record is updated); ``False``
        when it already runs or finished — in-flight solves are never
        interrupted.  The worker that eventually dequeues a cancelled job
        skips it; identical-spec jobs deduplicated onto a cancelled job are
        re-queued to run on their own.  A fabric job must first win the
        remote cancellation race (see ``WorkQueue.cancel``).
        """
        service = self._service
        if self._task_id is not None and not service._fabric.cancel(self._task_id):
            return False
        return service._finish(
            self, JobState.CANCELLED, message="cancelled before execution"
        )

    # ------------------------------------------------------------- persistence
    def to_dict(self) -> dict:
        """JSON-compatible job record (see :func:`job_record`)."""
        error = self.error
        return job_record(
            self.id, self.state, self.spec.to_dict(), self.fingerprint, self.priority,
            store_hit=self.store_hit,
            error=None if error is None else {"type": type(error).__name__, "message": str(error)},
            num_events=len(self.event_log),
        )


#: Queue sentinel telling a worker thread to exit.
_SHUTDOWN = object()


class TwoLevelPriorityQueue:
    """The service's job queue: ``interactive`` and ``batch`` lanes.

    Dequeueing follows :func:`pick_lane`: interactive submissions are never
    stuck behind a 1000-layer sweep, and the sweep still makes progress
    underneath a steady interactive stream; with one lane occupied the
    queue is FIFO.  Jobs carry their lane in ``Job.priority`` (anything
    unknown counts as ``batch``).  Items without a ``priority`` attribute
    are shutdown sentinels and drain only once both lanes are empty, so
    ``shutdown(wait=True)`` always lets queued jobs finish first — even when
    a racing submit enqueues after the sentinels were posted.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._interactive: deque = deque()
        self._batch: deque = deque()
        self._drain: deque = deque()
        self._streak = 0  # consecutive interactive dequeues

    def put(self, item) -> None:
        priority = getattr(item, "priority", None)
        with self._not_empty:
            if priority is None:
                self._drain.append(item)
            elif priority == "interactive":
                self._interactive.append(item)
            else:
                self._batch.append(item)
            self._not_empty.notify()

    def get(self):
        with self._not_empty:
            while True:
                if self._interactive or self._batch:
                    lane, self._streak = pick_lane(
                        self._interactive, self._batch, self._streak
                    )
                    return lane.popleft()
                if self._drain:
                    return self._drain.popleft()
                self._not_empty.wait()


class SchedulingService:
    """Bounded-concurrency job runner with events and a result store.

    Parameters
    ----------
    max_workers:
        Concurrent jobs (further submissions wait in the priority queue).
        Per-job layer parallelism is independent and comes from
        ``spec.engine.jobs``.
    store:
        Optional :class:`~repro.api.store.ResultStore` (or a directory path,
        which constructs one): finished envelopes are persisted under the
        spec fingerprint, resubmissions of identical specs become store
        hits, and job records survive the process for ``repro jobs`` /
        ``repro result``.  ``submit(store=...)`` overrides it per job — how
        the gateway keeps tenants in separate subtrees on one worker pool.
    backend:
        ``"local"`` (default) executes on this process's thread pool;
        ``"fabric"`` enqueues every submission into the persistent
        :class:`~repro.fabric.queue.WorkQueue` under ``fabric_root``, to be
        drained by external ``repro worker`` processes.  In fabric mode
        ``max_workers`` may be 0 (a pure front-end: ``repro serve`` with
        zero in-process workers) and every job needs a store — that is
        where workers put envelopes and event logs.
    fabric_root:
        The fabric directory (required for ``backend="fabric"``).

    The service is a context manager; leaving the block waits for running
    jobs and shuts the pool down.  Workers are daemon threads, so an
    interrupted process (Ctrl-C mid-sweep) exits promptly instead of
    draining the queue; call :meth:`shutdown` (or use the context manager)
    for a clean hand-over.  Fabric tasks outlive the service by design:
    shutting down the front-end leaves queued work in the fabric for
    workers to finish.
    """

    #: Seconds between fabric watcher sweeps over live jobs' event logs.
    FABRIC_POLL_INTERVAL = 0.05

    def __init__(
        self,
        max_workers: int = 2,
        store: ResultStore | str | Path | None = None,
        *,
        backend: str = "local",
        fabric_root: str | Path | None = None,
    ):
        if backend not in ("local", "fabric"):
            raise ValueError(f"backend must be 'local' or 'fabric', got {backend!r}")
        if backend == "fabric" and fabric_root is None:
            raise ValueError("backend='fabric' requires fabric_root")
        min_workers = 0 if backend == "fabric" else 1
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers must be >= {min_workers}, got {max_workers}"
            )
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.backend = backend
        self.max_workers = max_workers
        self._fabric = None
        self._watcher: threading.Thread | None = None
        if backend == "fabric":
            from repro.fabric.queue import WorkQueue

            self._fabric = WorkQueue(fabric_root)
        self._queue = TwoLevelPriorityQueue()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-{index}", daemon=True
            )
            for index in range(max_workers if backend == "local" else 0)
        ]
        for worker in self._workers:
            worker.start()
        self._jobs: dict[str, Job] = {}
        #: Single-flight leaders by ``Job._flight_key``; guarded by ``_lock``.
        self._inflight: dict[tuple, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False
        #: Fabric jobs the watcher still tails; guarded by ``_lock``.
        self._watched: list[Job] = []

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "SchedulingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and (optionally) wait for queued/running ones.

        Closing and posting the worker sentinels happen under one lock
        acquisition, so a racing ``submit`` either lands before the
        sentinels (and its job drains normally) or observes the closed flag
        and raises — a job can never be enqueued behind the sentinels and
        silently hang.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()
            if self._watcher is not None:
                self._watcher.join(timeout=10)

    # ------------------------------------------------------------- submission
    _STORE_UNSET = object()

    def submit(
        self,
        spec: RunSpec,
        on_event: Callable[[Event], None] | None = None,
        *,
        priority: str = "interactive",
        store=_STORE_UNSET,
    ) -> Job:
        """Queue one spec for execution and return its :class:`Job`.

        ``on_event`` is invoked synchronously for every event the job emits:
        ``run_queued`` from this call, everything later from the worker
        thread.  An ``on_event`` exception during ``run_queued`` aborts the
        submission (the job is failed, unregistered, and the exception
        propagates).

        With a store on the local backend, the fingerprint is looked up
        here, once.  A hit is answered before this call returns: the job's
        one record is its first, already ``done``, its three events are
        appended in one write and then delivered from this thread, and no
        worker sees the job.  An ``on_event`` exception then propagates, but
        the job stays done.  A miss is queued and not looked up again.

        ``priority`` picks the job's queue lane (``"interactive"`` or
        ``"batch"``), with the same meaning on both backends.  ``store``
        overrides the service store for this job — ``None`` disables
        persistence, a path or :class:`ResultStore` redirects it (the
        gateway's per-tenant subtrees).

        Identical-spec submissions are **single-flighted**: while a job with
        the same spec fingerprint (and store) is queued or running, a new
        submission does not execute — it waits on the in-flight job, shares
        its result and reports ``store_hit`` — so a stampede of identical
        sweeps costs one solve.  Under ``backend="fabric"`` the arbitration
        moves into the work queue's on-disk in-flight index (leader/follower
        tasks), so the dedup spans every submitting process *and* tenant
        sharing one results tier, not just this service instance.  Record
        I/O happens outside the service lock, so ``job()``/``jobs()``
        inspection never blocks on disk.
        """
        if not isinstance(spec, RunSpec):
            raise TypeError(f"submit() expects a RunSpec, got {type(spec).__name__}")
        if priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {', '.join(PRIORITIES)}, got {priority!r}"
            )
        job_store = self.store if store is self._STORE_UNSET else store
        if isinstance(job_store, (str, Path)):
            job_store = ResultStore(job_store)
        if self.backend == "fabric" and job_store is None:
            raise ValueError(
                "backend='fabric' jobs need a result store: workers deliver "
                "envelopes and event logs through it"
            )
        fingerprint = spec_fingerprint(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a shut-down SchedulingService")
        stored = None
        # Fabric workers look the store up themselves (worker-side hits).
        if job_store is not None and self.backend == "local":
            try:
                stored = job_store.get(spec, fingerprint)
            except (OSError, ValueError):
                # An unreadable envelope: the worker's lookup raises it again
                # and fails the job with it, as for any execution error.
                pass
        if job_store is not None:
            # The first record mints the id: a hit's is already terminal and
            # counts its three events, a miss's counts run_queued.
            hit = stored is not None
            job_id = job_store.record_job(
                job_record(
                    None, JobState.DONE if hit else JobState.QUEUED, spec.to_dict(),
                    fingerprint, priority, store_hit=hit, num_events=3 if hit else 1,
                )
            )
        else:
            with self._lock:
                self._counter += 1
                job_id = f"job-{self._counter:06d}-{fingerprint[:12]}"
        job = Job(self, job_id, spec, fingerprint, job_store, on_event, priority)
        if stored is not None:
            self._answer_hit(job, stored)
            return job
        with job._lock:
            queued, channels = job._append(
                RunQueued, kind=spec.kind, spec_fingerprint=fingerprint
            )
        # Record, log, then emit.  A fabric worker continues the on-disk
        # log's numbering, so run_queued (seq 0) lands before the task is
        # enqueued.
        if job_store is not None:
            job_store.record_events(job.id, [queued])
        try:
            job._deliver(queued, channels)
        except BaseException:
            # The subscriber died before the job ever queued: fail it without
            # registering, so nothing waits on a job that will never run.
            try:
                self._finish(
                    job,
                    JobState.FAILED,
                    error=JobCancelled(f"job {job.id} aborted during run_queued emission"),
                )
            except Exception:
                pass  # the same broken subscriber also rejects run_failed
            raise
        with self._lock:
            accepted = not self._closed
            if accepted:
                self._jobs[job.id] = job
            # Fabric jobs single-flight in the work queue instead.
            if accepted and self.backend == "local":
                leader = self._inflight.get(job._flight_key)
                if leader is not None and not leader.done:
                    leader._followers.append(job)  # single-flight: wait on it
                else:
                    self._inflight[job._flight_key] = job
                    self._queue.put(job)
        if not accepted:
            # Lost the race against shutdown(): the sentinels are already
            # posted, so this job must not be enqueued.  Cancel it so event
            # streams drain and the record is terminal.
            self._finish(
                job, JobState.CANCELLED, message="service shut down during submission"
            )
            raise RuntimeError("cannot submit to a shut-down SchedulingService")
        if self.backend == "fabric":
            self._enqueue_fabric(job)
        return job

    def _answer_hit(self, job: Job, result: RunResult) -> None:
        """Finish a store hit found at submit, on the submitting thread."""
        with job._lock:
            opening = (
                job._append(
                    RunQueued, kind=job.spec.kind, spec_fingerprint=job.fingerprint
                )[0],
                job._append(RunStarted)[0],
            )
            job.state = JobState.RUNNING
        with self._lock:
            self._jobs[job.id] = job
        self._finish(job, JobState.DONE, result=result, store_hit=True, opening=opening)

    def _enqueue_fabric(self, job: Job) -> None:
        """Hand one accepted job to the persistent work queue."""
        store = job._store
        tenant = store.job_prefix.rstrip("-")
        # Task paths must be absolute: workers run with their own cwd, and a
        # relative --store would make them write envelopes somewhere else.
        results_root = (
            None
            if store.results_root == store.root
            else str(store.resolved_results_root)
        )
        task = self._fabric.enqueue(
            job.spec.to_dict(),
            job.fingerprint,
            job_id=job.id,
            store_root=str(Path(store.root).resolve()),
            results_root=results_root,
            job_prefix=store.job_prefix,
            tenant=tenant,
            priority=job.priority,
        )
        job._task_id = task["task_id"]
        with self._lock:
            self._watched.append(job)
            if self._watcher is None or not self._watcher.is_alive():
                self._watcher = threading.Thread(
                    target=self._watch_fabric, name="repro-fabric-watch", daemon=True
                )
                self._watcher.start()

    # -------------------------------------------------------------- inspection
    def job(self, job_id: str) -> Job:
        """Look up a job of this service instance by id."""
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(
                    f"unknown job {job_id!r}; known: {', '.join(sorted(self._jobs)) or 'none'}"
                )
            return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """Every job submitted to this service, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    # -------------------------------------------------------------- lifecycle
    def _finish(
        self,
        job: Job,
        state: JobState,
        *,
        result: RunResult | None = None,
        store_hit: bool = False,
        error: BaseException | None = None,
        error_type: str | None = None,
        message: str | None = None,
        persisted: bool = False,
        opening: tuple[Event, ...] = (),
    ) -> bool:
        """The one terminal transition of every job.

        In order: set the state, append the terminal event (``run_finished``
        for ``DONE``, else ``run_failed`` carrying ``error_type`` and
        ``message``, which default to ``error``'s), write the record, append
        the event to the log, deliver the event, release ``result()``
        waiters, settle single-flight followers.  ``persisted`` marks an
        event tailed from a fabric log: the worker wrote the record before
        appending the line, so both are on disk already.  ``opening`` holds
        logged events not yet persisted or delivered of a store hit answered
        at submit, whose first record was terminal already: no record is
        written, and they are appended in the same write as the terminal
        event and delivered before it.  Returns ``False`` (and does nothing)
        when the job is already terminal, or is a cancel of a started job.
        """
        if state is JobState.DONE:
            cls, fields = RunFinished, {"store_hit": store_hit, "result": result.to_dict()}
        else:
            cls, fields = RunFailed, {
                "error_type": error_type
                or (JobCancelled.__name__ if error is None else type(error).__name__),
                "error_message": str(error) if message is None else message,
            }
        with job._lock:
            if job.done or (state is JobState.CANCELLED and job.state is not JobState.QUEUED):
                return False
            job.state, job.error = state, error
            job._result, job.store_hit = result, store_hit
            event, channels = job._append(cls, **fields)
            # Persisted under the lock, so a subscriber's replay never holds
            # the terminal event before it is on disk.
            try:
                if opening:  # a hit answered at submit: its record is on disk
                    job._store.record_events(job.id, [*opening, event])
                elif not persisted:
                    self._persist(job, [event])
                failure = None
            except BaseException as exc:
                failure = exc
        try:
            if failure is not None:
                raise failure
            for early in opening:
                job._deliver(early, [])  # logged before any subscriber could join
            job._deliver(event, channels)
        finally:
            job._done.set()
            self._settle_followers(job)
        return True

    def _persist(self, job: Job, events: list[Event]) -> None:
        """Write ``job``'s record, then append ``events`` in one write."""
        store = job._store
        if store is None:
            return
        record = job.to_dict()
        if job._task_id is not None:
            # A fabric job shares its record with workers: keep the
            # worker/task fields an attempt wrote.
            record = {**(store.load_job(job.id) or {}), **record}
        store.record_job(record)
        store.record_events(job.id, events)

    # --------------------------------------------------------------- execution
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SHUTDOWN:
                return
            try:
                self._execute_job(job)
            except BaseException:
                # Anything escaping is a subscriber blowing up on a terminal
                # event; the job is already finished — keep the worker alive.
                pass

    def _execute_job(self, job: Job) -> None:
        if not job._start():  # cancelled while queued
            return
        from repro.api import runner

        try:
            job._emit(RunStarted)
            # Submit counted this job's store lookup; a hit here means the
            # result landed while the job waited (another process, say).
            result, store_hit = runner.execute_job(
                job.spec,
                job.fingerprint,
                job._store,
                emit_layer=lambda payload: job._emit(LayerScheduled, **payload),
                count=False,
            )
        except BaseException as error:  # the error re-raises from Job.result
            self._finish(job, JobState.FAILED, error=error)
        else:
            self._finish(job, JobState.DONE, result=result, store_hit=store_hit)

    # ------------------------------------------------------------ fabric watch
    def _watch_fabric(self) -> None:
        """Tail fabric jobs' on-disk event logs into their local ``Job``s.

        Workers append the typed NDJSON events as they execute (possibly on
        another host); this thread re-emits each new line into the in-process
        :class:`Job`, so ``Job.events()`` subscribers and gateway streams see
        a fabric job exactly like a local one.  One watcher serves every
        fabric job of the service; it exits with the service.
        """
        while True:
            with self._lock:
                if self._closed:
                    return
                jobs = [job for job in self._watched if not job.done]
                self._watched = jobs
            for job in jobs:
                try:
                    self._poll_fabric_job(job)
                except BaseException:
                    # A subscriber blowing up on a re-emitted event must not
                    # kill the watcher for every other job.
                    pass
            time.sleep(self.FABRIC_POLL_INTERVAL)

    def _poll_fabric_job(self, job: Job) -> None:
        """Apply any new event-log lines (and dead-letter state) to ``job``.

        Every event of ``job``'s in-memory log is on disk: new lines start at its length.
        """
        for payload in job._store.read_events(job.id, start=len(job.event_log)):
            self._apply_fabric_event(job, event_from_dict(payload))
            if job.done:
                return
        task = self._fabric.load_task(job._task_id)
        if task is not None and task["state"] == "dead":
            # The queue dead-lettered it: no worker will ever emit a terminal
            # event, so fail the job here (its record and log included).
            error = task.get("error") or {}
            self._fail_fabric_job(
                job,
                error.get("type", "LeaseExpired"),
                error.get("message", "task was dead-lettered"),
            )

    def _apply_fabric_event(self, job: Job, event: Event) -> None:
        if isinstance(event, RunFinished):
            self._finish(
                job,
                JobState.DONE,
                result=RunResult.from_dict(event.result),
                store_hit=event.store_hit,
                persisted=True,
            )
        elif isinstance(event, RunFailed):
            self._fail_fabric_job(
                job, event.error_type, event.error_message, persisted=True
            )
        else:
            if isinstance(event, RunStarted):
                job._start()
            job._emit(type(event), persisted=True, **event.payload())

    def _fail_fabric_job(
        self, job: Job, error_type: str, message: str, persisted: bool = False
    ) -> None:
        self._finish(
            job,
            JobState.FAILED,
            error=RuntimeError(f"{error_type}: {message}"),
            error_type=error_type,
            message=message,
            persisted=persisted,
        )

    # ----------------------------------------------------------- single-flight
    def _settle_followers(self, leader: Job) -> None:
        """Release jobs deduplicated onto ``leader`` once it turns terminal.

        A DONE leader completes its followers in place (they share the
        result object and report ``store_hit``); a failed or cancelled
        leader re-queues them, so a duplicate submission is never poisoned
        by its leader's cancellation.
        """
        with self._lock:
            if self._inflight.get(leader._flight_key) is leader:
                del self._inflight[leader._flight_key]
            followers = list(leader._followers)
            leader._followers.clear()
        if not followers:
            return
        if leader.state is JobState.DONE:
            for follower in followers:
                try:
                    self._complete_follower(follower, leader)
                except BaseException:
                    # A subscriber blowing up on one follower's terminal
                    # event must not strand the remaining followers.
                    pass
            return
        for follower in followers:
            with self._lock:
                current = self._inflight.get(follower._flight_key)
                if current is not None and not current.done:
                    current._followers.append(follower)
                else:
                    self._inflight[follower._flight_key] = follower
                    self._queue.put(follower)

    def _complete_follower(self, follower: Job, leader: Job) -> None:
        """Finish ``follower`` with its leader's result, store-hit style."""
        if not follower._start():  # cancelled while waiting
            return
        try:
            follower._emit(RunStarted)
        except BaseException:
            pass  # a dead subscriber must not lose the shared result
        self._finish(follower, JobState.DONE, result=leader._result, store_hit=True)
