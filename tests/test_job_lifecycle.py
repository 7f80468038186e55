"""The job-lifecycle invariant, on both service backends.

Every event is appended to the job's log before it is delivered, and every
terminal transition persists, then emits, then signals.  So a subscriber
finds each event it is handed already on disk; whoever observes a job's
end — a subscriber handed the terminal event, or a caller that
``Job.result()`` releases — reads the terminal record from the store; and
the stored log equals the job's in-memory event log line for line.  Checked
for the done, failed, cancelled, store-hit, follower and (fabric-only)
dead-letter paths.  The fabric backend runs with zero in-process workers
and one :class:`FabricWorker` draining the queue from a thread of this
test process.
"""

import threading
import time

import pytest

from repro.api import RunSpec, SchedulingService, UnknownNameError
from repro.api.events import TERMINAL_EVENTS
from repro.api.service import JobCancelled, JobState
from repro.api.store import ResultStore
from repro.fabric.queue import MAX_ATTEMPTS, WorkQueue
from repro.fabric.worker import FabricWorker


def make_spec(max_attempts: int = 500, scheduler: str = "random") -> RunSpec:
    return RunSpec.from_dict(
        {
            "kind": "schedule",
            "workload": {"layers": ["3_4_8_16_1"]},
            "scheduler": {
                "name": scheduler,
                "options": {"num_valid": 2, "max_attempts": max_attempts},
            },
        }
    )


def stored(store: ResultStore, job_id: str) -> tuple[str, str | None]:
    """The stored record's state and the stored log's last event kind."""
    events = store.read_events(job_id)
    last = events[-1]["event"] if events else None
    return store.load_job(job_id)["state"], last


def on_disk(store: ResultStore, event) -> bool:
    """Whether ``event`` is in the stored log, at its ``seq``."""
    return store.read_events(event.job_id, start=event.seq)[:1] == [event.to_dict()]


class Observer:
    """An ``on_event`` subscriber that reads the store on every event."""

    def __init__(self, store: ResultStore):
        self.store = store
        self.delivered: dict[str, list[bool]] = {}  # per event: already on disk?
        self.at_terminal: dict[str, tuple[str, str]] = {}

    def __call__(self, event) -> None:
        self.delivered.setdefault(event.job_id, []).append(on_disk(self.store, event))
        if event.KIND in TERMINAL_EVENTS:
            self.at_terminal[event.job_id] = stored(self.store, event.job_id)


def assert_settled(store: ResultStore, observer: Observer, job) -> None:
    terminal = "run_finished" if job.state is JobState.DONE else "run_failed"
    expected = (job.state.value, terminal)
    assert observer.delivered[job.id] == [True] * len(job.event_log)
    assert observer.at_terminal[job.id] == expected
    assert stored(store, job.id) == expected
    assert store.read_events(job.id) == [event.to_dict() for event in job.event_log]


@pytest.fixture(params=["local", "fabric"])
def backend(request, tmp_path):
    """``(service, store, observer)`` with one executor on either backend."""
    store = ResultStore(tmp_path / "store")
    if request.param == "local":
        service = SchedulingService(max_workers=1, store=store)
        worker = None
    else:
        service = SchedulingService(
            store=store, backend="fabric", fabric_root=tmp_path / "fabric"
        )
        worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
    try:
        yield service, store, Observer(store)
    finally:
        if worker is not None:
            worker.stop()
            thread.join(timeout=30)
        service.shutdown()


@pytest.fixture
def gate(monkeypatch):
    """Hold every fresh execution until ``release`` is set."""
    import repro.api.runner as runner_module

    started, release = threading.Event(), threading.Event()
    original = runner_module.execute

    def gated_execute(spec, emit_layer=None, store=None):
        started.set()
        assert release.wait(60)
        return original(spec, emit_layer=emit_layer, store=store)

    monkeypatch.setattr(runner_module, "execute", gated_execute)
    yield started, release
    release.set()


class TestTerminalRecordInvariant:
    def test_done(self, backend):
        service, store, observer = backend
        streamed, at_stream_end = [], []

        job = service.submit(make_spec(), on_event=observer)

        def follow():
            for event in job.events(timeout=120):
                streamed.append(on_disk(store, event))
                if event.KIND in TERMINAL_EVENTS:
                    at_stream_end.append(stored(store, job.id))

        follower = threading.Thread(target=follow)
        follower.start()
        job.result(timeout=120)
        follower.join(timeout=120)
        assert job.state is JobState.DONE
        assert_settled(store, observer, job)
        assert streamed == [True] * len(job.event_log)
        assert at_stream_end == [("done", "run_finished")]

    def test_failed(self, backend):
        service, store, observer = backend
        job = service.submit(make_spec(scheduler="no-such-scheduler"), on_event=observer)
        with pytest.raises((UnknownNameError, RuntimeError)):
            job.result(timeout=120)
        assert job.state is JobState.FAILED
        assert_settled(store, observer, job)

    def test_cancelled(self, backend, gate):
        service, store, observer = backend
        started, release = gate
        running = service.submit(make_spec(301), on_event=observer)
        assert started.wait(60)  # the only executor is now busy
        queued = service.submit(make_spec(302), on_event=observer)
        assert queued.cancel() is True
        with pytest.raises(JobCancelled):
            queued.result(timeout=60)
        assert queued.state is JobState.CANCELLED
        assert_settled(store, observer, queued)
        release.set()
        running.result(timeout=120)
        assert_settled(store, observer, running)

    def test_store_hit(self, backend):
        service, store, observer = backend
        first = service.submit(make_spec(), on_event=observer)
        first.result(timeout=120)
        again = service.submit(make_spec(), on_event=observer)
        again.result(timeout=120)
        assert again.store_hit is True
        assert_settled(store, observer, first)
        assert_settled(store, observer, again)

    def test_follower(self, backend, gate):
        service, store, observer = backend
        started, release = gate
        leader = service.submit(make_spec(), on_event=observer)
        assert started.wait(60)
        follower = service.submit(make_spec(), on_event=observer)
        release.set()
        leader.result(timeout=120)
        follower.result(timeout=120)
        assert (leader.store_hit, follower.store_hit) == (False, True)
        assert_settled(store, observer, leader)
        assert_settled(store, observer, follower)


def test_dead_letter_fabric(tmp_path):
    store = ResultStore(tmp_path / "store")
    observer = Observer(store)
    service = SchedulingService(
        store=store, backend="fabric", fabric_root=tmp_path / "fabric"
    )
    try:
        job = service.submit(make_spec(), on_event=observer)
        # Workers that die mid-claim, until the queue gives up on the task.
        queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
        for _ in range(MAX_ATTEMPTS):
            assert queue.claim("doomed") is not None
            time.sleep(0.05)
            queue.reclaim_expired(sweeper="test")
        with pytest.raises(RuntimeError, match="LeaseExpired"):
            job.result(timeout=30)
        assert job.state is JobState.FAILED
        assert_settled(store, observer, job)
        seqs = [event["seq"] for event in store.read_events(job.id)]
        assert seqs == list(range(len(seqs)))
    finally:
        service.shutdown()
