"""End-to-end tests of ``backend="fabric"``: service, queue and worker.

The service runs with **zero in-process workers**; a :class:`FabricWorker`
drains the shared queue from a thread of this test process (the same code a
``repro worker`` subprocess runs — process isolation itself is covered by
``test_fabric_recovery``).  Asserted here: the job lifecycle and event
stream match local mode line for line, resubmission is a store hit without
execution, queue-level single-flight dedups concurrent identical submits,
cancellation wins only while a task is still pending, and dead-lettered
tasks surface as failed jobs.
"""

import json
import threading
import time

import pytest

from repro.api import RunSpec, SchedulingService, run, spec_fingerprint
from repro.api.service import JobState, job_record
from repro.api.store import ResultStore
from repro.cli import main as cli_main
from repro.fabric.queue import MAX_ATTEMPTS, TaskState, WorkQueue
from repro.fabric.worker import FabricWorker

SCHEDULE_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}


def normalize_times(obj):
    """Zero wall-clock float fields (solve times vary run to run)."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if "time" in key and isinstance(value, float) else normalize_times(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [normalize_times(item) for item in obj]
    return obj


@pytest.fixture
def fabric(tmp_path):
    """A fabric-backend service plus one in-thread worker, torn down cleanly."""
    service = SchedulingService(
        store=tmp_path / "store",
        backend="fabric",
        fabric_root=tmp_path / "fabric",
    )
    worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield service, worker
    finally:
        worker.stop()
        thread.join(timeout=10)
        service.shutdown()


class TestFabricBackend:
    def test_requires_a_fabric_root(self, tmp_path):
        with pytest.raises(ValueError, match="fabric_root"):
            SchedulingService(store=tmp_path / "store", backend="fabric")

    def test_rejects_unknown_backends(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            SchedulingService(store=tmp_path / "store", backend="cloud")

    def test_submit_without_a_store_is_rejected(self, tmp_path):
        service = SchedulingService(backend="fabric", fabric_root=tmp_path / "fabric")
        try:
            with pytest.raises(ValueError, match="result store"):
                service.submit(RunSpec.from_dict(SCHEDULE_SPEC), store=None)
        finally:
            service.shutdown()

    def test_job_completes_through_an_external_worker(self, fabric):
        service, worker = fabric
        job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
        result = job.result(timeout=120)
        assert job.state is JobState.DONE
        assert job.store_hit is False
        assert result.data["succeeded"] is True
        # The event stream reads exactly like a local job's.
        kinds = [type(event).__name__ for event in job.events()]
        assert kinds[0] == "RunQueued"
        assert kinds[1] == "RunStarted"
        assert kinds[-1] == "RunFinished"
        assert [event.seq for event in job.events()] == list(range(len(kinds)))

    def test_envelope_matches_local_run(self, fabric):
        service, _ = fabric
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fabric_result = service.submit(spec).result(timeout=120)
        local_result = run(RunSpec.from_dict(SCHEDULE_SPEC))
        assert normalize_times(fabric_result.to_dict()) == normalize_times(
            local_result.to_dict()
        )

    def test_resubmission_is_a_store_hit(self, fabric):
        service, _ = fabric
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        first = service.submit(spec)
        first.result(timeout=120)
        second = service.submit(spec)
        second.result(timeout=120)
        assert second.store_hit is True
        assert second.result().to_dict() == first.result().to_dict()

    def test_on_disk_record_and_event_log_are_complete(self, fabric):
        service, _ = fabric
        job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
        job.result(timeout=120)
        store = service.store
        deadline = time.time() + 10
        while time.time() < deadline:
            record = store.load_job(job.id)
            if record is not None and record["state"] == "done":
                break
            time.sleep(0.02)
        assert record["state"] == "done"
        assert record["worker"] == "w1"
        assert record["task_id"].startswith("task-")
        lines = store.events_path(job.id).read_text().splitlines()
        events = [json.loads(line)["event"] for line in lines]
        assert events[0] == "run_queued"
        assert events[-1] == "run_finished"
        assert [json.loads(line)["seq"] for line in lines] == list(range(len(lines)))

    def test_enqueued_task_paths_are_absolute(self, tmp_path, monkeypatch):
        # Workers run with their own cwd: a task carrying the service's
        # *relative* --store path would make them write envelopes and event
        # logs into the wrong tree entirely.
        monkeypatch.chdir(tmp_path)
        service = SchedulingService(
            store="rel-store", backend="fabric", fabric_root="rel-fabric"
        )
        try:
            service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            (task,) = WorkQueue(tmp_path / "rel-fabric").tasks()
            assert task["store_root"] == str(tmp_path / "rel-store")
        finally:
            service.shutdown()

    def test_queue_single_flight_dedups_concurrent_submits(self, tmp_path):
        # Submit twice BEFORE any worker exists: the queue makes the second
        # task a follower, and once the leader completes, the follower is
        # served from the shared store — one solve total.
        service = SchedulingService(
            store=tmp_path / "store",
            backend="fabric",
            fabric_root=tmp_path / "fabric",
        )
        try:
            spec = RunSpec.from_dict(SCHEDULE_SPEC)
            first = service.submit(spec)
            second = service.submit(spec)
            queue = WorkQueue(tmp_path / "fabric")
            tasks = queue.tasks()
            assert tasks[0]["leader"] is None
            assert tasks[1]["leader"] == tasks[0]["task_id"]

            worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                first.result(timeout=120)
                second.result(timeout=120)
            finally:
                worker.stop()
                thread.join(timeout=10)
            assert first.store_hit is False
            assert second.store_hit is True  # completed without executing
            assert first.result().to_dict() == second.result().to_dict()
        finally:
            service.shutdown()

    def test_cancel_before_any_worker_claims(self, tmp_path):
        service = SchedulingService(
            store=tmp_path / "store",
            backend="fabric",
            fabric_root=tmp_path / "fabric",
        )
        try:
            job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            assert job.cancel() is True
            assert job.state is JobState.CANCELLED
            queue = WorkQueue(tmp_path / "fabric")
            [task] = queue.tasks()
            assert task["state"] == TaskState.CANCELLED
            assert queue.claim("w1") is None
        finally:
            service.shutdown()

    def test_cancel_after_completion_is_refused(self, fabric):
        service, _ = fabric
        job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
        job.result(timeout=120)
        assert job.cancel() is False
        assert job.state is JobState.DONE

    def test_dead_lettered_task_fails_the_job(self, tmp_path):
        service = SchedulingService(
            store=tmp_path / "store",
            backend="fabric",
            fabric_root=tmp_path / "fabric",
        )
        try:
            job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            # Simulate workers dying mid-claim until the queue gives up: a
            # short-TTL queue handle claims without ever heartbeating.
            queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
            for _ in range(MAX_ATTEMPTS):
                claim = queue.claim("doomed")
                assert claim is not None
                time.sleep(0.05)
                queue.reclaim_expired(sweeper="test")
            with pytest.raises(RuntimeError, match="LeaseExpired"):
                job.result(timeout=30)
            assert job.state is JobState.FAILED
            record = service.store.load_job(job.id)
            assert record["state"] == "failed"
            assert record["error"]["type"] == "RuntimeError"
        finally:
            service.shutdown()

    def test_failing_spec_fails_the_job_with_the_worker_error(self, fabric):
        service, _ = fabric
        bad = RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {"layers": ["3_4_8_16_1"]},
                "scheduler": {"name": "no-such-scheduler"},
            }
        )
        job = service.submit(bad)
        with pytest.raises(Exception):
            job.result(timeout=120)
        assert job.state is JobState.FAILED
        assert "no-such-scheduler" in str(job.error)


def queued_record(spec: RunSpec, fingerprint: str) -> dict:
    """A queued job's first record, without an id: ``record_job`` mints one."""
    return job_record(None, JobState.QUEUED, spec.to_dict(), fingerprint, "interactive")


class TestWorkerUnit:
    def test_worker_runs_max_tasks_then_exits(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "fabric")
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fingerprint = spec_fingerprint(spec)
        job_id = store.record_job(queued_record(spec, fingerprint))
        queue.enqueue(
            spec.to_dict(), fingerprint, job_id=job_id, store_root=str(store.root)
        )
        worker = FabricWorker(
            tmp_path / "fabric", worker_id="w1", poll_interval=0.01, max_tasks=1
        )
        assert worker.run() == 0
        assert worker.tasks_done == 1
        assert store.load(fingerprint) is not None
        assert store.load_job(job_id)["state"] == "done"

    def test_store_hit_task_completes_without_executing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        fingerprint = spec_fingerprint(spec)
        store.put(run(spec), fingerprint)
        queue = WorkQueue(tmp_path / "fabric")
        job_id = store.record_job(queued_record(spec, fingerprint))
        queue.enqueue(
            spec.to_dict(), fingerprint, job_id=job_id, store_root=str(store.root)
        )
        worker = FabricWorker(
            tmp_path / "fabric", worker_id="w1", poll_interval=0.01, max_tasks=1
        )
        worker.run()
        record = store.load_job(job_id)
        assert record["state"] == "done"
        assert record["store_hit"] is True
        [task] = queue.tasks()
        assert task["store_hit"] is True

    def test_worker_records_the_terminal_state_before_appending_the_event(
        self, tmp_path, monkeypatch
    ):
        # The service releases Job.result() when it reads the terminal line,
        # so the record must already be terminal by the time it is appended.
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "fabric")
        good = RunSpec.from_dict(SCHEDULE_SPEC)
        bad = RunSpec.from_dict({**SCHEDULE_SPEC, "scheduler": {"name": "no-such"}})
        for spec in (good, bad):
            fingerprint = spec_fingerprint(spec)
            queue.enqueue(
                spec.to_dict(),
                fingerprint,
                job_id=store.record_job(queued_record(spec, fingerprint)),
                store_root=str(store.root),
            )
        seen = []
        original = ResultStore.record_events

        def spying_record_events(self, job_id, events):
            events = list(events)
            for event in events:
                if event.KIND in ("run_finished", "run_failed"):
                    seen.append((event.KIND, store.load_job(job_id)["state"]))
            return original(self, job_id, events)

        monkeypatch.setattr(ResultStore, "record_events", spying_record_events)
        worker = FabricWorker(
            tmp_path / "fabric", worker_id="w1", poll_interval=0.01, max_tasks=2
        )
        worker.run()
        assert sorted(seen) == [("run_failed", "failed"), ("run_finished", "done")]


#: Out-of-range worker intervals: (constructor kwargs, CLI flags, message).
BAD_INTERVALS = [
    ({"poll_interval": -1}, ["--poll-interval", "-1"], "poll_interval must be > 0"),
    ({"poll_interval": 0}, ["--poll-interval", "0"], "poll_interval must be > 0"),
    (
        {"lease_ttl": 10, "heartbeat_interval": 10},
        ["--lease-ttl", "10", "--heartbeat-interval", "10"],
        "heartbeat_interval must be in",
    ),
    ({"heartbeat_interval": 45}, ["--heartbeat-interval", "45"], "heartbeat_interval must be in"),
    ({"heartbeat_interval": 0}, ["--heartbeat-interval", "0"], "heartbeat_interval must be in"),
    ({"lease_ttl": 0}, ["--lease-ttl", "0"], "lease_ttl must be > 0"),
]
BAD_INTERVAL_IDS = [
    "poll-negative",
    "poll-zero",
    "heartbeat-at-ttl",
    "heartbeat-above-ttl",
    "heartbeat-zero",
    "ttl-zero",
]


class TestWorkerIntervals:
    """Intervals that would busy-poll or let a held lease lapse are refused
    before the worker starts (no test here runs a worker loop)."""

    @pytest.mark.parametrize("kwargs, flags, message", BAD_INTERVALS, ids=BAD_INTERVAL_IDS)
    def test_constructor_rejects(self, tmp_path, kwargs, flags, message):
        with pytest.raises(ValueError, match=message):
            FabricWorker(tmp_path / "fabric", worker_id="w1", **kwargs)

    @pytest.mark.parametrize("kwargs, flags, message", BAD_INTERVALS, ids=BAD_INTERVAL_IDS)
    def test_cli_exits_1_with_an_error_line(self, tmp_path, capsys, kwargs, flags, message):
        assert cli_main(["worker", str(tmp_path / "fabric"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_in_range_intervals_are_kept(self, tmp_path):
        worker = FabricWorker(
            tmp_path / "fabric", lease_ttl=10, heartbeat_interval=9.5, poll_interval=0.01
        )
        assert (worker.heartbeat_interval, worker.poll_interval) == (9.5, 0.01)
        assert FabricWorker(tmp_path / "fabric", lease_ttl=9).heartbeat_interval == 3
