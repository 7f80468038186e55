"""Unit tests for the fabric work queue: claims, leases, reclaim, dedup.

Everything here drives :class:`repro.fabric.queue.WorkQueue` directly with
toy specs — no scheduler ever runs — so the coordination invariants (atomic
claim, lease expiry and dead-lettering, single-flight leadership, weighted
priority, journal crash-tolerance) are tested in milliseconds.
"""

import json
import threading

import pytest

from repro.api.service import INTERACTIVE_WEIGHT
from repro.fabric.queue import MAX_ATTEMPTS, Claim, TaskState, WorkQueue
from repro.io_utils import append_ndjson, read_ndjson

SPEC = {"kind": "schedule", "workload": {"layers": ["3_4_8_16_1"]}}


def enqueue(queue, fingerprint="f" * 40, job_id="job-000001-abc", **kwargs):
    kwargs.setdefault("store_root", str(queue.root.parent / "store"))
    return queue.enqueue(SPEC, fingerprint, job_id=job_id, **kwargs)


class TestLifecycle:
    def test_enqueue_claim_complete_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        task = enqueue(queue)
        assert task["state"] == TaskState.PENDING
        assert task["attempts"] == 0

        claim = queue.claim("w1")
        assert claim is not None
        assert claim.task_id == task["task_id"]
        assert claim.task["state"] == TaskState.RUNNING
        assert claim.task["attempts"] == 1
        assert claim.lease_path.exists()

        assert queue.complete(claim, store_hit=False) is True
        final = queue.load_task(task["task_id"])
        assert final["state"] == TaskState.DONE
        assert not claim.lease_path.exists()
        events = [line["event"] for line in queue.read_journal()]
        assert events == ["enqueued", "claimed", "completed"]

    def test_claim_returns_none_on_empty_queue(self, tmp_path):
        assert WorkQueue(tmp_path / "fabric").claim("w1") is None

    def test_lease_arbitration_prevents_double_claim(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        enqueue(queue)
        first = queue.claim("w1")
        assert first is not None
        # The task is leased: a second worker (even via a fresh queue
        # instance, i.e. another process) sees nothing claimable.
        other = WorkQueue(tmp_path / "fabric")
        assert other.claim("w2") is None

    def test_concurrent_claims_hand_out_each_task_once(self, tmp_path):
        queue_path = tmp_path / "fabric"
        setup = WorkQueue(queue_path)
        for index in range(8):
            enqueue(setup, fingerprint=f"{index:040d}", job_id=f"job-{index:06d}-x")
        claimed, lock = [], threading.Lock()

        def drain(worker_id):
            queue = WorkQueue(queue_path)
            while True:
                claim = queue.claim(worker_id)
                if claim is None:
                    return
                with lock:
                    claimed.append(claim.task_id)
                queue.complete(claim)

        threads = [
            threading.Thread(target=drain, args=(f"w{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == sorted(set(claimed))
        assert len(claimed) == 8

    def test_fail_records_error_and_settles(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        task = enqueue(queue)
        claim = queue.claim("w1")
        assert queue.fail(claim, ValueError("boom")) is True
        final = queue.load_task(task["task_id"])
        assert final["state"] == TaskState.FAILED
        assert final["error"] == {"type": "ValueError", "message": "boom"}


class TestLeases:
    def test_heartbeat_extends_deadline(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric", lease_ttl=5.0)
        enqueue(queue)
        claim = queue.claim("w1")
        before = json.loads(claim.lease_path.read_text())["deadline"]
        assert queue.heartbeat(claim) is True
        after = json.loads(claim.lease_path.read_text())["deadline"]
        assert after >= before

    def test_expired_lease_is_reclaimed_to_pending(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
        task = enqueue(queue)
        claim = queue.claim("w1")
        import time

        time.sleep(0.05)
        assert queue.reclaim_expired(sweeper="test") == [task["task_id"]]
        restored = queue.load_task(task["task_id"])
        assert restored["state"] == TaskState.PENDING
        assert restored["attempts"] == 1  # the crashed attempt counts
        # The demoted claim can no longer renew or complete.
        assert queue.heartbeat(claim) is False
        assert queue.complete(claim) is False
        assert queue.load_task(task["task_id"])["state"] == TaskState.PENDING

    def test_unexpired_lease_survives_a_sweep(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric", lease_ttl=60.0)
        enqueue(queue)
        claim = queue.claim("w1")
        assert queue.reclaim_expired(sweeper="test") == []
        assert claim.lease_path.exists()
        assert queue.heartbeat(claim) is True

    def test_dead_letter_after_max_attempts(self, tmp_path):
        import time

        queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
        task = enqueue(queue)
        assert task["max_attempts"] == MAX_ATTEMPTS
        for attempt in range(MAX_ATTEMPTS):
            assert queue.load_task(task["task_id"])["state"] == TaskState.PENDING, attempt
            claim = queue.claim("w1")
            assert claim is not None
            time.sleep(0.05)
            queue.reclaim_expired(sweeper="test")
        final = queue.load_task(task["task_id"])
        assert final["state"] == TaskState.DEAD
        assert final["error"]["type"] == "LeaseExpired"
        assert queue.claim("w2") is None  # dead tasks are never re-dispatched
        assert "dead" in [line["event"] for line in queue.read_journal()]

    def test_dead_letter_reads_the_cap_from_the_task_record(self, tmp_path):
        import time

        queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
        task = enqueue(queue)
        # A task file written with another cap keeps it.
        queue._write_task({**task, "max_attempts": 1})
        assert queue.claim("w1") is not None
        time.sleep(0.05)
        queue.reclaim_expired(sweeper="test")
        assert queue.load_task(task["task_id"])["state"] == TaskState.DEAD

    def test_stale_lease_of_a_done_task_is_swept(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric", lease_ttl=0.01)
        task = enqueue(queue)
        claim = queue.claim("w1")
        queue.complete(claim)
        # Forge a leftover lease (e.g. a crash after the terminal write).
        queue.lease_path(task["task_id"]).write_text(
            json.dumps({"worker": "w1", "token": "t", "deadline": 0}) + "\n"
        )
        queue.reclaim_expired(sweeper="test")
        assert not queue.lease_path(task["task_id"]).exists()
        assert queue.load_task(task["task_id"])["state"] == TaskState.DONE


class TestCancellation:
    def test_cancel_pending_task(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        task = enqueue(queue)
        assert queue.cancel(task["task_id"]) is True
        assert queue.load_task(task["task_id"])["state"] == TaskState.CANCELLED
        assert queue.claim("w1") is None

    def test_cancel_loses_to_an_executing_worker(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        task = enqueue(queue)
        claim = queue.claim("w1")
        assert queue.cancel(task["task_id"]) is False
        assert queue.complete(claim) is True  # the worker still owns it

    def test_claim_lost_to_a_concurrent_cancel_is_void(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        task = enqueue(queue)
        record = queue.load_task(task["task_id"])
        record["state"] = TaskState.CANCELLED
        queue._write_task(record)
        assert queue.claim("w1") is None


class TestPriority:
    def test_interactive_overtakes_batch(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        batch = enqueue(queue, fingerprint="b" * 40, priority="batch")
        interactive = enqueue(queue, fingerprint="i" * 40, priority="interactive")
        first = queue.claim("w1")
        assert first.task_id == interactive["task_id"]
        second = queue.claim("w1")
        assert second.task_id == batch["task_id"]

    def test_batch_is_served_after_interactive_weight_claims(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        for index in range(INTERACTIVE_WEIGHT + 2):
            enqueue(queue, fingerprint=f"aa{index:038d}", priority="interactive")
        batch = enqueue(queue, fingerprint="b" * 40, priority="batch")
        order = []
        for _ in range(INTERACTIVE_WEIGHT + 3):
            claim = queue.claim("w1")
            order.append(claim.task_id)
            queue.complete(claim)
        # INTERACTIVE_WEIGHT interactive claims, then the batch task is
        # served (no starvation), then the remaining interactive backlog.
        assert order[INTERACTIVE_WEIGHT] == batch["task_id"]


class TestSingleFlight:
    def test_followers_wait_for_their_leader(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        leader = enqueue(queue, fingerprint="c" * 40, job_id="job-000001-abc")
        follower = enqueue(queue, fingerprint="c" * 40, job_id="job-000002-abc")
        assert leader["leader"] is None
        assert follower["leader"] == leader["task_id"]

        claim = queue.claim("w1")
        assert claim.task_id == leader["task_id"]
        # While the leader runs the follower stays unclaimable.
        assert queue.claim("w2") is None
        queue.complete(claim)
        # Leader terminal: the follower is released for (store-hit) pickup.
        second = queue.claim("w2")
        assert second is not None and second.task_id == follower["task_id"]

    def test_distinct_fingerprints_do_not_single_flight(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        first = enqueue(queue, fingerprint="d" * 40)
        second = enqueue(queue, fingerprint="e" * 40)
        assert first["leader"] is None and second["leader"] is None

    def test_flight_index_reopens_after_settlement(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        leader = enqueue(queue, fingerprint="c" * 40)
        queue.complete(queue.claim("w1"))
        # The flight settled: a later identical enqueue leads a new flight
        # (and will hit the shared store instead of re-executing).
        fresh = enqueue(queue, fingerprint="c" * 40, job_id="job-000003-abc")
        assert fresh["leader"] is None
        assert leader["task_id"] != fresh["task_id"]


class TestJournal:
    def test_torn_tail_line_is_skipped(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        enqueue(queue)
        with open(queue.journal_path, "a") as handle:
            handle.write('{"ts": 1.0, "event": "clai')  # killed mid-append
        lines = queue.read_journal()
        assert [line["event"] for line in lines] == ["enqueued"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        append_ndjson(path, {"event": "a"})
        with open(path, "a") as handle:
            handle.write("not json\n")
        append_ndjson(path, {"event": "b"})
        with pytest.raises(ValueError):
            read_ndjson(path)

    def test_validation_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path, lease_ttl=0)

    def test_stats_counts_states_and_lanes(self, tmp_path):
        queue = WorkQueue(tmp_path / "fabric")
        enqueue(queue, fingerprint="a" * 40, priority="batch")
        enqueue(queue, fingerprint="b" * 40)
        running = enqueue(queue, fingerprint="c" * 40)
        claim = queue.claim("w1")  # claims the first interactive task
        stats = queue.stats()
        assert stats["by_state"] == {"pending": 2, "running": 1}
        assert stats["pending_by_lane"] == {"interactive": 1, "batch": 1}
        assert stats["leases"] == 1
        del running, claim
