"""Regression tests for the service/store races and crashes PR 7 fixed.

Each test pins one of the concrete failure modes the gateway work flushed
out of :mod:`repro.api.service` / :mod:`repro.api.store`:

* a 0-byte or truncated ``job-*.json`` crashed every ``load_jobs`` call
  (now: skip with :class:`StoreRecordWarning`);
* minting a job id re-globbed the whole jobs directory on every submit
  (now: cached next ordinal; the exclusive link of each job's first record
  still arbitrates across processes);
* identical specs submitted while the first was queued/running all executed
  (now: single-flight — followers wait and report ``store_hit``);
* ``submit`` racing ``shutdown`` could enqueue a job behind the worker
  sentinels and hang forever (now: either runs to completion or raises).
"""

import json
import os
import threading

import pytest

from repro.api import RunSpec
from repro.api.service import (
    JobCancelled,
    JobState,
    SchedulingService,
    job_record,
)
from repro.api.store import ResultStore, StoreRecordWarning, spec_fingerprint

SCHEDULE_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}


def first_record(fingerprint: str) -> dict:
    """A job's first record, without an id: ``record_job`` mints one."""
    return job_record(None, JobState.QUEUED, SCHEDULE_SPEC, fingerprint, "interactive")


def make_spec(max_attempts: int = 500) -> RunSpec:
    spec = json.loads(json.dumps(SCHEDULE_SPEC))
    spec["scheduler"]["options"]["max_attempts"] = max_attempts
    return RunSpec.from_dict(spec)


# ------------------------------------------------------- store record repair


class TestStoreRecordRepair:
    def test_empty_record_file_warns_and_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            job = service.submit(make_spec())
            job.result(timeout=120)
        # A crashed writer or a damaged disk leaves a 0-byte record behind.
        torn = store.jobs_dir / "job-000099-deadbeef0000.json"
        torn.write_bytes(b"")
        truncated = store.jobs_dir / "job-000100-deadbeef0000.json"
        truncated.write_text('{"job_id": "job-0001')  # mid-write crash

        with pytest.warns(StoreRecordWarning) as caught:
            records = store.load_jobs()
        assert len(caught) == 2
        assert [record["job_id"] for record in records] == [job.id]

        with pytest.warns(StoreRecordWarning):
            assert store.load_job("job-000099-deadbeef0000") is None
        with pytest.warns(StoreRecordWarning):
            assert store.load_job("job-000100-deadbeef0000") is None

    def test_placeholder_records_read_as_unknown_without_warning(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job_id = f"job-000001-{'f' * 12}"
        store.jobs_dir.mkdir(parents=True)
        (store.jobs_dir / f"{job_id}.json").write_text("{}\n")
        # The id placeholder ("{}") that older stores reserved ids with is
        # valid JSON but not a record — silently invisible, no warning.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.load_jobs() == []
            assert store.load_job(job_id) is None

    def test_repair_by_rewrite(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        torn = store.jobs_dir
        torn.mkdir(parents=True)
        (torn / "job-000001-cafecafecafe.json").write_bytes(b"")
        store.record_job({"job_id": "job-000001-cafecafecafe", "state": "done"})
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert store.load_job("job-000001-cafecafecafe")["state"] == "done"


# --------------------------------------------------------- ordinal allocation


class TestJobIdAllocation:
    def test_scan_happens_once_per_instance(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        fingerprint = "a" * 40
        scans = []
        original = ResultStore._scan_next_ordinal

        def counting_scan(self):
            scans.append(1)
            return original(self)

        monkeypatch.setattr(ResultStore, "_scan_next_ordinal", counting_scan)
        ids = [store.record_job(first_record(fingerprint)) for _ in range(50)]
        assert len(scans) == 1  # was: one full directory glob per submit
        assert ids == [f"job-{i:06d}-{fingerprint[:12]}" for i in range(1, 51)]

    def test_fresh_instance_resumes_after_existing_ids(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        fingerprint = "b" * 40
        for _ in range(3):
            first.record_job(first_record(fingerprint))
        second = ResultStore(tmp_path / "store")
        assert second.record_job(first_record(fingerprint)) == f"job-000004-{fingerprint[:12]}"

    def test_taken_id_makes_the_link_collide_and_retry(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        fingerprint = "e" * 40
        assert store.record_job(first_record(fingerprint)) == f"job-000001-{fingerprint[:12]}"
        # Another process mints job-000002 behind this instance's cached ordinal.
        taken = store.jobs_dir / f"job-000002-{fingerprint[:12]}.json"
        taken.write_text('{"job_id": "theirs"}\n')
        links = []
        link = os.link

        def counting_link(source, target):
            links.append(os.path.basename(target))
            return link(source, target)

        monkeypatch.setattr(os, "link", counting_link)
        job_id = store.record_job(first_record(fingerprint))
        assert job_id == f"job-000003-{fingerprint[:12]}"
        assert links == [taken.name, f"{job_id}.json"]  # collided once, then won
        assert taken.read_text() == '{"job_id": "theirs"}\n'  # never overwritten
        assert store.load_job(job_id)["job_id"] == job_id
        assert store.record_job(first_record(fingerprint)) == f"job-000004-{fingerprint[:12]}"
        assert sorted(os.listdir(store.jobs_dir)) == [
            f"job-00000{index}-{fingerprint[:12]}.json" for index in range(1, 5)
        ]  # no temp file left behind

    def test_link_arbitrates_between_instances(self, tmp_path):
        """Two store instances on one directory never mint the same id."""
        root = tmp_path / "store"
        stores = [ResultStore(root), ResultStore(root)]
        fingerprint = "c" * 40
        minted: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def mint(store):
            try:
                for _ in range(25):
                    job_id = store.record_job(first_record(fingerprint))
                    with lock:
                        minted.append(job_id)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=mint, args=(store,)) for store in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(minted) == 50
        assert len(set(minted)) == 50  # no collisions despite cached ordinals
        assert [record["job_id"] for record in ResultStore(root).load_jobs()] == sorted(minted)

    def test_prefix_scopes_the_namespace(self, tmp_path):
        root = tmp_path / "store"
        fingerprint = "d" * 40
        plain = ResultStore(root)
        acme = ResultStore(root, job_prefix="acme-")
        plain_id = plain.record_job(first_record(fingerprint))
        assert plain_id.startswith("job-000001-")
        acme_id = acme.record_job(first_record(fingerprint))
        assert acme_id == f"acme-job-000001-{fingerprint[:12]}"
        # Each namespace lists only its own records.
        assert [record["job_id"] for record in ResultStore(root).load_jobs()] == [plain_id]
        assert [record["job_id"] for record in acme.load_jobs()] == [acme_id]


# ------------------------------------------------------------- single-flight


class TestSingleFlight:
    def test_concurrent_identical_specs_execute_once(self, tmp_path, monkeypatch):
        import repro.api.runner as runner_module

        executions = []
        original = runner_module.execute
        release = threading.Event()

        def gated_execute(spec, emit_layer=None, store=None):
            executions.append(spec)
            release.wait(timeout=60)
            return original(spec, emit_layer=emit_layer, store=store)

        monkeypatch.setattr(runner_module, "execute", gated_execute)
        with SchedulingService(max_workers=2, store=tmp_path / "store") as service:
            spec = make_spec()
            leader = service.submit(spec)
            while not executions:  # leader is inside runner.execute
                leader.wait(timeout=0.01)
            followers = [service.submit(spec) for _ in range(3)]
            release.set()
            leader_result = leader.result(timeout=120)
            for follower in followers:
                assert follower.result(timeout=120) is leader_result  # shared
                assert follower.store_hit is True
                kinds = [event.KIND for event in follower.event_log]
                assert kinds == ["run_queued", "run_started", "run_finished"]
        assert len(executions) == 1  # was: every duplicate ran the scheduler
        assert leader.store_hit is False

    def test_single_flight_without_a_store(self):
        """Dedup also covers store-less services (flight key (None, fp))."""
        import repro.api.runner as runner_module

        with SchedulingService(max_workers=1) as service:
            spec = make_spec()
            jobs = [service.submit(spec) for _ in range(3)]
            results = [job.result(timeout=120) for job in jobs]
        assert results[1] is results[0] and results[2] is results[0]
        assert [job.store_hit for job in jobs] == [False, True, True]

    def test_different_stores_do_not_cross_share(self, tmp_path):
        """Tenant isolation: same spec, different stores → separate flights."""
        with SchedulingService(max_workers=2) as service:
            spec = make_spec()
            job_a = service.submit(spec, store=tmp_path / "tenant-a")
            job_b = service.submit(spec, store=tmp_path / "tenant-b")
            result_a = job_a.result(timeout=120)
            result_b = job_b.result(timeout=120)
        assert result_a is not result_b  # each tenant ran (or stored) its own
        assert job_a._flight_key != job_b._flight_key
        # Both runs are deterministic apart from wall-clock stats.
        outcome_a = result_a.data["outcomes"][0]
        outcome_b = result_b.data["outcomes"][0]
        assert outcome_a["layer"] == outcome_b["layer"]
        assert outcome_a["loop_nest"] == outcome_b["loop_nest"]

    def test_cancelled_leader_requeues_followers(self, tmp_path, monkeypatch):
        """A duplicate submission is never poisoned by its leader's cancel."""
        import repro.api.runner as runner_module

        gate = threading.Event()
        original = runner_module.execute

        def gated_execute(spec, emit_layer=None, store=None):
            gate.wait(timeout=60)
            return original(spec, emit_layer=emit_layer, store=store)

        monkeypatch.setattr(runner_module, "execute", gated_execute)
        with SchedulingService(max_workers=1) as service:
            blocker = service.submit(make_spec(max_attempts=400))  # occupies the worker
            spec = make_spec()
            leader = service.submit(spec)
            follower = service.submit(spec)
            assert leader.cancel() is True  # still queued behind the blocker
            gate.set()
            result = follower.result(timeout=120)
            with pytest.raises(JobCancelled):
                leader.result(timeout=1)
        assert follower.state is JobState.DONE
        assert result.data["succeeded"] is True

    def test_cancelled_follower_stays_cancelled(self, tmp_path, monkeypatch):
        import repro.api.runner as runner_module

        gate = threading.Event()
        original = runner_module.execute

        def gated_execute(spec, emit_layer=None, store=None):
            gate.wait(timeout=60)
            return original(spec, emit_layer=emit_layer, store=store)

        monkeypatch.setattr(runner_module, "execute", gated_execute)
        with SchedulingService(max_workers=1) as service:
            spec = make_spec()
            leader = service.submit(spec)
            follower = service.submit(spec)
            assert follower.cancel() is True
            gate.set()
            leader.result(timeout=120)
            with pytest.raises(JobCancelled):
                follower.result(timeout=1)
        assert follower.state is JobState.CANCELLED
        assert follower.store_hit is False


# -------------------------------------------------------------- races


class TestServiceRaces:
    def test_cancel_vs_dequeue(self, monkeypatch):
        """A job cancelled as the worker dequeues it never executes twice.

        Whatever side wins the race, the job ends in exactly one terminal
        state and the worker stays alive for subsequent jobs.
        """
        import repro.api.runner as runner_module

        executed = []
        original = runner_module.execute

        def tracking_execute(spec, emit_layer=None, store=None):
            executed.append(spec)
            return original(spec, emit_layer=emit_layer, store=store)

        monkeypatch.setattr(runner_module, "execute", tracking_execute)
        with SchedulingService(max_workers=1) as service:
            for attempt in range(20):
                job = service.submit(make_spec(max_attempts=300 + attempt))
                cancelled = job.cancel()
                if cancelled:
                    with pytest.raises(JobCancelled):
                        job.result(timeout=120)
                    assert job.state is JobState.CANCELLED
                else:
                    job.result(timeout=120)
                    assert job.state is JobState.DONE
            # The worker survived every race: one fresh job still runs.
            final = service.submit(make_spec(max_attempts=999))
            assert final.result(timeout=120).data["succeeded"] is True

    def test_submit_vs_shutdown_never_hangs(self):
        """Racing submit against shutdown either runs the job or raises.

        Before the fix, a submit could enqueue its job *behind* the posted
        shutdown sentinels; the workers exited first and ``job.result()``
        hung forever.
        """
        for _ in range(15):
            service = SchedulingService(max_workers=2)
            outcome: dict = {}
            barrier = threading.Barrier(2)

            def submitter():
                barrier.wait()
                try:
                    outcome["job"] = service.submit(make_spec())
                except RuntimeError as error:
                    outcome["refused"] = error

            def stopper():
                barrier.wait()
                service.shutdown(wait=True)

            threads = [
                threading.Thread(target=submitter),
                threading.Thread(target=stopper),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            if "job" in outcome:
                job = outcome["job"]
                # Accepted: the job must reach a terminal state — never hang.
                assert job.wait(timeout=120) is True
                assert job.done
            else:
                assert "refused" in outcome
            service.shutdown(wait=True)

    def test_submit_after_shutdown_raises(self):
        service = SchedulingService(max_workers=1)
        service.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="shut-down"):
            service.submit(make_spec())

    def test_record_io_happens_outside_the_service_lock(self, tmp_path):
        """``service.jobs()`` never blocks on another job's disk writes."""
        store = ResultStore(tmp_path / "store")
        slow = threading.Event()
        original = ResultStore.record_job

        def slow_record_job(self, record):
            slow.set()
            threading.Event().wait(0.2)  # simulate slow disk
            return original(self, record)

        store.record_job = slow_record_job.__get__(store)
        with SchedulingService(max_workers=1, store=store) as service:
            thread = threading.Thread(target=service.submit, args=(make_spec(),))
            thread.start()
            assert slow.wait(timeout=10)
            # While submit is writing records, the service lock is free.
            import time

            start = time.monotonic()
            service.jobs()
            assert time.monotonic() - start < 0.15
            thread.join(timeout=120)


# ---------------------------------------------------------- per-job stores


class TestPerJobStore:
    def test_submit_store_override(self, tmp_path):
        service_store = tmp_path / "service-store"
        override_store = tmp_path / "override-store"
        with SchedulingService(max_workers=1, store=service_store) as service:
            default_job = service.submit(make_spec())
            override_job = service.submit(make_spec(max_attempts=450), store=override_store)
            unstored_job = service.submit(make_spec(max_attempts=460), store=None)
            for job in (default_job, override_job, unstored_job):
                job.result(timeout=120)
        assert ResultStore(service_store).load_job(default_job.id)["state"] == "done"
        assert ResultStore(override_store).load_job(override_job.id)["state"] == "done"
        # store=None: nothing persisted anywhere, in-memory id namespace.
        assert unstored_job.id.startswith("job-")
        assert ResultStore(service_store).load_job(unstored_job.id) is None
        assert ResultStore(override_store).load_job(unstored_job.id) is None

    def test_store_hit_across_stores_is_independent(self, tmp_path):
        spec = make_spec()
        with SchedulingService(max_workers=1) as service:
            first = service.submit(spec, store=tmp_path / "store-a")
            first.result(timeout=120)
            # Same spec, same store: a store hit without execution.
            again = service.submit(spec, store=tmp_path / "store-a")
            again.result(timeout=120)
            assert again.store_hit is True
            # Same spec, different store: a fresh run.
            elsewhere = service.submit(spec, store=tmp_path / "store-b")
            elsewhere.result(timeout=120)
            assert elsewhere.store_hit is False
        fingerprint = spec_fingerprint(spec)
        assert ResultStore(tmp_path / "store-a").result_path(fingerprint).exists()
        assert ResultStore(tmp_path / "store-b").result_path(fingerprint).exists()
