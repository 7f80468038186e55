"""Tests for the asynchronous service API: jobs, events and the result store.

Covers the contract of `repro.api.service` / `events` / `store`:

* job lifecycle (QUEUED -> RUNNING -> DONE/FAILED/CANCELLED), blocking
  ``result(timeout=...)`` and cancellation;
* the typed, schema-versioned event protocol, its NDJSON round-trip and the
  determinism guarantee — a compare job under ``jobs=2`` emits exactly one
  ``layer_scheduled`` per layer with payloads identical to the serial run,
  and the followed run's final event equals the synchronous ``run()``
  envelope;
* the content-addressed result store — resubmitting an identical spec is a
  store hit that returns the stored envelope verbatim without invoking any
  scheduler; on the local backend it is answered at submit, with one record
  write and one log append, and creates two files.
"""

import contextlib
import json
import os
import sys
import threading

import pytest

from repro.api import (
    EVENT_SCHEMA_VERSION,
    RunSpec,
    SchedulingService,
    UnknownNameError,
    event_from_dict,
    run,
    spec_fingerprint,
)
from repro.api.events import LayerScheduled, RunFailed, RunFinished, RunQueued, RunStarted
from repro.api.service import JobCancelled, JobState, JobTimeout, job_record
from repro.api.store import ResultStore

#: Cheap deterministic schedule run (seeded random search, tiny layer).
SCHEDULE_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}

#: Cheap deterministic compare run with a duplicate layer (exercises dedup).
COMPARE_SPEC = {
    "kind": "compare",
    "workload": {"layers": ["3_4_8_16_1", "1_2_4_4_1", "3_4_8_16_1"]},
    "options": {
        "random_valid": 2,
        "hybrid_threads": 1,
        "hybrid_termination": 8,
        "hybrid_max_evaluations": 40,
    },
}


#: Paths ``open`` creates while a :func:`created_files` block runs (else ``None``).
_created: list | None = None


def _record_creations(event, args):
    if event == "open" and _created is not None:
        path, _, flags = args
        if isinstance(path, (str, os.PathLike)) and flags & os.O_CREAT and not os.path.exists(path):
            _created.append(os.fspath(path))


sys.addaudithook(_record_creations)


@contextlib.contextmanager
def created_files():
    """Collect every file path ``open``/``os.open`` creates inside the block."""
    global _created
    _created = []
    try:
        yield _created
    finally:
        _created = None


def normalize_times(obj):
    """Zero wall-clock float fields (solve times vary run to run)."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if "time" in key and isinstance(value, float) else normalize_times(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [normalize_times(value) for value in obj]
    return obj


def submit_and_wait(service, spec_dict, **kwargs):
    job = service.submit(RunSpec.from_dict(spec_dict), **kwargs)
    job.result(timeout=300)
    return job


class TestJobLifecycle:
    def test_submit_returns_job_and_result_blocks(self):
        with SchedulingService(max_workers=1) as service:
            job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            result = job.result(timeout=300)
        assert job.state is JobState.DONE
        assert job.done
        assert result.kind == "schedule"
        assert result.data["succeeded"] is True
        # Live artifacts survive the service path for in-process consumers.
        assert "network" in result.artifacts

    def test_event_sequence_and_seq_numbers(self):
        events = []
        with SchedulingService(max_workers=1) as service:
            submit_and_wait(service, SCHEDULE_SPEC, on_event=events.append)
        kinds = [event.KIND for event in events]
        assert kinds == ["run_queued", "run_started", "layer_scheduled", "run_finished"]
        assert [event.seq for event in events] == [0, 1, 2, 3]
        assert len({event.job_id for event in events}) == 1

    def test_events_iterator_streams_and_replays(self):
        with SchedulingService(max_workers=1) as service:
            job = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            live = [event.KIND for event in job.events(timeout=300)]
            # A second iteration after completion replays the full log.
            replay = [event.KIND for event in job.events(timeout=1)]
        assert live == replay
        assert live[0] == "run_queued"
        assert live[-1] == "run_finished"

    def test_submit_rejects_non_spec(self):
        with SchedulingService(max_workers=1) as service:
            with pytest.raises(TypeError, match="RunSpec"):
                service.submit({"kind": "schedule"})

    def test_submit_after_shutdown_raises(self):
        service = SchedulingService(max_workers=1)
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut-down"):
            service.submit(RunSpec.from_dict(SCHEDULE_SPEC))

    def test_job_lookup(self):
        with SchedulingService(max_workers=1) as service:
            job = submit_and_wait(service, SCHEDULE_SPEC)
            assert service.job(job.id) is job
            assert service.jobs() == [job]
            with pytest.raises(KeyError, match="unknown job"):
                service.job("job-999999-nope")


class TestFailureAndCancellation:
    def test_failed_job_reraises_original_error(self):
        events = []
        spec = RunSpec.from_dict(
            {**SCHEDULE_SPEC, "scheduler": {"name": "cosaa", "options": {}}}
        )
        with SchedulingService(max_workers=1) as service:
            job = service.submit(spec, on_event=events.append)
            with pytest.raises(UnknownNameError, match="did you mean 'cosa'"):
                job.result(timeout=300)
        assert job.state is JobState.FAILED
        final = events[-1]
        assert isinstance(final, RunFailed)
        assert final.error_type == "UnknownNameError"
        assert "cosa" in final.error_message

    def test_cancel_queued_job(self):
        # One worker, so the second submission is still queued when cancelled.
        slow = RunSpec.from_dict(COMPARE_SPEC)
        with SchedulingService(max_workers=1) as service:
            first = service.submit(slow)
            second = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            assert second.cancel() is True
            assert second.state is JobState.CANCELLED
            assert second.cancel() is False  # idempotent
            with pytest.raises(JobCancelled):
                second.result(timeout=1)
            # The cancelled job's event stream drains with a terminal event.
            kinds = [event.KIND for event in second.events(timeout=1)]
            assert kinds == ["run_queued", "run_failed"]
            first.result(timeout=300)
        assert first.state is JobState.DONE

    def test_result_timeout_on_queued_job(self):
        # The first job holds the only worker at ``run_started`` until the
        # assertion is done, so the second one is still queued however fast
        # the first would run.
        release = threading.Event()

        def hold(event):
            if isinstance(event, RunStarted):
                release.wait(timeout=60)

        with SchedulingService(max_workers=1) as service:
            service.submit(RunSpec.from_dict(COMPARE_SPEC), on_event=hold)
            queued = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            try:
                with pytest.raises(JobTimeout, match="did not finish"):
                    queued.result(timeout=0.05)
                assert queued.state is JobState.QUEUED
            finally:
                release.set()

    def test_cancel_finished_job_is_noop(self):
        with SchedulingService(max_workers=1) as service:
            job = submit_and_wait(service, SCHEDULE_SPEC)
            assert job.cancel() is False
            assert job.state is JobState.DONE

    def test_cancel_updates_the_persisted_job_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            first = service.submit(RunSpec.from_dict(COMPARE_SPEC))
            second = service.submit(RunSpec.from_dict(SCHEDULE_SPEC))
            assert second.cancel() is True
            first.result(timeout=300)
        record = store.load_job(second.id)
        assert record["state"] == "cancelled"
        events = store.events_path(second.id).read_text().splitlines()
        assert json.loads(events[-1])["event"] == "run_failed"

    def test_on_event_failure_during_queueing_aborts_the_submission(self, tmp_path):
        def broken(event):
            raise BrokenPipeError("consumer died")

        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            with pytest.raises(BrokenPipeError):
                service.submit(RunSpec.from_dict(SCHEDULE_SPEC), on_event=broken)
            # The aborted job is unregistered: nothing can wait on it.
            assert service.jobs() == []
        # ...and its record is terminal, not a `queued` job forever.
        [record] = store.load_jobs()
        assert record["state"] == "failed"
        assert record["error"]["type"] == "JobCancelled"
        events = store.events_path(record["job_id"]).read_text().splitlines()
        assert [json.loads(line)["event"] for line in events] == ["run_queued", "run_failed"]

    def test_on_event_failure_on_final_event_keeps_job_done(self):
        def explode_on_finish(event):
            if event.KIND == "run_finished":
                raise BrokenPipeError("consumer died at the end")

        with SchedulingService(max_workers=1) as service:
            job = service.submit(
                RunSpec.from_dict(SCHEDULE_SPEC), on_event=explode_on_finish
            )
            result = job.result(timeout=300)
        # The run completed; a subscriber dying on the terminal event must
        # not flip a DONE job to FAILED or lose the computed result.
        assert job.state is JobState.DONE
        assert result.data["succeeded"] is True


class TestEventProtocol:
    def test_to_dict_leads_with_tag_and_version(self):
        events = []
        with SchedulingService(max_workers=1) as service:
            submit_and_wait(service, SCHEDULE_SPEC, on_event=events.append)
        for event in events:
            payload = event.to_dict()
            assert list(payload)[:4] == ["event", "schema_version", "job_id", "seq"]
            assert payload["schema_version"] == EVENT_SCHEMA_VERSION

    def test_ndjson_round_trip(self):
        events = []
        with SchedulingService(max_workers=1) as service:
            submit_and_wait(service, COMPARE_SPEC, on_event=events.append)
        ndjson = "".join(json.dumps(event.to_dict()) + "\n" for event in events)
        restored = [event_from_dict(json.loads(line)) for line in ndjson.splitlines()]
        assert [event.to_dict() for event in restored] == [
            event.to_dict() for event in events
        ]

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            event_from_dict({"event": "run_started", "schema_version": 99})

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict(
                {"event": "run_paused", "schema_version": EVENT_SCHEMA_VERSION}
            )

    def test_queued_event_carries_fingerprint(self):
        events = []
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        with SchedulingService(max_workers=1) as service:
            service.submit(spec, on_event=events.append).result(timeout=300)
        queued = events[0]
        assert isinstance(queued, RunQueued)
        assert queued.kind == "schedule"
        assert queued.spec_fingerprint == spec_fingerprint(spec)


class TestEventDeterminism:
    """Satellite: per-layer events are deterministic even under jobs>1."""

    def _layer_events(self, spec_dict, store=None):
        events = []
        with SchedulingService(max_workers=1, store=store) as service:
            submit_and_wait(service, spec_dict, on_event=events.append)
        return events

    def test_compare_jobs2_one_event_per_layer_seed_stable(self):
        serial = self._layer_events(COMPARE_SPEC)
        parallel = self._layer_events(
            {**COMPARE_SPEC, "engine": {"jobs": 2}}
        )
        serial_layers = [e for e in serial if isinstance(e, LayerScheduled)]
        parallel_layers = [e for e in parallel if isinstance(e, LayerScheduled)]

        # Exactly one layer_scheduled per input layer, duplicates included.
        num_layers = len(COMPARE_SPEC["workload"]["layers"])
        assert len(serial_layers) == num_layers
        assert len(parallel_layers) == num_layers

        def strip_job(event):
            payload = event.to_dict()
            payload.pop("job_id")
            return payload

        # Payloads are bit-identical between jobs=1 and jobs=2 (no wall-clock
        # fields ride in layer events; every cost value is seed-stable).
        assert [strip_job(e) for e in serial_layers] == [
            strip_job(e) for e in parallel_layers
        ]
        # All three schedulers report per-layer cost and cache-hit fields.
        first = serial_layers[0]
        assert set(first.cost) == {"random", "hybrid", "cosa"}
        assert set(first.cache_hit) == {"random", "hybrid", "cosa"}
        assert first.cost["cosa"]["latency"] > 0
        # The duplicate third layer is flagged as a dedup reuse.
        assert [event.dedup for event in serial_layers] == [False, False, True]

    def test_followed_final_event_equals_sync_run_envelope(self):
        events = self._layer_events(COMPARE_SPEC)
        final = events[-1]
        assert isinstance(final, RunFinished)
        sync = run(RunSpec.from_dict(COMPARE_SPEC))
        assert normalize_times(final.result) == normalize_times(sync.to_dict())

    def test_schedule_events_report_cache_hits(self, tmp_path):
        spec = {
            **SCHEDULE_SPEC,
            "workload": {"layers": ["3_4_8_16_1", "3_4_8_16_1"]},
        }
        # Same layers and scheduler, another experiment (so not a store hit).
        other = {**spec, "platform": {"name": "timeloop", "metric": "energy"}}
        store = ResultStore(tmp_path / "store")
        cold = [
            e for e in self._layer_events(spec, store) if isinstance(e, LayerScheduled)
        ]
        warm = [
            e for e in self._layer_events(other, store) if isinstance(e, LayerScheduled)
        ]
        assert [e.cache_hit["random"] for e in cold] == [False, False]
        assert [e.dedup for e in cold] == [False, True]
        # Second spec: the unique layer is a layer-tier hit, its twin a dedup.
        assert [e.cache_hit["random"] for e in warm] == [True, False]
        assert [e.dedup for e in warm] == [False, True]


class TestResultStore:
    def test_resubmission_is_store_hit_without_any_scheduler(self, tmp_path, monkeypatch):
        """Acceptance criterion: an identical spec returns from the store
        without invoking any scheduler."""
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        with SchedulingService(max_workers=1, store=tmp_path / "store") as service:
            first = service.submit(spec)
            first_result = first.result(timeout=300)
            assert first.store_hit is False

            # Any attempt to execute (and hence build a scheduler) now fails:
            # a store hit must never reach this code path.
            import repro.api.runner as runner_module

            def exploding_execute(*args, **kwargs):
                raise AssertionError("store hit must not re-run the scheduler")

            monkeypatch.setattr(runner_module, "execute", exploding_execute)

            events = []
            second = service.submit(spec, on_event=events.append)
            second_result = second.result(timeout=300)

        assert second.store_hit is True
        # Served verbatim: bit-identical envelope, wall-clock floats included
        # (a recompute could never reproduce those exactly).
        assert second_result.to_dict() == first_result.to_dict()
        # No layers were scheduled; the terminal event says store_hit.
        kinds = [event.KIND for event in events]
        assert kinds == ["run_queued", "run_started", "run_finished"]
        assert events[-1].store_hit is True
        assert service.store.stats.hits == 1
        assert service.store.stats.puts == 1

    def test_store_hit_is_answered_at_submit_with_one_write_of_each(
        self, tmp_path, monkeypatch
    ):
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            service.submit(spec).result(timeout=300)
            assert (store.stats.hits, store.stats.misses) == (0, 1)

            import repro.api.runner as runner_module

            def exploding_execute_job(*args, **kwargs):
                raise AssertionError("a store hit must not reach a worker")

            calls = {"record_job": 0, "record_events": 0}

            def counting(name):
                original = getattr(store, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)

                return wrapper

            for name in calls:
                monkeypatch.setattr(store, name, counting(name))
            monkeypatch.setattr(runner_module, "execute_job", exploding_execute_job)
            origins = []
            hit = service.submit(
                spec, on_event=lambda event: origins.append(threading.current_thread())
            )
            # Answered before submit returned: no queue, no worker.
            assert hit.state is JobState.DONE and hit.store_hit is True
            assert calls == {"record_job": 1, "record_events": 1}
            assert origins == [threading.current_thread()] * 3
            assert [event.KIND for event in hit.event_log] == [
                "run_queued", "run_started", "run_finished",
            ]
            assert store.read_events(hit.id) == [e.to_dict() for e in hit.event_log]
            assert store.load_job(hit.id) == hit.to_dict()
            assert (store.stats.hits, store.stats.misses) == (1, 1)

            monkeypatch.undo()
            fresh = service.submit(RunSpec.from_dict({**SCHEDULE_SPEC, "seed": 5}))
            fresh.result(timeout=300)
            assert fresh.store_hit is False
            # Looked up once at submit; the worker does not count it again.
            assert (store.stats.hits, store.stats.misses) == (1, 2)

    def test_store_hit_creates_only_its_record_and_its_log(self, tmp_path):
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            service.submit(spec).result(timeout=300)
            before = set(store.root.rglob("*"))
            with created_files() as created:
                hit = service.submit(spec)
            assert hit.store_hit is True
        record, log = store.jobs_dir / f"{hit.id}.json", store.events_path(hit.id)
        # The first record goes through one temp file, linked to its name:
        # no id placeholder, and no second temp file for the terminal record.
        created = [path for path in created if path.startswith(str(store.root))]
        assert len(created) == 2
        assert created[1] == str(log)
        assert set(store.root.rglob("*")) - before == {record, log}
        assert json.loads(record.read_text()) == hit.to_dict()

    def test_store_roundtrips_plain_v1_envelopes(self, tmp_path):
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            result = service.submit(spec).result(timeout=300)
        path = store.result_path(spec_fingerprint(spec))
        assert path.exists()
        # The stored file IS the v1 envelope, no wrapper.
        assert json.loads(path.read_text()) == result.to_dict()

    def test_fingerprint_ignores_execution_only_knobs(self):
        base = RunSpec.from_dict(SCHEDULE_SPEC)
        rewired = RunSpec.from_dict(
            {
                **SCHEDULE_SPEC,
                "engine": {"jobs": 8, "executor": "process", "cache": None},
            }
        )
        assert spec_fingerprint(base) == spec_fingerprint(rewired)

    def test_fingerprint_splits_on_result_determining_fields(self):
        base = RunSpec.from_dict(SCHEDULE_SPEC)
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec.from_dict({**SCHEDULE_SPEC, "seed": 7})
        )
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec.from_dict({**SCHEDULE_SPEC, "engine": {"time_budget": 9.0}})
        )

    def test_job_records_persisted_in_submission_order(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with SchedulingService(max_workers=1, store=store) as service:
            first = submit_and_wait(service, SCHEDULE_SPEC)
            second = submit_and_wait(service, SCHEDULE_SPEC)
        records = store.load_jobs()
        assert [r["job_id"] for r in records] == [first.id, second.id]
        assert records[0]["state"] == "done"
        assert records[0]["store_hit"] is False
        assert records[1]["store_hit"] is True
        assert store.load_job(first.id)["spec"] == first.spec.to_dict()
        assert store.load_job("job-000099-missing") is None
        # The event log is persisted as NDJSON next to the record.
        lines = store.events_path(first.id).read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "run_queued",
            "run_started",
            "layer_scheduled",
            "run_finished",
        ]

    def test_first_record_reserves_its_id_exclusively(self, tmp_path):
        # Two store handles on one directory (two "processes") can never
        # mint the same id: the first record is linked to its name, and the
        # link refuses a name that exists.
        store_a = ResultStore(tmp_path / "store")
        store_b = ResultStore(tmp_path / "store")

        def first(store, fingerprint):
            return store.record_job(
                job_record(None, JobState.QUEUED, SCHEDULE_SPEC, fingerprint, "batch")
            )

        minted = [first(store_a, "a" * 64), first(store_b, "a" * 64), first(store_a, "b" * 64)]
        assert len(set(minted)) == 3
        # Each id is readable as its whole first record at once.
        assert [record["job_id"] for record in store_a.load_jobs()] == sorted(minted)
        assert store_a.load_job(minted[0])["priority"] == "batch"

    def test_read_events_resumes_past_a_torn_final_line(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job_id = "job-000001-feedfeedfeed"
        store.record_events(
            job_id,
            [
                RunQueued(job_id=job_id, seq=0, kind="schedule", spec_fingerprint="f"),
                RunStarted(job_id=job_id, seq=1),
            ],
        )
        line = json.dumps(
            RunFailed(job_id=job_id, seq=2, error_type="E", error_message="m").to_dict()
        ) + "\n"
        path = store.events_path(job_id)
        with open(path, "a") as handle:
            handle.write(line[:20])  # a writer caught mid-append
        assert [e["event"] for e in store.read_events(job_id)] == ["run_queued", "run_started"]
        assert store.read_events(job_id, start=2) == []
        with open(path, "a") as handle:
            handle.write(line[20:])
        assert store.read_events(job_id, start=2) == [json.loads(line)]

    def test_read_events_raises_on_a_corrupt_line_before_the_last(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job_id = "job-000001-feedfeedfeed"
        store.record_events(job_id, [RunStarted(job_id=job_id, seq=0)])
        with open(store.events_path(job_id), "a") as handle:
            handle.write("{not json\n")
        store.record_events(job_id, [RunStarted(job_id=job_id, seq=2)])
        with pytest.raises(json.JSONDecodeError):
            store.read_events(job_id)

    def test_concurrent_submissions_share_the_pool(self):
        # Two distinct specs on two workers both finish and stay isolated.
        other = {**SCHEDULE_SPEC, "workload": {"layers": ["1_2_4_4_1"]}}
        with SchedulingService(max_workers=2) as service:
            jobs = [
                service.submit(RunSpec.from_dict(SCHEDULE_SPEC)),
                service.submit(RunSpec.from_dict(other)),
            ]
            results = [job.result(timeout=300) for job in jobs]
        assert [job.state for job in jobs] == [JobState.DONE, JobState.DONE]
        assert results[0].data["outcomes"][0]["layer"] == "3_4_8_16_1"
        assert results[1].data["outcomes"][0]["layer"] == "1_2_4_4_1"


class TestRunIsAThinServiceWrapper:
    def test_run_equals_submitted_result(self):
        sync = run(RunSpec.from_dict(SCHEDULE_SPEC))
        with SchedulingService(max_workers=1) as service:
            async_result = service.submit(RunSpec.from_dict(SCHEDULE_SPEC)).result(
                timeout=300
            )
        assert normalize_times(sync.to_dict()) == normalize_times(async_result.to_dict())

    def test_run_still_typechecks_its_argument(self):
        with pytest.raises(TypeError, match="RunSpec"):
            run({"kind": "schedule"})

    def test_on_event_callbacks_come_from_the_worker_thread(self):
        # run_queued fires synchronously from the submitting thread; every
        # later event originates from the bounded worker pool.
        origins = []
        with SchedulingService(max_workers=1) as service:
            submit_and_wait(
                service,
                SCHEDULE_SPEC,
                on_event=lambda event: origins.append(
                    (event.KIND, threading.current_thread().name)
                ),
            )
        assert origins[0][0] == "run_queued"
        assert all(
            name.startswith("repro-service") for kind, name in origins[1:]
        ), origins
