"""Process-level fabric tests: worker death, graceful signals, the gateway.

These tests spawn real ``repro worker`` / ``repro serve`` subprocesses:

* **SIGKILL recovery** — a worker is killed mid-solve; the lease expires, a
  second worker reclaims and re-executes, and the job completes **exactly
  once** with an envelope equal to a single-process ``run()`` (wall-clock
  floats aside).
* **SIGTERM drain** — a worker told to terminate mid-solve finishes its
  in-flight task, flushes the event log, and exits 0; an idle worker and a
  running gateway exit 0 immediately.
* **Cross-tenant fabric gateway** — two tenants submit the identical spec
  through ``backend="fabric"``; it executes once, the second tenant gets a
  store hit, and job records stay tenant-private.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunSpec, run, spec_fingerprint
from repro.api.auth import ApiKeyAuth
from repro.api.client import GatewayClient
from repro.api.gateway import SchedulingGateway
from repro.api.store import ResultStore
from repro.fabric.queue import TaskState, WorkQueue
from repro.fabric.worker import FabricWorker

SRC = Path(__file__).resolve().parent.parent / "src"

#: Cheap deterministic schedule run (seeded random search, tiny layer).
QUICK_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}

#: A deliberately slow (~2-3s) but still deterministic solve, so signals can
#: reliably land *mid-execution*.
SLOW_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_7_64_64_1"]},
    "scheduler": {
        "name": "random",
        "options": {"num_valid": 60000, "max_attempts": 10_000_000},
    },
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


def start_worker(fabric_root, *extra):
    """Spawn one ``repro worker`` subprocess against ``fabric_root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", str(fabric_root), *extra],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def enqueue_job(tmp_path, spec_dict):
    """Persist one task the way the service does (record + run_queued log)."""
    store = ResultStore(tmp_path / "store")
    queue = WorkQueue(tmp_path / "fabric")
    spec = RunSpec.from_dict(spec_dict)
    fingerprint = spec_fingerprint(spec)
    job_id = store.record_job(
        {
            "job_id": None,
            "state": "queued",
            "kind": spec.kind,
            "priority": "interactive",
            "spec_fingerprint": fingerprint,
            "store_hit": False,
            "error": None,
            "num_events": 1,
            "spec": spec.to_dict(),
        }
    )
    from repro.io_utils import append_ndjson

    append_ndjson(
        store.events_path(job_id),
        {
            "schema_version": 1,
            "event": "run_queued",
            "job_id": job_id,
            "seq": 0,
            "kind": spec.kind,
            "spec_fingerprint": fingerprint,
        },
    )
    task = queue.enqueue(
        spec.to_dict(), fingerprint, job_id=job_id, store_root=str(store.root)
    )
    return store, queue, task, job_id, fingerprint


def wait_for_state(queue, task_id, state, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        task = queue.load_task(task_id)
        if task is not None and task["state"] == state:
            return task
        time.sleep(0.02)
    raise AssertionError(
        f"task {task_id} never reached {state!r}; "
        f"last seen: {queue.load_task(task_id)}"
    )


def terminate(process):
    """Kill ``process`` if it still runs, reap it and close its output pipe."""
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    process.stdout.close()


class TestWorkerDeathRecovery:
    def test_sigkill_mid_job_is_reclaimed_and_completed_exactly_once(self, tmp_path):
        store, queue, task, job_id, fingerprint = enqueue_job(tmp_path, SLOW_SPEC)
        victim = start_worker(
            tmp_path / "fabric", "--lease-ttl", "1.0", "--poll-interval", "0.05"
        )
        try:
            wait_for_state(queue, task["task_id"], TaskState.RUNNING)
            time.sleep(0.3)  # well inside the ~2-3s solve
            victim.kill()  # SIGKILL: no drain, no release, lease left behind
            victim.wait(timeout=10)
            assert queue.load_task(task["task_id"])["state"] == TaskState.RUNNING

            rescuer = start_worker(
                tmp_path / "fabric",
                "--lease-ttl", "1.0", "--poll-interval", "0.05",
                "--max-tasks", "1", "--worker-id", "rescuer",
            )
            try:
                assert rescuer.wait(timeout=120) == 0
            finally:
                terminate(rescuer)
        finally:
            terminate(victim)

        # Re-dispatched after the lease expired, completed exactly once.
        final = queue.load_task(task["task_id"])
        assert final["state"] == TaskState.DONE
        assert final["attempts"] == 2
        journal = [line["event"] for line in queue.read_journal()]
        assert journal.count("reclaimed") == 1
        assert journal.count("completed") == 1

        record = store.load_job(job_id)
        assert record["state"] == "done"
        assert record["worker"] == "rescuer"
        events = [
            json.loads(line)["event"]
            for line in store.events_path(job_id).read_text().splitlines()
        ]
        assert events.count("run_finished") == 1  # exactly-once completion
        assert events.count("run_started") == 2  # the killed attempt shows

        # The stored envelope equals a local single-process run of the same
        # spec, wall-clock floats aside.
        stored = store.load(fingerprint)
        local = run(RunSpec.from_dict(SLOW_SPEC))
        assert normalize_times(stored.to_dict()) == normalize_times(local.to_dict())


class TestGracefulSignals:
    def test_sigterm_drains_the_inflight_task_and_exits_zero(self, tmp_path):
        store, queue, task, job_id, _ = enqueue_job(tmp_path, SLOW_SPEC)
        worker = start_worker(tmp_path / "fabric", "--poll-interval", "0.05")
        try:
            wait_for_state(queue, task["task_id"], TaskState.RUNNING)
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=120) == 0  # finished the task first
        finally:
            terminate(worker)
        assert queue.load_task(task["task_id"])["state"] == TaskState.DONE
        events = [
            json.loads(line)["event"]
            for line in store.events_path(job_id).read_text().splitlines()
        ]
        assert events[-1] == "run_finished"  # log flushed before exit

    def test_sigterm_on_an_idle_worker_exits_zero(self, tmp_path):
        worker = start_worker(tmp_path / "fabric", "--poll-interval", "0.05")
        try:
            # Printed by ``FabricWorker.run``, after the signal handlers are installed.
            banner = worker.stdout.readline()
            assert " draining " in banner, banner
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=30) == 0
        finally:
            terminate(worker)

    def test_sigterm_on_the_gateway_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--store", str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = server.stdout.readline()  # printed once the socket is bound
            assert "repro gateway on http" in banner
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        finally:
            terminate(server)


class TestFabricGateway:
    def test_cross_tenant_submissions_execute_once(self, tmp_path):
        auth = ApiKeyAuth({"k-acme": "acme", "k-bobco": "bobco"})
        gateway = SchedulingGateway(
            tmp_path / "gw-store",
            auth=auth,
            backend="fabric",
            fabric_root=tmp_path / "fabric",
        )
        gateway.start()
        worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        acme = GatewayClient(gateway.url, tenant="acme", api_key="k-acme")
        bobco = GatewayClient(gateway.url, tenant="bobco", api_key="k-bobco")
        try:
            first = acme.wait(acme.submit(QUICK_SPEC)["job_id"])
            second = bobco.wait(bobco.submit(QUICK_SPEC)["job_id"])
            assert first["state"] == "done" and first["store_hit"] is False
            assert second["state"] == "done"
            # The identical spec executed once: bobco's job is a store hit
            # served from the shared results tier.
            assert second["store_hit"] is True
            assert json.loads(acme.result_text(first["job_id"])) == json.loads(
                bobco.result_text(second["job_id"])
            )

            # One content-addressed entry, in the shared tier.
            fingerprint = spec_fingerprint(RunSpec.from_dict(QUICK_SPEC))
            shared = ResultStore(tmp_path / "gw-store" / "shared")
            assert shared.result_path(fingerprint).exists()

            # Job records stay tenant-private: ids are namespaced and
            # neither tenant can list or read the other's jobs.
            assert first["job_id"].startswith("acme-")
            assert second["job_id"].startswith("bobco-")
            acme_jobs = [record["job_id"] for record in acme.jobs()]
            bobco_jobs = [record["job_id"] for record in bobco.jobs()]
            assert first["job_id"] in acme_jobs
            assert second["job_id"] not in acme_jobs
            assert first["job_id"] not in bobco_jobs

            # Both tasks ran to completion but only acme's executed a
            # scheduler; bobco's completed as a shared-store hit.
            tasks = {task["tenant"]: task for task in WorkQueue(tmp_path / "fabric").tasks()}
            assert tasks["acme"]["state"] == TaskState.DONE
            assert tasks["acme"]["store_hit"] is False
            assert tasks["bobco"]["state"] == TaskState.DONE
            assert tasks["bobco"]["store_hit"] is True
        finally:
            acme.close()
            bobco.close()
            worker.stop()
            thread.join(timeout=10)
            gateway.close()

    def test_event_stream_of_a_fabric_job_over_http(self, tmp_path):
        gateway = SchedulingGateway(
            tmp_path / "gw-store",
            backend="fabric",
            fabric_root=tmp_path / "fabric",
        )
        gateway.start()
        worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        client = GatewayClient(gateway.url, tenant="acme")
        try:
            record = client.submit(QUICK_SPEC)
            events = list(client.events(record["job_id"]))
            kinds = [event["event"] for event in events]
            assert kinds[0] == "run_queued"
            assert "run_started" in kinds
            assert kinds[-1] == "run_finished"
            assert [event["seq"] for event in events] == list(range(len(events)))
        finally:
            client.close()
            worker.stop()
            thread.join(timeout=10)
            gateway.close()
