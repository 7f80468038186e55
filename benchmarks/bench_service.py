#!/usr/bin/env python
"""Benchmark: fabric throughput, worker scaling and store hit rate.

Drives the distributed solve fabric the way ``repro serve --backend fabric``
does — tasks enqueued into one persistent :class:`WorkQueue`, drained by
real ``repro worker`` subprocesses — and measures:

* **worker scaling** — an identical batch of distinct-seed solves executed
  by 1 worker and then (on a fresh fabric) by 2 workers; the headline
  number is the 2-worker jobs/sec over the 1-worker jobs/sec (the PR gate
  is ``--check-scaling 1.6``);
* **store hit rate** — a synthetic two-tenant load where both tenants
  submit the same spec set against one shared results tier: the second
  tenant's jobs must complete as content-addressed store hits without
  executing a scheduler;
* **job latency** — p50/p95 enqueue-to-completion latency per phase, read
  from the queue journal's transition timestamps.

The report is printed as a table and written atomically to
``benchmarks/results/BENCH_service.json``::

    python benchmarks/bench_service.py                   # full run
    python benchmarks/bench_service.py --quick           # smaller batch
    python benchmarks/bench_service.py --check-scaling 1.6
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RunSpec, spec_fingerprint
from repro.api.service import JobState, job_record
from repro.api.store import ResultStore
from repro.fabric.queue import TaskState, WorkQueue
from repro.io_utils import atomic_write_json

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "BENCH_service.json"


def make_spec(seed: int, num_valid: int) -> RunSpec:
    """One deterministic solve; distinct seeds give distinct fingerprints."""
    return RunSpec.from_dict(
        {
            "kind": "schedule",
            "workload": {"layers": ["3_7_64_64_1"]},
            "scheduler": {
                "name": "random",
                "options": {"num_valid": num_valid, "max_attempts": 10_000_000},
            },
            "seed": seed,
        }
    )


def start_workers(fabric_root: Path, count: int) -> list[subprocess.Popen]:
    """Spawn ``count`` worker subprocesses and wait for their banners."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    workers = []
    for index in range(count):
        workers.append(
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker", str(fabric_root),
                    "--worker-id", f"bench-w{index}", "--poll-interval", "0.02",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        )
    for worker in workers:
        banner = worker.stdout.readline()  # "worker ... draining ..."
        assert "draining" in banner, f"worker failed to start: {banner!r}"
    return workers


def stop_workers(workers: list[subprocess.Popen]) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.send_signal(signal.SIGTERM)
    for worker in workers:
        try:
            worker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait(timeout=10)


def run_phase(root: Path, num_workers: int, submissions, timeout: float = 600.0) -> dict:
    """Enqueue ``submissions`` (tenant, spec) pairs and drain them.

    Workers are already running when the clock starts, so the measured
    window is pure queue-drain time: enqueue of the first task to the
    terminal transition of the last.
    """
    fabric_root = root / "fabric"
    queue = WorkQueue(fabric_root)
    stores: dict[str, ResultStore] = {}
    workers = start_workers(fabric_root, num_workers)
    try:
        started = time.time()
        task_ids = []
        for tenant, spec in submissions:
            store = stores.get(tenant)
            if store is None:
                store = ResultStore(
                    root / "tenants" / tenant,
                    job_prefix=f"{tenant}-",
                    results_root=root / "shared",
                )
                stores[tenant] = store
            fingerprint = spec_fingerprint(spec)
            job_id = store.record_job(
                job_record(None, JobState.QUEUED, spec.to_dict(), fingerprint, "interactive")
            )
            task = queue.enqueue(
                spec.to_dict(),
                fingerprint,
                job_id=job_id,
                store_root=str(store.root),
                results_root=str(store.results_root),
                job_prefix=store.job_prefix,
                tenant=tenant,
            )
            task_ids.append(task["task_id"])
        deadline = started + timeout
        while time.time() < deadline:
            tasks = {t["task_id"]: t for t in queue.tasks()}
            if all(
                tasks[task_id]["state"] in TaskState.TERMINAL for task_id in task_ids
            ):
                break
            time.sleep(0.02)
        else:
            raise RuntimeError(f"phase did not drain within {timeout}s")
        elapsed = time.time() - started
    finally:
        stop_workers(workers)

    tasks = {t["task_id"]: t for t in queue.tasks()}
    done = [tasks[task_id] for task_id in task_ids]
    failed = [t for t in done if t["state"] != TaskState.DONE]
    if failed:
        raise RuntimeError(f"{len(failed)} task(s) did not complete: {failed[:2]}")
    hits = sum(1 for t in done if t["store_hit"])

    # Per-task enqueue->completed latency from the journal timestamps.
    enqueued_at, completed_at = {}, {}
    for line in queue.read_journal():
        if line["event"] == "enqueued":
            enqueued_at[line["task"]] = line["ts"]
        elif line["event"] == "completed":
            completed_at[line["task"]] = line["ts"]
    latencies = sorted(
        completed_at[task_id] - enqueued_at[task_id]
        for task_id in task_ids
        if task_id in completed_at
    )

    def percentile(fraction: float) -> float:
        return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

    return {
        "workers": num_workers,
        "jobs": len(task_ids),
        "elapsed_seconds": round(elapsed, 4),
        "jobs_per_second": round(len(task_ids) / elapsed, 4),
        "store_hits": hits,
        "store_hit_rate": round(hits / len(task_ids), 4),
        "latency_p50_seconds": round(percentile(0.50), 4),
        "latency_p95_seconds": round(percentile(0.95), 4),
    }


def bench(jobs: int, num_valid: int) -> dict:
    """The three phases, each on a pristine fabric/store root."""
    scratch = Path(tempfile.mkdtemp(prefix="bench-service-"))
    try:
        # Distinct-seed solves: every job executes a scheduler.
        batch = [("acme", make_spec(seed, num_valid)) for seed in range(jobs)]
        one = run_phase(scratch / "one-worker", 1, batch)
        two = run_phase(scratch / "two-workers", 2, batch)

        # Two tenants submit the identical spec set against one shared
        # results tier: the second tenant's half must be store hits.
        half = [("acme", make_spec(seed, num_valid)) for seed in range(jobs // 2)]
        tenant_load = half + [("bobco", spec) for _, spec in half]
        shared = run_phase(scratch / "multi-tenant", 2, tenant_load)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "benchmark": "fabric-service",
        "config": {"jobs": jobs, "num_valid": num_valid},
        "cpu_count": os.cpu_count(),
        "single_worker": one,
        "two_workers": two,
        "multi_tenant": shared,
        "scaling_2x": round(two["jobs_per_second"] / one["jobs_per_second"], 4),
    }


def render(report: dict) -> str:
    rows = [
        ("1 worker", report["single_worker"]),
        ("2 workers", report["two_workers"]),
        ("2 tenants x 2 workers", report["multi_tenant"]),
    ]
    lines = [
        f"{'phase':<24} {'jobs':>5} {'jobs/s':>8} {'hit rate':>9} "
        f"{'p50 (s)':>8} {'p95 (s)':>8}"
    ]
    for label, phase in rows:
        lines.append(
            f"{label:<24} {phase['jobs']:>5} {phase['jobs_per_second']:>8.2f} "
            f"{phase['store_hit_rate']:>9.2f} {phase['latency_p50_seconds']:>8.2f} "
            f"{phase['latency_p95_seconds']:>8.2f}"
        )
    lines.append(f"2-worker scaling: {report['scaling_2x']:.2f}x")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=8, help="solves per phase")
    parser.add_argument(
        "--num-valid", type=int, default=15000,
        help="random-search depth per solve (sets per-job cost)",
    )
    parser.add_argument("--quick", action="store_true", help="6 shallower solves")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON report path")
    parser.add_argument(
        "--check-scaling", type=float, default=None, metavar="MIN",
        help="exit 1 when 2-worker jobs/sec is below MIN x the 1-worker rate "
        "(only enforced with >= 2 CPUs: compute-bound workers cannot scale "
        "on a single core, like GPU checks cannot run without a GPU)",
    )
    args = parser.parse_args(argv)
    jobs, num_valid = args.jobs, args.num_valid
    if args.quick:
        jobs, num_valid = 6, 8000

    report = bench(jobs, num_valid)
    atomic_write_json(args.out, report)
    print(render(report))
    print(f"report written to {args.out}")

    if args.check_scaling is not None:
        if (os.cpu_count() or 1) < 2:
            print(
                f"note: scaling gate skipped — {os.cpu_count()} CPU(s); "
                "two compute-bound workers cannot scale on a single core",
                file=sys.stderr,
            )
        elif report["scaling_2x"] < args.check_scaling:
            print(
                f"FAIL: 2-worker scaling {report['scaling_2x']:.2f}x "
                f"below the {args.check_scaling:.2f}x gate",
                file=sys.stderr,
            )
            return 1
    if report["multi_tenant"]["store_hit_rate"] < 0.5:
        print(
            "FAIL: multi-tenant store hit rate below the 0.5 duplicate share",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
