"""One workload in one fresh process: set up, warm up, measure, report.

Started by ``run.py``.  It prints ``READY <cpu seconds>`` once set-up is over
(imports, registries, gateway start and the fixed warm-up list), then, unless
``--setup-only``, runs the timed phase and prints one ``RESULT <json>`` line.
With ``--trace 1`` it runs the timed phase twice, untraced and then traced
(fresh service and store each time), and reports the per-layer metrics of
the traced phase with the traced-minus-untraced overhead.

Each job is timed twice: wall-clock from submit to verified envelope, and
process CPU time (every thread; one job is in flight at a time) from submit
to envelope received.  On a two-vCPU cloud VM whose vCPUs lose up to 40% of
their time to other guests (steal), wall-clock figures of identical code
spread by 20-30% between runs, CPU figures by 5-15%.  The gated rates are
per CPU second; the wall-clock rates, median and tail are printed beside
them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.api import ApiKeyAuth, GatewayClient, SchedulingGateway, architectures, run  # noqa: E402

import jobs as joblists  # noqa: E402
from benchstats import geomean, median, tail  # noqa: E402
from oracle import OracleMismatch, check_envelope  # noqa: E402
from tracer import Tracer, install, reduce  # noqa: E402

#: ``serve-store`` gateway workers, one per client.  The load is one client:
#: with two clients and two workers on two virtual CPUs, runs of identical
#: code spread over 19-31 jobs/s, against 24-27 with one.
WORKERS = 1
API_KEYS = {f"{tenant}-key": tenant for tenant in joblists.TENANTS}
KEY_OF = {tenant: key for key, tenant in API_KEYS.items()}

@functools.cache
def accelerator(preset: str):
    return architectures.create(preset)


def verify(job, data: dict) -> list:
    return check_envelope(data, job.layers, accelerator(job.arch), job.plan)


class Phase:
    """Counters of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []  # wall, submit to verified envelope
        self.cpu_times: list[float] = []  # CPU, submit to envelope received
        self.values: list[tuple] = []
        self.layers = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.composition: Counter = Counter()
        self.notes: dict = {}
        self.wall = 0.0
        self.cpu = 0.0
        self.layers_per_cpu_s = 0.0

    def fail(self, job, error: BaseException) -> None:
        self.failed += 1
        self.errors[f"{job.label}: {type(error).__name__}: {error}"[:200]] += 1

    def done(self, job, wall: float, cpu: float, values=()) -> None:
        self.latencies.append(wall)
        self.cpu_times.append(cpu)
        self.layers += len(job.layers)
        self.values += values


# ------------------------------------------------------------ run() workloads

def run_passes(workload: str, pool, seed: int, passes: int, tracer) -> Phase:
    """``passes`` passes over ``pool``, each in a seeded order.

    ``layers_per_cpu_s`` counts one pass of the pool over the sum of each
    job's median CPU time across the passes.
    """
    phase = Phase()
    quiet = tracer.suspended if tracer else nullcontext
    per_job: dict[int, list[float]] = {index: [] for index in range(len(pool))}
    busy: Counter = Counter()
    started, cpu_started = time.perf_counter(), time.process_time()
    for order in islice(joblists.passes(pool, workload, seed), passes):
        for index in order:
            job = pool[index]
            phase.attempted += 1
            phase.composition[job.label] += 1
            begin, begin_cpu = time.perf_counter(), time.process_time()
            with tracer.root() if tracer else nullcontext():
                try:
                    result = run(job.spec)
                    cpu = time.process_time() - begin_cpu
                    with quiet():
                        values = verify(job, result.data)
                except Exception as error:  # noqa: BLE001 - every failure is counted
                    phase.fail(job, error)
                    continue
            phase.done(job, time.perf_counter() - begin, cpu, values)
            per_job[index].append(cpu)
            busy[job.label] += cpu
    phase.wall = time.perf_counter() - started
    phase.cpu = time.process_time() - cpu_started
    if all(per_job.values()):
        typical = sum(median(cpu) for cpu in per_job.values())
        phase.layers_per_cpu_s = sum(len(job.layers) for job in pool) / typical
    total = sum(busy.values()) or 1.0
    phase.notes = {
        "passes": passes,
        "cpu_share": {label: round(value / total, 4) for label, value in sorted(busy.items())},
    }
    return phase


def warm_up_run(warmup) -> None:
    for job in warmup:
        verify(job, run(job.spec).data)


# --------------------------------------------------------------- serve-store

def start_gateway(root: Path) -> SchedulingGateway:
    return SchedulingGateway(
        root, auth=ApiKeyAuth(API_KEYS), rate_limiter=None, max_workers=WORKERS, backend="local"
    ).start()


def serve_one(client: GatewayClient, job) -> tuple[str, dict]:
    record = client.submit(job.spec)
    final = client.wait(record["job_id"])
    if final["state"] != "done":
        raise RuntimeError(f"job ended {final['state']}: {final.get('error')}")
    return client.result_text(record["job_id"]), final


def warm_up_serve(gateway: SchedulingGateway) -> None:
    for job in joblists.serve_warmup():
        client = GatewayClient(gateway.url, tenant=job.tenant, api_key=KEY_OF[job.tenant])
        text, _ = serve_one(client, job)
        verify(job, json.loads(text)["data"])


def run_serve(seed: int, count: int, root: Path, tracer, gateway=None) -> Phase:
    """One closed-loop client: submit, wait, fetch and check ``count`` jobs."""
    phase = Phase()
    gateway = gateway or start_gateway(root)
    quiet = tracer.suspended if tracer else nullcontext
    clients = {tenant: GatewayClient(gateway.url, tenant=tenant, api_key=KEY_OF[tenant])
               for tenant in joblists.TENANTS}
    first_text: dict[int, str] = {}
    round_values: dict[int, tuple] = {}
    hits = Counter()

    def check(job, text: str, final: dict) -> None:
        if job.key not in first_text:
            values = verify(job, json.loads(text)["data"])
            first_text[job.key] = text
            if job.key < len(joblists.RESNET50):
                round_values[job.key] = values[0]
        elif text != first_text[job.key]:
            raise OracleMismatch(f"spec {job.key}: envelope differs from the first one returned")
        hits["store_hit" if final["store_hit"] else "executed"] += 1

    started, cpu_started = time.perf_counter(), time.process_time()
    for job in islice(joblists.serve_stream(seed), count):
        begin, begin_cpu = time.perf_counter(), time.process_time()
        phase.attempted += 1
        phase.composition[f"{job.tenant}:{'write' if job.first else 'read'}"] += 1
        with tracer.root() if tracer else nullcontext():
            try:
                text, final = serve_one(clients[job.tenant], job)
                cpu = time.process_time() - begin_cpu
                with quiet():
                    check(job, text, final)
            except Exception as error:  # noqa: BLE001 - every failure is counted
                phase.fail(job, error)
                continue
        phase.done(job, time.perf_counter() - begin, cpu)
    phase.wall = time.perf_counter() - started
    phase.cpu = time.process_time() - cpu_started
    phase.layers_per_cpu_s = phase.layers / sum(phase.cpu_times) if phase.cpu_times else 0.0
    counters = Counter()
    for tenant in joblists.TENANTS:
        counters.update(gateway.store_for(tenant).stats_summary()["counters"])
    gateway.close()
    if len(round_values) == len(joblists.RESNET50):
        phase.values = [round_values[key] for key in sorted(round_values)]
    else:
        phase.fail(joblists.serve_spec(0, seed), RuntimeError("first pool round not completed"))
    lookups = counters["hits"] + counters["misses"]
    phase.notes = {
        "store_hits": counters["hits"],
        "warm_hits": counters["warm_hits"],
        "disk_hits": counters["disk_hits"],
        "store_misses": counters["misses"],
        "hit_ratio": counters["hits"] / lookups if lookups else 0.0,
        "warm_hit_ratio": counters["warm_hits"] / counters["hits"] if counters["hits"] else 0.0,
        **dict(hits),
    }
    return phase


# -------------------------------------------------------------------- report

def end_to_end(phase: Phase) -> dict:
    """Gated metrics (zeros where every job failed) and the printed wall-clock ones."""
    columns = list(zip(*phase.values)) or [[], [], []]
    gated = {
        "layers_per_cpu_s": phase.layers_per_cpu_s,
        "job_cpu_p50_s": median(phase.cpu_times) if phase.cpu_times else 0.0,
        "sched_latency_cycles_geomean": geomean(columns[0]) if phase.values else 0.0,
        "sched_energy_pj_geomean": geomean(columns[1]) if phase.values else 0.0,
        "sched_dram_words_geomean": geomean(columns[2]) if phase.values else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    job_tail = tail(phase.latencies)
    return {
        "metrics": gated,
        "wall": {
            "layers_per_s": phase.layers / phase.wall,
            "jobs_per_s": len(phase.latencies) / phase.wall,
            "job_p50_s": median(phase.latencies) if phase.latencies else 0.0,
            "job_tail_s": list(job_tail) if job_tail else None,
        },
        "samples": len(phase.latencies),
        "attempted": phase.attempted,
        "failed": phase.failed,
        "errors": dict(phase.errors),
        "composition": dict(sorted(phase.composition.items())),
        "notes": phase.notes,
        "wall_s": phase.wall,
        "cpu_s": phase.cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("cosa-mip", "search-eval", "serve-store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    gateway = None
    if args.workload == "cosa-mip":
        warm_up_run(joblists.cosa_warmup())
        pool = joblists.cosa_pool()
    elif args.workload == "search-eval":
        warm_up_run(joblists.search_warmup())
        pool = joblists.search_pool()
    else:
        gateway = start_gateway(args.workdir / "store-untraced")
        warm_up_serve(gateway)
    gc.collect()
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:
        if gateway is not None:
            gateway.close()
        return 0

    def measure(tracer, name):
        if args.workload == "serve-store":
            count = max(100, round(args.seconds * joblists.SERVE_RATE))
            return run_serve(args.seed, count, args.workdir / f"store-{name}", tracer,
                             gateway if tracer is None else None)
        passes = max(3, round(args.seconds / joblists.PASS_SECONDS[args.workload]))
        return run_passes(args.workload, pool, args.seed, passes, tracer)

    report = end_to_end(measure(None, "untraced"))
    if args.trace:
        tracer = Tracer()
        install(tracer)
        gc.collect()
        tracer.active = True
        phase = measure(tracer, "traced")
        tracer.active = False
        traced = end_to_end(phase)
        layer = reduce(tracer, phase.wall)
        rate = "layers_per_cpu_s"
        layer["trace.overhead"] = report["metrics"][rate] / traced["metrics"][rate] - 1.0
        layer["process.cpu_s"] = phase.cpu
        layer["process.wall_s"] = phase.wall
        layer["store.hit_ratio"] = phase.notes.get("hit_ratio", 0.0)
        layer["store.warm_hit_ratio"] = phase.notes.get("warm_hit_ratio", 0.0)
        report = {"untraced": report, "traced": traced, "per_layer": layer}
        spans_path = HERE.parent / ".e2ebench_out"
        spans_path.mkdir(exist_ok=True)
        with open(spans_path / f"spans-{args.workload}-{args.seed}.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span.__dict__) + "\n")
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
