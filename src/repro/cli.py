"""Command-line interface.

Schedule a layer from the shell and inspect the result without writing any
Python::

    repro schedule 3_7_512_512_1                 # CoSA, baseline arch
    repro schedule 3_7_512_512_1 --arch pe-8x8   # Fig. 9a variant
    repro schedule 3_7_512_512_1 --scheduler hybrid --platform noc
    repro schedule 1_7_512_2048_1 --scheduler gpu --arch gpu-k80
    repro schedule --fusion attention-block \
        --fusion-option seq=64 --fusion-option heads=4 \
        --fusion-option head_dim=32                  # fused QK/softmax/AV chain
    repro compare resnet50 --layers 4 --jobs 4   # three-scheduler comparison
    repro suite --jobs 4 --store .repro-store    # CoSA over all four networks
    repro run examples/specs/resnet50_compare.json --json
    repro run spec.json --follow                 # stream NDJSON events live
    repro submit spec.json                       # job into the result store
    repro jobs                                   # list recorded jobs
    repro result job-000001-abcdef123456         # fetch a stored envelope
    repro serve --port 8123 --keys keys.json     # multi-tenant HTTP gateway
    repro submit spec.json --server http://127.0.0.1:8123 --tenant acme \
        --api-key k1                             # same verbs over the wire
    repro registry --json                        # stable, scriptable listing
    repro networks                               # list evaluated workloads

(``python -m repro.cli`` works identically when the package is not
installed.)  Every subcommand is a thin argument translator over the
declarative facade: it builds a :class:`~repro.api.specs.RunSpec` and hands
it to :func:`repro.api.execute` (the core behind :func:`repro.api.run`),
so anything registered through the
:mod:`repro.api.registry` plugin registries — schedulers, architectures,
platforms, workloads — is immediately reachable from the shell.  ``--json``
output is the stamped :class:`~repro.api.result.RunResult` envelope
(``schema_version``, the resolved spec, and the payload), identical whether
the run came from flags or from a spec file.  All subcommands route their
diagnostics through a single summary path: nothing is printed until the run
is complete, so a failed run produces an error on stderr and exit code 1
instead of a half-written report.  The deliberate exception is ``run
--follow``, which streams the job's typed events (see
:mod:`repro.api.events`) to stdout as NDJSON while it executes.

``submit`` / ``jobs`` / ``result`` are the service-side workflow: ``submit``
executes a spec as a :class:`~repro.api.service.SchedulingService` job
recorded in an on-disk result store (resubmitting an identical spec is a
store hit that skips every scheduler), ``jobs`` lists the recorded jobs and
``result`` prints a finished job's stored envelope.  With ``--server URL``
the same three verbs go over HTTP to a ``repro serve`` gateway instead
(``--tenant`` picks the namespace, ``--api-key`` authenticates); ``repro
serve`` hosts the multi-tenant gateway itself (see ``docs/gateway.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro import api, package_version
from repro.api import (
    ALL_REGISTRIES,
    ArchSpec,
    EngineSpec,
    PlatformSpec,
    RunSpec,
    SchedulerSpec,
    WorkloadSpec,
    architectures,
    platforms,
    schedulers,
    workloads,
)


#: Default root of the on-disk result store used by the service subcommands
#: (``submit`` / ``jobs`` / ``result``); override with ``--store``.
DEFAULT_STORE = ".repro-store"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schedule = sub.add_parser(
        "schedule", help="schedule one layer (or a fusion group) and report its cost"
    )
    schedule.add_argument(
        "layer", nargs="?", default=None,
        help="layer in R_P_C_K_Stride form, e.g. 3_7_512_512_1 (optional with --fusion)",
    )
    schedule.add_argument("--arch", default="baseline-4x4", choices=sorted(architectures.available()))
    schedule.add_argument(
        "--scheduler", default="cosa", choices=sorted(schedulers.available()),
        help="which scheduler generates the mapping",
    )
    schedule.add_argument(
        "--platform", default="timeloop", choices=sorted(platforms.available()),
        help="evaluation platform for the resulting schedule",
    )
    schedule.add_argument("--batch", type=int, default=1, help="batch size N")
    schedule.add_argument("--save", metavar="FILE", help="write the mapping to a JSON file")
    _add_fusion_arguments(schedule)
    _add_engine_arguments(schedule)

    compare = sub.add_parser(
        "compare", help="compare Random / Timeloop-Hybrid / CoSA on a network"
    )
    compare.add_argument("network", choices=sorted(workloads.available()), help="workload to compare on")
    compare.add_argument("--arch", default="baseline-4x4", choices=sorted(architectures.available()))
    compare.add_argument(
        "--platform", default="timeloop", choices=sorted(platforms.available()),
        help="evaluation platform for the schedules",
    )
    compare.add_argument("--metric", default="latency", choices=("latency", "energy", "edp"))
    compare.add_argument("--layers", type=int, default=None, help="only the first N layers")
    compare.add_argument("--batch", type=int, default=1, help="batch size N")
    compare.add_argument("--seed", type=int, default=0, help="base seed for the baselines")
    _add_engine_arguments(compare)

    suite = sub.add_parser("suite", help="schedule every network of the evaluated suite")
    suite.add_argument("--arch", default="baseline-4x4", choices=sorted(architectures.available()))
    suite.add_argument(
        "--scheduler", default="cosa", choices=sorted(schedulers.available()),
        help="which scheduler runs the suite",
    )
    suite.add_argument("--layers", type=int, default=None, help="only the first N layers per network")
    suite.add_argument("--batch", type=int, default=1, help="batch size N")
    _add_engine_arguments(suite)

    run = sub.add_parser("run", help="execute a declarative RunSpec from a JSON file")
    run.add_argument("spec", help="path to a spec file (see docs/api.md for the schema)")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--follow", action="store_true",
        help="stream the job's events to stdout as NDJSON while it executes "
        "(the final run_finished line carries the full result envelope)",
    )
    _add_fusion_arguments(run)

    submit = sub.add_parser(
        "submit", help="submit a RunSpec as a service job recorded in the result store"
    )
    submit.add_argument("spec", help="path to a spec file (see docs/api.md for the schema)")
    submit.add_argument("--json", action="store_true", help="print the full job record")
    submit.add_argument(
        "--priority", default="interactive", choices=("interactive", "batch"),
        help="queue lane on a priority-aware server (default: interactive)",
    )
    _add_store_argument(submit)
    _add_server_arguments(submit)

    jobs = sub.add_parser("jobs", help="list the jobs recorded in the result store")
    jobs.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_argument(jobs)
    _add_server_arguments(jobs)

    result = sub.add_parser(
        "result", help="print the stored result envelope of a finished job"
    )
    result.add_argument("job_id", help="job id as printed by `repro submit` / `repro jobs`")
    _add_store_argument(result)
    _add_server_arguments(result)

    serve = sub.add_parser(
        "serve", help="host the multi-tenant HTTP scheduling gateway"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8123, help="bind port (default: 8123; 0 = any free port)")
    serve.add_argument(
        "--store", metavar="DIR", default=DEFAULT_STORE,
        help=f"root of the per-tenant result stores (default: {DEFAULT_STORE})",
    )
    serve.add_argument(
        "--keys", metavar="FILE", default=None,
        help="JSON file mapping API keys to tenants; omit to disable auth (dev mode)",
    )
    serve.add_argument(
        "--max-workers", type=_positive_int, default=2,
        help="concurrent jobs across all tenants (default: 2)",
    )
    serve.add_argument(
        "--rate", type=float, default=None, metavar="N",
        help="per-tenant admission rate in requests/second (default: unlimited)",
    )
    serve.add_argument(
        "--burst", type=float, default=None, metavar="N",
        help="per-tenant burst capacity in requests (default: 2x --rate)",
    )
    serve.add_argument(
        "--backend", default="local", choices=("local", "fabric"),
        help="job execution backend: 'local' runs jobs on an in-process pool, "
        "'fabric' enqueues them into a persistent work queue drained by "
        "external `repro worker` processes",
    )
    serve.add_argument(
        "--fabric-root", metavar="DIR", default=None,
        help="fabric directory shared with the workers "
        "(default: <store>/fabric when --backend fabric)",
    )

    worker = sub.add_parser(
        "worker", help="run one fabric worker process draining a shared work queue"
    )
    worker.add_argument(
        "fabric_root", help="fabric directory shared with `repro serve --backend fabric`"
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="name recorded in leases and the journal (default: <host>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="claim lease TTL; an unrenewed lease is reclaimed after this "
        "(default: 30)",
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="lease renewal period (default: lease TTL / 3)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="idle sleep between empty claim scans (default: 0.2)",
    )
    worker.add_argument(
        "--max-tasks", type=_positive_int, default=None, metavar="N",
        help="exit after executing N tasks (default: run until SIGTERM)",
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress per-task progress lines"
    )

    store = sub.add_parser(
        "store", help="inspect and maintain a result store from the shell"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="entries, bytes, shard histogram and warm-tier counters"
    )
    store_stats.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_argument(store_stats)
    store_gc = store_sub.add_parser(
        "gc", help="run eviction and compaction on the results and layer tiers"
    )
    store_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used envelopes and layer entries until they fit N bytes",
    )
    store_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted/compacted without touching disk",
    )
    store_gc.add_argument("--json", action="store_true", help="machine-readable output")
    _add_store_argument(store_gc)

    registry = sub.add_parser("registry", help="list the plugin registries of the public API")
    registry.add_argument(
        "axis", nargs="?", choices=sorted(ALL_REGISTRIES),
        help="only this axis (default: every axis)",
    )
    registry.add_argument(
        "--json", action="store_true",
        help="sorted, stable JSON listing (axis -> name -> description)",
    )

    sub.add_parser("networks", help="list the evaluated DNN workloads and their layers")
    sub.add_parser("archs", help="list the available architecture presets")
    return parser


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel layer solves")
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="result store whose layer tier serves and keeps per-layer solves "
        "(default: none; the run's own envelope is never served from it)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="per-layer wall-clock budget for the search baselines",
    )


def _add_fusion_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fusion", metavar="NAME", default=None,
        help="schedule a registered fusion group/plan as one unit "
        "(see `repro registry fusion_groups`; 'auto' greedily groups the layers)",
    )
    parser.add_argument(
        "--fusion-option", dest="fusion_options", action="append", default=[],
        metavar="KEY=VALUE",
        help="fusion-group factory option, repeatable (e.g. --fusion-option seq=64)",
    )


def _parse_fusion_options(pairs) -> dict:
    """``KEY=VALUE`` pairs to a factory-kwargs dict (values parsed as JSON)."""
    options = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"fusion option must be KEY=VALUE, got {pair!r}")
        try:
            options[key] = json.loads(value)
        except json.JSONDecodeError:
            options[key] = value  # bare strings pass through unquoted
    return options


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="DIR", default=DEFAULT_STORE,
        help=f"result-store directory (default: {DEFAULT_STORE})",
    )


def _add_server_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", metavar="URL", default=None,
        help="route through a `repro serve` gateway instead of the local store",
    )
    parser.add_argument(
        "--tenant", default="default",
        help="tenant namespace on the gateway (default: default)",
    )
    parser.add_argument(
        "--api-key", default=None,
        help="API key for the gateway (required when the server enforces auth)",
    )


def _gateway_client(args):
    from repro.api.client import GatewayClient

    return GatewayClient(args.server, tenant=args.tenant, api_key=args.api_key)


def _engine_spec(args) -> EngineSpec:
    return EngineSpec(
        jobs=args.jobs,
        time_budget=args.time_budget,
    )


# ------------------------------------------------------------- text rendering


def _solve_description(outcome) -> str:
    """One-line solve summary matched to the scheduler kind."""
    if outcome.from_cache:
        return f"{outcome.scheduler}: served from the result store's layer tier"
    detail = outcome.detail
    if outcome.scheduler == "cosa":
        return f"CoSA solve: {detail.solution.status.value} in {outcome.solve_time_seconds:.1f}s"
    if outcome.scheduler == "cosa-gpu":
        return (
            f"CoSA-GPU solve: {detail.result.solution.status.value} in "
            f"{outcome.solve_time_seconds:.1f}s "
            f"({detail.threads_per_block} threads/block, {detail.blocks} blocks)"
        )
    if outcome.scheduler == "random":
        return f"Random search: {outcome.num_sampled} samples, {outcome.num_evaluated} valid"
    if outcome.scheduler == "timeloop-hybrid":
        return f"Hybrid search: {outcome.num_evaluated} valid mappings evaluated"
    if outcome.scheduler == "tvm-like":
        return f"TVM-like tuner: {outcome.num_sampled} samples, {outcome.num_evaluated} valid"
    if outcome.scheduler == "local-search":
        return f"Local search: {outcome.num_evaluated} move evaluations"
    return f"{outcome.scheduler}: solved in {outcome.solve_time_seconds:.1f}s"


def _render_schedule(result, as_json: bool, save: str | None = None) -> int:
    network = result.artifacts["network"]
    accelerator = result.artifacts["accelerator"]

    if save and result.data["succeeded"]:
        from repro.mapping.serialize import save_mapping

        path = save_mapping(network.outcomes[0].mapping, save)
        result.data["saved_to"] = str(path)

    if as_json:
        print(result.to_json())
        return 0 if result.data["succeeded"] else 1

    if not result.data["succeeded"]:
        failed = next(o for o in network.outcomes if not o.succeeded)
        print(
            f"{_solve_description(failed)}\n"
            f"no valid schedule found for {failed.layer.name or failed.layer.canonical_name}",
            file=sys.stderr,
        )
        return 1

    from repro.model import CostModel

    cost_model = CostModel(accelerator)
    lines = []
    for outcome, entry in zip(network.outcomes, result.data["outcomes"]):
        cost = cost_model.evaluate(outcome.mapping)
        lines.append(_solve_description(outcome))
        lines.append("")
        lines.append(entry["loop_nest"])
        lines.append("")
        lines.append(
            f"analytical latency: {cost.latency / 1e6:.3f} MCycles "
            f"(bound by {cost.latency_breakdown.bound_by})"
        )
        lines.append(f"analytical energy : {cost.energy / 1e6:.3f} uJ")
        if result.spec.platform.name == "noc":
            from repro.noc import NoCSimulator

            noc_result = NoCSimulator(accelerator).simulate(outcome.mapping)
            lines.append(
                f"NoC-simulated latency: {noc_result.latency / 1e6:.3f} MCycles "
                f"(bound by {noc_result.bound_by})"
            )
    if "fusion" in result.data:
        fusion = result.data["fusion"]
        lines.append("")
        lines.append(
            f"fusion: {fusion['plan']['num_fused_groups']} fused group(s), "
            f"{fusion['plan']['num_fused_edges']} pinned edge(s); "
            f"saved {fusion['saved_dram_words']} DRAM words, "
            f"{fusion['saved_energy_pj'] / 1e6:.3f} uJ"
        )
    if "saved_to" in result.data:
        lines.append(f"mapping written to {result.data['saved_to']}")
    print("\n".join(lines))
    return 0


def _render_compare(result, as_json: bool) -> int:
    if as_json:
        print(result.to_json())
        return 0

    summary = result.artifacts["summary"]
    platform, metric = result.spec.platform.name, result.spec.platform.metric
    lines = [f"[{summary.label}] {platform}/{metric} speedups over Random"]
    for c in summary.comparisons:
        lines.append(
            f"  {c.layer:<20} hybrid {c.hybrid_speedup:6.2f}x   cosa {c.cosa_speedup:6.2f}x"
            f"   (times: {c.random_time:.2f}s / {c.hybrid_time:.2f}s / {c.cosa_time:.2f}s)"
        )
    lines.append(
        f"  geomean              hybrid {summary.hybrid_geomean:6.2f}x   "
        f"cosa {summary.cosa_geomean:6.2f}x"
    )
    for name, stats in summary.engine_stats.items():
        lines.append(
            f"  [{name}] solves={stats.solves} cache_hits={stats.cache_hits} "
            f"cache_misses={stats.cache_misses} dedup_reuses={stats.dedup_reuses}"
        )
    print("\n".join(lines))
    return 0


def _render_suite(result, as_json: bool) -> int:
    if as_json:
        print(result.to_json())
        return 0 if result.data["succeeded"] else 1

    suite = result.artifacts["suite"]
    scheduler = result.artifacts["scheduler"]
    lines = [
        f"{scheduler.name} on {len(suite.networks)} networks ({result.spec.arch.preset})"
    ]
    for name, network in suite.networks.items():
        stats = network.stats
        lines.append(
            f"  {name:<12} {network.num_succeeded}/{len(network.outcomes)} scheduled"
            f"  solves={stats.solves} cache_hits={stats.cache_hits}"
            f" dedup_reuses={stats.dedup_reuses} wall={stats.wall_time_seconds:.1f}s"
        )
    total = suite.stats
    lines.append(
        f"  total        layers={total.num_layers} solves={total.solves}"
        f" cache_hits={total.cache_hits} cache_misses={total.cache_misses}"
        f" wall={total.wall_time_seconds:.1f}s"
    )
    print("\n".join(lines))
    failed = sum(len(n.outcomes) - n.num_succeeded for n in suite.networks.values())
    if failed:
        print(f"{failed} layers produced no valid schedule", file=sys.stderr)
        return 1
    return 0


def _render_result(result, as_json: bool, save: str | None = None) -> int:
    if result.kind == "schedule":
        return _render_schedule(result, as_json, save=save)
    if result.kind == "compare":
        return _render_compare(result, as_json)
    return _render_suite(result, as_json)


def _execute(spec: RunSpec, as_json: bool, save: str | None = None, store=None) -> int:
    """Run a spec and render it, turning spec/registry errors into exit 1.

    The run sees fd 1 pointed at fd 2.  HiGHS writes some diagnostics to
    fd 1 from C++, whatever its output options say, and stdout must carry
    only the rendered result (one JSON document under ``--json``).
    """
    sys.stdout.flush()
    real_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result = api.execute(spec, store=api.ResultStore(store) if store is not None else None)
    except (ValueError, api.UnknownNameError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)
    return _render_result(result, as_json, save=save)


# ----------------------------------------------------------------- subcommands


def _schedule(args) -> int:
    if args.layer is None and args.fusion is None:
        print("error: provide a layer or --fusion NAME", file=sys.stderr)
        return 1
    try:
        spec = RunSpec(
            kind="schedule",
            arch=ArchSpec(args.arch),
            workload=WorkloadSpec(
                layers=(args.layer,) if args.layer is not None else (),
                batch=args.batch,
                fusion=args.fusion,
                fusion_options=_parse_fusion_options(args.fusion_options),
            ),
            scheduler=SchedulerSpec(args.scheduler),
            platform=PlatformSpec(args.platform),
            engine=_engine_spec(args),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return _execute(spec, args.json, save=args.save, store=args.store)


def _compare(args) -> int:
    spec = RunSpec(
        kind="compare",
        arch=ArchSpec(args.arch),
        workload=WorkloadSpec(network=args.network, first_layers=args.layers, batch=args.batch),
        platform=PlatformSpec(args.platform, args.metric),
        engine=_engine_spec(args),
        seed=args.seed,
    )
    return _execute(spec, args.json, store=args.store)


def _suite(args) -> int:
    spec = RunSpec(
        kind="suite",
        arch=ArchSpec(args.arch),
        workload=WorkloadSpec(first_layers=args.layers, batch=args.batch),
        scheduler=SchedulerSpec(args.scheduler),
        engine=_engine_spec(args),
    )
    return _execute(spec, args.json, store=args.store)


def _load_spec_or_fail(path) -> RunSpec | None:
    try:
        return api.load_spec(path)
    except FileNotFoundError:
        print(f"error: spec file {path} does not exist", file=sys.stderr)
        return None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _run_spec_file(args) -> int:
    spec = _load_spec_or_fail(args.spec)
    if spec is None:
        return 1
    if args.fusion is not None or args.fusion_options:
        import dataclasses

        try:
            options = _parse_fusion_options(args.fusion_options)
            spec = dataclasses.replace(
                spec,
                workload=dataclasses.replace(
                    spec.workload,
                    fusion=args.fusion if args.fusion is not None else spec.workload.fusion,
                    fusion_options=options or spec.workload.fusion_options,
                ),
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.follow:
        return _follow(spec)
    return _execute(spec, args.json)


def _follow(spec: RunSpec) -> int:
    """Execute ``spec`` as a service job, streaming NDJSON events to stdout."""
    from repro.api.service import JobState, SchedulingService

    def emit(event) -> None:
        print(json.dumps(event.to_dict()), flush=True)

    service = SchedulingService(max_workers=1)
    try:
        # Spec-resolution errors surface through the job's FAILED state (and
        # its run_failed event), not from submit() itself.
        job = service.submit(spec, on_event=emit)
        job.wait()
    finally:
        service.shutdown(wait=False)  # daemon worker; stay Ctrl-C friendly
    if job.state is not JobState.DONE:
        print(f"error: {job.error}", file=sys.stderr)
        return 1
    return 0 if job.result().succeeded else 1


def _submit(args) -> int:
    from repro.api.service import JobState, SchedulingService

    spec = _load_spec_or_fail(args.spec)
    if spec is None:
        return 1
    if args.server:
        return _submit_remote(args, spec)
    service = SchedulingService(max_workers=1, store=args.store)
    try:
        job = service.submit(spec)
        job.wait()
    finally:
        service.shutdown(wait=False)  # daemon worker; stay Ctrl-C friendly
    record = job.to_dict()
    if args.json:
        print(json.dumps(record, indent=2))
    elif job.state is JobState.DONE:
        origin = "result store" if job.store_hit else "fresh run"
        print(f"{job.id}  {job.state.value}  ({origin})")
    if job.state is not JobState.DONE:
        print(f"error: {job.error}", file=sys.stderr)
        return 1
    return 0


def _submit_remote(args, spec) -> int:
    from repro.api.client import GatewayError

    try:
        with _gateway_client(args) as client:
            record = client.submit(spec, priority=args.priority)
            record = client.wait(record["job_id"])
    except (GatewayError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2))
    elif record["state"] == "done":
        origin = "result store" if record.get("store_hit") else "fresh run"
        print(f"{record['job_id']}  {record['state']}  ({origin})")
    if record["state"] != "done":
        error = record.get("error") or {}
        print(
            f"error: job {record['job_id']} {record['state']}"
            f" ({error.get('type')}: {error.get('message')})",
            file=sys.stderr,
        )
        return 1
    return 0


def _jobs(args) -> int:
    from repro.api.store import ResultStore

    if args.server:
        from repro.api.client import GatewayError

        try:
            with _gateway_client(args) as client:
                records = client.jobs()
        except (GatewayError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    else:
        records = ResultStore(args.store).load_jobs()
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    if not records:
        print(f"no jobs recorded in {args.server or args.store}")
        return 0
    for record in records:
        origin = "store-hit" if record.get("store_hit") else "computed"
        print(f"{record['job_id']}  {record['state']:<9}  {record['kind']:<8}  {origin}")
    return 0


def _result(args) -> int:
    from repro.api.store import ResultStore

    if args.server:
        from repro.api.client import GatewayError

        try:
            with _gateway_client(args) as client:
                print(client.result_text(args.job_id), end="")
        except (GatewayError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    store = ResultStore(args.store)
    record = store.load_job(args.job_id)
    if record is None:
        print(f"error: no job {args.job_id!r} recorded in {args.store}", file=sys.stderr)
        return 1
    result = store.load(record["spec_fingerprint"])
    if result is None:
        error = record.get("error") or {}
        detail = f": {error.get('type')}: {error.get('message')}" if error else ""
        print(
            f"error: job {args.job_id} has no stored result "
            f"(state: {record['state']}){detail}",
            file=sys.stderr,
        )
        return 1
    print(result.to_json())
    return 0


def _install_signal_handlers(on_signal) -> bool:
    """Route SIGTERM/SIGINT to ``on_signal`` (main thread only; False if not)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return False
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)
    return True


def _serve(args) -> int:
    from repro.api.auth import ApiKeyAuth
    from repro.api.gateway import SchedulingGateway
    from repro.api.ratelimit import RateLimiter

    try:
        auth = ApiKeyAuth.from_file(args.keys) if args.keys else None
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    limiter = None
    if args.rate is not None:
        try:
            limiter = RateLimiter(
                rate=args.rate,
                burst=args.burst if args.burst is not None else 2 * args.rate,
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    fabric_root = args.fabric_root
    if args.backend == "fabric" and fabric_root is None:
        fabric_root = str(Path(args.store) / "fabric")
    try:
        gateway = SchedulingGateway(
            args.store,
            auth=auth,
            rate_limiter=limiter,
            max_workers=args.max_workers,
            backend=args.backend,
            fabric_root=fabric_root,
            host=args.host,
            port=args.port,
        )
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    # Graceful stop on SIGTERM/SIGINT: stop accepting, close the listener,
    # flush records, exit 0 — a `kill` never strands RUNNING job records.
    # Installed before the banner so a supervisor reacting to it can
    # immediately signal us.
    def on_signal(signum, frame):
        raise KeyboardInterrupt

    _install_signal_handlers(on_signal)
    mode = "api-key auth" if auth else "no auth (dev mode)"
    backend = "local pool" if args.backend == "local" else f"fabric={fabric_root}"
    try:
        # The banner sits inside the try: a supervisor may react to it with
        # an immediate signal, which must land as a clean shutdown.
        print(
            f"repro gateway on {gateway.url}  store={args.store}  {backend}  {mode}",
            flush=True,
        )
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("repro gateway: shutting down", flush=True)
    finally:
        gateway.close(wait=False)  # daemon workers; stay Ctrl-C friendly
    return 0


def _worker(args) -> int:
    from repro.fabric.worker import FabricWorker

    log = (lambda message: None) if args.quiet else (lambda message: print(message, flush=True))
    try:
        worker = FabricWorker(
            args.fabric_root,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            heartbeat_interval=args.heartbeat_interval,
            poll_interval=args.poll_interval,
            max_tasks=args.max_tasks,
            log=log,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    # SIGTERM/SIGINT: stop claiming, let the in-flight lease finish, flush
    # the event log, exit 0.  A second signal raises and kills the process
    # the hard way.
    def on_signal(signum, frame):
        if worker.stopping:
            raise KeyboardInterrupt
        log(f"worker {worker.worker_id}: draining (signal {signum})")
        worker.stop()

    _install_signal_handlers(on_signal)
    try:
        return worker.run()
    except KeyboardInterrupt:
        return 1


def _store(args) -> int:
    from repro.api.store import ResultStore

    store = ResultStore(args.store)
    if args.store_command == "stats":
        summary = store.stats_summary()
        if args.json:
            print(json.dumps(summary, indent=2))
            return 0
        print(f"store {summary['root']}")
        print(f"  entries: {summary['entries']}  bytes: {summary['bytes']}"
              f"  layers: {summary['layers']}  jobs: {summary['jobs']}")
        if summary["shards"]:
            width = max(count for count in summary["shards"].values())
            for shard, count in summary["shards"].items():
                bar = "#" * max(1, round(20 * count / width))
                print(f"  {shard}  {count:>6}  {bar}")
        warm = summary["warm_tier"]
        counters = summary["counters"]
        print(f"  warm tier: {warm['entries']}/{warm['capacity']} entries, "
              f"{counters['warm_hits']} warm / {counters['disk_hits']} disk hits "
              f"({counters['fused_hits']} fused), {counters['misses']} misses")
        return 0
    # gc: eviction (when bounded) then compaction, one report.
    evicted = store.gc(max_bytes=args.max_bytes, dry_run=args.dry_run)
    compacted = store.compact(dry_run=args.dry_run)
    report = {
        "dry_run": args.dry_run,
        "eviction": evicted.to_dict(),
        "compaction": compacted.to_dict(),
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    verb = "would evict" if args.dry_run else "evicted"
    print(f"{verb} {len(evicted.evicted)} entry(ies) ({evicted.evicted_bytes} bytes); "
          f"removed {compacted.removed_temp_files} temp file(s), "
          f"{compacted.removed_empty_shards} empty shard dir(s); "
          f"{compacted.remaining_entries} entries remain")
    return 0


def _registry(args) -> int:
    if args.json:
        listing = {
            axis: dict(sorted(registry.describe().items()))
            for axis, registry in sorted(ALL_REGISTRIES.items())
            if args.axis is None or axis == args.axis
        }
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    for axis, registry in ALL_REGISTRIES.items():
        if args.axis is not None and axis != args.axis:
            continue
        print(f"{axis}:")
        descriptions = registry.describe()
        for name in registry.available():
            print(f"  {name:<16} {descriptions[name]}")
    return 0


def _networks() -> int:
    for name in workloads.available():
        layers = workloads.create(name)
        print(f"{name} ({len(layers)} layers)")
        for layer in layers:
            label = layer.name or layer.canonical_name
            if label != layer.canonical_name:
                label = f"{label} [{layer.canonical_name}]"
            print(f"  {label}")
    return 0


def _archs() -> int:
    for name in architectures.available():
        print(f"[{name}]")
        print(architectures.create(name).describe())
        print()
    return 0


def main(argv=None) -> int:
    """CLI entry point (returns the process exit code)."""
    args = _build_parser().parse_args(argv)
    if args.command == "schedule":
        return _schedule(args)
    if args.command == "compare":
        return _compare(args)
    if args.command == "suite":
        return _suite(args)
    if args.command == "run":
        return _run_spec_file(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "jobs":
        return _jobs(args)
    if args.command == "result":
        return _result(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "worker":
        return _worker(args)
    if args.command == "store":
        return _store(args)
    if args.command == "registry":
        return _registry(args)
    if args.command == "networks":
        return _networks()
    return _archs()


if __name__ == "__main__":
    raise SystemExit(main())
