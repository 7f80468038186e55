"""The versioned entry points: ``run(spec)`` and its asynchronous core.

:func:`execute` resolves every axis of a :class:`~repro.api.specs.RunSpec`
through the plugin registries, drives the
:class:`~repro.engine.engine.SchedulingEngine` (or the comparison pipeline),
and returns a :class:`~repro.api.result.RunResult` stamped with the payload
``schema_version`` and the fully resolved spec.  It optionally narrates
per-layer progress through an ``emit_layer`` callback — the hook the
:class:`~repro.api.service.SchedulingService` turns into ``layer_scheduled``
events.  :func:`execute_job` wraps it with the result-store lookup and write
that service threads and fabric workers share, and hands it the job's store.

:func:`run` is the synchronous convenience wrapper the public API promises:
it submits the spec to a private single-worker service and blocks on
``Job.result()``, so ``run(spec)`` and ``service.submit(spec).result()``
are the same code path and produce bit-identical envelopes.  The CLI
subcommands (``schedule``/``compare``/``suite``/``run``/``submit``) are thin
argument translators over these functions, so a scheduler, architecture,
workload or platform registered by a plugin is immediately reachable from
every entry point.

Payload shapes (``RunResult.data``) by kind:

* ``schedule`` — ``label``, ``scheduler``, ``succeeded``, ``stats``
  (engine counters) and one ``outcomes`` entry per layer: the unified
  :meth:`~repro.engine.outcome.ScheduleOutcome.to_dict` summary plus a
  rendered ``loop_nest`` and the evaluation platform's ``platform_value``.
* ``compare`` — ``label``, ``platform``, ``metric``, per-layer
  ``comparisons`` rows, the two geomeans and per-scheduler
  ``engine_stats`` (the shape of the paper's speedup figures).
* ``suite`` — ``scheduler``, ``succeeded`` and per-network
  :meth:`~repro.engine.engine.NetworkSchedule.to_dict` payloads plus
  aggregate ``stats``.
"""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path

from repro.api.registry import (
    architectures,
    fusion_groups,
    platforms,
    problems,
    schedulers,
    workloads,
)
from repro.api.result import LEGACY_SCHEMA_VERSION, SCHEMA_VERSION, RunResult
from repro.api.specs import RunSpec, WorkloadSpec

#: ``RunSpec.options`` keys accepted by ``kind="compare"`` (the triple's
#: budget knobs; everything else about the triple is fixed by construction).
COMPARE_OPTIONS = (
    "hybrid_threads",
    "hybrid_termination",
    "hybrid_max_evaluations",
    "random_valid",
)


def load_spec(path) -> RunSpec:
    """Parse a :class:`RunSpec` from a JSON spec file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"spec file {path} is not valid JSON: {error}") from None
    return RunSpec.from_dict(data)


def run(spec: RunSpec) -> RunResult:
    """Execute one declarative experiment and return its stamped result.

    A thin synchronous wrapper over the service API: the spec is submitted
    to a private single-worker :class:`~repro.api.service.SchedulingService`
    (no result store attached) and this call blocks on ``Job.result()``.
    Failures re-raise the original exception, so error behaviour is
    unchanged from the pre-service ``run()``.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"run() expects a RunSpec, got {type(spec).__name__}")
    from repro.api.service import SchedulingService

    service = SchedulingService(max_workers=1)
    try:
        return service.submit(spec).result()
    finally:
        # No join: the worker is a daemon and already idle on the normal
        # path, and an interrupt (Ctrl-C mid-sweep) must not block here —
        # matching the pre-service inline behaviour.
        service.shutdown(wait=False)


def execute(spec: RunSpec, emit_layer=None, store=None) -> RunResult:
    """The synchronous core behind :func:`run` and every service job.

    ``emit_layer``, when given, is called with one JSON-compatible progress
    payload per input layer (in deterministic input order; see
    :class:`~repro.api.events.LayerScheduled` for the field contract).
    ``store`` (a :class:`~repro.api.store.ResultStore`) serves layers solved
    earlier from its layer tier and keeps every fresh solve there.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"execute() expects a RunSpec, got {type(spec).__name__}")
    accelerator = architectures.create(spec.arch.preset)

    if spec.kind == "compare":
        return _run_compare(spec, accelerator, store, emit_layer)
    if spec.kind == "schedule":
        return _run_schedule(spec, accelerator, store, emit_layer)
    return _run_suite(spec, accelerator, store, emit_layer)


def execute_job(spec: RunSpec, fingerprint: str, store=None, emit_layer=None, *, count=True):
    """One job's execution: serve ``spec`` from ``store`` or run and store it.

    The body every service worker thread and every fabric worker shares: a
    stored envelope under ``fingerprint`` is returned as is (no scheduler
    runs); otherwise :func:`execute` runs against the store's layer tier
    and its envelope is put in the store.  Returns ``(result, store_hit)``;
    ``store=None`` always executes.
    ``count=False`` looks the store up without touching its hit/miss
    counters: the service counted this job's lookup at submit already.
    """
    if store is not None:
        result = store.get(spec, fingerprint) if count else store.load(fingerprint)
        if result is not None:
            return result, True
    result = execute(spec, emit_layer=emit_layer, store=store)
    if store is not None:
        store.put(result, fingerprint)
    return result, False


def _finite(value) -> float | None:
    """Clamp non-finite metric values to ``None`` for event payloads."""
    if value is None or not isinstance(value, (int, float)):
        return None
    return value if math.isfinite(value) else None


def _engine_observer(emit_layer, scheduler_name: str):
    """Adapt :class:`~repro.engine.engine.LayerReport` progress reports into
    ``layer_scheduled`` event payloads for single-scheduler runs."""
    if emit_layer is None:
        return None

    def observer(report):
        emit_layer(
            {
                "network": report.network,
                "index": report.index,
                "layer": report.layer.name or report.layer.canonical_name,
                "succeeded": report.outcome.succeeded,
                "dedup": report.source == "dedup",
                "cache_hit": {scheduler_name: report.source == "cache"},
                "cost": {
                    scheduler_name: {
                        metric: _finite(value)
                        for metric, value in report.outcome.metrics.items()
                    }
                },
            }
        )

    return observer


# ----------------------------------------------------------------- resolution


def _register_layer_problems(layers) -> None:
    """Auto-register each layer's TensorProblem for name-based lookup, so
    serialized mappings and layer-tier entries of plugin problems load in this
    process without the author calling both register APIs."""
    from repro.workloads.problem import register_problem as register_ir_problem

    for layer in layers:
        register_ir_problem(layer.problem)


def _resolve_fusion(workload: WorkloadSpec):
    """Resolve the fusion axis into ``(label, FusionPlan)``.

    Only called for standalone fusion-group workloads (``fusion`` naming a
    registry entry); ``fusion='auto'`` is resolved against the layers of the
    conventionally named workload instead.
    """
    from repro.fusion.group import FusionGroup
    from repro.fusion.plan import FusionPlan

    factory = fusion_groups.get(workload.fusion)
    built = factory(batch=workload.batch, **workload.fusion_options)
    if isinstance(built, FusionGroup):
        built = FusionPlan(groups=(built,))
    if not isinstance(built, FusionPlan):
        raise TypeError(
            f"fusion-group factory {workload.fusion!r} must return a FusionGroup "
            f"or FusionPlan, got {type(built).__name__}"
        )
    _register_layer_problems(built.layers)
    return workload.fusion, built


def _resolve_layers(workload: WorkloadSpec) -> tuple[str, list]:
    """Resolve a workload spec into ``(label, layers)`` via the registries."""
    from repro.workloads.networks import layer_from_name

    if workload.fusion not in (None, "auto"):
        label, plan = _resolve_fusion(workload)
        return label, plan.layers
    if workload.network is not None:
        label = workload.network
        layers = workloads.create(workload.network, batch=workload.batch)
    elif workload.problem is not None:
        label = workload.problem
        # Call the factory directly (not Registry.create) so a "name" entry
        # in problem_options cannot collide with the lookup-key parameter.
        factory = problems.get(workload.problem)
        built = factory(batch=workload.batch, **workload.problem_options)
        layers = list(built) if isinstance(built, (list, tuple)) else [built]
        _register_layer_problems(layers)
    else:
        label = "custom"
        layers = [layer_from_name(name, batch=workload.batch) for name in workload.layers]
    if workload.first_layers is not None:
        layers = layers[: workload.first_layers]
    return label, layers


def _schema_version(spec: RunSpec, layers) -> int:
    """The envelope version to stamp: v1 unless the run touches the IR axis.

    Runs whose *resolved layers* are all conv keep emitting v1 envelopes
    (byte-identical to pre-IR builds); naming a problem in the spec or
    resolving any non-conv tensor-problem layer upgrades to v2.  Note the
    one legacy spec this upgrades: an empty-workload ``suite`` means *every
    registered workload*, which now includes the transformer-block presets,
    so such suites resolve non-conv layers and stamp v2.
    """
    if spec.workload.uses_problem_axis or spec.workload.uses_fusion:
        return SCHEMA_VERSION
    if any(layer.problem.name != "conv7" for layer in layers):
        return SCHEMA_VERSION
    return LEGACY_SCHEMA_VERSION


def _resolve_suite(workload: WorkloadSpec) -> dict:
    """Resolve a workload spec into a ``{network: layers}`` suite."""
    if workload.is_empty:
        suite = {
            name: workloads.create(name, batch=workload.batch)
            for name in workloads.available()
        }
    else:
        label, layers = _resolve_layers(workload)
        return {label: layers}
    if workload.first_layers is not None:
        suite = {name: layers[: workload.first_layers] for name, layers in suite.items()}
    return suite


def _build_scheduler(spec: RunSpec, accelerator):
    """Build the spec's scheduler through the registry.

    Explicit ``SchedulerSpec.options`` are passed through verbatim; one the
    scheduler does not take is a spec error (``ValueError`` naming it), like
    an unknown registry name.  The engine-level search knobs —
    ``seed`` and ``time_budget_seconds`` — are offered only to factories
    whose signature accepts them, so one spec drives both seeded search
    baselines and knob-free one-shot schedulers.
    """
    factory = schedulers.get(spec.scheduler.name)
    options = dict(spec.scheduler.options)
    offered = {
        "seed": spec.seed,
        "time_budget_seconds": spec.engine.time_budget,
    }
    parameters = inspect.signature(factory).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    for name, value in offered.items():
        if name not in options and (accepts_any or name in parameters):
            options[name] = value
    try:
        scheduler = factory(accelerator, **options)
    except TypeError as error:
        # Binding errors quote the rejected keyword; any other TypeError is a bug.
        rejected = [name for name in spec.scheduler.options if f"'{name}'" in str(error)]
        if not rejected:
            raise
        raise ValueError(
            f"scheduler {spec.scheduler.name!r} does not take option(s) "
            + ", ".join(map(repr, rejected))
        ) from error

    if scheduler.accelerator.fingerprint() != accelerator.fingerprint():
        raise ValueError(
            f"scheduler {spec.scheduler.name!r} targets its own architecture "
            f"({scheduler.accelerator.name!r}), which does not match the spec's "
            f"architecture {spec.arch.preset!r} ({accelerator.name!r}); pick the "
            "matching architecture preset (e.g. 'gpu-k80' for the 'gpu' scheduler)"
        )
    return scheduler


# ----------------------------------------------------------------- run kinds


def _run_schedule(spec: RunSpec, accelerator, store, emit_layer=None) -> RunResult:
    from repro.engine import SchedulingEngine
    from repro.mapping.loopnest import render_loop_nest

    plan = None
    if spec.workload.fusion not in (None, "auto"):
        label, plan = _resolve_fusion(spec.workload)
        layers = plan.layers
    else:
        label, layers = _resolve_layers(spec.workload)
        if spec.workload.fusion == "auto":
            from repro.fusion.plan import auto_group

            plan = auto_group(layers)
    scheduler = _build_scheduler(spec, accelerator)
    engine = SchedulingEngine(scheduler, store=store)
    network = engine.schedule_network(
        layers,
        jobs=spec.engine.jobs,
        label=label,
        observer=_engine_observer(emit_layer, scheduler.name),
        fusion=plan,
    )
    # The engine already evaluated the analytical metrics once per mapping,
    # and the built-in "timeloop" platform reports exactly those — only other
    # platforms need a separate evaluation pass.
    evaluate = None
    if spec.platform.name != "timeloop":
        evaluate = platforms.create(spec.platform.name, accelerator, metric=spec.platform.metric)

    outcomes = []
    for outcome in network.outcomes:
        entry = outcome.to_dict()
        if outcome.mapping is not None:
            entry["loop_nest"] = render_loop_nest(
                outcome.mapping, level_names=list(accelerator.hierarchy.names)
            )
            if evaluate is None:
                entry["platform_value"] = outcome.metrics.get(spec.platform.metric)
            else:
                value = evaluate(outcome.mapping)
                entry["platform_value"] = value if value != float("inf") else None
        else:
            entry["loop_nest"] = None
            entry["platform_value"] = None
        outcomes.append(entry)

    data = {
        "label": label,
        "scheduler": scheduler.name,
        "succeeded": network.num_succeeded == len(network.outcomes),
        "stats": network.stats.to_dict(),
        "outcomes": outcomes,
    }
    if plan is not None:
        group_payloads = [group.to_dict() for group in network.groups]
        data["fusion"] = {
            "plan": {
                "fingerprint": plan.fingerprint(),
                "num_groups": len(plan.groups),
                "num_fused_groups": plan.num_fused_groups,
                "num_fused_edges": plan.num_fused_edges,
            },
            "groups": group_payloads,
            "saved_dram_words": sum(
                group.cost.unfused_dram_words - group.cost.dram_words
                for group in network.groups
                if group.cost is not None and group.cost.valid
            ),
            "saved_energy_pj": sum(
                group.cost.unfused_energy - group.cost.energy
                for group in network.groups
                if group.cost is not None and group.cost.valid
            ),
        }
    artifacts = {"accelerator": accelerator, "scheduler": scheduler, "network": network}
    return RunResult(
        kind="schedule",
        spec=spec,
        data=data,
        artifacts=artifacts,
        schema_version=_schema_version(spec, layers),
    )


def _run_compare(spec: RunSpec, accelerator, store, emit_layer=None) -> RunResult:
    from repro.api.comparison import ComparisonConfig, compare_on_network

    unknown = sorted(set(spec.options) - set(COMPARE_OPTIONS))
    if unknown:
        raise ValueError(
            f"unknown compare option(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(COMPARE_OPTIONS)}"
        )
    if spec.workload.fusion is not None:
        raise ValueError(
            "kind='compare' does not support fusion-group scheduling; "
            "run kind='schedule' with the fusion workload instead"
        )
    label, layers = _resolve_layers(spec.workload)
    config = ComparisonConfig(
        accelerator=accelerator,
        platform=spec.platform.name,
        metric=spec.platform.metric,
        seed=spec.seed,
        time_budget_seconds=spec.engine.time_budget,
        **spec.options,
    )
    summary = compare_on_network(label, layers, config, jobs=spec.engine.jobs, store=store)

    if emit_layer is not None:
        # One merged event per input layer, all three schedulers' values in
        # one payload (deterministic: emitted from the finished summary in
        # layer order, and every value is seed-stable).
        metric = spec.platform.metric
        for index, row in enumerate(summary.comparisons):
            values = {
                "random": _finite(row.random_value),
                "hybrid": _finite(row.hybrid_value),
                "cosa": _finite(row.cosa_value),
            }
            emit_layer(
                {
                    "network": label,
                    "index": index,
                    "layer": row.layer,
                    "succeeded": all(value is not None for value in values.values()),
                    "dedup": layers[index] in layers[:index],
                    "cache_hit": {
                        "random": row.random_cached,
                        "hybrid": row.hybrid_cached,
                        "cosa": row.cosa_cached,
                    },
                    "cost": {name: {metric: value} for name, value in values.items()},
                }
            )

    payload = summary.to_dict()
    data = {
        "label": payload.pop("label"),
        "platform": spec.platform.name,
        "metric": spec.platform.metric,
        **payload,
    }
    artifacts = {"accelerator": accelerator, "summary": summary}
    return RunResult(
        kind="compare",
        spec=spec,
        data=data,
        artifacts=artifacts,
        schema_version=_schema_version(spec, layers),
    )


def _run_suite(spec: RunSpec, accelerator, store, emit_layer=None) -> RunResult:
    from repro.engine import SchedulingEngine

    if spec.workload.fusion is not None:
        raise ValueError(
            "kind='suite' does not support fusion-group scheduling; "
            "run kind='schedule' with the fusion workload instead"
        )
    suite = _resolve_suite(spec.workload)
    scheduler = _build_scheduler(spec, accelerator)
    engine = SchedulingEngine(scheduler, store=store)
    result = engine.schedule_suite(
        suite,
        jobs=spec.engine.jobs,
        observer=_engine_observer(emit_layer, scheduler.name),
    )

    succeeded = all(
        network.num_succeeded == len(network.outcomes) for network in result.networks.values()
    )
    data = {"scheduler": scheduler.name, "succeeded": succeeded, **result.to_dict()}
    artifacts = {"accelerator": accelerator, "scheduler": scheduler, "suite": result}
    all_layers = [layer for layers in suite.values() for layer in layers]
    return RunResult(
        kind="suite",
        spec=spec,
        data=data,
        artifacts=artifacts,
        schema_version=_schema_version(spec, all_layers),
    )
