"""Declarative public API: spec objects, plugin registries, one ``run()``.

Every experiment of the paper picks an architecture, a workload, a scheduler
and an evaluation platform.  This package makes that shape the public
contract:

* :mod:`repro.api.specs` — typed, serializable spec dataclasses
  (:class:`RunSpec` composing :class:`ArchSpec`, :class:`WorkloadSpec`,
  :class:`SchedulerSpec`, :class:`PlatformSpec`, :class:`EngineSpec`),
* :mod:`repro.api.registry` — string-keyed plugin registries for all four
  axes with ``register_*`` decorators, typo-suggesting lookup errors and
  introspectable ``available()``,
* :mod:`repro.api.runner` — the versioned entry point
  ``run(spec) -> RunResult``; results stamp the payload ``schema_version``
  and the resolved spec, and round-trip through ``to_dict``/``from_dict``/
  JSON,
* :mod:`repro.api.service` — the asynchronous :class:`SchedulingService`:
  ``submit(spec) -> Job`` with states, ``Job.result(timeout=...)``,
  ``cancel()`` and live typed events (:mod:`repro.api.events`), backed by a
  bounded worker pool and the content-addressed on-disk
  :class:`~repro.api.store.ResultStore` (``run()`` is a thin synchronous
  wrapper over ``submit().result()``),
* :mod:`repro.api.gateway` — the multi-tenant HTTP/JSON front door over the
  service (stdlib ``http.server``): per-tenant stores and job namespaces,
  API-key auth (:mod:`repro.api.auth`), token-bucket admission control
  (:mod:`repro.api.ratelimit`), a weighted interactive/batch priority
  queue, and chunked NDJSON event streaming; :mod:`repro.api.client` is
  the matching stdlib client (``repro submit --server URL``).

Quickstart::

    from repro.api import RunSpec, run

    result = run(RunSpec.from_dict({
        "kind": "compare",
        "workload": {"network": "resnet50", "first_layers": 4},
    }))
    print(result.data["cosa_geomean"])
    print(result.to_json())            # schema_version-stamped, reproducible

Asynchronously, with progress events and result-store de-duplication::

    from repro.api import RunSpec, SchedulingService

    with SchedulingService(max_workers=4, store="run-store") as service:
        job = service.submit(RunSpec.from_dict({...}))
        for event in job.events():
            print(event.to_dict())     # NDJSON-ready typed events
        result = job.result()          # identical envelope to run()

Registering a plugin makes it reachable from specs, ``run()`` and the CLI
without touching any of them::

    from repro.api import register_scheduler

    @register_scheduler("my-tuner")
    def _make(accelerator, *, seed=0):
        return MyTuner(accelerator, seed=seed)

The heavyweight pipeline modules (comparison, engine, solvers) load lazily
on first use, so ``import repro.api`` stays cheap.
"""

from repro.api.registry import (
    ALL_REGISTRIES,
    DuplicateNameError,
    Registry,
    UnknownNameError,
    architectures,
    fusion_groups,
    platforms,
    problems,
    register_architecture,
    register_fusion_group,
    register_platform,
    register_problem,
    register_scheduler,
    register_workload,
    schedulers,
    workloads,
)
from repro.api.result import SCHEMA_VERSION, RunResult
from repro.api.specs import (
    ArchSpec,
    EngineSpec,
    PlatformSpec,
    RunSpec,
    SchedulerSpec,
    WorkloadSpec,
)

# Populate the registries with everything the repository ships.
from repro.api import builtin as _builtin  # noqa: F401  (imported for effect)

__all__ = [
    # registries
    "ALL_REGISTRIES",
    "DuplicateNameError",
    "Registry",
    "UnknownNameError",
    "architectures",
    "fusion_groups",
    "platforms",
    "problems",
    "register_architecture",
    "register_fusion_group",
    "register_platform",
    "register_problem",
    "register_scheduler",
    "register_workload",
    "schedulers",
    "workloads",
    # specs + result
    "ArchSpec",
    "EngineSpec",
    "PlatformSpec",
    "RunSpec",
    "SchedulerSpec",
    "WorkloadSpec",
    "RunResult",
    "SCHEMA_VERSION",
    # entry points (lazy)
    "run",
    "execute",
    "load_spec",
    # service layer (lazy)
    "SchedulingService",
    "Job",
    "JobState",
    "JobCancelled",
    "JobTimeout",
    "TwoLevelPriorityQueue",
    "ResultStore",
    "StoreRecordWarning",
    "spec_fingerprint",
    # gateway layer (lazy)
    "SchedulingGateway",
    "GatewayClient",
    "GatewayError",
    "ApiKeyAuth",
    "AuthenticationError",
    "AuthorizationError",
    "RateLimiter",
    "TokenBucket",
    # event protocol (lazy)
    "EVENT_SCHEMA_VERSION",
    "Event",
    "RunQueued",
    "RunStarted",
    "LayerScheduled",
    "RunFinished",
    "RunFailed",
    "event_from_dict",
    # comparison pipeline (lazy)
    "ComparisonConfig",
    "LayerComparison",
    "SpeedupSummary",
    "build_schedulers",
    "compare_on_layer",
    "compare_on_network",
    "geometric_mean",
]

#: Names resolved lazily to keep ``import repro.api`` free of scipy/numpy.
_LAZY = {
    "run": "repro.api.runner",
    "execute": "repro.api.runner",
    "load_spec": "repro.api.runner",
    "SchedulingService": "repro.api.service",
    "Job": "repro.api.service",
    "JobState": "repro.api.service",
    "JobCancelled": "repro.api.service",
    "JobTimeout": "repro.api.service",
    "TwoLevelPriorityQueue": "repro.api.service",
    "ResultStore": "repro.api.store",
    "StoreRecordWarning": "repro.api.store",
    "spec_fingerprint": "repro.api.store",
    "SchedulingGateway": "repro.api.gateway",
    "GatewayClient": "repro.api.client",
    "GatewayError": "repro.api.client",
    "ApiKeyAuth": "repro.api.auth",
    "AuthenticationError": "repro.api.auth",
    "AuthorizationError": "repro.api.auth",
    "RateLimiter": "repro.api.ratelimit",
    "TokenBucket": "repro.api.ratelimit",
    "EVENT_SCHEMA_VERSION": "repro.api.events",
    "Event": "repro.api.events",
    "RunQueued": "repro.api.events",
    "RunStarted": "repro.api.events",
    "LayerScheduled": "repro.api.events",
    "RunFinished": "repro.api.events",
    "RunFailed": "repro.api.events",
    "event_from_dict": "repro.api.events",
    "ComparisonConfig": "repro.api.comparison",
    "LayerComparison": "repro.api.comparison",
    "SpeedupSummary": "repro.api.comparison",
    "build_schedulers": "repro.api.comparison",
    "compare_on_layer": "repro.api.comparison",
    "compare_on_network": "repro.api.comparison",
    "geometric_mean": "repro.api.comparison",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
