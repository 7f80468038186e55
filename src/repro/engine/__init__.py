"""Unified scheduling engine: one protocol, parallel solves, layer reuse.

This package is the seam between individual schedulers (CoSA's one-shot MIP,
the search baselines) and everything that consumes schedules at scale (the
experiment harness, the CLI, services):

* :mod:`repro.engine.outcome` — the :class:`Scheduler` protocol and the
  scheduler-agnostic :class:`ScheduleOutcome` result,
* :mod:`repro.engine.cache` — :func:`cache_key`, the content address of one
  per-layer solve in a result store's layer tier,
* :mod:`repro.engine.engine` — the :class:`SchedulingEngine` driving any
  scheduler over networks and suites with ``jobs=N`` parallelism,
  identical-layer de-duplication and, given a store, layer reuse.

Quickstart::

    from repro import simba_like
    from repro.api.store import ResultStore
    from repro.core import CoSAScheduler
    from repro.engine import SchedulingEngine
    from repro.workloads import resnet50_layers

    store = ResultStore(".repro-store")
    engine = SchedulingEngine(CoSAScheduler(simba_like()), store=store)
    network = engine.schedule_network(resnet50_layers(), jobs=4)
    print(network.stats.solves)             # 0 on a re-run over the same store
    print(network.outcomes[0].metrics)      # latency / energy / edp
"""

from repro.engine.cache import cache_key
from repro.engine.engine import (
    EngineStats,
    LayerReport,
    NetworkSchedule,
    SchedulingEngine,
    SuiteSchedule,
)
from repro.engine.outcome import ScheduleOutcome, Scheduler

__all__ = [
    "cache_key",
    "EngineStats",
    "LayerReport",
    "NetworkSchedule",
    "SchedulingEngine",
    "SuiteSchedule",
    "ScheduleOutcome",
    "Scheduler",
]
