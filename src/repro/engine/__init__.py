"""Unified scheduling engine: one protocol, parallel solves, a mapping cache.

This package is the seam between individual schedulers (CoSA's one-shot MIP,
the search baselines) and everything that consumes schedules at scale (the
experiment harness, the CLI, services):

* :mod:`repro.engine.outcome` — the :class:`Scheduler` protocol and the
  scheduler-agnostic :class:`ScheduleOutcome` result,
* :mod:`repro.engine.cache` — the content-addressed :class:`MappingCache`
  (in-memory LRU, optionally backed by a result store's layer tier),
* :mod:`repro.engine.engine` — the :class:`SchedulingEngine` driving any
  scheduler over networks and suites with ``jobs=N`` parallelism and
  identical-layer de-duplication.

Quickstart::

    from repro import simba_like
    from repro.core import CoSAScheduler
    from repro.engine import MappingCache, SchedulingEngine
    from repro.workloads import resnet50_layers

    engine = SchedulingEngine(CoSAScheduler(simba_like()), cache=MappingCache())
    network = engine.schedule_network(resnet50_layers(), jobs=4)
    print(network.stats.to_dict())          # solves / cache hits / dedup reuses
    print(network.outcomes[0].metrics)      # latency / energy / edp
"""

from repro.engine.cache import CacheStats, MappingCache, cache_key
from repro.engine.engine import (
    EngineStats,
    LayerReport,
    NetworkSchedule,
    SchedulingEngine,
    SuiteSchedule,
)
from repro.engine.outcome import ScheduleOutcome, Scheduler

__all__ = [
    "CacheStats",
    "MappingCache",
    "cache_key",
    "EngineStats",
    "LayerReport",
    "NetworkSchedule",
    "SchedulingEngine",
    "SuiteSchedule",
    "ScheduleOutcome",
    "Scheduler",
]
