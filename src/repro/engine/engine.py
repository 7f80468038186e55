"""The :class:`SchedulingEngine`: drive any scheduler over networks and suites.

The engine owns the three production concerns that individual schedulers
should not re-implement:

* **Parallelism** — layers of a network are independent solves, so
  :meth:`SchedulingEngine.schedule_network` fans them out over a thread
  pool (``jobs=N``) and reassembles results in input order.
* **De-duplication** — equal layers (same seven loop bounds and stride; the
  display name does not participate in :class:`~repro.workloads.layer.Layer`
  equality) are solved once and the outcome is fanned back out to every
  duplicate.
* **Layer reuse** — with a :class:`~repro.api.store.ResultStore` attached,
  previously solved (layer, architecture, scheduler config) triples are
  served from its layer tier instead of re-running the MIP or search.  A
  served layer's envelope fields equal a fresh solve's (wall-clock times
  aside); only :attr:`LayerReport.source` and the live counters tell them
  apart.

Determinism guarantees
----------------------
For a fixed scheduler configuration (including its seed) the engine returns
**identical mappings** regardless of ``jobs``, the layer order, and the
hosting process:

* every scheduler derives its per-layer RNG from a stable content hash of
  ``(scheduler seed, layer canonical name)`` (see
  :func:`repro.baselines.base.stable_layer_seed`), never from shared mutable
  state, so concurrent solves cannot interleave randomness;
* results are collected positionally, so the output order is the input
  order, not completion order;
* the layer key (:func:`repro.engine.cache.cache_key`) covers everything
  that determines a solve, so a layer-tier hit returns the exact mapping
  the solve would have produced.

One caveat: a MIP solve that terminates on its **wall-clock limit** (rather
than on optimality or the relative gap) returns the best incumbent at the
deadline, which can depend on how much CPU the solve received — and
``jobs > 1`` shares the machine between solves.  The guarantee is therefore
unconditional for the search baselines and for MIP solves that finish
within the limit; for limit-capped solves, prefer a store (exact by
construction) or a deterministic budget when bit-identical reruns matter.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping as MappingT

from repro.engine.cache import cache_key_from_parts
from repro.engine.outcome import ScheduleOutcome, Scheduler
from repro.workloads.layer import Layer

#: How a layer's outcome was obtained (see :class:`LayerReport.source`).
LAYER_SOURCES = ("solve", "cache", "dedup")


@dataclass(frozen=True)
class LayerReport:
    """Progress report for one input layer of a network run.

    Handed to the ``observer`` callback of :meth:`SchedulingEngine.schedule_network`
    exactly once per input layer, **in input order** — duplicates included —
    regardless of ``jobs``, so downstream event streams (see
    :mod:`repro.api.events`) are deterministic by construction.

    ``source`` records how the outcome was obtained: a fresh ``"solve"``, a
    ``"cache"`` hit in the store's layer tier, or a ``"dedup"`` copy of an
    identical layer's outcome earlier in the same network.
    """

    network: str
    index: int
    layer: Layer
    outcome: ScheduleOutcome
    source: str


def _solve_one(scheduler: Scheduler, layer: Layer) -> ScheduleOutcome:
    """Solve one layer; the single entry point of the serial and threaded paths."""
    return scheduler.schedule_outcome(layer)


@dataclass
class EngineStats:
    """Effort summary of one engine run.

    ``cache_hits``/``cache_misses`` count this run's layer-tier lookups and
    ``solves`` its fresh solves; they depend on what the store held, so
    :meth:`to_dict` leaves them out and only the CLI's text renderers show
    them.  ``dedup_reuses`` counts layers served by copying another
    identical layer's outcome; it depends on the layers alone.
    """

    num_layers: int = 0
    unique_layers: int = 0
    dedup_reuses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solves: int = 0
    wall_time_seconds: float = 0.0
    jobs: int = 1

    def merged(self, other: "EngineStats") -> "EngineStats":
        """Aggregate of two runs (used by the suite summary)."""
        return EngineStats(
            num_layers=self.num_layers + other.num_layers,
            unique_layers=self.unique_layers + other.unique_layers,
            dedup_reuses=self.dedup_reuses + other.dedup_reuses,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            solves=self.solves + other.solves,
            wall_time_seconds=self.wall_time_seconds + other.wall_time_seconds,
            jobs=max(self.jobs, other.jobs),
        )

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "unique_layers": self.unique_layers,
            "dedup_reuses": self.dedup_reuses,
            "wall_time_seconds": self.wall_time_seconds,
            "jobs": self.jobs,
        }


@dataclass
class NetworkSchedule:
    """Outcomes of one network run, in input-layer order.

    ``groups`` is populated by the fused scheduling path only (one
    :class:`~repro.fusion.schedule.GroupOutcome` per multi-operator fusion
    group); per-operator runs leave it empty and their ``to_dict`` payload
    is byte-identical to pre-fusion releases.
    """

    label: str
    outcomes: list[ScheduleOutcome] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    groups: list = field(default_factory=list)

    @property
    def mappings(self):
        """The mappings in layer order (``None`` entries for failures)."""
        return [outcome.mapping for outcome in self.outcomes]

    @property
    def num_succeeded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.succeeded)

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "stats": self.stats.to_dict(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }
        if self.groups:
            payload["groups"] = [group.to_dict() for group in self.groups]
        return payload


@dataclass
class SuiteSchedule:
    """Outcomes of a whole workload suite, keyed by network id."""

    networks: dict[str, NetworkSchedule] = field(default_factory=dict)

    @property
    def stats(self) -> EngineStats:
        """Aggregate effort over every network of the suite."""
        total = EngineStats()
        for schedule in self.networks.values():
            total = total.merged(schedule.stats)
        return total

    def to_dict(self) -> dict:
        return {
            "networks": {name: schedule.to_dict() for name, schedule in self.networks.items()},
            "stats": self.stats.to_dict(),
        }


class SchedulingEngine:
    """Drive one scheduler over layers, networks and suites.

    Parameters
    ----------
    scheduler:
        Any object satisfying the :class:`~repro.engine.outcome.Scheduler`
        protocol (all four shipped schedulers do).
    store:
        Optional :class:`~repro.api.store.ResultStore` whose layer tier is
        consulted before and updated after every solve.  One store may be
        shared by several engines: the key includes the scheduler identity.
    evaluate_metrics:
        When ``True`` (default) every fresh mapping is evaluated once on the
        analytical cost model and the outcome's ``metrics`` dictionary is
        populated with ``latency``, ``energy`` and ``edp``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        store=None,
        evaluate_metrics: bool = True,
    ):
        if not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"{type(scheduler).__name__} does not satisfy the Scheduler protocol "
                "(needs name, accelerator, schedule_outcome, config_fingerprint)"
            )
        self.scheduler = scheduler
        self.store = store
        self.evaluate_metrics = evaluate_metrics
        self._cost_model = None
        if evaluate_metrics:
            from repro.model.cost import CostModel

            self._cost_model = CostModel(scheduler.accelerator)
        # The architecture and scheduler configuration are assumed fixed for
        # the engine's lifetime; hash them once instead of per layer.
        self._arch_fingerprint = scheduler.accelerator.fingerprint()
        self._config_fingerprint = scheduler.config_fingerprint()

    def _key(self, layer: Layer) -> str:
        """Layer-tier key of ``layer`` using the memoized invariant fingerprints."""
        return cache_key_from_parts(
            layer, self._arch_fingerprint, self.scheduler.name, self._config_fingerprint
        )

    def _attach_metrics(self, outcome: ScheduleOutcome) -> None:
        """Populate latency/energy/edp.

        A fresh solve carries the scheduler's own pricing of its mapping
        (``outcome.cost``); only a layer-tier hit stored by a metrics-less
        engine is priced here.
        """
        if self._cost_model is None or outcome.mapping is None or outcome.metrics:
            return
        cost = outcome.cost
        if cost is None:
            cost = self._cost_model.evaluate(outcome.mapping)
        if cost.valid:
            outcome.metrics.update(latency=cost.latency, energy=cost.energy, edp=cost.edp)

    # ----------------------------------------------------------------- network
    def schedule_network(
        self,
        layers: Iterable[Layer],
        jobs: int = 1,
        label: str = "",
        observer=None,
        fusion=None,
    ) -> NetworkSchedule:
        """Schedule every layer of a network.

        Parameters
        ----------
        layers:
            The network's layers, in order.
        jobs:
            Concurrent solves; ``1`` runs serially in the calling thread,
            more run on a thread pool.  The MIP solver releases the GIL, so
            CoSA solves overlap; the pure-Python search baselines gain
            little.  Mappings are identical either way (see the module
            docstring).
        label:
            Display name recorded on the returned :class:`NetworkSchedule`.
        observer:
            Optional progress callback, invoked with one :class:`LayerReport`
            per input layer in input order once the layer's outcome is known
            (the service layer turns these into ``layer_scheduled`` events).
            Observer exceptions propagate: a broken subscriber should fail
            the run loudly rather than silently drop events.
        fusion:
            Optional fusion plan: ``"auto"``, a
            :class:`~repro.fusion.plan.FusionPlan` or a single
            :class:`~repro.fusion.group.FusionGroup`.  When given, the run
            is delegated to :func:`repro.fusion.schedule.schedule_fused_network`:
            multi-operator groups are scheduled as units with their
            intermediates pinned on-chip, and the returned schedule carries
            one :class:`~repro.fusion.schedule.GroupOutcome` per group.
            The fused path reports ``"solve"``/``"cache"`` layer sources
            only (no ``"dedup"``).
        """
        if fusion is not None:
            from repro.fusion.schedule import schedule_fused_network

            return schedule_fused_network(
                self, layers, fusion, jobs=jobs, label=label, observer=observer
            )
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        layers = list(layers)
        start = time.perf_counter()

        # Group equal layers: solve the first occurrence, fan out to the rest.
        unique_layers: list[Layer] = []
        groups: dict[Layer, list[int]] = {}
        for index, layer in enumerate(layers):
            if layer not in groups:
                groups[layer] = []
                unique_layers.append(layer)
            groups[layer].append(index)

        stats = EngineStats(num_layers=len(layers), unique_layers=len(unique_layers), jobs=jobs)

        # Layer-tier lookups are cheap; resolve them serially so the pool
        # only receives layers that genuinely need a solve.
        resolved: dict[Layer, ScheduleOutcome] = {}
        to_solve: list[Layer] = []
        keys: dict[Layer, str] = {}
        cached_layers: set[Layer] = set()
        for layer in unique_layers:
            if self.store is not None:
                keys[layer] = self._key(layer)
                cached = self.store.load_layer(keys[layer], layer)
                if cached is not None:
                    self._attach_metrics(cached)
                    resolved[layer] = cached
                    cached_layers.add(layer)
                    stats.cache_hits += 1
                    continue
                stats.cache_misses += 1
            to_solve.append(layer)

        stats.solves = len(to_solve)
        stats.dedup_reuses = len(layers) - len(unique_layers)

        # Walk the input order, pulling fresh solves lazily from the pool as
        # their turn comes up.  ``to_solve`` preserves first-occurrence order
        # and the pool yields results in submission order, so the next solve
        # off the stream is always the layer the walk is waiting for: the
        # observer sees every layer in input order *while later solves are
        # still running*, and the emitted payloads are identical for any
        # ``jobs``.
        solve_stream = zip(to_solve, self._run(to_solve, jobs))
        first_index = {layer: indices[0] for layer, indices in groups.items()}
        outcomes: list[ScheduleOutcome] = [None] * len(layers)  # type: ignore[list-item]
        for index, layer in enumerate(layers):
            if index != first_index[layer]:
                source = "dedup"
                outcomes[index] = resolved[layer].with_layer(layer)
            elif layer in cached_layers:
                source = "cache"
                outcomes[index] = resolved[layer]
            else:
                source = "solve"
                solved_layer, outcome = next(solve_stream)
                assert solved_layer is layer  # both follow first-occurrence order
                self._attach_metrics(outcome)
                if self.store is not None:
                    self.store.put_layer(keys[layer], outcome)
                resolved[layer] = outcome
                outcomes[index] = outcome
            if observer is not None:
                observer(
                    LayerReport(
                        network=label,
                        index=index,
                        layer=layer,
                        outcome=outcomes[index],
                        source=source,
                    )
                )
        stats.wall_time_seconds = time.perf_counter() - start
        return NetworkSchedule(label=label, outcomes=outcomes, stats=stats)

    def _run(self, layers: list[Layer], jobs: int):
        """Solve ``layers`` with the configured parallelism, yielding outcomes
        lazily in input order.

        The thread pool submits every task eagerly (full ``jobs``
        parallelism) but results are *yielded* as they arrive, so callers can
        stream per-layer progress while later layers are still solving.
        """
        if not layers:
            return
        if jobs == 1 or len(layers) == 1:
            for layer in layers:
                yield _solve_one(self.scheduler, layer)
            return
        with ThreadPoolExecutor(max_workers=min(jobs, len(layers))) as pool:
            yield from pool.map(_solve_one, [self.scheduler] * len(layers), layers)

    # ------------------------------------------------------------------- suite
    def schedule_suite(
        self,
        suite: MappingT[str, Iterable[Layer]] | None = None,
        jobs: int = 1,
        observer=None,
    ) -> SuiteSchedule:
        """Schedule every network of a workload suite.

        ``suite`` defaults to the paper's four evaluated workloads
        (:func:`repro.workloads.networks.workload_suite`).  The store (when
        attached) is shared across the whole suite, so shapes repeated
        between networks — e.g. ResNet-50 and ResNeXt-50 share layers — are
        solved once.  ``observer`` receives one :class:`LayerReport` per
        layer of every network, streamed network by network in suite order.
        """
        if suite is None:
            from repro.workloads.networks import workload_suite

            suite = workload_suite()
        result = SuiteSchedule()
        for name, layers in suite.items():
            result.networks[name] = self.schedule_network(
                layers, jobs=jobs, label=name, observer=observer
            )
        return result
