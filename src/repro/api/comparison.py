"""The scheduler-comparison pipeline behind the paper's speedup figures.

Every speedup figure of the paper (Figs. 6, 7, 9, 10) has the same shape:
for each layer, generate a schedule with Random search, the Timeloop-Hybrid
mapper and CoSA, evaluate all three on one evaluation platform and report
per-layer and geometric-mean speedups relative to Random.  This module
implements that pipeline once, as a thin wrapper over the
:class:`~repro.engine.engine.SchedulingEngine`: one engine per scheduler
drives the layers (optionally in parallel and against a shared result
store), and the pipeline only evaluates the resulting mappings on the chosen
platform and shapes the comparison rows.

Both axes that used to be hard-coded now resolve through the
:mod:`repro.api.registry` registries: the three schedulers of the triple are
built via the scheduler registry, and the evaluation platform is looked up in
the platform registry — a newly registered platform is immediately usable in
a :class:`ComparisonConfig` without touching this module.

This is the declarative facade's engine room; prefer
``repro.api.run(RunSpec(kind="compare", ...))`` for the spec-driven entry
point, and reach for :func:`compare_on_network` directly when you need to
inject live objects (custom scheduler triples, bespoke evaluators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.api.registry import platforms, schedulers
from repro.arch.accelerator import Accelerator
from repro.core.objectives import ObjectiveWeights
from repro.engine import EngineStats, SchedulingEngine
from repro.mapping.mapping import Mapping
from repro.workloads.problem import ProblemLayer


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0 for an empty input)."""
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class ComparisonConfig:
    """Configuration of a scheduler comparison run.

    Attributes
    ----------
    accelerator:
        Target architecture.
    platform:
        Evaluation-platform registry key (``"timeloop"`` evaluates with the
        analytical model; ``"noc"`` with the NoC simulator; plugins extend).
    metric:
        Search metric for the baselines (``latency`` or ``energy``).
    cosa_weights:
        Objective weights handed to CoSA (``None`` = calibrated defaults).
    hybrid_threads / hybrid_termination / hybrid_max_evaluations:
        Budget of the Timeloop-Hybrid mapper (scaled-down defaults; the
        paper's budget is in
        :class:`~repro.baselines.timeloop_hybrid.TimeloopHybridScheduler`).
    random_valid:
        Valid samples collected by the Random baseline (5 in the paper).
    seed:
        Base random seed shared by the baselines.
    time_budget_seconds:
        Optional per-layer wall-clock budget for the search baselines, so
        time-to-solution comparisons are apples-to-apples.
    """

    accelerator: Accelerator
    platform: str = "timeloop"
    metric: str = "latency"
    cosa_weights: ObjectiveWeights | None = None
    hybrid_threads: int = 2
    hybrid_termination: int = 64
    hybrid_max_evaluations: int = 800
    random_valid: int = 5
    seed: int = 0
    time_budget_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.platform not in platforms:
            raise ValueError(
                f"unknown platform {self.platform!r}; "
                f"available: {', '.join(sorted(platforms.available()))}"
            )


@dataclass
class LayerComparison:
    """Per-layer result of one comparison run (one bar group of Fig. 6/10)."""

    layer: str
    random_value: float
    hybrid_value: float
    cosa_value: float
    random_time: float = 0.0
    hybrid_time: float = 0.0
    cosa_time: float = 0.0
    random_samples: int = 0
    hybrid_samples: int = 0
    hybrid_evaluations: int = 0
    #: Whether each schedule was served by the store's layer tier (not part
    #: of the serialized row, so the envelope does not depend on the store's
    #: contents; surfaced in per-layer ``layer_scheduled`` service events).
    random_cached: bool = False
    hybrid_cached: bool = False
    cosa_cached: bool = False

    @property
    def hybrid_speedup(self) -> float:
        """Timeloop-Hybrid improvement over Random (the paper's middle bars)."""
        if self.hybrid_value <= 0:
            return 0.0
        return self.random_value / self.hybrid_value

    @property
    def cosa_speedup(self) -> float:
        """CoSA improvement over Random (the paper's right bars)."""
        if self.cosa_value <= 0:
            return 0.0
        return self.random_value / self.cosa_value


@dataclass
class SpeedupSummary:
    """Geometric-mean summary of a set of :class:`LayerComparison` rows.

    ``engine_stats`` carries the :class:`~repro.engine.engine.EngineStats`
    of the engines that produced the comparison, keyed by scheduler name;
    only the store-independent counters are serialized.
    """

    label: str
    comparisons: list[LayerComparison] = field(default_factory=list)
    engine_stats: dict[str, EngineStats] = field(default_factory=dict)

    @property
    def hybrid_geomean(self) -> float:
        return geometric_mean(c.hybrid_speedup for c in self.comparisons)

    @property
    def cosa_geomean(self) -> float:
        return geometric_mean(c.cosa_speedup for c in self.comparisons)

    @property
    def cosa_vs_hybrid(self) -> float:
        """CoSA speedup relative to Timeloop-Hybrid."""
        if self.hybrid_geomean <= 0:
            return 0.0
        return self.cosa_geomean / self.hybrid_geomean

    def to_dict(self) -> dict:
        """JSON payload of the comparison (the ``data`` of a compare run)."""
        return {
            "label": self.label,
            "comparisons": [
                {
                    "layer": c.layer,
                    "random_value": c.random_value,
                    "hybrid_value": c.hybrid_value,
                    "cosa_value": c.cosa_value,
                    "hybrid_speedup": c.hybrid_speedup,
                    "cosa_speedup": c.cosa_speedup,
                    "random_time": c.random_time,
                    "hybrid_time": c.hybrid_time,
                    "cosa_time": c.cosa_time,
                }
                for c in self.comparisons
            ],
            "hybrid_geomean": self.hybrid_geomean,
            "cosa_geomean": self.cosa_geomean,
            "engine_stats": {name: s.to_dict() for name, s in self.engine_stats.items()},
        }


def build_schedulers(config: ComparisonConfig):
    """Instantiate the Random, Timeloop-Hybrid and CoSA schedulers of a run."""
    search = dict(
        metric=config.metric,
        seed=config.seed,
        time_budget_seconds=config.time_budget_seconds,
    )
    random_scheduler = schedulers.create(
        "random", config.accelerator, num_valid=config.random_valid, **search
    )
    hybrid_scheduler = schedulers.create(
        "hybrid",
        config.accelerator,
        num_threads=config.hybrid_threads,
        termination_condition=config.hybrid_termination,
        max_evaluations=config.hybrid_max_evaluations,
        **search,
    )
    cosa_scheduler = schedulers.create("cosa", config.accelerator, weights=config.cosa_weights)
    return random_scheduler, hybrid_scheduler, cosa_scheduler


def compare_on_layer(
    layer: ProblemLayer,
    config: ComparisonConfig,
    schedulers=None,
    evaluator: Callable[[Mapping | None], float] | None = None,
) -> LayerComparison:
    """Run all three schedulers on ``layer`` and evaluate them on the platform."""
    summary = compare_on_network(
        layer.name or layer.canonical_name,
        [layer],
        config,
        schedulers=schedulers,
        evaluator=evaluator,
    )
    return summary.comparisons[0]


def compare_on_network(
    label: str,
    layers: Iterable[ProblemLayer],
    config: ComparisonConfig,
    schedulers=None,
    evaluator: Callable[[Mapping | None], float] | None = None,
    jobs: int = 1,
    store=None,
) -> SpeedupSummary:
    """Run the comparison over every layer of a network.

    Parameters
    ----------
    jobs:
        Concurrent solves per scheduler (layers are independent; see
        :meth:`~repro.engine.engine.SchedulingEngine.schedule_network`).
    store:
        Optional :class:`~repro.api.store.ResultStore` whose layer tier
        serves and keeps the solves; the key includes the scheduler
        identity, so one store serves all three schedulers at once.
    """
    layers = list(layers)
    scheduler_triple = schedulers or build_schedulers(config)
    evaluate = evaluator or platforms.create(
        config.platform, config.accelerator, metric=config.metric
    )

    # Positional, not name-keyed: caller-supplied triples may repeat a
    # scheduler kind (e.g. two differently-seeded Random instances).
    summary = SpeedupSummary(label=label)
    networks = []
    for scheduler in scheduler_triple:
        engine = SchedulingEngine(scheduler, store=store)
        network = engine.schedule_network(layers, jobs=jobs, label=label)
        networks.append(network)
        stats_key = scheduler.name
        while stats_key in summary.engine_stats:
            stats_key += "+"
        summary.engine_stats[stats_key] = network.stats

    random_net, hybrid_net, cosa_net = networks
    for index, layer in enumerate(layers):
        random_outcome = random_net.outcomes[index]
        hybrid_outcome = hybrid_net.outcomes[index]
        cosa_outcome = cosa_net.outcomes[index]
        summary.comparisons.append(
            LayerComparison(
                layer=layer.name or layer.canonical_name,
                random_value=evaluate(random_outcome.mapping),
                hybrid_value=evaluate(hybrid_outcome.mapping),
                cosa_value=evaluate(cosa_outcome.mapping),
                random_time=random_outcome.solve_time_seconds,
                hybrid_time=hybrid_outcome.solve_time_seconds,
                cosa_time=cosa_outcome.solve_time_seconds,
                random_samples=random_outcome.num_sampled,
                hybrid_samples=hybrid_outcome.num_sampled,
                hybrid_evaluations=hybrid_outcome.num_evaluated,
                random_cached=random_outcome.from_cache,
                hybrid_cached=hybrid_outcome.from_cache,
                cosa_cached=cosa_outcome.from_cache,
            )
        )
    return summary
