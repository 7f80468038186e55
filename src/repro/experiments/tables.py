"""Generators for the paper's tables (Table VI: time-to-solution)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch import Accelerator, simba_like
from repro.api.comparison import ComparisonConfig, build_schedulers, compare_on_layer
from repro.workloads.networks import workload_suite


@dataclass
class TimeToSolutionRow:
    """One column of Table VI (one scheduler)."""

    scheduler: str
    avg_runtime_seconds: float
    avg_samples: float
    avg_evaluations: float


@dataclass
class TimeToSolutionTable:
    """Table VI: average per-layer scheduling effort of every scheduler."""

    rows: list[TimeToSolutionRow] = field(default_factory=list)
    num_layers: int = 0

    def row(self, scheduler: str) -> TimeToSolutionRow:
        """Lookup by scheduler name."""
        for row in self.rows:
            if row.scheduler == scheduler:
                return row
        raise KeyError(scheduler)

    @property
    def cosa_advantage_over_hybrid(self) -> float:
        """Runtime ratio Timeloop-Hybrid / CoSA (90x in the paper)."""
        cosa = self.row("CoSA").avg_runtime_seconds
        hybrid = self.row("Timeloop Hybrid").avg_runtime_seconds
        if cosa <= 0:
            return 0.0
        return hybrid / cosa


def table6_time_to_solution(
    accelerator: Accelerator | None = None,
    layers_per_network: int | None = 2,
    seed: int = 0,
    hybrid_threads: int = 2,
    hybrid_termination: int = 64,
    hybrid_max_evaluations: int = 800,
) -> TimeToSolutionTable:
    """Table VI: average time-to-solution / samples / evaluations per layer.

    The hybrid-mapper budget is configurable; the paper uses the full 32
    threads x 500-window budget (see
    :class:`~repro.baselines.timeloop_hybrid.TimeloopHybridScheduler`).
    """
    accelerator = accelerator or simba_like()
    config = ComparisonConfig(
        accelerator=accelerator,
        seed=seed,
        hybrid_threads=hybrid_threads,
        hybrid_termination=hybrid_termination,
        hybrid_max_evaluations=hybrid_max_evaluations,
    )
    schedulers = build_schedulers(config)

    layers = []
    suite = workload_suite()
    for network_layers in suite.values():
        layers.extend(network_layers if layers_per_network is None else network_layers[:layers_per_network])

    comparisons = [
        compare_on_layer(layer, config, schedulers=schedulers) for layer in layers
    ]
    count = max(len(comparisons), 1)
    table = TimeToSolutionTable(num_layers=len(comparisons))
    table.rows.append(
        TimeToSolutionRow(
            scheduler="CoSA",
            avg_runtime_seconds=sum(c.cosa_time for c in comparisons) / count,
            avg_samples=1.0,
            avg_evaluations=1.0,
        )
    )
    table.rows.append(
        TimeToSolutionRow(
            scheduler="Random",
            avg_runtime_seconds=sum(c.random_time for c in comparisons) / count,
            avg_samples=sum(c.random_samples for c in comparisons) / count,
            avg_evaluations=float(config.random_valid),
        )
    )
    table.rows.append(
        TimeToSolutionRow(
            scheduler="Timeloop Hybrid",
            avg_runtime_seconds=sum(c.hybrid_time for c in comparisons) / count,
            avg_samples=sum(c.hybrid_samples for c in comparisons) / count,
            avg_evaluations=sum(c.hybrid_evaluations for c in comparisons) / count,
        )
    )
    return table
