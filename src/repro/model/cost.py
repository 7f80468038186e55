"""Cost model facade.

:class:`CostModel` is the single entry point used by schedulers, experiments
and tests to evaluate a mapping: it validates the mapping, runs the reuse
analysis once and produces both latency and energy figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.model.energy import EnergyBreakdown, EnergyModel
from repro.model.nest import NestAnalysis
from repro.model.performance import LatencyBreakdown, PerformanceModel
from repro.workloads.layer import TensorKind


@dataclass
class CostResult:
    """The outcome of evaluating one mapping.

    Attributes
    ----------
    valid:
        ``False`` when the mapping violates layer bounds, spatial fanouts or
        buffer capacities.  Invalid mappings carry ``inf`` latency/energy so
        they always lose comparisons.
    latency:
        Schedule latency in cycles.
    energy:
        Schedule energy in pJ.
    latency_breakdown / energy_breakdown:
        Component-level details (``None`` for invalid mappings).
    violations:
        Human-readable reasons a mapping was rejected.
    """

    valid: bool
    latency: float = float("inf")
    energy: float = float("inf")
    latency_breakdown: LatencyBreakdown | None = None
    energy_breakdown: EnergyBreakdown | None = None
    utilization: float = 0.0
    noc_words: dict[TensorKind, float] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles)."""
        return self.energy * self.latency


class CostModel:
    """Evaluate mappings of a layer on an accelerator (the "Timeloop platform")."""

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        self._performance = PerformanceModel(accelerator)
        self._energy = EnergyModel(accelerator)

    def validate(self, mapping: Mapping) -> list[str]:
        """Return the list of constraint violations of ``mapping`` (empty if valid)."""
        violations: list[str] = []
        if mapping.num_levels != self.accelerator.num_memory_levels:
            violations.append(
                f"mapping covers {mapping.num_levels} levels, architecture has "
                f"{self.accelerator.num_memory_levels}"
            )
            return violations
        if not mapping.is_consistent():
            violations.append("per-dimension factors do not multiply to the layer bounds")
            return violations
        for index, level in enumerate(self.accelerator.hierarchy):
            spatial = mapping.spatial_product_at(index)
            if spatial > level.spatial_fanout:
                violations.append(
                    f"{level.name}: spatial factors {spatial} exceed fanout {level.spatial_fanout}"
                )
        analysis = NestAnalysis(mapping, self.accelerator)
        for level_index, used, capacity in analysis.buffer_violations():
            name = self.accelerator.hierarchy[level_index].name
            violations.append(f"{name}: tile needs {used:.0f} B but capacity is {capacity:.0f} B")
        return violations

    def evaluate(self, mapping: Mapping) -> CostResult:
        """Evaluate ``mapping``; invalid mappings get infinite latency and energy."""
        violations = self.validate(mapping)
        if violations:
            return CostResult(valid=False, violations=violations)
        analysis = NestAnalysis(mapping, self.accelerator)
        latency = self._performance.evaluate(mapping, analysis)
        energy = self._energy.evaluate(mapping, analysis)
        return CostResult(
            valid=True,
            latency=latency.latency,
            energy=energy.total,
            latency_breakdown=latency,
            energy_breakdown=energy,
            utilization=self._performance.utilization(mapping),
            noc_words=analysis.noc_boundary_words(),
        )
