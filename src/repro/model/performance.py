"""Latency model (Timeloop-style, perfect double buffering).

Timeloop reports "the maximum cycles required for each processing element to
complete the workload and to perform memory accesses, assuming perfect
latency hiding with double buffering".  We reproduce the same structure: the
latency of a schedule is the maximum of

* the compute time of one lane (product of all temporal loop bounds),
* the data-movement time of every memory level (words moved across the level
  boundary divided by that level's bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.model.nest import NestAnalysis


@dataclass
class LatencyBreakdown:
    """Latency components of one schedule (all in cycles).

    Attributes
    ----------
    compute_cycles:
        Temporal iterations of one active lane.
    memory_cycles:
        Per-level data-movement cycles keyed by level name.
    latency:
        The overall latency: max over compute and every memory term.
    bound_by:
        Name of the binding component (``"compute"`` or a memory level name).
    """

    compute_cycles: float
    memory_cycles: dict[str, float] = field(default_factory=dict)
    latency: float = 0.0
    bound_by: str = "compute"


class PerformanceModel:
    """Latency evaluation of mappings on a spatial accelerator."""

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator

    def evaluate(self, mapping: Mapping, analysis: NestAnalysis | None = None) -> LatencyBreakdown:
        """Return the latency breakdown of ``mapping``.

        A pre-computed :class:`NestAnalysis` can be passed to avoid repeating
        the reuse analysis when several models evaluate the same mapping.
        """
        analysis = analysis or NestAnalysis(mapping, self.accelerator)
        compute_cycles = float(analysis.temporal_iterations)

        memory_cycles: dict[str, float] = {}
        for index, level in enumerate(self.accelerator.hierarchy):
            words_served = 0.0
            for flow in analysis.boundary_flows:
                if flow.parent_level == index:
                    words_served += flow.words_read_from_parent + flow.words_written_to_parent
            if words_served <= 0.0:
                continue
            # A level serves its children from all of its active instances in
            # parallel; bandwidth is per instance.
            instances = max(analysis.active_instances(index), 1)
            bandwidth = level.bandwidth_words_per_cycle
            memory_cycles[level.name] = words_served / (bandwidth * instances)

        latency = compute_cycles
        bound_by = "compute"
        for name, cycles in memory_cycles.items():
            if cycles > latency:
                latency = cycles
                bound_by = name
        return LatencyBreakdown(
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            latency=latency,
            bound_by=bound_by,
        )

    def utilization(self, mapping: Mapping) -> float:
        """Fraction of the accelerator's MAC lanes kept busy by the mapping."""
        total_lanes = self.accelerator.pe_array.num_pes * self.accelerator.pe_array.macs_per_pe
        return min(1.0, mapping.total_spatial_product() / total_lanes)
