"""Energy model (access counts x energy per access).

Timeloop computes energy by multiplying the access count on each hardware
component with an energy-per-access constant and summing the products; NoC
energy is charged per hop.  This module does the same using the counts from
:class:`~repro.model.nest.NestAnalysis` and the constants from
:class:`~repro.arch.energy.EnergyTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.model.nest import NestAnalysis


@dataclass
class EnergyBreakdown:
    """Energy components of one schedule (all in pJ)."""

    mac_energy: float
    level_energy: dict[str, float] = field(default_factory=dict)
    noc_energy: float = 0.0

    @property
    def total(self) -> float:
        """Total energy in pJ."""
        return self.mac_energy + self.noc_energy + sum(self.level_energy.values())


class EnergyModel:
    """Energy evaluation of mappings on a spatial accelerator."""

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator

    def evaluate(self, mapping: Mapping, analysis: NestAnalysis | None = None) -> EnergyBreakdown:
        """Return the energy breakdown of ``mapping``."""
        analysis = analysis or NestAnalysis(mapping, self.accelerator)
        table = self.accelerator.energy

        mac_energy = analysis.total_macs * table.mac_energy_pj

        level_energy: dict[str, float] = {}
        for index, level in enumerate(self.accelerator.hierarchy):
            accesses = analysis.level_access_words(index)
            if accesses <= 0:
                continue
            level_energy[level.name] = accesses * table.access_energy(level.name)

        noc_words = sum(analysis.noc_boundary_words().values())
        # Average hop count of an X-Y routed transfer on an RxC mesh with the
        # global buffer injecting at one edge: roughly half the mesh diameter.
        rows, cols = self.accelerator.pe_array.rows, self.accelerator.pe_array.cols
        average_hops = (rows + cols) / 2.0
        noc_energy = noc_words * average_hops * table.noc_hop_energy_pj

        return EnergyBreakdown(mac_energy=mac_energy, level_energy=level_energy, noc_energy=noc_energy)
