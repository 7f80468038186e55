"""Per-access energy table.

Timeloop estimates energy by multiplying the access count of every hardware
component by an energy-per-access constant taken from a technology reference
table.  We reproduce the same accounting with representative 40 nm-class
numbers (pJ per 8-bit word access); the absolute values differ from the
proprietary tables used by the paper, but energy comparisons between
schedules only depend on the *relative* cost of the levels (DRAM >> global
buffer >> per-PE SRAM >> registers), which is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Default energy per 8-bit word access for the named memory levels (pJ).
DEFAULT_LEVEL_ENERGY_PJ: dict[str, float] = {
    "Registers": 0.06,
    "AccumulationBuffer": 0.81,
    "WeightBuffer": 1.53,
    "InputBuffer": 1.10,
    "GlobalBuffer": 6.70,
    "DRAM": 200.0,
}


@dataclass(frozen=True)
class EnergyTable:
    """Energy constants used by :class:`repro.model.energy.EnergyModel`.

    Parameters
    ----------
    level_energy_pj:
        Energy per word access for each memory level, keyed by level name.
        Levels absent from the table fall back to ``default_sram_pj``.
    mac_energy_pj:
        Energy of one 8-bit multiply-accumulate.
    noc_hop_energy_pj:
        Energy of moving one word across one mesh link (router + wire).
    default_sram_pj:
        Fallback per-word access energy for unnamed on-chip levels.
    """

    level_energy_pj: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_LEVEL_ENERGY_PJ))
    mac_energy_pj: float = 0.56
    noc_hop_energy_pj: float = 0.61
    default_sram_pj: float = 1.0

    def __post_init__(self) -> None:
        for name, value in self.level_energy_pj.items():
            if value < 0:
                raise ValueError(f"negative energy for level {name}: {value}")
        if self.mac_energy_pj < 0 or self.noc_hop_energy_pj < 0 or self.default_sram_pj < 0:
            raise ValueError("energy constants must be non-negative")

    def access_energy(self, level_name: str) -> float:
        """Energy (pJ) of a single word access at the named memory level."""
        return self.level_energy_pj.get(level_name, self.default_sram_pj)
