"""Off-chip DRAM model.

Substitutes DRAMSim2 with a bandwidth + fixed-latency model: a transfer of
``n`` bytes issued at time ``t`` completes at
``max(t, previous completion) + latency + n / bandwidth``.  Back-to-back
requests therefore serialise on bandwidth, which is the first-order effect
DRAMSim2 contributes to the paper's results (FC layers being memory bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.spatial import NoCSpec


@dataclass
class DramModel:
    """Bandwidth/latency DRAM behind the global buffer."""

    bandwidth_bytes_per_cycle: float
    latency_cycles: float
    _free_at: float = 0.0
    total_bytes: float = 0.0

    @classmethod
    def from_noc(cls, noc: NoCSpec) -> "DramModel":
        """Build the DRAM model from the accelerator's NoC spec."""
        return cls(
            bandwidth_bytes_per_cycle=noc.dram_bandwidth_bytes_per_cycle,
            latency_cycles=noc.dram_latency_cycles,
        )

    def reset(self) -> None:
        """Clear state before a new simulation."""
        self._free_at = 0.0
        self.total_bytes = 0.0

    def transfer(self, num_bytes: float, start_time: float) -> float:
        """Issue a transfer and return its completion time."""
        if num_bytes <= 0:
            return start_time
        begin = max(self._free_at, start_time)
        completion = begin + self.latency_cycles + num_bytes / self.bandwidth_bytes_per_cycle
        self._free_at = completion
        self.total_bytes += num_bytes
        return completion
