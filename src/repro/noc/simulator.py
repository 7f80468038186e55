"""The NoC simulation loop.

:class:`NoCSimulator` evaluates a mapping by walking its outer-loop rounds
(:class:`~repro.noc.traffic.TrafficGenerator`), delivering every round's
packets over the contended mesh (:class:`~repro.noc.mesh.MeshNetwork`),
staging the round's data through the DRAM model, and overlapping compute
with communication under double buffering: the data for round ``r+1`` is
fetched while round ``r`` computes, so each round contributes
``max(compute, NoC time, DRAM time)`` to the makespan.

For very long-running layers the simulator runs a bounded number of rounds
explicitly and extrapolates the steady-state round latency, which keeps
simulation time practical without losing the congestion behaviour (rounds
are periodic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.noc.dram import DramModel
from repro.noc.mesh import MeshNetwork
from repro.noc.traffic import TrafficGenerator

#: Outer-loop rounds simulated explicitly before the steady-state round
#: latency is extrapolated to the rest.
MAX_SIMULATED_ROUNDS = 64

@dataclass
class NoCResult:
    """Outcome of simulating one mapping.

    Attributes
    ----------
    latency:
        Total makespan in cycles.
    compute_cycles:
        Per-round PE compute cycles summed over all rounds.
    noc_cycles:
        Cycles in which progress was limited by the NoC.
    dram_cycles:
        Cycles in which progress was limited by DRAM bandwidth/latency.
    rounds_total / rounds_simulated:
        How many outer-loop rounds the mapping has and how many were
        simulated explicitly before extrapolating.
    noc_bytes / dram_bytes:
        Total payload bytes carried by the NoC and staged through DRAM.
    max_link_utilization:
        Busy fraction of the hottest mesh link (1.0 = fully serialised).
    """

    latency: float
    compute_cycles: float = 0.0
    noc_cycles: float = 0.0
    dram_cycles: float = 0.0
    rounds_total: int = 0
    rounds_simulated: int = 0
    noc_bytes: float = 0.0
    dram_bytes: float = 0.0
    max_link_utilization: float = 0.0
    bound_by: str = "compute"


class NoCSimulator:
    """Transaction-level evaluation platform (the paper's second platform).

    Parameters
    ----------
    accelerator:
        Target architecture.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator

    def simulate(self, mapping: Mapping) -> NoCResult:
        """Simulate ``mapping`` and return the latency breakdown."""
        generator = TrafficGenerator(mapping, self.accelerator)
        mesh = MeshNetwork(self.accelerator.pe_array, self.accelerator.noc)
        dram = DramModel.from_noc(self.accelerator.noc)
        mesh.reset()
        dram.reset()

        total_rounds = generator.total_rounds
        simulated = 0
        elapsed = 0.0
        compute_total = 0.0
        noc_limited = 0.0
        dram_limited = 0.0
        noc_bytes = 0.0

        for round_obj in generator.rounds(max_rounds=MAX_SIMULATED_ROUNDS):
            round_start = elapsed
            noc_finish = round_start
            for packet in round_obj.packets:
                noc_finish = max(noc_finish, mesh.deliver(packet, round_start))
                noc_bytes += packet.payload_bytes
            dram_finish = dram.transfer(round_obj.dram_bytes, round_start)

            transfer_time = max(noc_finish, dram_finish) - round_start
            round_latency = max(round_obj.compute_cycles, transfer_time)
            if round_latency <= 0:
                round_latency = round_obj.compute_cycles
            elapsed += round_latency

            compute_total += round_obj.compute_cycles
            if transfer_time > round_obj.compute_cycles:
                if (dram_finish - round_start) >= (noc_finish - round_start):
                    dram_limited += round_latency
                else:
                    noc_limited += round_latency
            simulated += 1

        if simulated == 0:
            return NoCResult(latency=0.0, rounds_total=total_rounds)

        if total_rounds > simulated:
            scale = total_rounds / simulated
            elapsed *= scale
            compute_total *= scale
            noc_limited *= scale
            dram_limited *= scale
            noc_bytes *= scale
            dram.total_bytes *= scale

        max_link_busy = mesh.max_link_busy_cycles()
        simulated_span = elapsed * (simulated / total_rounds) if total_rounds else elapsed
        max_link_utilization = (
            min(1.0, max_link_busy / simulated_span) if simulated_span > 0 else 0.0
        )

        bound_by = "compute"
        if dram_limited > compute_total and dram_limited >= noc_limited:
            bound_by = "dram"
        elif noc_limited > compute_total:
            bound_by = "noc"

        return NoCResult(
            latency=elapsed,
            compute_cycles=compute_total,
            noc_cycles=noc_limited,
            dram_cycles=dram_limited,
            rounds_total=total_rounds,
            rounds_simulated=simulated,
            noc_bytes=noc_bytes,
            dram_bytes=dram.total_bytes,
            max_link_utilization=max_link_utilization,
            bound_by=bound_by,
        )
