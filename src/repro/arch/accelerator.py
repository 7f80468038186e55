"""Top-level accelerator specification.

An :class:`Accelerator` bundles everything the scheduler and the evaluation
platforms need to know about the hardware: the memory hierarchy, the PE
array, the NoC, the datatype precisions and the energy table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.energy import EnergyTable
from repro.arch.memory import MemoryHierarchy
from repro.arch.spatial import NoCSpec, PEArraySpec
from repro.workloads.layer import TensorKind


@dataclass(frozen=True)
class Precision:
    """Datatype width in bytes for each tensor.

    The paper uses 8-bit weights and input activations and 24-bit partial
    sums, i.e. ``weight=1, input=1, output=3``.
    """

    weight_bytes: int = 1
    input_bytes: int = 1
    output_bytes: int = 3

    def __post_init__(self) -> None:
        for name in ("weight_bytes", "input_bytes", "output_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def bytes_for(self, tensor: TensorKind) -> int:
        """Bytes per element of ``tensor``."""
        if tensor is TensorKind.WEIGHT:
            return self.weight_bytes
        if tensor is TensorKind.INPUT:
            return self.input_bytes
        return self.output_bytes


@dataclass(frozen=True)
class Accelerator:
    """Complete spatial accelerator description.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"simba-4x4"``).
    hierarchy:
        The memory hierarchy, innermost level first.
    pe_array:
        PE mesh geometry and arithmetic capability.
    noc:
        On-chip network parameters.
    precision:
        Per-tensor datatype widths.
    energy:
        Per-access energy table.
    """

    name: str
    hierarchy: MemoryHierarchy
    pe_array: PEArraySpec = field(default_factory=PEArraySpec)
    noc: NoCSpec = field(default_factory=NoCSpec)
    precision: Precision = field(default_factory=Precision)
    energy: EnergyTable = field(default_factory=EnergyTable)

    def __post_init__(self) -> None:
        # The hierarchy's PE-distributing fanout should agree with the array size.
        fanouts = [level.spatial_fanout for level in self.hierarchy if level.spatial_fanout > 1]
        if self.pe_array.num_pes not in fanouts and self.pe_array.num_pes > 1:
            raise ValueError(
                f"no memory level has a spatial fanout equal to the PE count "
                f"({self.pe_array.num_pes}); fanouts present: {fanouts}"
            )

    # ------------------------------------------------------------------ sizes
    @property
    def num_pes(self) -> int:
        """Number of processing elements in the array."""
        return self.pe_array.num_pes

    @property
    def num_memory_levels(self) -> int:
        """Number of memory levels including DRAM."""
        return len(self.hierarchy)

    @property
    def peak_macs_per_cycle(self) -> float:
        """Aggregate arithmetic throughput of the accelerator."""
        return self.pe_array.peak_macs_per_cycle

    def pe_level_index(self) -> int:
        """Index of the memory level that distributes tiles across the PE array.

        This is the level whose fanout equals the PE count (the global buffer
        in the baseline architecture); NoC traffic is measured at this
        boundary.  The search runs from the outermost level inward so that a
        per-PE level that happens to have the same fanout (e.g. 64 MAC lanes
        in a 64-PE configuration) is never mistaken for the PE-array level.
        """
        for i in reversed(range(len(self.hierarchy))):
            level = self.hierarchy[i]
            if level.spatial_fanout == self.num_pes and self.num_pes > 1:
                return i
        # Single-PE degenerate configuration: use the outermost on-chip level.
        return len(self.hierarchy) - 2

    def fingerprint(self) -> str:
        """Deterministic content digest of the full architecture description.

        Covers everything a scheduler's output can depend on: the memory
        hierarchy (capacities, tensor bindings, fanouts, bandwidths), the PE
        array, the NoC parameters, the datatype precisions and the energy
        table.  Two accelerators with equal fingerprints are interchangeable
        for scheduling, which is what lets the layer tier
        (:mod:`repro.engine.cache`) key entries by architecture content
        instead of by preset name.
        """
        from repro.digest import stable_digest

        payload = {
            "hierarchy": [
                {
                    "name": level.name,
                    "capacity_bytes": level.capacity_bytes,
                    "tensors": sorted(t.name for t in level.tensors),
                    "spatial_fanout": level.spatial_fanout,
                    "bandwidth": level.bandwidth_words_per_cycle,
                }
                for level in self.hierarchy
            ],
            "pe_array": {
                "rows": self.pe_array.rows,
                "cols": self.pe_array.cols,
                "macs_per_pe": self.pe_array.macs_per_pe,
                "mac_throughput": self.pe_array.mac_throughput,
            },
            "noc": {
                "flit_bits": self.noc.flit_bits,
                "link_bandwidth_flits": self.noc.link_bandwidth_flits,
                "router_latency": self.noc.router_latency,
                "multicast": self.noc.multicast,
                "routing": self.noc.routing,
                "dram_bandwidth": self.noc.dram_bandwidth_bytes_per_cycle,
                "dram_latency": self.noc.dram_latency_cycles,
            },
            "precision": {
                "weight": self.precision.weight_bytes,
                "input": self.precision.input_bytes,
                "output": self.precision.output_bytes,
            },
            "energy": {
                "levels": dict(sorted(self.energy.level_energy_pj.items())),
                "mac": self.energy.mac_energy_pj,
                "noc_hop": self.energy.noc_hop_energy_pj,
                "default_sram": self.energy.default_sram_pj,
            },
        }
        return stable_digest(payload)

    def describe(self) -> str:
        """Human-readable multi-line summary (architecture 'spec sheet')."""
        lines = [
            f"Accelerator {self.name}",
            f"  PE array: {self.pe_array.rows}x{self.pe_array.cols} PEs, "
            f"{self.pe_array.macs_per_pe} MACs/PE",
            f"  NoC: {self.noc.flit_bits}b flits, {self.noc.routing} routing, "
            f"multicast={self.noc.multicast}",
            "  Memory hierarchy:",
        ]
        lines.extend("    " + line for line in self.hierarchy.describe().splitlines())
        return "\n".join(lines)
