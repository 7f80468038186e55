"""Traffic generation: from a mapping to per-round NoC packets.

The loops at the NoC-facing levels (global buffer and above) define a
sequence of *rounds*.  In every round each PE works on one on-chip tile;
between rounds the global buffer distributes fresh weight/input tiles to the
PEs (multicast where PEs share data) and collects output tiles or partial
sums.  :class:`TrafficGenerator` walks that outer loop nest like an odometer
and emits, for every round, the packets the NoC has to carry, the bytes the
DRAM has to supply and the compute cycles each PE spends.

PE placement follows the spatial loops at the NoC level: the first spatial
loop varies fastest along mesh columns, subsequent loops along rows
(row-major), mirroring how Simba partitions work across its package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from math import prod

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Loop, Mapping
from repro.model.nest import NestAnalysis
from repro.noc.packet import Packet, TrafficDirection
from repro.workloads.layer import TensorKind


@dataclass
class TransferRound:
    """Everything that happens in one outer-loop iteration.

    Attributes
    ----------
    index:
        Round number (0-based).
    packets:
        NoC transactions of the round (distribution and collection).
    dram_bytes:
        Bytes that must be staged from/to DRAM for this round.
    compute_cycles:
        Cycles each PE spends computing on the tiles of this round.
    """

    index: int
    packets: list[Packet] = field(default_factory=list)
    dram_bytes: float = 0.0
    compute_cycles: float = 0.0


class TrafficGenerator:
    """Derives the per-round NoC traffic of a mapping."""

    def __init__(self, mapping: Mapping, accelerator: Accelerator):
        self.mapping = mapping
        self.accelerator = accelerator
        self.problem = mapping.layer.problem
        self.analysis = NestAnalysis(mapping, accelerator)
        self.noc_level = accelerator.pe_level_index()

        #: Spatial loops partitioning work across PEs (at the NoC level).
        self.spatial_loops: list[Loop] = list(mapping.levels[self.noc_level].spatial)
        #: Outer temporal loops, innermost first (levels >= NoC level).
        self.outer_loops: list[Loop] = [loop for _, loop in mapping.loops_above(self.noc_level)]

    # ------------------------------------------------------------------ layout
    def pe_spatial_indices(self) -> list[tuple[int, ...]]:
        """Spatial loop index vector of every active PE (PE id = list position)."""
        if not self.spatial_loops:
            return [()]
        ranges = [range(loop.bound) for loop in self.spatial_loops]
        return [tuple(idx) for idx in iter_product(*ranges)]

    def multicast_groups(self, tensor: TensorKind) -> list[tuple[int, ...]]:
        """Sets of PE ids that receive identical data of ``tensor``.

        PEs that only differ in spatial indices of dimensions *irrelevant* to
        the tensor share the same tile and form one multicast group.
        """
        groups: dict[tuple[int, ...], list[int]] = {}
        for pe_id, indices in enumerate(self.pe_spatial_indices()):
            key = tuple(
                index
                for index, loop in zip(indices, self.spatial_loops)
                if loop.relevant_to(tensor, self.problem)
            )
            groups.setdefault(key, []).append(pe_id)
        return [tuple(members) for members in groups.values()]

    # ----------------------------------------------------------------- volumes
    def pe_side_level(self, tensor: TensorKind) -> int:
        """The storage level just below the NoC that holds ``tensor`` (per-PE buffer)."""
        below = [
            level
            for level in self.analysis.storage_levels(tensor)
            if level < self.noc_level
        ]
        if not below:
            raise ValueError(f"tensor {tensor} has no storage level below the NoC boundary")
        return max(below)

    def tile_bytes_per_pe(self, tensor: TensorKind) -> float:
        """Bytes of ``tensor`` one PE receives (or produces) per transfer."""
        level = self.pe_side_level(tensor)
        return self.analysis.tile_bytes(tensor, level)

    # ------------------------------------------------------------------ rounds
    @property
    def total_rounds(self) -> int:
        """Number of outer-loop iterations."""
        return prod((loop.bound for loop in self.outer_loops), start=1)

    def compute_cycles_per_round(self) -> float:
        """Per-PE compute cycles of one round (inner temporal iterations)."""
        cycles = 1.0
        for level in range(self.noc_level):
            cycles *= self.mapping.levels[level].temporal_product()
        return cycles

    def _innermost_relevant_position(self, tensor: TensorKind) -> int | None:
        for position, loop in enumerate(self.outer_loops):
            if loop.relevant_to(tensor, self.problem):
                return position
        return None

    def _reduction_pending(self) -> bool:
        """True when partial sums survive across rounds (reduction loop outside
        the innermost output-relevant outer loop)."""
        return self.analysis.reduction_pending_above(self.noc_level)

    def rounds(self, max_rounds: int):
        """Yield :class:`TransferRound` objects, at most ``max_rounds`` of them.

        The odometer over the outer loops determines, per round, which
        tensors need fresh data: a tensor is re-distributed whenever a loop
        at-or-outside its innermost relevant outer loop advances.  Outputs are
        collected whenever the next round will overwrite their tile (or at the
        very last round).
        """
        total = self.total_rounds
        limit = min(total, max_rounds)
        compute_cycles = self.compute_cycles_per_round()
        reduction_pending = self._reduction_pending()

        innermost_relevant = {
            tensor: self._innermost_relevant_position(tensor) for tensor in TensorKind
        }
        output_position = innermost_relevant[TensorKind.OUTPUT]

        counters = [0] * len(self.outer_loops)
        for index in range(limit):
            round_obj = TransferRound(index=index, compute_cycles=compute_cycles)
            changed_up_to = self._advance_position(counters, index)

            for tensor in (TensorKind.WEIGHT, TensorKind.INPUT):
                if self._needs_transfer(innermost_relevant[tensor], changed_up_to, index):
                    self._add_distribution(round_obj, tensor)

            collect_now = self._output_boundary(counters, output_position, index, total)
            if collect_now:
                self._add_collection(round_obj, reduction_pending)
            yield round_obj

    # ------------------------------------------------------------- round parts
    def _advance_position(self, counters: list[int], index: int) -> int:
        """Advance the odometer (except for round 0) and return the highest
        loop position whose counter changed (``len(outer_loops)`` for round 0,
        meaning "everything changed")."""
        if index == 0:
            return len(self.outer_loops)
        position = 0
        for position, loop in enumerate(self.outer_loops):
            counters[position] += 1
            if counters[position] < loop.bound:
                return position
            counters[position] = 0
        return len(self.outer_loops)

    @staticmethod
    def _needs_transfer(relevant_position: int | None, changed_up_to: int, index: int) -> bool:
        if index == 0:
            return True
        if relevant_position is None:
            return False
        return changed_up_to >= relevant_position

    def _output_boundary(
        self, counters: list[int], output_position: int | None, index: int, total: int
    ) -> bool:
        """True when the outputs accumulated so far must be sent to the GB."""
        if index == total - 1:
            return True
        if output_position is None:
            return False
        # The next round will advance the odometer; outputs are evicted when
        # that advance reaches an output-relevant loop, i.e. when every loop
        # inside the innermost output-relevant one is about to wrap.
        for position in range(output_position):
            if counters[position] != self.outer_loops[position].bound - 1:
                return False
        return True

    def _add_distribution(self, round_obj: TransferRound, tensor: TensorKind) -> None:
        tile_bytes = self.tile_bytes_per_pe(tensor)
        if tile_bytes <= 0:
            return
        for group in self.multicast_groups(tensor):
            round_obj.packets.append(
                Packet(
                    tensor=tensor,
                    direction=TrafficDirection.DISTRIBUTE,
                    payload_bytes=tile_bytes,
                    destinations=group,
                )
            )
            round_obj.dram_bytes += tile_bytes

    def _add_collection(self, round_obj: TransferRound, reduction_pending: bool) -> None:
        tile_bytes = self.tile_bytes_per_pe(TensorKind.OUTPUT)
        if tile_bytes <= 0:
            return
        # Partial sums of PEs along reduction-only spatial dimensions combine
        # in the network; one packet per group of PEs producing the same
        # output slice, sourced from the group's farthest member.
        for group in self.multicast_groups(TensorKind.OUTPUT):
            source = group[-1]
            round_obj.packets.append(
                Packet(
                    tensor=TensorKind.OUTPUT,
                    direction=TrafficDirection.COLLECT,
                    payload_bytes=tile_bytes,
                    destinations=(source,),
                )
            )
            round_obj.dram_bytes += tile_bytes
            if reduction_pending:
                # Partial sums return to the PEs for further accumulation.
                round_obj.packets.append(
                    Packet(
                        tensor=TensorKind.OUTPUT,
                        direction=TrafficDirection.DISTRIBUTE,
                        payload_bytes=tile_bytes,
                        destinations=group,
                    )
                )
                round_obj.dram_bytes += tile_bytes


# -- Fused-transfer validation -------------------------------------------------

def _dram_round_trip_words(analysis: NestAnalysis, tensor: TensorKind) -> float:
    """Words of ``tensor`` crossing the DRAM boundary in this mapping."""
    dram = analysis.hierarchy.dram_index
    total = 0.0
    for flow in analysis.boundary_flows:
        if flow.tensor is tensor and flow.parent_level == dram:
            total += flow.words_read_from_parent + flow.words_written_to_parent
    return total


def validate_fused_transfers(accelerator: Accelerator, group, mappings, cost) -> dict:
    """Cross-check a fusion group's claimed inter-operator transfers.

    For every edge of ``group``, the savings the buffer-sharing cost model
    claims (``cost.edges``) are recomputed independently from the reuse
    analysis of the final mappings:

    * a **pinned** edge must have saved exactly the producer's OUTPUT plus
      the consumer's INPUT DRAM round-trip words, and its on-chip handover
      traffic is the consumer's NoC-boundary INPUT words (the hop traffic
      the pinned tile still pays to reach the PEs);
    * a **cut** (spilled) edge reports the DRAM round-trip words the
      per-operator path pays.

    Returns a JSON-compatible report with one entry per edge and an overall
    ``consistent`` flag.
    """
    analyses = [NestAnalysis(mapping, accelerator) for mapping in mappings]
    edge_costs = list(getattr(cost, "edges", []) or [])
    report: dict = {"edges": [], "consistent": True}
    for index, edge in enumerate(group.edges):
        producer_words = _dram_round_trip_words(analyses[edge.producer], TensorKind.OUTPUT)
        consumer_words = _dram_round_trip_words(analyses[edge.consumer], TensorKind.INPUT)
        expected_saving = producer_words + consumer_words
        edge_cost = edge_costs[index] if index < len(edge_costs) else None
        pinned = bool(edge_cost is not None and edge_cost.pinned)
        entry = {
            "producer": edge.producer,
            "consumer": edge.consumer,
            "pinned": pinned,
        }
        if pinned:
            claimed = edge_cost.saved_dram_words
            tolerance = 1e-6 * max(1.0, expected_saving)
            entry["claimed_saved_dram_words"] = claimed
            entry["expected_saved_dram_words"] = expected_saving
            entry["matches"] = abs(claimed - expected_saving) <= tolerance
            # The pinned tile still crosses the PE-array boundary on-chip.
            entry["on_chip_noc_words"] = analyses[edge.consumer].noc_boundary_words()[
                TensorKind.INPUT
            ]
            if not entry["matches"]:
                report["consistent"] = False
        else:
            entry["dram_round_trip_words"] = expected_saving
        report["edges"].append(entry)
    return report
