"""Buffer-sharing cost model for fusion groups.

:class:`FusedCostModel` evaluates a :class:`~repro.fusion.group.FusionGroup`
as one unit.  Per-operator costs still come from the scalar
:class:`~repro.model.cost.CostModel` (the parity oracle); the fused view
then re-prices each *fused edge* whose intermediate tensor can be pinned at
an on-chip memory level:

* **Capacity is charged** — the pinned tile (double-buffered when the
  handover streams in multiple rounds) plus the largest per-operator working
  set at the pin level must fit its capacity, on top of any intermediates
  already pinned there by earlier edges of the group.
* **The DRAM round-trip is skipped** — the producer's OUTPUT boundary flow
  into DRAM and the consumer's INPUT fill flow from DRAM are removed from
  the access counts: their DRAM reads/writes, the producer's pin-level
  eviction reads, and the consumer's pin-level refill writes all disappear.
  The in-place handover needs no replacement traffic: the producer's write
  *into* the pin level (its lower output flow) doubles as the consumer's
  fill.
* **Latency is recomputed per operator** — only the DRAM service term
  changes (the removed flows all border DRAM), and the per-operator latency
  is re-maximised over compute and the memory levels.  When every fused
  edge streams in ``R`` aligned rounds the group pipelines:
  ``(sum + (R - 1) * max) / R`` — the classic software-pipeline bound that
  degrades to the serial sum at ``R = 1``.

**Bit-exact fallback**: every result carries the plain left-to-right sums
of the scalar per-operator results in its ``unfused_*`` fields — the same
floats the per-operator path produces, which the parity tests assert
bit-for-bit.  A singleton group, or one with no pinnable edge, reports
exactly those sums as its totals.

Edge rounds are read off the mappings themselves: an edge is *aligned* when
producer and consumer agree on the DRAM-level temporal factor of every
mapped dimension pair (the shared tiling of the contracted dims); the round
count is the product of those factors.  Misaligned edges pin the whole
intermediate in one round — legal, but it needs the full tensor to fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from repro.arch.accelerator import Accelerator
from repro.model.cost import CostModel, CostResult
from repro.model.nest import NestAnalysis
from repro.workloads.layer import TensorKind


@dataclass
class FusedEdgeCost:
    """How one fused edge was priced.

    ``pin_level`` is ``None`` when the edge *spilled* (no capacity, no
    suitable level, or no DRAM-bordering flows): a spilled edge keeps the
    per-operator DRAM round-trip and contributes no savings.
    """

    producer: int
    consumer: int
    pin_level: int | None = None
    pin_level_name: str = ""
    rounds: int = 1
    aligned: bool = False
    pinned_bytes: float = 0.0
    saved_dram_words: float = 0.0
    saved_dram_bytes: float = 0.0
    saved_energy_pj: float = 0.0
    reason: str = ""

    @property
    def pinned(self) -> bool:
        return self.pin_level is not None

    def to_dict(self) -> dict:
        return {
            "producer": self.producer,
            "consumer": self.consumer,
            "pinned": self.pinned,
            "pin_level": self.pin_level_name or None,
            "rounds": self.rounds,
            "aligned": self.aligned,
            "pinned_bytes": self.pinned_bytes,
            "saved_dram_words": self.saved_dram_words,
            "saved_dram_bytes": self.saved_dram_bytes,
            "saved_energy_pj": self.saved_energy_pj,
            "reason": self.reason,
        }


@dataclass
class FusedGroupCost:
    """The group evaluated as one unit, next to its per-operator baseline."""

    valid: bool
    per_op: list[CostResult] = field(default_factory=list)
    edges: list[FusedEdgeCost] = field(default_factory=list)
    latency: float = float("inf")
    energy: float = float("inf")
    unfused_latency: float = float("inf")
    unfused_energy: float = float("inf")
    dram_words: float = 0.0
    dram_bytes: float = 0.0
    unfused_dram_words: float = 0.0
    unfused_dram_bytes: float = 0.0
    pipeline_rounds: int = 1
    violations: list[str] = field(default_factory=list)

    @property
    def edp(self) -> float:
        return self.energy * self.latency

    @property
    def num_pinned_edges(self) -> int:
        return sum(1 for edge in self.edges if edge.pinned)

    def to_dict(self) -> dict:
        # Invalid groups carry inf sentinels; JSON payloads get None instead.
        finite = lambda v: v if isfinite(v) else None  # noqa: E731
        return {
            "valid": self.valid,
            "latency": finite(self.latency),
            "energy": finite(self.energy),
            "unfused_latency": finite(self.unfused_latency),
            "unfused_energy": finite(self.unfused_energy),
            "dram_words": self.dram_words,
            "dram_bytes": self.dram_bytes,
            "unfused_dram_words": self.unfused_dram_words,
            "unfused_dram_bytes": self.unfused_dram_bytes,
            "pipeline_rounds": self.pipeline_rounds,
            "edges": [edge.to_dict() for edge in self.edges],
            "violations": list(self.violations),
        }


def default_pin_level(accelerator: Accelerator) -> int | None:
    """Outermost on-chip level holding both INPUT and OUTPUT tensors.

    The handover level must sit on both tensors' storage paths: the producer
    evicts its output tile there and the consumer fills its input tile from
    there.  ``None`` when the architecture has no such level below DRAM
    (then nothing can be pinned).
    """
    hierarchy = accelerator.hierarchy
    dram = hierarchy.dram_index
    for index in range(dram - 1, -1, -1):
        level = hierarchy[index]
        if level.holds(TensorKind.INPUT) and level.holds(TensorKind.OUTPUT):
            return index
    return None


def dram_boundary_traffic(analysis: NestAnalysis) -> tuple[float, float]:
    """``(words, bytes)`` crossing the DRAM boundary for one mapping."""
    dram = analysis.hierarchy.dram_index
    words = 0.0
    nbytes = 0.0
    for flow in analysis.boundary_flows:
        if flow.parent_level != dram:
            continue
        moved = flow.words_read_from_parent + flow.words_written_to_parent
        words += moved
        nbytes += moved * analysis.accelerator.precision.bytes_for(flow.tensor)
    return words, nbytes


class FusedCostModel:
    """Evaluate fusion groups with pinned on-chip intermediates.

    Each call prices every mapping from scratch: one scalar result, one nest
    analysis and one DRAM-traffic sum per operator.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        self.scalar = CostModel(accelerator)

    # -------------------------------------------------------------- alignment
    @staticmethod
    def edge_rounds(group, edge, mappings) -> tuple[int, bool]:
        """``(rounds, aligned)`` of an edge under the given mappings.

        Aligned means producer and consumer agree on the DRAM-level temporal
        factor of every mapped dimension pair; the rounds are the product of
        those shared outer factors.  Misaligned edges hand over the whole
        tensor in one round.
        """
        producer = mappings[edge.producer]
        consumer = mappings[edge.consumer]
        dram = producer.num_levels - 1
        rounds = 1
        for p_dim, c_dim in edge.dim_map:
            fp = producer.levels[dram].factor(p_dim, include_spatial=False)
            fc = consumer.levels[dram].factor(c_dim, include_spatial=False)
            if fp != fc:
                return 1, False
            rounds *= fp
        return rounds, True

    # -------------------------------------------------------------- evaluation
    def evaluate_group(self, group, mappings) -> FusedGroupCost:
        """Evaluate ``group`` under per-operator ``mappings``.

        The ``unfused_*`` fields (and, for a singleton group, the totals)
        are the per-operator sums, bit-exactly.  Intermediates hand over at
        :func:`default_pin_level`.
        """
        mappings = list(mappings)
        if len(mappings) != len(group.layers):
            raise ValueError(
                f"group {group.name!r} has {len(group.layers)} operators but "
                f"{len(mappings)} mappings were given"
            )
        per_op = [self.scalar.evaluate(mapping) for mapping in mappings]
        invalid = [i for i, result in enumerate(per_op) if not result.valid]
        if invalid:
            return FusedGroupCost(
                valid=False,
                per_op=per_op,
                violations=[
                    f"operator {i} ({group.layers[i].name or group.layers[i].canonical_name}): "
                    + "; ".join(per_op[i].violations)
                    for i in invalid
                ],
            )

        analyses = [NestAnalysis(mapping, self.accelerator) for mapping in mappings]
        traffic = [dram_boundary_traffic(analysis) for analysis in analyses]
        unfused_latency = sum(result.latency for result in per_op)
        unfused_energy = sum(result.energy for result in per_op)
        unfused_words = sum(words for words, _ in traffic)
        unfused_bytes = sum(nbytes for _, nbytes in traffic)

        cost = FusedGroupCost(
            valid=True,
            per_op=per_op,
            unfused_latency=unfused_latency,
            unfused_energy=unfused_energy,
            unfused_dram_words=unfused_words,
            unfused_dram_bytes=unfused_bytes,
            dram_words=unfused_words,
            dram_bytes=unfused_bytes,
            latency=unfused_latency,
            energy=unfused_energy,
        )
        if group.is_singleton:
            return cost

        pin = default_pin_level(self.accelerator)
        hierarchy = self.accelerator.hierarchy
        dram = hierarchy.dram_index
        precision = self.accelerator.precision
        energy_table = self.accelerator.energy

        # Largest per-operator working set at the pin level: the transient
        # tiles the running operator needs next to every pinned intermediate.
        max_util = max(analysis.utilization_bytes(pin) for analysis in analyses) if pin is not None else 0.0
        capacity = float(hierarchy[pin].capacity_bytes) if pin is not None and not hierarchy[pin].is_unbounded else float("inf")

        pinned_total = 0.0
        removed_dram_words = [0.0] * len(mappings)
        saved_energy_total = 0.0

        for edge in group.edges:
            edge_cost = FusedEdgeCost(producer=edge.producer, consumer=edge.consumer)
            cost.edges.append(edge_cost)
            if pin is None:
                edge_cost.reason = "no on-chip level holds both INPUT and OUTPUT"
                continue
            producer_flow = self._tensor_flow(analyses[edge.producer], TensorKind.OUTPUT, dram)
            consumer_flow = self._tensor_flow(analyses[edge.consumer], TensorKind.INPUT, dram)
            if producer_flow is None or consumer_flow is None:
                edge_cost.reason = "intermediate does not border DRAM in this mapping"
                continue
            if producer_flow.child_level != pin or consumer_flow.child_level != pin:
                edge_cost.reason = (
                    f"pin level {hierarchy[pin].name} is not the DRAM-adjacent "
                    "storage level of the intermediate"
                )
                continue

            rounds, aligned = self.edge_rounds(group, edge, mappings)
            volume = group.intermediate_volume(edge)
            tile_elements = volume / rounds if aligned else float(volume)
            out_bytes = precision.bytes_for(TensorKind.OUTPUT)
            buffers = 2 if aligned and rounds > 1 else 1
            pinned_bytes = min(tile_elements * buffers, float(volume)) * out_bytes

            edge_cost.rounds = rounds if aligned else 1
            edge_cost.aligned = aligned
            edge_cost.pinned_bytes = pinned_bytes
            if pinned_total + pinned_bytes + max_util > capacity:
                edge_cost.reason = (
                    f"{hierarchy[pin].name}: pinning needs "
                    f"{pinned_total + pinned_bytes + max_util:.0f} B "
                    f"but capacity is {capacity:.0f} B"
                )
                edge_cost.pinned_bytes = 0.0
                continue

            # Pin accepted: remove both DRAM-bordering flows of the edge.
            saved_energy = 0.0
            saved_words = 0.0
            saved_bytes = 0.0
            for flow, owner in ((producer_flow, edge.producer), (consumer_flow, edge.consumer)):
                dram_accesses = flow.words_read_from_parent + flow.words_written_to_parent
                child_accesses = flow.words_into_child + flow.words_written_to_parent
                saved_energy += dram_accesses * energy_table.access_energy(hierarchy[dram].name)
                saved_energy += child_accesses * energy_table.access_energy(hierarchy[pin].name)
                removed_dram_words[owner] += dram_accesses
                saved_words += dram_accesses
                saved_bytes += dram_accesses * precision.bytes_for(flow.tensor)

            pinned_total += pinned_bytes
            saved_energy_total += saved_energy
            edge_cost.pin_level = pin
            edge_cost.pin_level_name = hierarchy[pin].name
            edge_cost.saved_dram_words = saved_words
            edge_cost.saved_dram_bytes = saved_bytes
            edge_cost.saved_energy_pj = saved_energy

        if not any(edge.pinned for edge in cost.edges):
            # Nothing pinned: totals stay the exact per-operator sums.
            return cost

        adjusted = [
            self._adjusted_latency(per_op[i], analyses[i], removed_dram_words[i])
            for i in range(len(mappings))
        ]
        pinned_edges = [edge for edge in cost.edges if edge.pinned]
        pipeline_rounds = 1
        if len(pinned_edges) == len(cost.edges) and all(e.aligned and e.rounds > 1 for e in pinned_edges):
            pipeline_rounds = min(e.rounds for e in pinned_edges)
        total = sum(adjusted)
        bottleneck = max(adjusted)
        cost.pipeline_rounds = pipeline_rounds
        cost.latency = (total + (pipeline_rounds - 1) * bottleneck) / pipeline_rounds
        cost.energy = unfused_energy - saved_energy_total
        saved_words_total = sum(edge.saved_dram_words for edge in pinned_edges)
        saved_bytes_total = sum(edge.saved_dram_bytes for edge in pinned_edges)
        cost.dram_words = unfused_words - saved_words_total
        cost.dram_bytes = unfused_bytes - saved_bytes_total
        return cost

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _tensor_flow(analysis: NestAnalysis, tensor: TensorKind, parent: int):
        """The boundary flow of ``tensor`` whose parent is level ``parent``."""
        for flow in analysis.boundary_flows:
            if flow.tensor is tensor and flow.parent_level == parent:
                return flow
        return None

    def _adjusted_latency(self, result: CostResult, analysis: NestAnalysis, removed_words: float) -> float:
        """Per-operator latency with ``removed_words`` taken off the DRAM term."""
        if removed_words <= 0.0:
            return result.latency
        breakdown = result.latency_breakdown
        hierarchy = self.accelerator.hierarchy
        dram = hierarchy.dram_index
        dram_level = hierarchy[dram]
        served = 0.0
        for flow in analysis.boundary_flows:
            if flow.parent_level == dram:
                served += flow.words_read_from_parent + flow.words_written_to_parent
        remaining = max(served - removed_words, 0.0)
        instances = max(analysis.active_instances(dram), 1)
        cycles = dict(breakdown.memory_cycles)
        if remaining > 0.0:
            cycles[dram_level.name] = remaining / (dram_level.bandwidth_words_per_cycle * instances)
        else:
            cycles.pop(dram_level.name, None)
        latency = breakdown.compute_cycles
        for value in cycles.values():
            if value > latency:
                latency = value
        return latency
