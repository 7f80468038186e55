"""Loop-nest (reuse) analysis.

Given a :class:`~repro.mapping.mapping.Mapping` and an
:class:`~repro.arch.accelerator.Accelerator`, this module derives everything
the performance and energy models need:

* per-level, per-tensor **tile sizes** (and therefore buffer occupancy),
* **re-fetch factors**: how many times a level's tile has to be re-filled
  from its parent because of temporal loops above it,
* **boundary flows**: total words crossing each storage-to-storage boundary,
  including multicast savings on the way down and spatial-reduction savings
  for partial sums on the way up.

Conventions (see also ``DESIGN.md``)
------------------------------------
* The tile held in storage level ``I`` is the data footprint of all loops at
  levels strictly below ``I`` plus the spatial loops at ``I`` itself (the
  level must hold the data of every child instance it feeds).  This matches
  Eq. (1)/(2) of the paper, refined to account for spatially-distributed data
  at the level itself.
* A temporal loop at level ``I`` iterates level-``I`` tiles, so it counts
  towards the re-fetch factor of level ``I``.
* The re-fetch factor of tensor ``v`` at level ``I`` is the product of the
  bounds of every temporal loop at levels ``>= I`` that is at-or-outside the
  innermost ``v``-relevant temporal loop (the classic stationarity rule; the
  paper's Eq. (9)/(10) encode the same rule in the MIP).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.workloads.layer import TensorKind


@dataclass(frozen=True)
class BoundaryFlow:
    """Data movement between a child storage level and its parent for one tensor.

    Attributes
    ----------
    tensor:
        The tensor being moved.
    child_level, parent_level:
        Hierarchy indices of the two storage levels.
    words_into_child:
        Total words written into *all* instances of the child level.
    words_read_from_parent:
        Total words read from the parent (smaller than ``words_into_child``
        when multicast lets one read feed several children).
    words_written_to_parent:
        Upward traffic (outputs / partial sums) written into the parent.
    words_read_back:
        Partial sums read back down for further accumulation (0 when the
        reduction completes below the child level).
    """

    tensor: TensorKind
    child_level: int
    parent_level: int
    words_into_child: float
    words_read_from_parent: float
    words_written_to_parent: float = 0.0
    words_read_back: float = 0.0

    @property
    def total_boundary_words(self) -> float:
        """All words crossing the boundary in either direction."""
        return self.words_into_child + self.words_written_to_parent + self.words_read_back


class NestAnalysis:
    """Reuse analysis of one mapping on one accelerator."""

    def __init__(self, mapping: Mapping, accelerator: Accelerator):
        if mapping.num_levels != accelerator.num_memory_levels:
            raise ValueError(
                f"mapping has {mapping.num_levels} levels but the accelerator has "
                f"{accelerator.num_memory_levels} memory levels"
            )
        self.mapping = mapping
        self.accelerator = accelerator
        self.layer = mapping.layer
        self.problem = self.layer.problem
        self.hierarchy = accelerator.hierarchy

    # ------------------------------------------------------------------ tiles
    def _dim_footprint_below(self, dim: str, level: int) -> int:
        """Product of ``dim`` factors at levels below ``level`` plus spatial at ``level``."""
        below = self.mapping.dim_product(dim, max_level=level - 1) if level > 0 else 1
        at_level_spatial = self.mapping.levels[level].factor(dim, include_temporal=False)
        return below * at_level_spatial

    def tile_elements(self, tensor: TensorKind, level: int) -> float:
        """Elements of ``tensor`` resident in one instance of storage ``level``.

        Returns 0 when the level does not store the tensor.  The outermost
        (DRAM) level holds the full tensor.
        """
        if not self.hierarchy[level].holds(tensor):
            return 0.0
        if level == self.hierarchy.dram_index:
            return float(self.layer.tensor_volume(tensor))
        footprint = {dim: self._dim_footprint_below(dim, level) for dim in self.problem.dims}
        return float(self.problem.footprint(tensor, footprint, self.layer.stride))

    def tile_bytes(self, tensor: TensorKind, level: int) -> float:
        """Bytes of ``tensor`` resident in one instance of storage ``level``."""
        return self.tile_elements(tensor, level) * self.accelerator.precision.bytes_for(tensor)

    def utilization_bytes(self, level: int) -> float:
        """Total bytes occupied in one instance of ``level`` across all tensors."""
        return sum(self.tile_bytes(tensor, level) for tensor in TensorKind)

    def buffer_violations(self) -> list[tuple[int, float, float]]:
        """Capacity violations as ``(level, used_bytes, capacity_bytes)`` tuples."""
        violations = []
        for i, level in enumerate(self.hierarchy):
            if level.is_unbounded:
                continue
            used = self.utilization_bytes(i)
            if used > level.capacity_bytes:
                violations.append((i, used, float(level.capacity_bytes)))
        return violations

    # ------------------------------------------------------------------ reuse
    def storage_levels(self, tensor: TensorKind) -> list[int]:
        """Indices of levels storing ``tensor``, innermost first."""
        return self.hierarchy.levels_holding(tensor)

    def refetch_factor(self, tensor: TensorKind, level: int) -> float:
        """How many times the ``level`` tile of ``tensor`` is filled from its parent.

        Walks the temporal loops at levels ``>= level`` from innermost to
        outermost; every loop at-or-outside the innermost tensor-relevant loop
        contributes its bound.  Returns 1.0 when the tensor never has to be
        re-fetched (fully stationary).
        """
        loops = self.mapping.loops_above(level)
        relevant_seen = False
        factor = 1.0
        for _, loop in loops:
            if not relevant_seen and loop.relevant_to(tensor, self.problem):
                relevant_seen = True
            if relevant_seen:
                factor *= loop.bound
        return factor

    def active_instances(self, level: int) -> int:
        """Number of instances of ``level`` that receive work (product of spatial factors above)."""
        count = 1
        for j in range(level + 1, self.mapping.num_levels):
            count *= self.mapping.spatial_product_at(j)
        return count

    def _spatial_factor_between(self, child: int, parent: int, relevant_to: TensorKind, relevant: bool) -> int:
        """Product of spatial factors at levels in ``(child, parent]`` filtered by relevance."""
        total = 1
        for j in range(child + 1, parent + 1):
            for loop in self.mapping.levels[j].spatial:
                if loop.relevant_to(relevant_to, self.problem) == relevant:
                    total *= loop.bound
        return total

    def reduction_pending_above(self, level: int) -> bool:
        """True when a reduction-dimension temporal loop sits outside the innermost
        output-relevant loop at levels ``>= level`` (outputs crossing this boundary
        are partial sums)."""
        loops = self.mapping.loops_above(level)
        reduction_dims = self.problem.reduction_dims
        relevant_seen = False
        for _, loop in loops:
            if not relevant_seen and loop.relevant_to(TensorKind.OUTPUT, self.problem):
                relevant_seen = True
                continue
            if relevant_seen and loop.dim in reduction_dims:
                return True
        return False

    # ------------------------------------------------------------------ flows
    @cached_property
    def boundary_flows(self) -> list[BoundaryFlow]:
        """Data movement between every adjacent pair of storage levels, per tensor."""
        flows: list[BoundaryFlow] = []
        for tensor in TensorKind:
            levels = self.storage_levels(tensor)
            for child, parent in zip(levels, levels[1:]):
                flows.append(self._flow_for(tensor, child, parent))
        return flows

    def _flow_for(self, tensor: TensorKind, child: int, parent: int) -> BoundaryFlow:
        tile = self.tile_elements(tensor, child)
        refetch = self.refetch_factor(tensor, child)
        instances = self.active_instances(child)
        words_into_child = tile * refetch * instances

        # Multicast: one parent read serves every child instance that receives
        # identical data, i.e. instances spread along tensor-irrelevant
        # spatial dimensions between child and parent.
        multicast_copies = self._spatial_factor_between(child, parent, tensor, relevant=False)
        if not self.accelerator.noc.multicast:
            multicast_copies = 1
        words_read_from_parent = words_into_child / max(multicast_copies, 1)

        words_written_to_parent = 0.0
        words_read_back = 0.0
        if tensor is TensorKind.OUTPUT:
            # Outputs flow upward.  Spatial reduction combines the partial
            # sums of children along reduction spatial dimensions before they
            # reach the parent.
            reduction_lanes = self._spatial_factor_between(child, parent, tensor, relevant=False)
            words_written_to_parent = words_into_child / max(reduction_lanes, 1)
            if self.reduction_pending_above(child):
                # Partial sums return for further accumulation: the parent is
                # also read once per write (read-modify-write), and the child
                # has to re-load the partial it previously evicted.
                words_read_back = words_written_to_parent
            # Downward "fill" traffic for outputs only exists when partials
            # come back; otherwise outputs are produced, not fetched.
            words_into_child = words_read_back * max(reduction_lanes, 1)
            words_read_from_parent = words_read_back
        return BoundaryFlow(
            tensor=tensor,
            child_level=child,
            parent_level=parent,
            words_into_child=words_into_child,
            words_read_from_parent=words_read_from_parent,
            words_written_to_parent=words_written_to_parent,
            words_read_back=words_read_back,
        )

    # ---------------------------------------------------------------- accesses
    @cached_property
    def access_counts(self) -> dict[int, dict[TensorKind, dict[str, float]]]:
        """Per-level, per-tensor access counts (``reads`` / ``writes`` in words).

        Includes the compute-side accesses at the innermost storing level of
        each tensor (operand reads and accumulation read/writes by the MACs).
        """
        counts: dict[int, dict[TensorKind, dict[str, float]]] = {
            i: {t: {"reads": 0.0, "writes": 0.0} for t in TensorKind}
            for i in range(len(self.hierarchy))
        }
        for flow in self.boundary_flows:
            child, parent, tensor = flow.child_level, flow.parent_level, flow.tensor
            counts[child][tensor]["writes"] += flow.words_into_child
            counts[parent][tensor]["reads"] += flow.words_read_from_parent
            counts[parent][tensor]["writes"] += flow.words_written_to_parent
            counts[child][tensor]["reads"] += flow.words_written_to_parent

        macs = float(self.layer.macs)
        for tensor in TensorKind:
            innermost = self.hierarchy.innermost_level_for(tensor)
            if tensor is TensorKind.OUTPUT:
                counts[innermost][tensor]["reads"] += macs
                counts[innermost][tensor]["writes"] += macs
            else:
                counts[innermost][tensor]["reads"] += macs
        return counts

    def level_access_words(self, level: int) -> float:
        """Total word accesses (reads + writes, all tensors) at ``level``."""
        per_tensor = self.access_counts[level]
        return sum(c["reads"] + c["writes"] for c in per_tensor.values())

    # ----------------------------------------------------------------- compute
    @property
    def total_macs(self) -> int:
        """Total MAC operations of the layer."""
        return self.layer.macs

    @property
    def temporal_iterations(self) -> int:
        """Product of every temporal loop bound (cycles per active lane)."""
        return self.mapping.total_temporal_product()

    @property
    def noc_level(self) -> int:
        """Hierarchy index of the level whose fanout is the PE array (NoC boundary)."""
        return self.accelerator.pe_level_index()

    def noc_boundary_words(self) -> dict[TensorKind, float]:
        """Words of each tensor crossing the PE-array (NoC) boundary."""
        boundary = self.noc_level
        words = {t: 0.0 for t in TensorKind}
        for flow in self.boundary_flows:
            if flow.child_level < boundary <= flow.parent_level:
                words[flow.tensor] += flow.total_boundary_words
        return words

    def describe(self) -> str:
        """Multi-line human-readable report of tiles and flows (debugging aid)."""
        lines = [f"NestAnalysis of {self.layer.name or self.layer.canonical_name}"]
        for i, level in enumerate(self.hierarchy):
            tiles = ", ".join(
                f"{t.short_name}={self.tile_elements(t, i):.0f}"
                for t in TensorKind
                if level.holds(t)
            )
            lines.append(f"  L{i} {level.name}: {tiles} ({self.utilization_bytes(i):.0f} B)")
        for flow in self.boundary_flows:
            lines.append(
                f"  {flow.tensor.short_name}: L{flow.parent_level}->L{flow.child_level} "
                f"{flow.words_into_child:.0f} words (reads {flow.words_read_from_parent:.0f})"
            )
        return "\n".join(lines)
