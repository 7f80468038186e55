"""Incremental (delta) mapping evaluation for move-based local search.

A local-search step changes one small thing about a mapping — relocates a
prime factor, swaps two loops, flips a factor between temporal and spatial —
and needs the new cost.  Re-running the full pipeline recomputes every
per-level term even though almost all of them are untouched.
:class:`DeltaEvaluator` instead keeps every intermediate term of the cost
expression cached against a mutable :class:`~repro.mapping.moves.MappingState`
and, per move, recomputes **only the dirty terms**:

* a :class:`~repro.mapping.moves.FactorMove` of dimension ``d`` dirties the
  footprint column of ``d``, the tiles of the tensors ``d`` indexes, the
  buffer occupancies, and — when it touches temporal (spatial) placement —
  the stationarity walks at-or-below the edited levels (the spatial
  products, instance counts and multicast lanes);
* a :class:`~repro.mapping.moves.PermutationSwap` at level ``l`` dirties only
  the stationarity walks of children ``<= l``.

The final aggregation over boundary flows is ~a hundred scalar operations
and is always re-run from the cached terms in the canonical order, which is
what makes the results **bit-for-bit identical** to the scalar oracle
(:mod:`repro.model.cost`) and the batched model: every float
expression here mirrors the batched model's association order exactly, and
``tests/test_delta_moves.py`` asserts equality with ``==`` after random move
sequences on every built-in problem.

Invalid states are not dead ends for the search: the result carries the
*raw* latency/energy/utilization plus normalized capacity/fanout violation
totals, which the DDFW-style weights of
:class:`~repro.baselines.local_search.LocalSearchScheduler` turn into a
guidance score.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.mapping.moves import FactorMove, MappingState, PermutationSwap
from repro.workloads.layer import TensorKind
from repro.workloads.problem import Window

__all__ = ["DeltaCostResult", "DeltaEvaluator"]

_INF = float("inf")


@dataclass
class DeltaCostResult:
    """Evaluation of one mapping state, with guidance terms for local search.

    ``latency`` / ``energy`` / ``utilization`` follow the scalar and batched
    models exactly (``inf`` / ``inf`` / ``0`` when invalid); the ``raw_*``
    twins hold the unmasked values so an invalid state can still be compared
    against its neighbors, and the ``*_violation`` fields quantify by how
    much the capacity / fanout constraint groups are exceeded (0 when
    satisfied, normalized by the limit).
    """

    valid: bool
    latency: float
    energy: float
    utilization: float
    raw_latency: float
    raw_energy: float
    raw_utilization: float
    capacity_violation: float
    spatial_violation: float
    consistent: bool

    @property
    def edp(self) -> float:
        """Energy-delay product (mirrors ``CostResult.edp``)."""
        return self.energy * self.latency

    def score(self, metric: str) -> float:
        """Scalar-to-minimise under ``metric`` (``inf`` when invalid)."""
        return self._metric(metric, self.latency, self.energy)

    def raw_score(self, metric: str) -> float:
        """Like :meth:`score` but from the unmasked values (finite when invalid)."""
        return self._metric(metric, self.raw_latency, self.raw_energy)

    @staticmethod
    def _metric(metric: str, latency: float, energy: float) -> float:
        if metric == "latency":
            return latency
        if metric == "energy":
            return energy
        if metric == "edp":
            return energy * latency
        raise ValueError(f"unknown metric {metric!r}")


class DeltaEvaluator:
    """Incrementally evaluate a mutable mapping state under moves.

    Parameters
    ----------
    state:
        The :class:`MappingState` this evaluator tracks.  Apply moves
        through :meth:`apply` / :meth:`preview` only — mutating the state
        directly desynchronizes the caches (call :meth:`reset` afterwards).
    accelerator:
        Target architecture (constants are extracted once).
    """

    def __init__(self, state: MappingState, accelerator: Accelerator):
        self.state = state
        self.accelerator = accelerator
        layer = state.layer
        problem = layer.problem
        self.layer = layer
        self.problem = problem

        hierarchy = accelerator.hierarchy
        self._L = len(hierarchy)
        if state.num_levels != self._L:
            raise ValueError(
                f"state covers {state.num_levels} levels, architecture has {self._L}"
            )
        self._dims = problem.dims
        self._D = len(problem.dims)
        self._dim_index = {dim: i for i, dim in enumerate(problem.dims)}
        self._rel = [
            [problem.relevance(dim, tensor) for tensor in TensorKind]
            for dim in problem.dims
        ]
        red = set(problem.reduction_dims)
        self._is_red = [dim in red for dim in problem.dims]
        # Projection term programs: ("d", i) plain factor, ("w", outer, window).
        self._terms = {}
        for tensor in TensorKind:
            program = []
            for term in problem.projection(tensor):
                if isinstance(term, Window):
                    program.append(("w", self._dim_index[term.outer], self._dim_index[term.window]))
                else:
                    program.append(("d", self._dim_index[term]))
            self._terms[tensor] = program

        self._fanout = [float(level.spatial_fanout) for level in hierarchy]
        self._capacity = [
            _INF if level.is_unbounded else float(level.capacity_bytes) for level in hierarchy
        ]
        self._bandwidth = [level.bandwidth_words_per_cycle for level in hierarchy]
        self._bytes = [float(accelerator.precision.bytes_for(t)) for t in TensorKind]
        self._holds = [[level.holds(t) for level in hierarchy] for t in TensorKind]
        self._flow_pairs: list[tuple[TensorKind, int, int]] = []
        for tensor in TensorKind:
            levels = hierarchy.levels_holding(tensor)
            for child, parent in zip(levels, levels[1:]):
                self._flow_pairs.append((tensor, child, parent))
        self._children = sorted({child for _, child, _ in self._flow_pairs})
        self._tensors_at_child = {
            child: [t for t in TensorKind if any(c == child and ft is t for ft, c, _ in self._flow_pairs)]
            for child in self._children
        }
        self._innermost = [hierarchy.innermost_level_for(t) for t in TensorKind]
        self._multicast = accelerator.noc.multicast
        self.dram_index = hierarchy.dram_index
        self.pe_level = accelerator.pe_level_index()
        table = accelerator.energy
        self._level_pj = [table.access_energy(level.name) for level in hierarchy]
        self._mac_pj = table.mac_energy_pj
        self._hop_pj = table.noc_hop_energy_pj
        rows, cols = accelerator.pe_array.rows, accelerator.pe_array.cols
        self._average_hops = (rows + cols) / 2.0
        self._total_lanes = float(accelerator.pe_array.num_pes * accelerator.pe_array.macs_per_pe)

        layer_bounds = layer.bounds
        self._bounds = [float(layer_bounds[dim]) for dim in problem.dims]
        self._volumes = [float(layer.tensor_volume(t)) for t in TensorKind]
        self._macs = float(layer.macs)
        self._stride = float(layer.stride)

        #: Number of (incremental) evaluations performed so far.
        self.evaluations = 0
        self.reset()

    # ------------------------------------------------------------ cache build
    def reset(self) -> None:
        """Rebuild every cached term from the current state."""
        L, D = self._L, self._D
        self._tf = [[1.0] * D for _ in range(L)]
        self._sf = [[1.0] * D for _ in range(L)]
        for level in range(L):
            for dim, bound in self.state.temporal[level]:
                d = self._dim_index[dim]
                self._tf[level][d] = self._tf[level][d] * float(bound)
            for dim, bound in self.state.spatial[level]:
                d = self._dim_index[dim]
                self._sf[level][d] = self._sf[level][d] * float(bound)
        self._fp = [[1.0] * D for _ in range(L)]
        self._dimprod = [1.0] * D
        for d in range(D):
            self._recompute_column(d)
        self._tiles = [[0.0] * L for _ in TensorKind]
        for tensor in TensorKind:
            self._recompute_tiles(tensor)
        self._used = [0.0] * L
        self._recompute_used()
        self._spl = [1.0] * L
        self._inst = [1.0] * L
        self._lanes = [1.0] * len(self._flow_pairs)
        self._sfprod = 1.0
        self._recompute_spatial()
        self._refetch: dict[tuple[TensorKind, int], float] = {}
        self._pending: dict[int, bool] = {}
        self._recompute_walk(self._L - 1)
        self._cc = 1.0
        self._recompute_cc()

    def _refresh_factor(self, level: int, d: int) -> None:
        """Re-derive ``tf``/``sf`` at ``(level, d)`` from the state lists."""
        dim = self._dims[d]
        tf = 1.0
        for name, bound in self.state.temporal[level]:
            if name == dim:
                tf = tf * float(bound)
        sf = 1.0
        for name, bound in self.state.spatial[level]:
            if name == dim:
                sf = sf * float(bound)
        self._tf[level][d] = tf
        self._sf[level][d] = sf

    def _recompute_column(self, d: int) -> None:
        """Footprint column of dimension ``d`` (cumprod of factors below)."""
        below = 1.0
        for level in range(self._L):
            self._fp[level][d] = below * self._sf[level][d]
            below = below * (self._tf[level][d] * self._sf[level][d])
        self._dimprod[d] = below

    def _recompute_tiles(self, tensor: TensorKind) -> None:
        """Tile sizes of ``tensor`` at every level, from the footprint columns."""
        t = int(tensor)
        tiles = self._tiles[t]
        stride = self._stride
        for level in range(self._L):
            if not self._holds[t][level]:
                tiles[level] = 0.0
                continue
            if level == self.dram_index:
                tiles[level] = self._volumes[t]
                continue
            fp = self._fp[level]
            value = None
            for term in self._terms[tensor]:
                if term[0] == "d":
                    extent = fp[term[1]]
                else:
                    extent = (fp[term[1]] - 1) * stride + fp[term[2]]
                value = extent if value is None else value * extent
            tiles[level] = value

    def _recompute_used(self) -> None:
        """Per-level buffer occupancy in bytes (TensorKind accumulation order)."""
        for level in range(self._L):
            used = 0.0
            for t in range(len(TensorKind)):
                used = used + self._tiles[t][level] * self._bytes[t]
            self._used[level] = used

    def _recompute_spatial(self) -> None:
        """Spatial products, instance counts, lane factors, total fanout."""
        L, D = self._L, self._D
        for level in range(L):
            product = 1.0
            for d in range(D):
                product = product * self._sf[level][d]
            self._spl[level] = product
        # active_instances: suffix products accumulated outermost-level first,
        # matching the reversed-cumprod of the batched model.
        acc = 1.0
        self._inst[L - 1] = 1.0
        for level in range(L - 2, -1, -1):
            acc = acc * self._spl[level + 1]
            self._inst[level] = acc
        for index, (tensor, child, parent) in enumerate(self._flow_pairs):
            t = int(tensor)
            lanes = 1.0
            for level in range(child + 1, parent + 1):
                for d in range(D):
                    if not self._rel[d][t]:
                        lanes = lanes * self._sf[level][d]
            self._lanes[index] = lanes
        product = 1.0
        for level in range(L):
            for d in range(D):
                product = product * self._sf[level][d]
        self._sfprod = product

    def _recompute_walk(self, max_child: int) -> None:
        """Stationarity walks (re-fetch factors, pending flags) for children ``<= max_child``.

        The walk order is the flattened temporal-loop sequence — levels
        ascending, permutation order within a level — exactly the order the
        batched model packs into its loop arrays.
        """
        loops = []
        for level in range(self._L):
            for dim, bound in self.state.temporal[level]:
                loops.append((level, self._dim_index[dim], float(bound)))
        out = int(TensorKind.OUTPUT)
        for child in self._children:
            if child > max_child:
                continue
            for tensor in self._tensors_at_child[child]:
                t = int(tensor)
                factor = 1.0
                seen = False
                for level, d, bound in loops:
                    if level < child:
                        continue
                    if self._rel[d][t]:
                        seen = True
                    if seen:
                        factor = factor * bound
                self._refetch[(tensor, child)] = factor
            pending = False
            seen = False
            for level, d, _ in loops:
                if level < child:
                    continue
                if seen and self._is_red[d]:
                    pending = True
                    break
                if self._rel[d][out]:
                    seen = True
            self._pending[child] = pending

    def _recompute_cc(self) -> None:
        """Compute cycles: product of every temporal factor, level-major."""
        cc = 1.0
        for level in range(self._L):
            for d in range(self._D):
                cc = cc * self._tf[level][d]
        self._cc = cc

    # --------------------------------------------------------------- evaluate
    def evaluate(self) -> DeltaCostResult:
        """Aggregate the cached terms into a full cost result.

        Boundary flows and the latency/energy reductions always run in the
        canonical (scalar-model) order; only their inputs come from the
        incrementally maintained caches.
        """
        L = self._L
        T = len(TensorKind)

        consistent = True
        for d in range(self._D):
            if self._dimprod[d] != self._bounds[d]:
                consistent = False
                break
        fanout_ok = True
        spatial_violation = 0.0
        for level in range(L):
            excess = self._spl[level] - self._fanout[level]
            if excess > 0.0:
                fanout_ok = False
                spatial_violation += excess / self._fanout[level]
        buffers_ok = True
        capacity_violation = 0.0
        for level in range(L):
            capacity = self._capacity[level]
            if capacity == _INF:
                continue
            excess = self._used[level] - capacity
            if excess > 0.0:
                buffers_ok = False
                capacity_violation += excess / capacity
        valid = consistent and fanout_ok and buffers_ok

        reads = [[0.0] * T for _ in range(L)]
        writes = [[0.0] * T for _ in range(L)]
        words_served = [0.0] * L
        noc_words = [0.0] * T

        for index, (tensor, child, parent) in enumerate(self._flow_pairs):
            t = int(tensor)
            w_in = self._tiles[t][child] * self._refetch[(tensor, child)] * self._inst[child]
            raw_lanes = self._lanes[index]
            multicast = raw_lanes if self._multicast else 1.0
            w_read = w_in / max(multicast, 1.0)
            w_written = 0.0
            w_back = 0.0
            if tensor is TensorKind.OUTPUT:
                reduction_lanes = max(raw_lanes, 1.0)
                w_written = w_in / reduction_lanes
                w_back = w_written if self._pending[child] else 0.0
                w_in = w_back * reduction_lanes
                w_read = w_back

            writes[child][t] += w_in
            reads[parent][t] += w_read
            writes[parent][t] += w_written
            reads[child][t] += w_written

            words_served[parent] = words_served[parent] + (w_read + w_written)
            if child < self.pe_level <= parent:
                noc_words[t] = noc_words[t] + ((w_in + w_written) + w_back)

        macs = self._macs
        for tensor in TensorKind:
            t = int(tensor)
            innermost = self._innermost[t]
            if tensor is TensorKind.OUTPUT:
                reads[innermost][t] += macs
                writes[innermost][t] += macs
            else:
                reads[innermost][t] += macs

        latency = self._cc
        for level in range(L):
            cycles = words_served[level] / (self._bandwidth[level] * self._inst[level])
            if cycles > latency:
                latency = cycles

        mac_energy = macs * self._mac_pj
        level_energy_sum = 0.0
        for level in range(L):
            accesses = 0.0
            for t in range(T):
                accesses = accesses + (reads[level][t] + writes[level][t])
            level_energy_sum = level_energy_sum + accesses * self._level_pj[level]
        total_noc_words = 0.0
        for t in range(T):
            total_noc_words = total_noc_words + noc_words[t]
        noc_energy = total_noc_words * self._average_hops * self._hop_pj
        energy = (mac_energy + noc_energy) + level_energy_sum

        utilization = min(1.0, self._sfprod / self._total_lanes)

        return DeltaCostResult(
            valid=valid,
            latency=latency if valid else _INF,
            energy=energy if valid else _INF,
            utilization=utilization if valid else 0.0,
            raw_latency=latency,
            raw_energy=energy,
            raw_utilization=utilization,
            capacity_violation=capacity_violation,
            spatial_violation=spatial_violation,
            consistent=consistent,
        )

    # ------------------------------------------------------------------ moves
    def apply(self, move) -> tuple[DeltaCostResult, tuple]:
        """Apply ``move`` to the state, refresh dirty caches and evaluate.

        Returns ``(result, token)``; pass the token to :meth:`undo` to roll
        the state *and* the caches back exactly.
        """
        record = self.state.apply(move)
        patches = self._refresh(move)
        self.evaluations += 1
        return self.evaluate(), (record, patches)

    def undo(self, token: tuple) -> None:
        """Revert a move applied with :meth:`apply`."""
        record, patches = token
        self.state.undo(record)
        for tag, payload in reversed(patches):
            if tag == "tf":
                level, d, value = payload
                self._tf[level][d] = value
            elif tag == "sf":
                level, d, value = payload
                self._sf[level][d] = value
            elif tag == "col":
                d, column, dimprod = payload
                for level in range(self._L):
                    self._fp[level][d] = column[level]
                self._dimprod[d] = dimprod
            elif tag == "tiles":
                t, row = payload
                self._tiles[t] = row
            elif tag == "used":
                self._used = payload
            elif tag == "spatial":
                self._spl, self._inst, self._lanes, self._sfprod = payload
            elif tag == "walk":
                self._refetch, self._pending = payload
            elif tag == "cc":
                self._cc = payload

    def preview(self, move) -> DeltaCostResult:
        """Evaluate ``move`` without keeping it (apply, evaluate, undo)."""
        result, token = self.apply(move)
        self.undo(token)
        return result

    def _refresh(self, move) -> list:
        """Recompute the caches ``move`` dirtied; return restore patches."""
        patches: list[tuple] = []
        if isinstance(move, PermutationSwap):
            patches.append(("walk", (dict(self._refetch), dict(self._pending))))
            self._recompute_walk(move.level)
            return patches

        d = self._dim_index[move.dim]
        for level in {move.src_level, move.dst_level}:
            patches.append(("tf", (level, d, self._tf[level][d])))
            patches.append(("sf", (level, d, self._sf[level][d])))
            self._refresh_factor(level, d)
        patches.append(
            ("col", (d, [self._fp[level][d] for level in range(self._L)], self._dimprod[d]))
        )
        self._recompute_column(d)
        for tensor in TensorKind:
            if self._rel[d][int(tensor)]:
                t = int(tensor)
                patches.append(("tiles", (t, self._tiles[t])))
                self._tiles[t] = list(self._tiles[t])
                self._recompute_tiles(tensor)
        patches.append(("used", self._used))
        self._used = list(self._used)
        self._recompute_used()
        if move.touches_spatial:
            patches.append(("spatial", (self._spl, self._inst, self._lanes, self._sfprod)))
            self._spl = list(self._spl)
            self._inst = list(self._inst)
            self._lanes = list(self._lanes)
            self._recompute_spatial()
        if move.touches_temporal:
            patches.append(("walk", (self._refetch, self._pending)))
            self._refetch = dict(self._refetch)
            self._pending = dict(self._pending)
            max_level = -1
            if not move.src_spatial:
                max_level = move.src_level
            if not move.dst_spatial and move.dst_level > max_level:
                max_level = move.dst_level
            self._recompute_walk(max_level)
            patches.append(("cc", self._cc))
            self._recompute_cc()
        return patches
