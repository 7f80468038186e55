"""Vectorized (batched) mapping evaluation.

The search baselines burn their budget evaluating candidate mappings one at
a time: every candidate walks the scalar :class:`~repro.model.nest.NestAnalysis`
/ :class:`~repro.model.performance.PerformanceModel` /
:class:`~repro.model.energy.EnergyModel` pipeline, which is dominated by
Python interpreter overhead, not arithmetic.  This module evaluates a whole
**batch** of candidates for one (layer, architecture) pair with numpy array
operations instead:

* :class:`MappingBatch` — a batch of candidate mappings materialized as
  factor matrices (``temporal[B, L, D]``, ``spatial[B, L, D]``) plus the
  flattened, permutation-ordered temporal-loop sequence
  (``loop_level/loop_dim/loop_bound[B, M]``) that the stationarity rules
  need.  Batches are built from :class:`~repro.mapping.space.MappingDraws`
  (no :class:`~repro.mapping.mapping.Mapping` objects are created) or from
  existing mappings.
* :class:`BatchCostModel` — validates and evaluates every candidate of a
  batch at once, producing per-candidate ``valid``/``latency``/``energy``
  arrays.  Architecture constants are bound at construction; problem tables
  and per-layer constants are cached on the instance, so a search that
  evaluates thousands of batches of one layer pays for them once.

Equivalence with the scalar model
---------------------------------
The scalar pipeline stays the **reference oracle**: this module re-states
the same equations over a batch axis and mirrors the scalar code's exact
floating-point expression structure (association order of products, order of
accumulation over boundary flows, tensors and levels) so results agree
bit-for-bit wherever intermediate values are exactly representable, and to
within 1e-9 relative everywhere else.  Three reductions are fused rather
than written as Python loops, each provably bit-equal to the sequential
scalar walk: the stationarity product (``multiply.reduce`` traverses the
loop axis in order and every intermediate is an exact integer), the
per-level latency maximum (``max`` is order-invariant over identical
quotients) and the per-level access sum (numpy reduces the length-3 tensor
axis sequentially).  ``tests/test_batch_parity.py`` locks the two paths
together; ``docs/cost_model.md`` maps every scalar method to its vectorized
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.workloads.layer import Layer, TensorKind
from repro.workloads.problem import TensorProblem

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapping.space import MappingDraws

#: Padding sentinel used in the flattened loop arrays.
PAD = -1


class MappingBatch:
    """A batch of candidate mappings of one layer, as factor matrices.

    Attributes
    ----------
    layer:
        The layer every candidate maps (one batch = one layer).
    size:
        Number of candidates ``B``.
    num_levels:
        Memory levels ``L`` covered by every candidate.
    temporal / spatial:
        ``float64[B, L, D]`` per-dimension factor products of the temporal /
        spatial loops at each level (missing dimensions are 1).
    loop_level / loop_dim / loop_bound:
        The flattened temporal-loop sequences, innermost level first and
        within a level in permutation order (innermost loop first), padded
        with :data:`PAD` / bound 1 to the widest candidate.  The stationarity
        rules (re-fetch factors, pending reductions) depend on this order,
        not just on the factor products.  Bound-1 loops are kept: a bound-1
        tensor-relevant loop still ends the stationary region of the walk.
    """

    def __init__(
        self,
        layer: Layer,
        temporal,
        spatial,
        loop_level,
        loop_dim,
        loop_bound,
    ):
        self.layer = layer
        self.temporal = temporal
        self.spatial = spatial
        self.loop_level = loop_level
        self.loop_dim = loop_dim
        self.loop_bound = loop_bound
        self.size = int(temporal.shape[0])
        self.num_levels = int(temporal.shape[1])

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------ construction
    @classmethod
    def from_draws(cls, draws: "MappingDraws") -> "MappingBatch":
        """Pack sampled factor placements (no ``Mapping`` objects involved)."""
        return cls._pack(
            draws.layer, draws.num_levels, draws.temporal, draws.spatial, merged=True
        )

    @classmethod
    def from_mappings(cls, mappings: Sequence[Mapping]) -> "MappingBatch":
        """Pack existing mappings (all of one layer, with equal level counts)."""
        if not mappings:
            raise ValueError("cannot build a batch from zero mappings")
        layer = mappings[0].layer
        num_levels = mappings[0].num_levels
        for mapping in mappings:
            if mapping.layer != layer:
                raise ValueError("all mappings of a batch must map the same layer")
            if mapping.num_levels != num_levels:
                raise ValueError("all mappings of a batch must cover the same levels")
        temporal = [
            [[(loop.dim, loop.bound) for loop in level.temporal] for level in mapping.levels]
            for mapping in mappings
        ]
        spatial = [
            [[(loop.dim, loop.bound) for loop in level.spatial] for level in mapping.levels]
            for mapping in mappings
        ]
        return cls._pack(layer, num_levels, temporal, spatial, merged=False)

    @classmethod
    def _pack(cls, layer, num_levels, temporal_loops, spatial_loops, merged):
        """Build the batch arrays with flat index lists and one scatter each.

        The flattened loop order is level-major within each candidate, so
        the (candidate, position, level) index columns are pure arithmetic
        over the per-(candidate, level) loop counts — only the dimension ids
        and bounds need the Python walk, which runs once per loop and keeps
        its body to two appends.  ``merged`` candidates (sampled draws) hold
        at most one loop per (level, dim), so the factor matrices take a
        plain assignment; otherwise repeated dims multiply in loop order.
        """
        size = len(temporal_loops)
        dim_index = {dim: i for i, dim in enumerate(layer.problem.dims)}
        L, D = num_levels, len(dim_index)
        level_ids = np.tile(np.arange(L, dtype=np.int64), size)

        def flatten(candidates):
            counts: list[int] = []
            dims: list[int] = []
            bounds: list[int] = []
            add_count, add_dim, add_bound = counts.append, dims.append, bounds.append
            for levels in candidates:
                for loops in levels:
                    add_count(len(loops))
                    for dim, bound in loops:
                        add_dim(dim_index[dim])
                        add_bound(bound)
            counts_arr = np.array(counts, dtype=np.int64)
            per_candidate = counts_arr.reshape(size, L).sum(axis=1)
            rows = np.repeat(np.arange(size, dtype=np.int64), per_candidate)
            levels_of = np.repeat(level_ids, counts_arr)
            return (
                per_candidate,
                rows,
                levels_of,
                np.array(dims, dtype=np.int64),
                np.array(bounds, dtype=np.float64),
            )

        def scatter(factors, rows, levels_of, dims, bounds):
            if merged:
                factors[rows, levels_of, dims] = bounds
            else:
                np.multiply.at(factors, (rows, levels_of, dims), bounds)

        t_per, t_rows, t_levels, t_dims, t_bounds = flatten(temporal_loops)
        max_loops = max(int(t_per.max(initial=0)), 1)
        tf = np.ones((size, L, D), dtype=np.float64)
        sf = np.ones((size, L, D), dtype=np.float64)
        loop_level = np.full((size, max_loops), PAD, dtype=np.int64)
        loop_dim = np.full((size, max_loops), PAD, dtype=np.int64)
        loop_bound = np.ones((size, max_loops), dtype=np.float64)
        if len(t_dims):
            starts = np.concatenate([[0], np.cumsum(t_per)[:-1]])
            cols = np.arange(len(t_rows), dtype=np.int64) - np.repeat(starts, t_per)
            scatter(tf, t_rows, t_levels, t_dims, t_bounds)
            loop_level[t_rows, cols] = t_levels
            loop_dim[t_rows, cols] = t_dims
            loop_bound[t_rows, cols] = t_bounds
        _, s_rows, s_levels, s_dims, s_bounds = flatten(spatial_loops)
        if len(s_dims):
            scatter(sf, s_rows, s_levels, s_dims, s_bounds)
        return cls(layer, tf, sf, loop_level, loop_dim, loop_bound)


class _ProblemTables:
    """Problem-dependent constants of the vectorized model.

    Built once per layer and cached on the :class:`BatchCostModel`: the
    dimension index of the factor
    matrices, the ``bool[D, T]`` relevance matrix derived from the projection
    tables, the per-tensor irrelevant-dimension masks used by the multicast /
    spatial-reduction factors, and the ``bool[D]`` reduction-dimension mask.
    """

    def __init__(self, problem: TensorProblem):
        self.problem = problem
        self.dims = problem.dims
        self.dim_index = {dim: i for i, dim in enumerate(problem.dims)}
        rel = np.zeros((len(problem.dims), len(TensorKind)), dtype=bool)
        for dim in problem.dims:
            for tensor in TensorKind:
                rel[self.dim_index[dim], int(tensor)] = problem.relevance(dim, tensor)
        self.rel = rel
        self.irrelevant_dims = {tensor: ~rel[:, int(tensor)] for tensor in TensorKind}
        self.is_reduction_dim = np.zeros(len(problem.dims), dtype=bool)
        self.is_reduction_dim[[self.dim_index[dim] for dim in problem.reduction_dims]] = True

    def tiles(self, f: dict, stride: float) -> dict:
        """Per-tensor footprint matrices from the projection tables.

        ``f`` maps dimension name to its ``[B, L]`` footprint matrix.
        :meth:`TensorProblem.footprint` multiplies the terms left-associated
        in projection order — the exact float expression structure of the
        scalar model, so conv results stay bit-for-bit identical to the
        historic hardcoded formulas.
        """
        tiles = {}
        for tensor in TensorKind:
            value = self.problem.footprint(tensor, f, stride)
            if len(self.problem.projection(tensor)) == 1:
                # A single plain-dim term aliases the footprint matrix; the
                # caller mutates tiles in place, so detach the view.
                value = value.copy()
            tiles[tensor] = value
        return tiles


@dataclass
class DramBoundaryFlowBatch:
    """Per-candidate DRAM-boundary flow of one tensor (arrays of length ``B``).

    The batched twin of the :class:`~repro.model.nest.BoundaryFlow` whose
    parent is DRAM: the same post-adjustment word counts the scalar analysis
    reports, per candidate.  ``child_level`` is a pure function of the
    architecture (the outermost on-chip level holding the tensor).
    """

    tensor: TensorKind
    child_level: int
    words_into_child: "np.ndarray"
    words_read_from_parent: "np.ndarray"
    words_written_to_parent: "np.ndarray"


@dataclass
class BatchEvalDetail:
    """A :class:`BatchCostResult` plus the intermediates the fused combiner needs.

    Every array is a reference to data the evaluation already computed —
    requesting the detail view costs nothing extra.  The fields mirror the
    scalar quantities :class:`~repro.model.fused.FusedCostModel` reads off a
    :class:`~repro.model.nest.NestAnalysis`:

    * ``compute_cycles[B]`` — temporal iterations (latency's compute term),
    * ``words_served[B, L]`` — words served by each level to its children
      (the per-level memory-cycles numerator),
    * ``instances[B, L]`` — active instances per level,
    * ``used_bytes[B, L]`` — buffer occupancy per level (``utilization_bytes``),
    * ``dram_flows`` — the DRAM-bordering boundary flow of each tensor.
    """

    result: BatchCostResult
    compute_cycles: "np.ndarray"
    words_served: "np.ndarray"
    instances: "np.ndarray"
    used_bytes: "np.ndarray"
    dram_flows: dict


@dataclass
class BatchCostResult:
    """Per-candidate evaluation results (arrays of length ``B``).

    Invalid candidates carry ``inf`` latency and energy so they lose every
    comparison, exactly like the scalar :class:`~repro.model.cost.CostResult`.
    """

    valid: "np.ndarray"
    latency: "np.ndarray"
    energy: "np.ndarray"
    utilization: "np.ndarray"

    @property
    def edp(self) -> "np.ndarray":
        """Energy-delay product per candidate (mirrors ``CostResult.edp``)."""
        return self.energy * self.latency

    def __len__(self) -> int:
        return int(self.valid.shape[0])

    @property
    def num_valid(self) -> int:
        """Number of valid candidates in the batch."""
        return int(self.valid.sum())

    def score(self, metric: str) -> "np.ndarray":
        """Scalar-to-minimise per candidate under ``metric`` (inf when invalid)."""
        if metric == "latency":
            return self.latency
        if metric == "energy":
            return self.energy
        if metric == "edp":
            return self.edp
        raise ValueError(f"unknown metric {metric!r}")


class BatchCostModel:
    """Evaluate batches of mappings of one architecture with numpy.

    The constructor precomputes every architecture-dependent constant (level
    capacities, bandwidths, tensor bindings, storage-level pairs of the
    boundary flows, energy constants); problem tables and per-layer
    constants are built on first use and cached on the instance, so
    :meth:`evaluate_batch` only runs array arithmetic.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        hierarchy = accelerator.hierarchy
        self.num_levels = len(hierarchy)
        self.dram_index = hierarchy.dram_index
        self.pe_level = accelerator.pe_level_index()
        #: Per-layer constants (problem tables, bounds vector, tensor
        #: volumes, macs, stride), computed once per layer.
        self._layer_consts: dict[Layer, tuple] = {}
        # Per-level constants.
        self._fanout = np.array([level.spatial_fanout for level in hierarchy], dtype=np.float64)
        self._capacity = np.array(
            [
                np.inf if level.is_unbounded else float(level.capacity_bytes)
                for level in hierarchy
            ],
            dtype=np.float64,
        )
        self._bandwidth = np.array(
            [level.bandwidth_words_per_cycle for level in hierarchy], dtype=np.float64
        )
        self._bytes = {tensor: float(accelerator.precision.bytes_for(tensor)) for tensor in TensorKind}
        self._holds = {
            tensor: np.array([level.holds(tensor) for level in hierarchy], dtype=bool)
            for tensor in TensorKind
        }
        # Boundary-flow structure: (tensor, child, parent) pairs are a pure
        # function of the architecture, in the same order NestAnalysis
        # iterates them (tensors in TensorKind order, levels innermost first).
        self._flow_pairs: list[tuple[TensorKind, int, int]] = []
        for tensor in TensorKind:
            levels = hierarchy.levels_holding(tensor)
            for child, parent in zip(levels, levels[1:]):
                self._flow_pairs.append((tensor, child, parent))
        self._tensors_at_child: dict[int, list[TensorKind]] = {}
        for tensor, child, _ in self._flow_pairs:
            self._tensors_at_child.setdefault(child, []).append(tensor)
        self._innermost = {tensor: hierarchy.innermost_level_for(tensor) for tensor in TensorKind}
        self._multicast = accelerator.noc.multicast
        # Energy constants.
        table = accelerator.energy
        self._level_energy_pj = [table.access_energy(level.name) for level in hierarchy]
        self._mac_pj = table.mac_energy_pj
        self._hop_pj = table.noc_hop_energy_pj
        rows, cols = accelerator.pe_array.rows, accelerator.pe_array.cols
        self._average_hops = (rows + cols) / 2.0
        self._total_lanes = accelerator.pe_array.num_pes * accelerator.pe_array.macs_per_pe

    # ------------------------------------------------------------------ helpers
    def _consts(self, layer: Layer) -> tuple:
        """Cached per-layer constants: tables, bounds, volumes, macs, stride."""
        consts = self._layer_consts.get(layer)
        if consts is None:
            tables = _ProblemTables(layer.problem)
            layer_bounds = layer.bounds
            consts = (
                tables,
                np.array([layer_bounds[dim] for dim in tables.dims], dtype=np.float64),
                {tensor: float(layer.tensor_volume(tensor)) for tensor in TensorKind},
                float(layer.macs),
                float(layer.stride),
            )
            self._layer_consts[layer] = consts
        return consts

    def _refetch_and_pending(self, batch: MappingBatch, tables: _ProblemTables):
        """Per-candidate re-fetch factors and pending-reduction flags.

        Returns ``refetch[(tensor, child)] -> float64[B]`` for every boundary
        flow plus ``pending[child] -> bool[B]`` for the output flows.  The
        walk is the scalar stationarity rule vectorized: within the loop
        sequence restricted to levels ``>= child``, every loop at-or-outside
        the innermost tensor-relevant loop contributes its bound.  The
        product is one ``multiply.reduce`` along the loop axis, which runs
        in the scalar walk's sequential order over exact integers, so the
        float rounding matches the oracle exactly.
        """
        level = batch.loop_level  # [B, M]
        dim = batch.loop_dim
        bound = batch.loop_bound
        B = level.shape[0]
        present = dim >= 0
        dim_safe = np.where(present, dim, 0)
        rel = tables.rel[dim_safe]  # [B, M, T]
        is_reduction = tables.is_reduction_dim[dim_safe] & present

        refetch: dict[tuple[TensorKind, int], np.ndarray] = {}
        pending: dict[int, np.ndarray] = {}
        for child in sorted(self._tensors_at_child):
            mask = (level >= child) & present  # loops_above(child)
            for tensor in self._tensors_at_child[child]:
                relevant = rel[:, :, int(tensor)] & mask
                seen = np.logical_or.accumulate(relevant, axis=1)
                refetch[(tensor, child)] = np.where(seen & mask, bound, 1.0).prod(axis=1)
            # reduction_pending_above(child): a reduction-dim temporal loop
            # strictly outside the innermost output-relevant loop.
            relevant = rel[:, :, int(TensorKind.OUTPUT)] & mask
            seen = np.logical_or.accumulate(relevant, axis=1)
            seen_before = np.concatenate(
                [np.zeros((B, 1), dtype=bool), seen[:, :-1]], axis=1
            )
            pending[child] = np.any(seen_before & mask & is_reduction, axis=1)
        return refetch, pending

    def _spatial_factor_between(
        self, sf, child: int, parent: int, tensor: TensorKind, tables: _ProblemTables
    ):
        """Product of tensor-irrelevant spatial factors at levels ``(child, parent]``."""
        dims = tables.irrelevant_dims[tensor]
        span = sf[:, child + 1 : parent + 1, :][:, :, dims]
        return span.reshape(span.shape[0], -1).prod(axis=1)

    # ----------------------------------------------------------------- evaluate
    def evaluate_batch(self, batch: MappingBatch) -> BatchCostResult:
        """Validate and evaluate every candidate of ``batch`` at once."""
        result, _ = self._evaluate(batch, want_detail=False)
        return result

    def evaluate_draws(self, draws: "MappingDraws") -> BatchCostResult:
        """Pack sampled draws into a batch and evaluate them."""
        result, _ = self._evaluate(MappingBatch.from_draws(draws), want_detail=False)
        return result

    def evaluate_mappings(self, mappings: Sequence[Mapping]) -> BatchCostResult:
        """Pack ``mappings`` into a batch and evaluate it."""
        result, _ = self._evaluate(MappingBatch.from_mappings(mappings), want_detail=False)
        return result

    def evaluate_detail(self, batch: MappingBatch) -> BatchEvalDetail:
        """Evaluate ``batch`` and return the :class:`BatchEvalDetail` view.

        The fused-group combiner (:mod:`repro.model.fused_batch`) needs the
        per-level words-served / instances / occupancy intermediates and the
        DRAM-boundary flows in addition to the headline result.
        """
        _, detail = self._evaluate(batch, want_detail=True)
        if detail is None:
            raise ValueError(
                "batch level count does not match the architecture; "
                "detail evaluation requires matching hierarchies"
            )
        return detail

    def _evaluate(self, batch: MappingBatch, want_detail: bool):
        layer = batch.layer
        tables, bounds, volumes, macs, stride = self._consts(layer)
        B = batch.size
        tf, sf = batch.temporal, batch.spatial
        L, D = self.num_levels, len(tables.dims)
        if tf.shape[2] != D:
            raise ValueError(
                f"batch factor matrices have {tf.shape[2]} dimension columns; "
                f"a {layer.problem.name!r} layer cannot be evaluated from them "
                f"(it has {D} dimensions)"
            )

        if batch.num_levels != self.num_levels:
            inf = np.full(B, np.inf)
            result = BatchCostResult(
                valid=np.zeros(B, dtype=bool),
                latency=inf,
                energy=inf.copy(),
                utilization=np.zeros(B),
            )
            return result, None

        total = tf * sf  # per-level per-dim factor products

        # -------------------------------------------------------- validation
        dim_products = total.prod(axis=1)  # [B, D]
        consistent = np.all(dim_products == bounds, axis=1)
        spatial_per_level = sf.prod(axis=2)  # [B, L]
        fanout_ok = np.all(spatial_per_level <= self._fanout, axis=1)

        # ------------------------------------------------------- tile sizes
        # footprint[b, l, d]: product of d-factors below level l plus the
        # spatial factors at l itself (NestAnalysis._dim_footprint_below).
        below = np.ones((B, L, D), dtype=np.float64)
        if L > 1:
            below[:, 1:, :] = np.cumprod(total, axis=1)[:, :-1, :]
        footprint = below * sf

        f = {dim: footprint[:, :, tables.dim_index[dim]] for dim in tables.dims}
        tiles = tables.tiles(f, stride)
        for tensor in TensorKind:
            tile = tiles[tensor]
            tile[:, ~self._holds[tensor]] = 0.0
            if self._holds[tensor][self.dram_index]:
                tile[:, self.dram_index] = volumes[tensor]

        # Buffer occupancy (utilization_bytes, summed in TensorKind order).
        used_bytes = np.zeros((B, L), dtype=np.float64)
        for tensor in TensorKind:
            used_bytes = used_bytes + tiles[tensor] * self._bytes[tensor]
        buffers_ok = np.all(used_bytes <= self._capacity, axis=1)

        valid = consistent & fanout_ok & buffers_ok

        # --------------------------------------------------- boundary flows
        refetch, pending = self._refetch_and_pending(batch, tables)
        # active_instances(l): product of spatial factors at levels > l.
        instances = np.ones((B, L), dtype=np.float64)
        if L > 1:
            suffix = np.cumprod(spatial_per_level[:, ::-1], axis=1)[:, ::-1]
            instances[:, :-1] = suffix[:, 1:]

        reads = np.zeros((B, L, len(TensorKind)), dtype=np.float64)
        writes = np.zeros((B, L, len(TensorKind)), dtype=np.float64)
        # Per-parent-level words served downward+upward (performance model)
        # and per-tensor NoC boundary words (energy model), accumulated flow
        # by flow in the scalar iteration order.
        words_served = np.zeros((B, L), dtype=np.float64)
        noc_words = {tensor: np.zeros(B, dtype=np.float64) for tensor in TensorKind}
        dram_flows: dict[TensorKind, DramBoundaryFlowBatch] = {}

        for tensor, child, parent in self._flow_pairs:
            t = int(tensor)
            tile = tiles[tensor][:, child]
            words_into_child = tile * refetch[(tensor, child)] * instances[:, child]
            raw_lanes = self._spatial_factor_between(sf, child, parent, tensor, tables)
            multicast = raw_lanes if self._multicast else np.ones(B, dtype=np.float64)
            words_read_from_parent = words_into_child / np.maximum(multicast, 1.0)
            words_written_to_parent = np.zeros(B, dtype=np.float64)
            words_read_back = np.zeros(B, dtype=np.float64)
            if tensor is TensorKind.OUTPUT:
                reduction_lanes = np.maximum(raw_lanes, 1.0)
                words_written_to_parent = words_into_child / reduction_lanes
                words_read_back = np.where(pending[child], words_written_to_parent, 0.0)
                words_into_child = words_read_back * reduction_lanes
                words_read_from_parent = words_read_back

            if want_detail and parent == self.dram_index:
                dram_flows[tensor] = DramBoundaryFlowBatch(
                    tensor=tensor,
                    child_level=child,
                    words_into_child=words_into_child,
                    words_read_from_parent=words_read_from_parent,
                    words_written_to_parent=words_written_to_parent,
                )

            writes[:, child, t] += words_into_child
            reads[:, parent, t] += words_read_from_parent
            writes[:, parent, t] += words_written_to_parent
            reads[:, child, t] += words_written_to_parent

            words_served[:, parent] = words_served[:, parent] + (
                words_read_from_parent + words_written_to_parent
            )
            if child < self.pe_level <= parent:
                noc_words[tensor] = noc_words[tensor] + (
                    words_into_child + words_written_to_parent + words_read_back
                )

        # Compute-side accesses at the innermost storing level of each tensor.
        for tensor in TensorKind:
            innermost = self._innermost[tensor]
            t = int(tensor)
            reads[:, innermost, t] += macs
            if tensor is TensorKind.OUTPUT:
                writes[:, innermost, t] += macs

        # ------------------------------------------------------------ latency
        # max() is order-invariant and each cycles term is the scalar's
        # quotient, so one row-wise max equals the per-level maximum walk.
        compute_cycles = tf.reshape(B, -1).prod(axis=1)
        cycles = words_served / (self._bandwidth * instances)
        latency = np.maximum(compute_cycles, cycles.max(axis=1))

        # ------------------------------------------------------------- energy
        # accesses[b, l] sums (reads + writes) over the short tensor axis;
        # numpy reduces a length-3 axis sequentially (no pairwise split), so
        # the accumulation order matches the scalar TensorKind walk.
        mac_energy = macs * self._mac_pj
        accesses = (reads + writes).sum(axis=2)
        level_energy_sum = np.zeros(B, dtype=np.float64)
        for index in range(L):
            level_energy_sum = level_energy_sum + accesses[:, index] * self._level_energy_pj[index]
        total_noc_words = np.zeros(B, dtype=np.float64)
        for tensor in TensorKind:
            total_noc_words = total_noc_words + noc_words[tensor]
        noc_energy = total_noc_words * self._average_hops * self._hop_pj
        energy = (mac_energy + noc_energy) + level_energy_sum

        utilization = np.minimum(1.0, sf.reshape(B, -1).prod(axis=1) / self._total_lanes)

        result = BatchCostResult(
            valid=valid,
            latency=np.where(valid, latency, np.inf),
            energy=np.where(valid, energy, np.inf),
            utilization=np.where(valid, utilization, 0.0),
        )
        detail = None
        if want_detail:
            detail = BatchEvalDetail(
                result=result,
                compute_cycles=compute_cycles,
                words_served=words_served,
                instances=instances,
                used_bytes=used_bytes,
                dram_flows=dram_flows,
            )
        return result, detail
