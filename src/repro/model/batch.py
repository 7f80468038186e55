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
  or from the moves of one local-search state (no
  :class:`~repro.mapping.mapping.Mapping` objects are created), or from
  existing mappings.
* :class:`BatchCostModel` — validates and evaluates every candidate of a
  batch at once, producing per-candidate ``valid``/``latency``/``energy``
  arrays plus the unmasked values and violation totals local search reads.
  Architecture constants and the index arrays of the boundary flows are
  bound at construction; problem tables and per-layer constants are cached
  on the instance, so a search that evaluates thousands of batches of one
  layer pays for them once, and a call runs a fixed number of array
  operations however many flows, walks and levels the architecture has.

Equivalence with the scalar model
---------------------------------
The scalar pipeline stays the **reference oracle**: this module re-states
the same equations over a batch axis and mirrors the scalar code's exact
floating-point expression structure (association order of products, order of
accumulation over boundary flows, tensors and levels) so results agree
bit-for-bit wherever intermediate values are exactly representable, and to
within 1e-9 relative everywhere else.  Products of factors (footprints,
tiles, instance counts, lanes, re-fetch factors) are exact integers, so any
association gives the scalar's value; the per-level latency maximum is
order-invariant over identical quotients; and every ``+=`` walk of the
scalar code is one left-to-right add per term (:func:`_fold`).
``tests/test_batch_parity.py`` locks the two paths together;
``docs/cost_model.md`` maps every scalar method to its vectorized
counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.workloads.layer import TensorKind
from repro.workloads.problem import ProblemLayer, TensorProblem, Window

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapping.moves import MappingState
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
        layer: ProblemLayer,
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
        return cls._pack_loops(draws.layer, draws.num_levels, draws.temporal, draws.spatial)

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
        return cls._pack_loops(layer, num_levels, temporal, spatial)

    @classmethod
    def from_moves(cls, state: "MappingState", moves) -> "MappingBatch":
        """Pack the states ``moves`` lead to from ``state``, one candidate per move.

        Each move is applied, the moved state's loops are written straight
        into the flat index lists, and the move is undone, so ``state`` ends
        as it started and no moved state is copied.
        """
        dim_index = _dim_index(state.layer)
        flat = ([], [], []), ([], [], [])  # (counts, dims, bounds), temporal then spatial
        apply, undo = state.apply, state.undo
        for move in moves:
            record = apply(move)
            for levels, (counts, dims, bounds) in zip((state.temporal, state.spatial), flat):
                for loops in levels:
                    counts.append(len(loops))
                    for dim, bound in loops:
                        dims.append(dim_index[dim])
                        bounds.append(bound)
            undo(record)
        return cls._pack(state.layer, state.num_levels, len(moves), *flat)

    @classmethod
    def _pack_loops(cls, layer, num_levels, temporal, spatial):
        """Pack per-candidate, per-level ``(dim, bound)`` loop lists."""
        dim_index = _dim_index(layer)
        return cls._pack(
            layer,
            num_levels,
            len(temporal),
            _flatten(dim_index, temporal),
            _flatten(dim_index, spatial),
        )

    @classmethod
    def _pack(cls, layer, num_levels, size, temporal, spatial):
        """Build the batch arrays from flat loop lists with one scatter each.

        ``temporal`` and ``spatial`` are ``(counts, dims, bounds)``: the
        loop count of every (candidate, level) cell, candidate-major, then
        the dimension index and bound of every loop in that order.  The
        (candidate, position, level) index columns are pure arithmetic over
        the counts.  Loops of one dimension that share a level (a tuner
        mutation can append a second one) multiply in loop order.
        """
        L, D = num_levels, len(layer.problem.dims)

        def arrays(flat):
            counts, dims, bounds = flat
            counts_arr = np.array(counts, dtype=np.int64)
            # The (candidate * L + level) cell of every loop.
            cells = np.arange(size * L, dtype=np.int64).repeat(counts_arr)
            return (
                counts_arr,
                cells,
                np.array(dims, dtype=np.int64),
                np.array(bounds, dtype=np.float64),
            )

        t_counts, t_cells, t_dims, t_bounds = arrays(temporal)
        per_candidate = t_counts.reshape(size, L).sum(axis=1)
        max_loops = max(int(per_candidate.max(initial=0)), 1)
        tf = np.ones((size, L, D), dtype=np.float64)
        sf = np.ones((size, L, D), dtype=np.float64)
        loop_level = np.full((size, max_loops), PAD, dtype=np.int64)
        loop_dim = np.full((size, max_loops), PAD, dtype=np.int64)
        loop_bound = np.ones((size, max_loops), dtype=np.float64)
        if len(t_dims):
            rows = t_cells // L
            # Loop i of the flat list sits at position i - (loops before its
            # candidate) of its candidate's row.
            shift = rows * max_loops - (per_candidate.cumsum() - per_candidate)[rows]
            slots = np.arange(len(t_cells), dtype=np.int64) + shift
            np.multiply.at(tf.reshape(-1), t_cells * D + t_dims, t_bounds)
            loop_level.put(slots, t_cells % L)
            loop_dim.put(slots, t_dims)
            loop_bound.put(slots, t_bounds)
        _, s_cells, s_dims, s_bounds = arrays(spatial)
        if len(s_dims):
            np.multiply.at(sf.reshape(-1), s_cells * D + s_dims, s_bounds)
        return cls(layer, tf, sf, loop_level, loop_dim, loop_bound)


def _dim_index(layer: ProblemLayer) -> dict[str, int]:
    """Column of each problem dimension in the factor matrices."""
    return {dim: i for i, dim in enumerate(layer.problem.dims)}


def _flatten(dim_index: dict[str, int], candidates) -> tuple[list, list, list]:
    """``(counts, dims, bounds)`` of per-candidate, per-level ``(dim, bound)`` loop lists."""
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
    return counts, dims, bounds


def _fold(terms):
    """Sum ``terms`` over its first axis left to right, as the scalar ``+=`` walks do.

    One add per term, so the order is fixed whatever the axis length
    (``sum`` is pairwise on long axes), and each add is one vector op over
    the remaining axes.
    """
    total = terms[0]
    for k in range(1, len(terms)):
        total = total + terms[k]
    return total


def _padded(rows: list[list[int]], pad: int) -> "np.ndarray":
    """``int64[len(rows), width]`` with each row right-padded with ``pad``."""
    width = max(1, max((len(row) for row in rows), default=0))
    return np.array([row + [pad] * (width - len(row)) for row in rows], dtype=np.int64)


class _ProblemTables:
    """Problem-dependent index tables of the vectorized model.

    Built once per layer and cached on the :class:`BatchCostModel`, for its
    architecture's boundary flows ``f`` (``BatchCostModel._flow_pairs``):

    * ``walk_rel[d, w]``: dimension ``d`` is relevant to stationarity walk
      ``w``.  Walk ``f < F`` follows the tensor of flow ``f`` (its re-fetch
      factor); walk ``F + f`` follows the output from the child of flow
      ``f`` (its pending reduction), and is empty unless ``f`` is an output
      flow.  ``is_reduction[d]`` marks the reduction dimensions.  Both have
      one extra ``False`` row last, so a loop array's ``PAD`` (-1) reads as
      an irrelevant, non-reduction dimension.
    * ``lane_index[k, f]``: the rows of the flattened ``[L * D]`` spatial
      factors whose product is flow ``f``'s multicast / spatial-reduction
      lane count (the tensor-irrelevant dimensions at levels
      ``(child, parent]``), padded with row ``L * D``, a one.
    * ``window_outer`` / ``window_inner`` and ``term_index[k, t]``: the
      projection programs.  Tile ``t`` is the product, in projection order,
      of the extent rows ``term_index[:, t]`` names: the ``D`` footprints,
      then one row per distinct ``Window`` term, then a row of ones that
      pads the shorter programs.
    """

    def __init__(self, problem: TensorProblem, model: "BatchCostModel"):
        self.problem = problem
        self.dims = problem.dims
        dim_index = {dim: i for i, dim in enumerate(problem.dims)}
        D, L = len(problem.dims), model.num_levels
        rel = np.zeros((D + 1, len(TensorKind)), dtype=bool)
        for dim, i in dim_index.items():
            for tensor in TensorKind:
                rel[i, int(tensor)] = problem.relevance(dim, tensor)
        self.walk_rel = np.concatenate(
            [rel[:, model._flow_tensor], rel[:, [int(TensorKind.OUTPUT)]] & model._flow_is_output],
            axis=1,
        )
        self.is_reduction = np.zeros(D + 1, dtype=bool)
        self.is_reduction[[dim_index[dim] for dim in problem.reduction_dims]] = True
        self.lane_index = _padded(
            [
                [
                    level * D + d
                    for level in range(child + 1, parent + 1)
                    for d in range(D)
                    if not rel[d, int(tensor)]
                ]
                for tensor, child, parent in model._flow_pairs
            ],
            pad=L * D,
        ).T

        windows: list[Window] = []
        programs = []
        for tensor in TensorKind:
            program = []
            for term in problem.projection(tensor):
                if isinstance(term, Window):
                    if term not in windows:
                        windows.append(term)
                    program.append(D + windows.index(term))
                else:
                    program.append(dim_index[term])
            programs.append(program)
        self.window_outer = np.array([dim_index[w.outer] for w in windows], dtype=np.int64)
        self.window_inner = np.array([dim_index[w.window] for w in windows], dtype=np.int64)
        self.term_index = _padded(programs, pad=D + len(windows)).T

    def tiles(self, prefix, tf, stride: float):
        """``float64[T, B, L]`` tile sizes from the level-prefix factor products.

        The footprint of dimension ``d`` at level ``l`` is its factors below
        ``l`` times its spatial factor at ``l`` (``NestAnalysis.
        _dim_footprint_below``): ``prefix / tf``, an exact integer quotient.
        A ``Window`` extent is ``(f[outer] - 1) * stride + f[window]``, and a
        tile multiplies its extents left to right in projection order,
        :meth:`TensorProblem.footprint`'s expression, so conv results stay
        bit-for-bit identical to the historic hardcoded formulas.
        """
        B, L, D = tf.shape
        W = len(self.window_outer)
        extents = np.empty((D + W + 1, B, L))
        footprint = np.divide(prefix.transpose(2, 0, 1), tf.transpose(2, 0, 1), out=extents[:D])
        if W:
            outer = footprint.take(self.window_outer, axis=0)
            extents[D:-1] = (outer - 1) * stride + footprint.take(self.window_inner, axis=0)
        extents[-1] = 1.0
        return np.multiply.reduce(extents.take(self.term_index, axis=0), axis=0)


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
    The ``raw_*`` twins hold the unmasked values, so an invalid candidate can
    still be ranked against its neighbours, and the two violation totals say
    by how much it breaks the buffer capacities and the spatial fanouts:
    the sum over levels, in level order, of ``excess / limit`` (0 when the
    constraint holds).  Local search guides its walk with these.
    """

    valid: "np.ndarray"
    latency: "np.ndarray"
    energy: "np.ndarray"
    utilization: "np.ndarray"
    raw_latency: "np.ndarray"
    raw_energy: "np.ndarray"
    raw_utilization: "np.ndarray"
    capacity_violation: "np.ndarray"
    spatial_violation: "np.ndarray"

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
        return _metric(metric, self.latency, self.energy)

    def raw_score(self, metric: str) -> "np.ndarray":
        """Like :meth:`score`, from the unmasked values (finite when invalid)."""
        return _metric(metric, self.raw_latency, self.raw_energy)


def _metric(metric: str, latency, energy):
    if metric == "latency":
        return latency
    if metric == "energy":
        return energy
    if metric == "edp":
        return energy * latency
    raise ValueError(f"unknown metric {metric!r}")


class BatchCostModel:
    """Evaluate batches of mappings of one architecture with numpy.

    The constructor precomputes every architecture-dependent constant (level
    capacities, bandwidths, tensor bindings, energy constants) and the index
    arrays of the boundary flows; problem tables and per-layer constants are
    built on first use and cached on the instance.  A call then runs a fixed
    number of array operations, whatever the batch size or the number of
    flows: a batch of eight costs little more than a batch of one.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        hierarchy = accelerator.hierarchy
        self.num_levels = L = len(hierarchy)
        self.dram_index = hierarchy.dram_index
        self.pe_level = accelerator.pe_level_index()
        #: Per-layer constants (problem tables, bounds vector, tile masks,
        #: macs, stride), computed once per layer.
        self._layer_consts: dict[ProblemLayer, tuple] = {}
        # Per-level constants: the fanout and capacity limits as one
        # [2, 1, L] array, checked together.
        self._limits = np.array(
            [
                [float(level.spatial_fanout) for level in hierarchy],
                [np.inf if level.is_unbounded else float(level.capacity_bytes) for level in hierarchy],
            ]
        )[:, None, :]
        self._bandwidth = np.array(
            [level.bandwidth_words_per_cycle for level in hierarchy], dtype=np.float64
        )
        self._bytes = np.array(
            [float(accelerator.precision.bytes_for(tensor)) for tensor in TensorKind]
        )
        self._holds = np.array(
            [[level.holds(tensor) for tensor in TensorKind] for level in hierarchy], dtype=bool
        )
        # Boundary flows: (tensor, child, parent) triples are a pure function
        # of the architecture, in the order NestAnalysis iterates them
        # (tensors in TensorKind order, levels innermost first).
        self._flow_pairs: list[tuple[TensorKind, int, int]] = []
        for tensor in TensorKind:
            levels = hierarchy.levels_holding(tensor)
            for child, parent in zip(levels, levels[1:]):
                self._flow_pairs.append((tensor, child, parent))
        self._flow_tensor = np.array([int(t) for t, _, _ in self._flow_pairs], dtype=np.int64)
        self._flow_child = np.array([c for _, c, _ in self._flow_pairs], dtype=np.int64)
        self._flow_is_output = self._flow_tensor == int(TensorKind.OUTPUT)
        self._walk_child = np.concatenate([self._flow_child, self._flow_child])
        self._dram_flows = {
            tensor: f
            for f, (tensor, _, parent) in enumerate(self._flow_pairs)
            if parent == self.dram_index
        }
        self._cell_terms = self._accumulation_cells()
        self._multicast = accelerator.noc.multicast
        # Energy constants.
        table = accelerator.energy
        self._level_energy_pj = np.array([table.access_energy(level.name) for level in hierarchy])
        self._mac_pj = table.mac_energy_pj
        self._hop_pj = table.noc_hop_energy_pj
        rows, cols = accelerator.pe_array.rows, accelerator.pe_array.cols
        self._average_hops = (rows + cols) / 2.0
        self._total_lanes = accelerator.pe_array.num_pes * accelerator.pe_array.macs_per_pe

    def _accumulation_cells(self):
        """Which per-flow terms each accumulated cell adds, in scalar order.

        Every flow ``f`` contributes five ``[B]`` terms, laid out as rows
        ``k * F + f`` of one matrix: words into the child (k=0), read from
        the parent (1), written back to the parent (2), served by the parent
        (3) and crossing the NoC (4); row ``5F`` holds the layer's MACs and
        ``5F + 1`` a zero.  The cells are the ``(level, tensor)`` reads, then
        the ``(level, tensor)`` writes, then the words served per level, then
        the NoC words per tensor.  Column ``c`` lists cell ``c``'s rows in the
        order the scalar walk adds them (flow order, the compute-side MACs
        last), padded with the zero row, so one gather and one
        left-to-right fold give every cell bit-for-bit.
        """
        L, T, F = self.num_levels, len(TensorKind), len(self._flow_pairs)
        w_in, w_read, w_written, served, noc = (k * F for k in range(5))
        macs, zero = 5 * F, 5 * F + 1
        reads = [[[] for _ in range(T)] for _ in range(L)]
        writes = [[[] for _ in range(T)] for _ in range(L)]
        served_at = [[] for _ in range(L)]
        noc_of = [[] for _ in range(T)]
        hierarchy = self.accelerator.hierarchy
        for f, (tensor, child, parent) in enumerate(self._flow_pairs):
            t = int(tensor)
            writes[child][t].append(w_in + f)
            reads[parent][t].append(w_read + f)
            if tensor is TensorKind.OUTPUT:
                writes[parent][t].append(w_written + f)
                reads[child][t].append(w_written + f)
            served_at[parent].append(served + f)
            if child < self.pe_level <= parent:
                noc_of[t].append(noc + f)
        for tensor in TensorKind:
            innermost = hierarchy.innermost_level_for(tensor)
            reads[innermost][int(tensor)].append(macs)
            if tensor is TensorKind.OUTPUT:
                writes[innermost][int(tensor)].append(macs)
        cells = [c for level in reads for c in level] + [c for level in writes for c in level]
        cells += served_at + noc_of
        return _padded(cells, pad=zero).T

    # ------------------------------------------------------------------ helpers
    def _consts(self, layer: ProblemLayer) -> tuple:
        """Cached per-layer constants: tables, bounds, tile masks, macs, stride.

        ``tile_kept[t, 0, l]`` marks the on-chip levels holding tensor ``t``;
        elsewhere a tile is ``tile_fixed[t, 0, l]``: the tensor's volume at
        DRAM when DRAM holds it, else 0.
        """
        consts = self._layer_consts.get(layer)
        if consts is None:
            tables = _ProblemTables(layer.problem, self)
            layer_bounds = layer.bounds
            on_chip = np.arange(self.num_levels) != self.dram_index
            volumes = np.array([float(layer.tensor_volume(tensor)) for tensor in TensorKind])
            tile_fixed = np.zeros(self._holds.shape)
            tile_fixed[self.dram_index] = np.where(self._holds[self.dram_index], volumes, 0.0)
            consts = (
                tables,
                np.array([layer_bounds[dim] for dim in tables.dims], dtype=np.float64),
                (self._holds & on_chip[:, None]).T[:, None, :],
                tile_fixed.T[:, None, :],
                float(layer.macs),
                float(layer.stride),
            )
            self._layer_consts[layer] = consts
        return consts

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
        tables, bounds, tile_kept, tile_fixed, macs, stride = self._consts(layer)
        B = batch.size
        tf, sf = batch.temporal, batch.spatial
        L, D, T = self.num_levels, len(tables.dims), len(TensorKind)
        if tf.shape[2] != D:
            raise ValueError(
                f"batch factor matrices have {tf.shape[2]} dimension columns; "
                f"a {layer.problem.name!r} layer cannot be evaluated from them "
                f"(it has {D} dimensions)"
            )

        if batch.num_levels != self.num_levels:
            inf, zero = np.full(B, np.inf), np.zeros(B)
            result = BatchCostResult(
                valid=np.zeros(B, dtype=bool),
                latency=inf,
                energy=inf,
                utilization=zero,
                raw_latency=inf,
                raw_energy=inf,
                raw_utilization=zero,
                capacity_violation=zero,
                spatial_violation=zero,
            )
            return result, None

        total = tf * sf  # per-level per-dim factor products
        # Every factor product below is an exact integer, so no association
        # order matters until the word counts divide by the lane counts.
        prefix = np.multiply.accumulate(total, axis=1)  # factors at levels <= l, per dim

        # -------------------------------------------------------- validation
        consistent = np.logical_and.reduce(prefix[:, -1] == bounds, axis=1)
        spatial_per_level = np.multiply.reduce(sf, axis=2)  # [B, L]

        # ------------------------------------------------------- tile sizes
        # From here on the batch axis is last: [T, B, L], [F, B], ...
        tiles = np.where(tile_kept, tables.tiles(prefix, tf, stride), tile_fixed)
        # Buffer occupancy (utilization_bytes, summed in TensorKind order).
        used_bytes = _fold(tiles * self._bytes[:, None, None])  # [B, L]

        loads = np.array((spatial_per_level, used_bytes))  # [2, B, L], as _limits
        within = np.logical_and.reduce(loads <= self._limits, axis=2)
        valid = consistent & within[0] & within[1]
        excess = np.maximum(loads - self._limits, 0.0) / self._limits

        # ------------------------------------------------ stationarity walks
        # Walk w starts at level c = _walk_child[w]; first[w, b] is the
        # position of the innermost loop at levels >= c relevant to it (M
        # when there is none: a sentinel column closes every row).  Flow f's
        # re-fetch factor is the product of the bounds from first[f] on:
        # the loop sequence is level-major, so every later loop is in scope,
        # PAD loops carry bound 1, and the suffix products are exact
        # integers.
        level, loop_dim = batch.loop_level, batch.loop_dim
        M = level.shape[1]
        relevant = tables.walk_rel.T.take(loop_dim, axis=1) & (
            level >= self._walk_child[:, None, None]
        )  # [W, B, M]
        sentinel = np.ones(relevant.shape[:2] + (1,), dtype=bool)
        first = np.concatenate([relevant, sentinel], axis=2).argmax(axis=2)  # [W, B]
        suffix = np.ones((B, M + 1))
        suffix[:, :M] = np.multiply.accumulate(batch.loop_bound[:, ::-1], axis=1)[:, ::-1]
        F = len(self._flow_pairs)
        refetch = suffix.take(first[:F] + np.arange(0, B * (M + 1), M + 1))  # [F, B]
        # reduction_pending_above(c): a reduction-dim loop strictly outside
        # the innermost output-relevant loop at levels >= c.  Any loop after
        # that one is in scope, so the last reduction loop decides.
        reduction = tables.is_reduction.take(loop_dim)  # [B, M]
        last_reduction = np.maximum.reduce(np.where(reduction, np.arange(M), -1), axis=1)
        pending = last_reduction > first[F:]  # [F, B]

        # --------------------------------------------------- boundary flows
        # active_instances(l): product of spatial factors at levels > l.
        spatial_prefix = np.multiply.accumulate(spatial_per_level, axis=1)
        instances = spatial_prefix[:, -1:] / spatial_prefix  # [B, L]
        # Multicast / spatial-reduction lanes of each flow.
        spatial = np.empty((L * D + 1, B))
        spatial[:-1] = sf.reshape(B, L * D).T
        spatial[-1] = 1.0
        lanes = np.maximum(np.multiply.reduce(spatial.take(tables.lane_index, axis=0), axis=0), 1.0)
        child = self._flow_child
        w_in = tiles[self._flow_tensor, :, child] * refetch * instances.T[child]  # [F, B]
        w_read = w_in / lanes if self._multicast else w_in
        # Output flows: partial sums go up through the reduction lanes and
        # come back down only while a reduction is pending above the child
        # (never, for the other flows).
        is_output = self._flow_is_output[:, None]
        w_written = np.where(is_output, w_in / lanes, 0.0)
        w_back = np.where(pending, w_written, 0.0)
        w_in = np.where(is_output, w_back * lanes, w_in)
        w_read = np.where(is_output, w_back, w_read)
        terms = np.concatenate(
            [
                w_in,
                w_read,
                w_written,
                w_read + w_written,
                (w_in + w_written) + w_back,
                np.full((1, B), macs),
                np.zeros((1, B)),
            ]
        )
        cells = _fold(terms.take(self._cell_terms, axis=0))  # [cells, B]
        LT = L * T
        words_served = cells[2 * LT : 2 * LT + L]  # [L, B]

        # ------------------------------------------------------------ latency
        # max() is order-invariant and each cycles term is the scalar's
        # quotient, so one max over levels equals the per-level maximum walk.
        compute_cycles = np.multiply.reduce(tf.reshape(B, L * D), axis=1)
        cycles = words_served / (self._bandwidth[:, None] * instances.T)
        latency = np.maximum(compute_cycles, np.maximum.reduce(cycles, axis=0))

        # ------------------------------------------------------------- energy
        accesses = _fold((cells[:LT] + cells[LT : 2 * LT]).reshape(L, T, B).transpose(1, 0, 2))
        # Three sums over the levels in one fold: the fanout and capacity
        # violation totals (excess / limit) and the access energy.
        per_level = np.concatenate(
            [excess.transpose(2, 0, 1), (accesses * self._level_energy_pj[:, None])[:, None]], axis=1
        )  # [L, 3, B]
        spatial_violation, capacity_violation, level_energy_sum = _fold(per_level)
        noc_energy = _fold(cells[2 * LT + L :]) * self._average_hops * self._hop_pj
        energy = (macs * self._mac_pj + noc_energy) + level_energy_sum

        utilization = np.minimum(1.0, spatial_prefix[:, -1] / self._total_lanes)

        result = BatchCostResult(
            valid=valid,
            latency=np.where(valid, latency, np.inf),
            energy=np.where(valid, energy, np.inf),
            utilization=np.where(valid, utilization, 0.0),
            raw_latency=latency,
            raw_energy=energy,
            raw_utilization=utilization,
            capacity_violation=capacity_violation,
            spatial_violation=spatial_violation,
        )
        detail = None
        if want_detail:
            detail = BatchEvalDetail(
                result=result,
                compute_cycles=compute_cycles,
                words_served=words_served.T,
                instances=instances,
                used_bytes=used_bytes,
                dram_flows={
                    tensor: DramBoundaryFlowBatch(
                        tensor=tensor,
                        child_level=int(child[f]),
                        words_into_child=w_in[f],
                        words_read_from_parent=w_read[f],
                        words_written_to_parent=w_written[f],
                    )
                    for tensor, f in self._dram_flows.items()
                },
            )
        return result, detail
