"""Constraints of the CoSA MIP (Sec. III-C of the paper).

Five groups, all over the copy counts ``X`` of each distinct prime:

* **assignment** — the copies of every prime fill its multiplicity exactly
  (the intent of Eq. 3),
* **spatial resources** — the product of the factors mapped spatially at a
  level may not exceed its fanout (Eq. 4, in logarithms),
* **buffer capacity** — the per-tensor tile built from the factors below a
  buffer (plus the spatial ones at it, and a stride term per window) must
  fit in the share of the buffer reserved for that tensor (Eq. 2, in logs),
* **permutation / traffic linking** — dimensions owning NoC-boundary
  temporal factors take exactly one permutation rank, ranks hold at most one
  dimension and are used contiguously; the running-OR variables ``Y`` obey
  Eq. 9 and the per-(tensor, dimension) contributions linearise the
  traffic-iteration term of Eq. 10.  One exact ``traffic_own`` row per
  tensor and relevant dimension lifts the root LP bound from 74–79% of the
  optimum to at least 97% on the ResNet-50 layers.  A tensor the NoC
  boundary does not store is charged a DRAM re-fetch per NoC-boundary loop
  once one of its relevant loops sits temporally between its DRAM-refilled
  buffer and the NoC boundary.
"""

from __future__ import annotations

import math

from repro.core.variables import CoSAVariables
from repro.solver.expr import lin_sum
from repro.solver.model import MIPModel
from repro.workloads.layer import TensorKind
from repro.workloads.problem import Window


def add_assignment_constraints(model: MIPModel, variables: CoSAVariables) -> None:
    """The copies of each prime fill its multiplicity across the (level, kind) slots."""
    for factor in variables.factors:
        model.add_constraint(
            lin_sum(variables.assignment_vars(factor)) == factor.multiplicity,
            name=f"assign[{factor.dim}{factor.ordinal}]",
        )


def add_spatial_resource_constraints(model: MIPModel, variables: CoSAVariables) -> None:
    """Spatially-mapped factors must fit in each level's fanout (Eq. 4)."""
    for level, fanout in variables.spatial_fanouts.items():
        terms = []
        for factor in variables.factors:
            var = variables.spatial_at(factor, level)
            if var is not None:
                terms.append(factor.log_value * var)
        if terms:
            model.add_constraint(
                lin_sum(terms) <= math.log(fanout),
                name=f"spatial_capacity[L{level}]",
            )


def _tile_terms(variables: CoSAVariables, factors, level_index: int) -> list:
    """Log-weighted counts of ``factors`` below ``level_index`` (either kind) and spatial at it."""
    terms = []
    for factor in factors:
        for below in range(level_index):
            if below in variables.temporal_levels:
                terms.append(factor.log_value * variables.temporal_at(factor, below))
            spatial_below = variables.spatial_at(factor, below)
            if spatial_below is not None:
                terms.append(factor.log_value * spatial_below)
        spatial_here = variables.spatial_at(factor, level_index)
        if spatial_here is not None:
            terms.append(factor.log_value * spatial_here)
    return terms


def add_buffer_capacity_constraints(
    model: MIPModel,
    variables: CoSAVariables,
    capacity_fraction: float = 1.0,
) -> None:
    """Tiles must fit in every bounded buffer level (Eq. 2).

    The tile of tensor ``v`` at level ``I`` is the product of the relevant
    factors assigned to levels below ``I`` (either kind) plus the relevant
    spatial factors at ``I`` itself.  A window of stride ``s`` spans
    ``(f_o - 1)·s + f_w <= f_o·max(s, f_w)`` elements, so it adds
    ``log s · (1 - Z)``, where the binary ``Z`` of that (window, level) may
    be 1 only once ``f_w`` reaches ``s`` (a window whose bound stays below
    ``s`` adds ``log s``; one whose outer bound is 1 adds nothing).  The
    rows thus bound the cost model's footprints.  Shared buffers are split
    equally between their tensors (the log transform cannot express a sum
    of footprints), and ``capacity_fraction`` derates only those shares.
    """
    accelerator, problem, layer = variables.accelerator, variables.problem, variables.layer
    log_stride = math.log(layer.stride)
    for level_index, level in enumerate(accelerator.hierarchy):
        if level.is_unbounded:
            continue
        stored = [tensor for tensor in TensorKind if level.holds(tensor)]
        for tensor in stored:
            share = (capacity_fraction if len(stored) > 1 else 1.0) / len(stored)
            capacity_words = level.capacity_bytes * share / accelerator.precision.bytes_for(tensor)
            if capacity_words < 1.0:
                capacity_words = 1.0
            relevant = [f for f in variables.factors if problem.relevance(f.dim, tensor)]
            terms = _tile_terms(variables, relevant, level_index)
            if not terms:
                continue
            for window in problem.projection(tensor):
                if not isinstance(window, Window) or layer.stride == 1 or layer.bound(window.outer) == 1:
                    continue
                if layer.bound(window.window) < layer.stride:
                    terms.append(log_stride)
                    continue
                reached = model.add_binary(f"Z[{window.window},L{level_index}]")
                window_tile = _tile_terms(variables, variables.factors_of_dim(window.window), level_index)
                model.add_constraint(
                    lin_sum(window_tile) >= log_stride * reached,
                    name=f"window_reaches_stride[{window.window},L{level_index}]",
                )
                terms.append(log_stride * (1 - reached))
            model.add_constraint(
                lin_sum(terms) <= math.log(capacity_words),
                name=f"buffer[{level.name},{tensor.short_name}]",
            )


def add_permutation_constraints(model: MIPModel, variables: CoSAVariables) -> None:
    """Dimension-level permutation ranks at the NoC boundary.

    A dimension takes exactly one rank slot if and only if it owns at least
    one temporal factor at the NoC boundary; each slot holds at most one
    dimension and slots are used contiguously from the innermost outward.
    A count reaches its prime's multiplicity, hence the scaled
    ``rank_if_outer`` rows.
    """
    noc_level = variables.noc_level
    for dim in variables.active_dims:
        rank_sum = lin_sum(
            variables.rank[(dim, slot)] for slot in range(variables.num_ranks)
        )
        factors = variables.factors_of_dim(dim)
        outer_counts = [variables.temporal_at(factor, noc_level) for factor in factors]
        model.add_constraint(rank_sum <= 1, name=f"one_rank[{dim}]")
        model.add_constraint(
            rank_sum <= lin_sum(outer_counts), name=f"rank_only_if_outer[{dim}]"
        )
        for factor, outer in zip(factors, outer_counts):
            model.add_constraint(
                factor.multiplicity * rank_sum >= outer.to_expr(), name=f"rank_if_outer[{dim}]"
            )

    slot_occupancy = [
        lin_sum(variables.rank[(dim, slot)] for dim in variables.active_dims)
        for slot in range(variables.num_ranks)
    ]
    for slot, occupancy in enumerate(slot_occupancy):
        model.add_constraint(occupancy <= 1, name=f"one_dim_per_rank[z{slot}]")
        if slot > 0:
            model.add_constraint(
                slot_occupancy[slot - 1] >= occupancy, name=f"contiguous_ranks[z{slot}]"
            )


def add_traffic_linking_constraints(model: MIPModel, variables: CoSAVariables) -> None:
    """Auxiliary variables of the traffic-iteration term (Eq. 9 / Eq. 10).

    ``Y[v, z]`` is forced to 1 as soon as a dimension relevant to tensor
    ``v`` occupies rank ``z`` or any rank inside it.  ``G[v, d]`` is forced
    to 1 when dimension ``d`` sits at-or-outside the innermost ``v``-relevant
    rank, and the continuous contribution ``T[v, d]`` is then pushed up to
    the log of the dimension's NoC-boundary loop bound (lower McCormick
    envelope; the upper half is unnecessary because the objective minimises
    the contributions).

    A dimension relevant to ``v`` is always at-or-outside ``v``'s innermost
    relevant rank, so its ``T[v, d]`` also gets the exact row
    ``T[v, d] >= outer_log(d)`` (``traffic_own``), which needs neither ``G``
    nor a big-M.  Without it the relaxation spreads the rank binaries, sets
    ``G = 0`` and charges no traffic iterations at all.  The ``G`` row it
    dominates stays: dropping it leaves the optimum value unchanged but makes
    HiGHS return other tied optima.
    """
    for tensor in TensorKind:
        for slot in range(variables.num_ranks):
            relevant_here = lin_sum(
                variables.rank[(dim, slot)]
                for dim in variables.active_dims
                if variables.problem.relevance(dim, tensor)
            )
            model.add_constraint(
                variables.y[(tensor, slot)] >= relevant_here,
                name=f"y_lower[{tensor.short_name},z{slot}]",
            )
            if slot > 0:
                model.add_constraint(
                    variables.y[(tensor, slot)] >= variables.y[(tensor, slot - 1)],
                    name=f"y_monotone[{tensor.short_name},z{slot}]",
                )
        for dim in variables.active_dims:
            if variables.problem.relevance(dim, tensor):
                model.add_constraint(
                    variables.traffic_term[(tensor, dim)] >= variables.outer_log_expression(dim),
                    name=f"traffic_own[{tensor.short_name},{dim}]",
                )
            outside = variables.outside[(tensor, dim)]
            for slot in range(variables.num_ranks):
                model.add_constraint(
                    outside
                    >= variables.rank[(dim, slot)] + variables.y[(tensor, slot)] - 1,
                    name=f"outside[{tensor.short_name},{dim},z{slot}]",
                )
            big_m = max(variables.dim_log_bound[dim], 1e-9)
            model.add_constraint(
                variables.traffic_term[(tensor, dim)]
                >= variables.outer_log_expression(dim) - big_m * (1 - outside),
                name=f"traffic_term[{tensor.short_name},{dim}]",
            )


def add_bypass_refetch_constraints(model: MIPModel, variables: CoSAVariables) -> None:
    """DRAM re-fetch of the tensors the NoC-boundary level does not store.

    Such a tensor's outermost buffer below the boundary refills straight
    from DRAM.  Once a relevant factor sits temporally at one of
    ``variables.bypass_levels[v]``, that buffer's tile changes inside every
    NoC-boundary iteration, so every NoC-boundary loop re-fetches it:
    ``B[v]`` is forced to 1 and each ``E[v, d]`` is pushed up to the log of
    dimension ``d``'s NoC-boundary loop bound (the same lower big-M
    envelope as ``T[v, d]``).
    """
    for tensor, levels in variables.bypass_levels.items():
        flag = variables.bypass[tensor]
        for factor in variables.factors:
            if not variables.problem.relevance(factor.dim, tensor):
                continue
            for level in levels:
                model.add_constraint(
                    factor.multiplicity * flag >= variables.temporal_at(factor, level).to_expr(),
                    name=f"bypass[{tensor.short_name},{factor.dim}:{factor.value},L{level}]",
                )
        for dim in variables.active_dims:
            big_m = max(variables.dim_log_bound[dim], 1e-9)
            model.add_constraint(
                variables.refetch_term[(tensor, dim)]
                >= variables.outer_log_expression(dim) - big_m * (1 - flag),
                name=f"refetch_term[{tensor.short_name},{dim}]",
            )


def add_all_constraints(
    model: MIPModel,
    variables: CoSAVariables,
    capacity_fraction: float = 1.0,
) -> None:
    """Add every constraint group of the CoSA formulation to ``model``."""
    add_assignment_constraints(model, variables)
    add_spatial_resource_constraints(model, variables)
    add_buffer_capacity_constraints(model, variables, capacity_fraction)
    add_permutation_constraints(model, variables)
    add_traffic_linking_constraints(model, variables)
    add_bypass_refetch_constraints(model, variables)
