"""Translate a solved CoSA MIP back into a :class:`~repro.mapping.mapping.Mapping`.

Decoding rules
--------------
* The copy counts expand back into one loop per prime copy: the copies of a
  prime take consecutive ordinals, filled into the temporal slots from the
  innermost level outward and then into the spatial slots.
* A copy in a spatial slot becomes a ``spatial_for`` loop at that level.
* Temporal factors at levels **below** the NoC boundary become temporal loops
  at their level; within a level they are ordered by a stationarity
  heuristic — loops irrelevant to the level's resident tensor are placed
  innermost so that tensor is re-fetched as rarely as possible (the MIP only
  optimises the permutation of the NoC-boundary loops, matching the paper).
* Temporal factors at the NoC boundary are grouped by dimension and the
  groups are ordered by the dimension's permutation rank (rank 0 =
  innermost), exactly the order the traffic objective optimised.
"""

from __future__ import annotations

from repro.core.variables import CoSAVariables, PrimeFactor
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.solver.solution import Solution
from repro.workloads.layer import TensorKind


def _primary_tensor(variables: CoSAVariables, level_index: int) -> TensorKind | None:
    """The single tensor stored at ``level_index`` (None for shared/omni levels)."""
    stored = [t for t in TensorKind if variables.accelerator.hierarchy[level_index].holds(t)]
    if len(stored) == 1:
        return stored[0]
    return None


def _order_inner_level(
    variables: CoSAVariables, level_index: int, factors: list[PrimeFactor]
) -> list[PrimeFactor]:
    """Order the temporal factors of an inner level, innermost first.

    Loops irrelevant to the level's resident tensor come first (innermost) so
    the resident tile stays stationary across them; ties keep the problem's
    canonical dimension order (R,S,P,Q,C,K,N for conv).
    """
    primary = _primary_tensor(variables, level_index)
    problem = variables.problem
    canonical = {dim: i for i, dim in enumerate(problem.dims)}

    def key(factor: PrimeFactor):
        relevant = (
            problem.relevance(factor.dim, primary) if primary is not None else False
        )
        return (1 if relevant else 0, canonical[factor.dim], factor.ordinal)

    return sorted(factors, key=key)


def _dim_rank(variables: CoSAVariables, solution: Solution, dim: str) -> int:
    """Permutation rank of ``dim`` (a large sentinel when the dim is unranked)."""
    for slot in range(variables.num_ranks):
        if solution.rounded(variables.rank[(dim, slot)]) == 1:
            return slot
    return variables.num_ranks + variables.problem.dims.index(dim)


def decode_solution(variables: CoSAVariables, solution: Solution) -> Mapping:
    """Build the :class:`Mapping` encoded by ``solution``."""
    if not solution.values:
        raise ValueError("cannot decode an empty solution (solver did not find a feasible point)")

    num_levels = variables.num_levels
    noc_level = variables.noc_level
    spatial_loops: list[list[Loop]] = [[] for _ in range(num_levels)]
    inner_temporal: list[list[PrimeFactor]] = [[] for _ in range(num_levels)]
    outer_temporal: list[PrimeFactor] = []

    for factor in variables.factors:
        placed = 0
        for level in variables.temporal_levels:
            for _ in range(solution.rounded(variables.temporal_at(factor, level))):
                copy = PrimeFactor(factor.dim, factor.value, 1, factor.ordinal + placed, factor.index)
                (outer_temporal if level == noc_level else inner_temporal[level]).append(copy)
                placed += 1
        for level in variables.spatial_fanouts:
            var = variables.spatial_at(factor, level)
            for _ in range(solution.rounded(var) if var is not None else 0):
                spatial_loops[level].append(Loop(dim=factor.dim, bound=factor.value, spatial=True))
                placed += 1
        if placed != factor.multiplicity:
            raise ValueError(
                f"prime {factor.value} of {factor.dim} has {placed} of its "
                f"{factor.multiplicity} copies assigned in the solution"
            )

    outer_sorted = sorted(
        outer_temporal,
        key=lambda f: (_dim_rank(variables, solution, f.dim), f.ordinal),
    )

    level_mappings: list[LevelMapping] = []
    for level in range(num_levels):
        ordered = _order_inner_level(variables, level, inner_temporal[level])
        temporal = [Loop(dim=f.dim, bound=f.value, spatial=False) for f in ordered]
        if level == noc_level:
            temporal.extend(
                Loop(dim=f.dim, bound=f.value, spatial=False) for f in outer_sorted
            )
        level_mappings.append(
            LevelMapping(temporal=temporal, spatial=_merge_spatial(spatial_loops[level]))
        )
    mapping = Mapping(variables.layer, level_mappings)
    mapping.validate_against_layer()
    return mapping


def _merge_spatial(loops: list[Loop]) -> list[Loop]:
    """Merge spatial loops over the same dimension into one loop per dimension."""
    merged: dict[str, int] = {}
    for loop in loops:
        merged[loop.dim] = merged.get(loop.dim, 1) * loop.bound
    return [Loop(dim=dim, bound=bound, spatial=True) for dim, bound in merged.items()]
