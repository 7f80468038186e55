"""Objective functions of the CoSA MIP (Sec. III-D of the paper).

Three composable objectives, all linear in the decision variables because
every quantity is expressed as a sum of ``log(prime factor)`` terms:

* **utilization** (Eq. 5) — sum of the log tile sizes of every tensor at
  every on-chip buffer; maximising it maximises the geometric mean of the
  buffer utilizations,
* **compute** (Eq. 6) — sum of the logs of the temporally-mapped factors,
  i.e. the log of the per-lane compute cycles,
* **traffic** (Eq. 7-11) — per tensor, the log of the transfer size below
  the NoC plus the relevant spatial fan-out at the NoC plus the
  traffic-iteration term driven by the permutation ranks.

The overall objective (Eq. 12) is ``-wU * Util + wC * Comp + wT * Traf``.

The same three quantities can also be evaluated directly on a finished
:class:`~repro.mapping.mapping.Mapping` via
:func:`mapping_objective_breakdown`, which is what the Fig. 8 experiment
(objective breakdown of Random / Timeloop-Hybrid / CoSA schedules) uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.core.variables import CoSAVariables, bypass_levels
from repro.mapping.mapping import Mapping
from repro.solver.expr import LinearExpr, lin_sum
from repro.workloads.layer import TensorKind


@dataclass(frozen=True)
class ObjectiveWeights:
    """User-selected weights of the composite objective (Eq. 12).

    The defaults were calibrated against the Simba-like baseline architecture
    (the paper tunes its weights with per-architecture micro-benchmarks in
    the same spirit): the compute term dominates so the solver exhausts
    spatial parallelism first, traffic breaks ties between equally-parallel
    schedules, and utilization keeps a small pull towards large on-chip
    tiles without crowding out spatial factors from the capacity budget.
    """

    utilization: float = 0.2
    compute: float = 4.0
    traffic: float = 1.0

    def scaled(self, utilization: float | None = None, compute: float | None = None, traffic: float | None = None) -> "ObjectiveWeights":
        """Copy with selected weights replaced."""
        return ObjectiveWeights(
            utilization=self.utilization if utilization is None else utilization,
            compute=self.compute if compute is None else compute,
            traffic=self.traffic if traffic is None else traffic,
        )


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Values of the three objective terms (log space) plus the weighted total."""

    utilization: float
    compute: float
    traffic: float
    weights: ObjectiveWeights

    @property
    def total(self) -> float:
        """``-wU * Util + wC * Comp + wT * Traf`` (lower is better)."""
        return (
            -self.weights.utilization * self.utilization
            + self.weights.compute * self.compute
            + self.weights.traffic * self.traffic
        )


# --------------------------------------------------------------------------- MIP expressions
def utilization_expression(variables: CoSAVariables) -> LinearExpr:
    """Eq. 5: sum of per-buffer, per-tensor log tile sizes (to be maximised)."""
    accelerator = variables.accelerator
    terms = []
    for level_index, level in enumerate(accelerator.hierarchy):
        if level.is_unbounded:
            continue
        for tensor in TensorKind:
            if not level.holds(tensor):
                continue
            for factor in variables.factors:
                if not variables.problem.relevance(factor.dim, tensor):
                    continue
                for below in range(level_index):
                    terms.append(factor.log_value * variables.temporal_at(factor, below))
                    spatial_below = variables.spatial_at(factor, below)
                    if spatial_below is not None:
                        terms.append(factor.log_value * spatial_below)
                spatial_here = variables.spatial_at(factor, level_index)
                if spatial_here is not None:
                    terms.append(factor.log_value * spatial_here)
    return lin_sum(terms)


def compute_expression(variables: CoSAVariables) -> LinearExpr:
    """Eq. 6: log of the product of every temporally-mapped factor."""
    terms = []
    for factor in variables.factors:
        for level in variables.temporal_levels:
            terms.append(factor.log_value * variables.temporal_at(factor, level))
    return lin_sum(terms)


def traffic_expression(variables: CoSAVariables) -> LinearExpr:
    """Eq. 11: sum over tensors of transfer size + spatial fan-out + iteration terms."""
    noc_level = variables.noc_level
    terms = []
    for tensor in TensorKind:
        # D_v: data size per transfer — relevant factors mapped below the NoC.
        for factor in variables.factors:
            if not variables.problem.relevance(factor.dim, tensor):
                continue
            for below in range(noc_level):
                terms.append(factor.log_value * variables.temporal_at(factor, below))
                spatial_below = variables.spatial_at(factor, below)
                if spatial_below is not None:
                    terms.append(factor.log_value * spatial_below)
            # L_v: relevant spatial factors at the NoC level (unicast fan-out).
            spatial_noc = variables.spatial_at(factor, noc_level)
            if spatial_noc is not None:
                terms.append(factor.log_value * spatial_noc)
        # T_v: traffic iterations of the outer temporal loops (Eq. 10),
        # linearised per dimension through the G / traffic-term variables.
        for dim in variables.active_dims:
            terms.append(1.0 * variables.traffic_term[(tensor, dim)])
            if tensor in variables.bypass:
                terms.append(1.0 * variables.refetch_term[(tensor, dim)])
    return lin_sum(terms)


# ----------------------------------------------------------------- mapping-side evaluation
def _log_factor_product(mapping: Mapping, tensor: TensorKind, level: int, include_spatial_at_level: bool) -> float:
    """Log of the relevant factor product below ``level`` (mirrors the MIP tile term)."""
    total = 0.0
    problem = mapping.layer.problem
    for dim in problem.dims:
        if not problem.relevance(dim, tensor):
            continue
        below = mapping.dim_product(dim, max_level=level - 1) if level > 0 else 1
        at_level_spatial = (
            mapping.levels[level].factor(dim, include_temporal=False) if include_spatial_at_level else 1
        )
        total += math.log(below * at_level_spatial)
    return total


def mapping_utilization(mapping: Mapping, accelerator: Accelerator) -> float:
    """Eq. 5 evaluated on a finished mapping."""
    total = 0.0
    for level_index, level in enumerate(accelerator.hierarchy):
        if level.is_unbounded:
            continue
        for tensor in TensorKind:
            if level.holds(tensor):
                total += _log_factor_product(mapping, tensor, level_index, include_spatial_at_level=True)
    return total


def mapping_compute(mapping: Mapping) -> float:
    """Eq. 6 evaluated on a finished mapping (log of per-lane temporal iterations)."""
    return math.log(mapping.total_temporal_product())


def mapping_traffic(mapping: Mapping, accelerator: Accelerator) -> float:
    """Eq. 11 evaluated on a finished mapping, with the bypass re-fetch term."""
    noc_level = accelerator.pe_level_index()
    bypassed = bypass_levels(accelerator)
    problem = mapping.layer.problem
    outer_loops = mapping.loops_above(noc_level)
    total = 0.0
    for tensor in TensorKind:
        # D_v: transfer size below the NoC boundary.
        total += _log_factor_product(mapping, tensor, noc_level, include_spatial_at_level=False)
        # L_v: relevant spatial fan-out at the NoC level.
        for loop in mapping.levels[noc_level].spatial:
            if loop.relevant_to(tensor, problem):
                total += math.log(loop.bound)
        # T_v: outer temporal loops at-or-outside the innermost relevant loop.
        relevant_seen = False
        for _, loop in outer_loops:
            if not relevant_seen and loop.relevant_to(tensor, problem):
                relevant_seen = True
            if relevant_seen:
                total += math.log(loop.bound)
        # E_v: a tensor the NoC level does not store is re-fetched from DRAM
        # by every outer loop once a relevant loop runs temporally between
        # the buffer DRAM refills and the NoC boundary.
        if any(
            loop.relevant_to(tensor, problem)
            for level in bypassed.get(tensor, ())
            for loop in mapping.levels[level].temporal
        ):
            total += sum(math.log(loop.bound) for _, loop in outer_loops)
    return total


def mapping_objective_breakdown(
    mapping: Mapping,
    accelerator: Accelerator,
    weights: ObjectiveWeights = ObjectiveWeights(),
) -> ObjectiveBreakdown:
    """Evaluate the three CoSA objective terms on any mapping (Fig. 8)."""
    return ObjectiveBreakdown(
        utilization=mapping_utilization(mapping, accelerator),
        compute=mapping_compute(mapping),
        traffic=mapping_traffic(mapping, accelerator),
        weights=weights,
    )
