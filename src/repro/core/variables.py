"""Decision variables of the CoSA MIP.

The scheduling space is encoded as a prime-factor allocation problem
(Sec. III-B of the paper):

* every distinct prime of every loop bound becomes a :class:`PrimeFactor`
  carrying its multiplicity (``8 = 2^3`` is one factor of multiplicity 3),
* the integer matrix ``X`` counts how many copies of each prime sit in each
  (memory level, spatial/temporal) slot, ``0 <= X <= multiplicity``.  Copies
  of one prime in one dimension are interchangeable, so counting them
  instead of placing each copy with its own binary removes the symmetric
  branches the solver would otherwise explore.  Temporal slots exist at
  every level up to and including the NoC boundary (the global buffer);
  loops above that boundary are equivalent for every cost the models
  measure, so the redundant DRAM temporal slots are dropped to shrink the
  search space,
* the **permutation** of the NoC-boundary loops is modelled per *dimension*:
  rank binaries ``R[d, z]`` order the dimensions that own at least one
  NoC-boundary temporal factor.  Grouping the factors of one dimension next
  to each other never worsens the traffic objective (moving a factor of a
  dimension down next to that dimension's innermost factor keeps it
  at-or-outside every tensor's innermost relevant loop it was already
  outside of), so the dimension-level permutation is exact while being far
  smaller than a per-factor one,
* the running-OR variables ``Y`` (Eq. 9), the "outside" indicators
  ``G[v, d]`` and the per-(tensor, dimension) traffic contributions
  ``T[v, d]`` linearise the traffic-iteration term of Eq. 10; a dimension
  relevant to ``v`` bounds its ``T[v, d]`` directly, without ``G``,
* for every tensor the NoC-boundary level does not store (weights on the
  Simba-like presets, whose weight buffer refills straight from DRAM), the
  binary ``B[v]`` marks a relevant temporal loop between that buffer and the
  NoC boundary, and the contributions ``E[v, d]`` then charge every
  NoC-boundary loop as a DRAM re-fetch of the tensor's tile.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.solver.expr import LinearExpr, Variable, lin_sum
from repro.solver.model import MIPModel
from repro.workloads.layer import TensorKind
from repro.workloads.problem import ProblemLayer
from repro.workloads.prime import factorize


@dataclass(frozen=True)
class PrimeFactor:
    """One distinct prime of one layer dimension, with its multiplicity.

    Attributes
    ----------
    dim:
        Layer dimension name.
    value:
        The prime value.
    multiplicity:
        How often the prime divides the dimension's bound.
    ordinal:
        Position of the prime's first copy among the factors of the same
        dimension (copies take the ordinals that follow).
    index:
        Global index across all factors (used to key variables).
    """

    dim: str
    value: int
    multiplicity: int
    ordinal: int
    index: int

    @property
    def log_value(self) -> float:
        """Natural logarithm of the prime (all CoSA expressions are in log space)."""
        return math.log(self.value)


def _max_copies(prime: int, multiplicity: int, fanout: int) -> int:
    """Copies of ``prime`` (at most ``multiplicity``) whose product fits ``fanout``."""
    copies, product = 0, prime
    while copies < multiplicity and product <= fanout:
        copies += 1
        product *= prime
    return copies


def bypass_levels(accelerator: Accelerator) -> dict[TensorKind, range]:
    """Levels at which a relevant temporal loop makes DRAM re-fetch a tensor.

    For each tensor the NoC-boundary level does not store, its outermost
    buffer below that boundary refills straight from DRAM, and a temporal
    loop at level ``I`` iterates level-``I`` tiles.  A relevant temporal loop
    anywhere from that buffer up to, not including, the NoC boundary
    therefore changes the buffer's tile inside every NoC-boundary iteration,
    and every NoC-boundary loop re-fetches the tile from DRAM.  Tensors the
    boundary stores (or with no buffer below it) are absent.
    """
    hierarchy = accelerator.hierarchy
    noc_level = accelerator.pe_level_index()
    levels = {}
    for tensor in TensorKind:
        inside = [level for level in hierarchy.levels_holding(tensor) if level < noc_level]
        if inside and not hierarchy[noc_level].holds(tensor):
            levels[tensor] = range(inside[-1], noc_level)
    return levels


class CoSAVariables:
    """Creates and indexes every decision variable of the formulation.

    Parameters
    ----------
    model:
        The :class:`~repro.solver.model.MIPModel` the variables are added to.
    layer:
        The layer being scheduled.
    accelerator:
        The target architecture (defines levels, fanouts, the NoC boundary).
    """

    def __init__(self, model: MIPModel, layer: ProblemLayer, accelerator: Accelerator):
        self.model = model
        self.layer = layer
        #: The tensor-problem IR the variables are enumerated from: its
        #: dimension order drives factor enumeration and its relevance matrix
        #: drives the traffic variables, so the formulation generalizes to
        #: any registered problem (matmul, depthwise, attention, ...).
        self.problem = layer.problem
        self.accelerator = accelerator
        self.num_levels = accelerator.num_memory_levels
        self.noc_level = accelerator.pe_level_index()
        self.spatial_fanouts: dict[int, int] = {
            i: accelerator.hierarchy[i].spatial_fanout
            for i in accelerator.hierarchy.spatial_levels()
        }
        #: Levels that may receive temporal loops (registers .. NoC boundary).
        self.temporal_levels: list[int] = list(range(self.noc_level + 1))
        #: Tensors the NoC-boundary level does not store, mapped to the
        #: levels whose relevant temporal loops make every NoC-boundary loop
        #: re-fetch the tensor from DRAM (see :func:`bypass_levels`).
        self.bypass_levels: dict[TensorKind, range] = bypass_levels(accelerator)

        self.factors: list[PrimeFactor] = self._enumerate_factors(layer)
        #: Dimensions that actually have factors to place (bound > 1).
        self.active_dims: list[str] = [
            dim for dim in self.problem.dims if layer.bound(dim) > 1
        ]
        #: Permutation rank slots (one per active dimension).
        self.num_ranks = max(len(self.active_dims), 1)
        #: Per-dimension upper bound on the log of its NoC-boundary loop bound.
        self.dim_log_bound: dict[str, float] = {
            dim: math.log(layer.bound(dim)) for dim in self.problem.dims
        }

        # X matrix (copy counts), split into the temporal and the spatial halves.
        self.x_temporal: dict[tuple[int, int], Variable] = {}
        self.x_spatial: dict[tuple[int, int], Variable] = {}
        # Dimension-level permutation ranks and traffic auxiliaries.
        self.rank: dict[tuple[str, int], Variable] = {}
        self.y: dict[tuple[TensorKind, int], Variable] = {}
        self.outside: dict[tuple[TensorKind, str], Variable] = {}
        self.traffic_term: dict[tuple[TensorKind, str], Variable] = {}
        # DRAM re-fetch of the tensors the NoC boundary does not store.
        self.bypass: dict[TensorKind, Variable] = {}
        self.refetch_term: dict[tuple[TensorKind, str], Variable] = {}

        self._create_assignment_variables()
        self._create_permutation_variables()
        self._create_traffic_variables()

    # ----------------------------------------------------------------- factors
    @staticmethod
    def _enumerate_factors(layer: ProblemLayer) -> list[PrimeFactor]:
        factors: list[PrimeFactor] = []
        for dim in layer.problem.dims:
            ordinal = 0
            for prime, multiplicity in Counter(factorize(layer.bound(dim))).items():
                factors.append(PrimeFactor(dim, prime, multiplicity, ordinal, len(factors)))
                ordinal += multiplicity
        return factors

    @property
    def num_primes(self) -> int:
        """Prime factors of the layer counted with multiplicity (Table VI)."""
        return sum(factor.multiplicity for factor in self.factors)

    # --------------------------------------------------------------- variables
    def _create_assignment_variables(self) -> None:
        for factor in self.factors:
            label = f"{factor.dim}:{factor.value}^{factor.multiplicity}"
            for level in self.temporal_levels:
                self.x_temporal[(factor.index, level)] = self.model.add_integer(
                    f"X_t[{label},L{level}]", upper=factor.multiplicity
                )
            for level, fanout in self.spatial_fanouts.items():
                copies = _max_copies(factor.value, factor.multiplicity, fanout)
                if copies:
                    self.x_spatial[(factor.index, level)] = self.model.add_integer(
                        f"X_s[{label},L{level}]", upper=copies
                    )

    def _create_permutation_variables(self) -> None:
        for dim in self.active_dims:
            for slot in range(self.num_ranks):
                self.rank[(dim, slot)] = self.model.add_binary(f"rank[{dim},z{slot}]")

    def _create_traffic_variables(self) -> None:
        for tensor in TensorKind:
            for slot in range(self.num_ranks):
                self.y[(tensor, slot)] = self.model.add_continuous(
                    f"Y[{tensor.short_name},z{slot}]", lower=0.0, upper=1.0
                )
            for dim in self.active_dims:
                self.outside[(tensor, dim)] = self.model.add_binary(
                    f"G[{tensor.short_name},{dim}]"
                )
                self.traffic_term[(tensor, dim)] = self.model.add_continuous(
                    f"T[{tensor.short_name},{dim}]",
                    lower=0.0,
                    upper=max(self.dim_log_bound[dim], 1e-9),
                )
        for tensor in self.bypass_levels:
            self.bypass[tensor] = self.model.add_binary(f"B[{tensor.short_name}]")
            for dim in self.active_dims:
                self.refetch_term[(tensor, dim)] = self.model.add_continuous(
                    f"E[{tensor.short_name},{dim}]",
                    lower=0.0,
                    upper=max(self.dim_log_bound[dim], 1e-9),
                )

    # ----------------------------------------------------------------- queries
    def assignment_vars(self, factor: PrimeFactor) -> list[Variable]:
        """Every (level, kind) copy-count variable of ``factor``."""
        variables = [self.x_temporal[(factor.index, level)] for level in self.temporal_levels]
        variables += [
            self.x_spatial[(factor.index, level)]
            for level in self.spatial_fanouts
            if (factor.index, level) in self.x_spatial
        ]
        return variables

    def temporal_at(self, factor: PrimeFactor, level: int) -> Variable:
        """The temporal copy count of ``factor`` at ``level``."""
        return self.x_temporal[(factor.index, level)]

    def spatial_at(self, factor: PrimeFactor, level: int) -> Variable | None:
        """The spatial copy count of ``factor`` at ``level`` (``None`` if disallowed)."""
        return self.x_spatial.get((factor.index, level))

    def factors_of_dim(self, dim: str) -> list[PrimeFactor]:
        """All distinct prime factors belonging to layer dimension ``dim``."""
        return [f for f in self.factors if f.dim == dim]

    def outer_log_expression(self, dim: str) -> LinearExpr:
        """Linear expression: log of the NoC-boundary temporal bound of ``dim``."""
        return lin_sum(
            factor.log_value * self.temporal_at(factor, self.noc_level)
            for factor in self.factors_of_dim(dim)
        )

    @property
    def num_variables(self) -> int:
        """Total number of decision variables created."""
        return (
            len(self.x_temporal)
            + len(self.x_spatial)
            + len(self.rank)
            + len(self.y)
            + len(self.outside)
            + len(self.traffic_term)
            + len(self.bypass)
            + len(self.refetch_term)
        )
