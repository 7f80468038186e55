"""Assembly of the full CoSA mixed-integer program.

:class:`CoSAFormulation` wires the variables, constraints and objectives
together for one (layer, accelerator) pair and knows how to solve itself and
decode the result.  :class:`repro.core.scheduler.CoSAScheduler` is the
user-facing wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.core.constraints import add_all_constraints
from repro.core.decode import decode_solution
from repro.core.objectives import (
    ObjectiveBreakdown,
    ObjectiveWeights,
    compute_expression,
    traffic_expression,
    utilization_expression,
)
from repro.core.variables import CoSAVariables
from repro.mapping.mapping import Mapping
from repro.solver.model import MIPModel
from repro.solver.solution import Solution
from repro.workloads.problem import ProblemLayer


@dataclass
class FormulationStats:
    """Size of the generated MIP (reported in Table VI style summaries)."""

    num_prime_factors: int
    num_variables: int
    num_constraints: int


class CoSAFormulation:
    """The CoSA MIP for one layer on one accelerator.

    Parameters
    ----------
    layer:
        Layer to schedule.
    accelerator:
        Target spatial accelerator.
    weights:
        Objective weights (Eq. 12).
    capacity_fraction:
        Derating of the per-tensor shares of shared buffers.  The rows
        bound every footprint, so any fraction up to 1 decodes to a mapping
        that fits; the derating only ranks mappings.
    """

    def __init__(
        self,
        layer: ProblemLayer,
        accelerator: Accelerator,
        weights: ObjectiveWeights = ObjectiveWeights(),
        capacity_fraction: float = 1.0,
    ):
        self.layer = layer
        self.accelerator = accelerator
        self.weights = weights
        self.model = MIPModel(name=f"cosa[{layer.name or layer.canonical_name}]")
        self.variables = CoSAVariables(self.model, layer, accelerator)
        add_all_constraints(self.model, self.variables, capacity_fraction)

        self._utilization = utilization_expression(self.variables)
        self._compute = compute_expression(self.variables)
        self._traffic = traffic_expression(self.variables)
        objective = (
            (-weights.utilization) * self._utilization
            + weights.compute * self._compute
            + weights.traffic * self._traffic
        )
        self.model.set_objective(objective)

    # ------------------------------------------------------------------ solve
    def solve(self, backend=None) -> Solution:
        """Solve the MIP with ``backend`` (defaults to scipy HiGHS)."""
        return self.model.solve(backend)

    def decode(self, solution: Solution) -> Mapping:
        """Translate ``solution`` into a :class:`Mapping`."""
        return decode_solution(self.variables, solution)

    # ---------------------------------------------------------------- reports
    def objective_breakdown(self, solution: Solution) -> ObjectiveBreakdown:
        """The three objective terms at ``solution`` (Fig. 8 style breakdown)."""
        return ObjectiveBreakdown(
            utilization=solution.value(self._utilization),
            compute=solution.value(self._compute),
            traffic=solution.value(self._traffic),
            weights=self.weights,
        )

    @property
    def stats(self) -> FormulationStats:
        """Problem-size statistics of the generated MIP."""
        return FormulationStats(
            num_prime_factors=self.variables.num_primes,
            num_variables=self.model.num_variables,
            num_constraints=self.model.num_constraints,
        )
