"""Solver result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.solver.expr import LinearExpr, Variable


class SolveStatus(Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"  # a solver limit (the node cap) ended the solve; the incumbent stands
    ERROR = "error"


@dataclass
class Solution:
    """Result of solving a :class:`~repro.solver.model.MIPModel`.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Objective value (``nan`` unless a feasible point was found).
    values:
        Variable assignment keyed by :class:`Variable`.
    solve_time_seconds:
        Wall-clock time spent in the backend.
    iterations:
        Branch-and-bound nodes HiGHS explored (``mip_node_count``; 0 when
        the solve does not report it).
    """

    status: SolveStatus
    objective: float = float("nan")
    values: dict[Variable, float] = field(default_factory=dict)
    solve_time_seconds: float = 0.0
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        """True when the backend proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, item: Variable | LinearExpr) -> float:
        """Value of a variable or expression under this solution."""
        if isinstance(item, Variable):
            return self.values.get(item, 0.0)
        return item.evaluate(self.values)

    def rounded(self, item: Variable | LinearExpr) -> int:
        """Value rounded to the nearest integer (for binary/integer variables)."""
        return int(round(self.value(item)))
