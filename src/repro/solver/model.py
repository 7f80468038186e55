"""Declarative MIP model.

:class:`MIPModel` collects variables, linear constraints and a linear
objective to minimise; the backend that solves it lowers it to the solver's
own form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.solver.expr import LinearExpr, Variable, VarKind


class Sense(Enum):
    """Constraint senses (expressions are normalised to ``expr sense rhs``)."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class Constraint:
    """A linear constraint ``expr.terms + expr.constant (sense) rhs``.

    Constraints are normally produced by comparing expressions
    (``x + y <= 3``) rather than constructed directly.
    """

    expr: LinearExpr
    sense: Sense
    rhs: float
    name: str = ""

    @property
    def bound(self) -> float:
        """Right-hand side after moving the expression constant over."""
        return self.rhs - self.expr.constant

    def satisfied_by(self, values, tolerance: float = 1e-6) -> bool:
        """Check the constraint under an assignment (used in tests and validation)."""
        lhs = sum(c * values.get(v, 0.0) for v, c in self.expr.terms.items())
        if self.sense is Sense.LE:
            return lhs <= self.bound + tolerance
        if self.sense is Sense.GE:
            return lhs >= self.bound - tolerance
        return abs(lhs - self.bound) <= tolerance


class MIPModel:
    """A mixed-integer program under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpr = LinearExpr()

    # -------------------------------------------------------------- variables
    def add_var(
        self,
        name: str,
        kind: str = VarKind.CONTINUOUS,
        lower: float = 0.0,
        upper: float = float("inf"),
    ) -> Variable:
        """Create and register a decision variable."""
        var = Variable(name=name, kind=kind, lower=lower, upper=upper, index=len(self.variables))
        self.variables.append(var)
        return var

    def add_binary(self, name: str) -> Variable:
        """Create a 0/1 variable."""
        return self.add_var(name, kind=VarKind.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """Create an integer variable."""
        return self.add_var(name, kind=VarKind.INTEGER, lower=lower, upper=upper)

    def add_continuous(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """Create a continuous variable."""
        return self.add_var(name, kind=VarKind.CONTINUOUS, lower=lower, upper=upper)

    # ------------------------------------------------------------- constraints
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (typically built via expression comparison)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (did the comparison return a bool?)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    # --------------------------------------------------------------- objective
    def set_objective(self, expr: LinearExpr | Variable) -> None:
        """Set the (linear) objective, which the solve minimises."""
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        self.objective = expr

    # ------------------------------------------------------------------ solve
    def solve(self, backend=None):
        """Solve with ``backend`` (defaults to the scipy HiGHS MILP backend)."""
        if backend is None:
            from repro.solver.scipy_backend import ScipyMilpBackend

            backend = ScipyMilpBackend()
        return backend.solve(self)

    # ------------------------------------------------------------------ stats
    @property
    def num_variables(self) -> int:
        """Number of registered variables."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Number of registered constraints."""
        return len(self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MIPModel({self.name}: {self.num_variables} vars, "
            f"{self.num_constraints} constraints)"
        )
