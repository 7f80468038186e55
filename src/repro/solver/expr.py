"""Decision variables and linear expressions.

A tiny algebraic layer in the spirit of PuLP/Gurobi's Python APIs: variables
can be combined with ``+``, ``-`` and scalar ``*`` into
:class:`LinearExpr` objects, and compared with ``<=``, ``>=``, ``==`` to form
constraints (the comparison returns a :class:`repro.solver.model.Constraint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


class VarKind:
    """Variable domain kinds."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"

    ALL = (BINARY, INTEGER, CONTINUOUS)


@dataclass(eq=False)
class Variable:
    """A single decision variable.

    Variables are created through :meth:`repro.solver.model.MIPModel.add_var`
    which assigns the ``index``: the variable's column in the solver's matrix.
    """

    name: str
    kind: str = VarKind.CONTINUOUS
    lower: float = 0.0
    upper: float = float("inf")
    index: int = -1

    def __post_init__(self) -> None:
        if self.kind not in VarKind.ALL:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == VarKind.BINARY:
            self.lower, self.upper = 0.0, 1.0
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower bound {self.lower} > upper bound {self.upper}")

    # Arithmetic produces LinearExpr objects ---------------------------------
    def to_expr(self) -> "LinearExpr":
        """This variable as a coefficient-1 linear expression."""
        return LinearExpr({self: 1.0})

    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-1.0 * self.to_expr()) + other

    def __mul__(self, scalar):
        return self.to_expr() * scalar

    __rmul__ = __mul__

    def __neg__(self):
        return self.to_expr() * -1.0

    # Comparisons produce Constraint objects ---------------------------------
    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Variable) and other is self:
            return True
        return self.to_expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name}, {self.kind})"


class LinearExpr:
    """An affine expression ``sum(coeff_i * var_i) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0):
        self.terms: dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _coerce(value) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float)):
            return LinearExpr(constant=float(value))
        raise TypeError(f"cannot build a linear expression from {value!r}")

    def copy(self) -> "LinearExpr":
        """A shallow copy (terms dictionary duplicated)."""
        return LinearExpr(dict(self.terms), self.constant)

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "LinearExpr":
        other = self._coerce(other)
        result = self.copy()
        for var, coeff in other.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + coeff
        result.constant += other.constant
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpr":
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, scalar) -> "LinearExpr":
        if not isinstance(scalar, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        return LinearExpr({v: c * scalar for v, c in self.terms.items()}, self.constant * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "LinearExpr":
        return self * -1.0

    # -------------------------------------------------------------- comparisons
    def __le__(self, other):
        from repro.solver.model import Constraint, Sense

        diff = self - self._coerce(other)
        return Constraint(expr=diff, sense=Sense.LE, rhs=0.0)

    def __ge__(self, other):
        from repro.solver.model import Constraint, Sense

        diff = self - self._coerce(other)
        return Constraint(expr=diff, sense=Sense.GE, rhs=0.0)

    def __eq__(self, other):  # type: ignore[override]
        from repro.solver.model import Constraint, Sense

        diff = self - self._coerce(other)
        return Constraint(expr=diff, sense=Sense.EQ, rhs=0.0)

    def __hash__(self) -> int:  # expressions are identity-hashed containers
        return id(self)

    # ----------------------------------------------------------------- queries
    def coefficient(self, var: Variable) -> float:
        """Coefficient of ``var`` (0 if absent)."""
        return self.terms.get(var, 0.0)

    def evaluate(self, values: Mapping[Variable, float]) -> float:
        """Value of the expression under an assignment."""
        return self.constant + sum(coeff * values.get(var, 0.0) for var, coeff in self.terms.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts) or "0"


def lin_sum(items: Iterable) -> LinearExpr:
    """Sum variables/expressions/numbers into one :class:`LinearExpr`.

    Unlike built-in :func:`sum`, this avoids quadratic behaviour by merging
    into a single accumulator dictionary.
    """
    total = LinearExpr()
    for item in items:
        expr = LinearExpr._coerce(item)
        for var, coeff in expr.terms.items():
            total.terms[var] = total.terms.get(var, 0.0) + coeff
        total.constant += expr.constant
    return total
