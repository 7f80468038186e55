"""Mixed-integer programming substrate.

The original CoSA uses Gurobi.  This subpackage provides the replacement
(documented in DESIGN.md): a small declarative modelling layer —
variables, linear expressions, constraints and objectives — and its exact
solver, :class:`~repro.solver.scipy_backend.ScipyMilpBackend`, which drives
the HiGHS branch-and-cut solver object bundled with SciPy directly, without
importing ``scipy.optimize``.  The solver tests check HiGHS against
exhaustive enumeration of small integer programs.
"""

from repro.solver.expr import LinearExpr, Variable
from repro.solver.model import Constraint, MIPModel, Sense
from repro.solver.solution import Solution, SolveStatus
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.backend import Backend

__all__ = [
    "Variable",
    "LinearExpr",
    "MIPModel",
    "Constraint",
    "Sense",
    "Solution",
    "SolveStatus",
    "ScipyMilpBackend",
    "Backend",
]
