"""Mixed-integer programming substrate.

The original CoSA uses Gurobi.  This subpackage provides the replacement
(documented in DESIGN.md): a small declarative modelling layer —
variables, linear expressions, constraints and objectives — plus two
interchangeable exact solvers:

* :class:`~repro.solver.scipy_backend.ScipyMilpBackend` — wraps
  :func:`scipy.optimize.milp` (the HiGHS branch-and-cut solver shipped with
  SciPy), the default,
* :class:`~repro.solver.branch_and_bound.BranchAndBoundBackend` — a pure
  Python branch-and-bound over :func:`scipy.optimize.linprog` relaxations,
  kept as a readable reference implementation the solver tests compare
  against.

Both return identical optima on the CoSA formulations (they are exact), so
schedule quality does not depend on the backend.
"""

from repro.solver.expr import LinearExpr, Variable
from repro.solver.model import Constraint, MIPModel, Sense
from repro.solver.solution import Solution, SolveStatus
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.branch_and_bound import BranchAndBoundBackend
from repro.solver.backend import Backend, default_backend

__all__ = [
    "Variable",
    "LinearExpr",
    "MIPModel",
    "Constraint",
    "Sense",
    "Solution",
    "SolveStatus",
    "ScipyMilpBackend",
    "BranchAndBoundBackend",
    "Backend",
    "default_backend",
]
