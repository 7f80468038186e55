"""MILP backend that drives the HiGHS solver object bundled with SciPy.

``scipy.optimize._highspy._core`` is loaded by file path under its canonical
name, skipping ``scipy/optimize/__init__.py`` and the subpackages it imports.
HiGHS gets exactly the arrays and options SciPy's own MILP wrapper would pass,
because its search path depends on them.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import sysconfig
import time

import numpy as np

from repro.solver.expr import VarKind
from repro.solver.model import Sense
from repro.solver.solution import Solution, SolveStatus


def _load_core():
    """``scipy.optimize._highspy._core``, without running ``scipy.optimize``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    path = os.path.join(folder, "_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.exists(path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # Registered before exec so ``scipy.optimize`` reuses it: a pybind11
        # extension must not register its types twice.
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module
    from scipy.optimize._highspy import _core

    return _core


#: Branch-and-bound nodes a MIP may explore before it stops with
#: :attr:`SolveStatus.LIMIT` and its incumbent.  A count, not a time, so a
#: result never depends on host speed; CoSA's largest ResNet-50 solve needs
#: about 1,430.  A change that moves a result bumps ``RESULTS_VERSION``.
NODE_LIMIT = 10_000

_core = _load_core()
_Status = _core.HighsModelStatus
# How a HiGHS model status reads; any other is retried once without
# presolve, then an error.  Every limit a MIP can hit maps to LIMIT and keeps
# its incumbent: HiGHS 1.12 reports a reached ``mip_max_nodes`` as
# ``kSolutionLimit``.
_STATUS = {
    _Status.kOptimal: SolveStatus.OPTIMAL,
    _Status.kTimeLimit: SolveStatus.LIMIT,
    _Status.kIterationLimit: SolveStatus.LIMIT,
    _Status.kSolutionLimit: SolveStatus.LIMIT,
    _Status.kInfeasible: SolveStatus.INFEASIBLE,
    _Status.kModelError: SolveStatus.INFEASIBLE,
    _Status.kUnbounded: SolveStatus.UNBOUNDED,
}
# Limits under which a MIP keeps its incumbent, if it has a finite objective.
_LIMITS = (_Status.kTimeLimit, _Status.kIterationLimit, _Status.kSolutionLimit)


def _lower(model):
    """The model's cost vector and its :class:`HighsLp` (column-wise, the default).

    Rows: the ``<=`` and ``>=`` constraints in model order, ``>=`` negated,
    then the ``==`` ones; zero coefficients are dropped.  Infinite bounds
    pass as IEEE infinity, HiGHS's ``kHighsInf``.
    """
    cost = np.zeros(len(model.variables))
    for var, coeff in model.objective.terms.items():
        cost[var.index] += coeff

    columns = [[] for _ in model.variables]  # (row, value) entries, rows ascending
    row_lower, row_upper = [], []
    # A stable sort: inequalities, then equalities, each in model order.
    for row, constraint in enumerate(sorted(model.constraints, key=lambda c: c.sense is Sense.EQ)):
        sign = -1.0 if constraint.sense is Sense.GE else 1.0
        for var, coeff in constraint.expr.terms.items():
            if coeff != 0:
                columns[var.index].append((row, sign * coeff))
        row_upper.append(sign * constraint.bound)
        row_lower.append(row_upper[-1] if constraint.sense is Sense.EQ else -_core.kHighsInf)
    entries = [entry for column in columns for entry in column]

    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_upper)
    lp.a_matrix_.start_ = np.cumsum([0] + [len(column) for column in columns])
    lp.a_matrix_.index_ = [row for row, _ in entries]
    lp.a_matrix_.value_ = [value for _, value in entries]
    lp.col_cost_ = cost
    lp.col_lower_ = [float(v.lower) for v in model.variables]
    lp.col_upper_ = [float(v.upper) for v in model.variables]
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.integrality_ = [_core.HighsVarType(int(v.kind != VarKind.CONTINUOUS)) for v in model.variables]
    return cost, lp


class ScipyMilpBackend:
    """Exact MILP solver using SciPy's bundled HiGHS, at relative gap 0 (proven optimal).

    A solve stops at :data:`NODE_LIMIT` branch-and-bound nodes, never on the
    clock, so its result depends only on the model.
    """

    def solve(self, model) -> Solution:
        """Solve ``model`` and translate the HiGHS result into a :class:`Solution`."""
        cost, lp = _lower(model)
        is_mip = any(v.kind != VarKind.CONTINUOUS for v in model.variables)
        start = time.perf_counter()
        # HiGHS's presolve ends some small integer programs in "Solve error"
        # (e.g. an infeasible 3-variable box with HiGHS 1.12); the same model
        # solves cleanly without presolve.
        for presolve in (True, False):
            model_status, x, nodes = self._attempt(lp, is_mip, presolve)
            if model_status in _STATUS:
                break
        elapsed = time.perf_counter() - start

        status = _STATUS.get(model_status, SolveStatus.ERROR)
        if x is None and status in (SolveStatus.OPTIMAL, SolveStatus.LIMIT):
            status = SolveStatus.ERROR
        values, objective = {}, float("nan")
        if x is not None:
            for var, value in zip(model.variables, x):
                values[var] = float(value if var.kind == VarKind.CONTINUOUS else round(value))
            objective = float(cost @ x)
        return Solution(status, objective, values, elapsed, iterations=nodes)

    def _options(self, presolve: bool) -> dict:
        """HiGHS options of one attempt, by name (``None`` leaves the default)."""
        return {
            "log_to_console": False,
            "mip_rel_gap": 0.0,
            "mip_max_nodes": NODE_LIMIT,
            "presolve": None if presolve else "off",
        }

    def _attempt(self, lp, is_mip: bool, presolve: bool):
        """One HiGHS run: ``(model status, x or None, branch-and-bound nodes)``."""
        highs = _core._Highs()
        for name, value in self._options(presolve).items():
            if value is not None and highs.setOptionValue(name, value) != _core.HighsStatus.kOk:
                raise ValueError(f"HiGHS rejected option {name}={value!r}")

        if highs.passModel(lp) == _core.HighsStatus.kError:
            return _Status.kModelError, None, 0
        if highs.run() == _core.HighsStatus.kError:
            return highs.getModelStatus(), None, 0
        model_status, info = highs.getModelStatus(), highs.getInfo()
        if model_status != _Status.kOptimal and not (
            is_mip and model_status in _LIMITS and info.objective_function_value != _core.kHighsInf
        ):
            return model_status, None, 0
        # An LP reports -1 nodes.
        return model_status, np.array(highs.getSolution().col_value), max(info.mip_node_count, 0)
