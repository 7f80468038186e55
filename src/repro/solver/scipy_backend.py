"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS)."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.solver.solution import Solution, SolveStatus


class ScipyMilpBackend:
    """Exact MILP solver using SciPy's HiGHS bindings.

    Parameters
    ----------
    time_limit_seconds:
        Optional wall-clock limit handed to HiGHS.
    mip_rel_gap:
        Relative optimality gap at which HiGHS may stop (0 = prove optimal).
    """

    def __init__(self, time_limit_seconds: float | None = None, mip_rel_gap: float = 0.0):
        self.time_limit_seconds = time_limit_seconds
        self.mip_rel_gap = mip_rel_gap

    def solve(self, model) -> Solution:
        """Solve ``model`` and translate the scipy result into a :class:`Solution`."""
        form = model.to_matrix_form()
        constraints = []
        if form.a_ub.shape[0]:
            constraints.append(LinearConstraint(form.a_ub, -np.inf, form.b_ub))
        if form.a_eq.shape[0]:
            constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
        options: dict = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit_seconds is not None:
            options["time_limit"] = self.time_limit_seconds

        start = time.perf_counter()
        # HiGHS's presolve ends some small integer programs in "Solve error"
        # (status 4; e.g. an infeasible 3-variable box with scipy 1.17); the
        # same model solves cleanly without presolve.
        for attempt in (options, {**options, "presolve": False}):
            result = milp(
                c=form.c,
                constraints=constraints or None,
                integrality=form.integrality,
                bounds=Bounds(form.lower, form.upper),
                options=attempt,
            )
            if result.status != 4:
                break
        elapsed = time.perf_counter() - start

        if result.status == 0 and result.x is not None:
            status = SolveStatus.OPTIMAL
        elif result.status == 2:
            status = SolveStatus.INFEASIBLE
        elif result.status == 3:
            status = SolveStatus.UNBOUNDED
        elif result.status == 1 and result.x is not None:
            status = SolveStatus.TIME_LIMIT
        else:
            status = SolveStatus.ERROR

        values = {}
        objective = float("nan")
        if result.x is not None:
            raw = np.asarray(result.x, dtype=float)
            for var, value in zip(form.variables, raw):
                if var.kind != "continuous":
                    value = float(round(value))
                values[var] = float(value)
            objective = float(form.c @ raw)
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solve_time_seconds=elapsed,
            iterations=int(getattr(result, "mip_node_count", 0) or 0),
        )
