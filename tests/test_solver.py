"""Unit and property tests for the MIP solver substrate."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.solver import (
    LinearExpr,
    MIPModel,
    ScipyMilpBackend,
    Sense,
    SolveStatus,
)
from repro.solver import scipy_backend
from repro.solver.expr import Variable, VarKind, lin_sum
from repro.solver.scipy_backend import NODE_LIMIT, _core, _lower


class TestExpressions:
    def test_variable_arithmetic_builds_expressions(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        expr = 2 * x + 3 * y - 1
        assert isinstance(expr, LinearExpr)
        assert expr.coefficient(x) == 2
        assert expr.coefficient(y) == 3
        assert expr.constant == -1

    def test_expression_evaluation(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        expr = x - 2 * y + 5
        assert expr.evaluate({x: 3, y: 1}) == 6

    def test_subtraction_and_negation(self):
        model = MIPModel()
        x = model.add_continuous("x")
        expr = 10 - x
        assert expr.coefficient(x) == -1
        assert (-x).coefficient(x) == -1

    def test_lin_sum_merges_terms(self):
        model = MIPModel()
        xs = [model.add_binary(f"x{i}") for i in range(5)]
        expr = lin_sum(x * 2 for x in xs)
        assert all(expr.coefficient(x) == 2 for x in xs)
        assert lin_sum([]).constant == 0

    def test_comparison_creates_constraints(self):
        model = MIPModel()
        x = model.add_continuous("x")
        constraint = x <= 5
        assert constraint.sense is Sense.LE
        assert constraint.bound == 5

    def test_invalid_scaling(self):
        model = MIPModel()
        x, y = model.add_continuous("x"), model.add_continuous("y")
        with pytest.raises(TypeError):
            _ = x.to_expr() * y.to_expr()

    def test_variable_validation(self):
        with pytest.raises(ValueError):
            Variable("bad", kind="mystery")
        with pytest.raises(ValueError):
            Variable("bad", lower=2, upper=1)

    def test_binary_bounds_are_forced(self):
        var = Variable("b", kind="binary", lower=-3, upper=7)
        assert (var.lower, var.upper) == (0.0, 1.0)


class TestModel:
    def test_counts(self):
        model = MIPModel("m")
        x = model.add_binary("x")
        y = model.add_integer("y", upper=4)
        model.add_constraint(x + y <= 4)
        model.set_objective(-x - y)
        assert model.num_variables == 2
        assert model.num_constraints == 1

    def test_add_constraint_rejects_booleans(self):
        model = MIPModel()
        model.add_binary("x")
        with pytest.raises(TypeError):
            model.add_constraint(True)

    def test_lowering_row_order_and_signs(self):
        """Rows reach HiGHS as scipy.optimize.milp lays them out: the <= and
        >= rows in model order (>= negated), then the == rows."""
        model = MIPModel()
        x, y, z = model.add_continuous("x"), model.add_integer("y"), model.add_binary("z")
        model.add_constraint(x + y <= 4)  # row 0
        model.add_constraint(x + 2 * y == 3)  # row 3
        model.add_constraint(x - y + 0 * z >= 1)  # row 1, negated; 0*z dropped
        model.add_constraint(3 * z <= 5 + x)  # row 2
        model.set_objective(z - 2 * x)
        cost, lp = _lower(model)
        matrix = lp.a_matrix_
        assert (lp.num_col_, lp.num_row_) == (3, 4)
        assert matrix.format_ == _core.MatrixFormat.kColwise
        assert list(matrix.start_) == [0, 4, 7, 8]
        assert list(matrix.index_) == [0, 1, 2, 3, 0, 1, 3, 2]
        assert list(matrix.value_) == [1, -1, -1, 1, 1, 1, 2, 3]
        assert list(lp.row_lower_) == [-_core.kHighsInf] * 3 + [3]
        assert list(lp.row_upper_) == [4, -1, 5, 3]
        assert list(cost) == list(lp.col_cost_) == [-2, 0, 1]
        assert list(lp.col_lower_) == [0, 0, 0]
        assert list(lp.col_upper_) == [_core.kHighsInf, _core.kHighsInf, 1]
        assert list(lp.integrality_) == [
            _core.HighsVarType.kContinuous,
            _core.HighsVarType.kInteger,
            _core.HighsVarType.kInteger,
        ]

    def test_constraint_satisfaction_helper(self):
        model = MIPModel()
        x = model.add_continuous("x")
        constraint = x >= 2
        assert constraint.satisfied_by({x: 3})
        assert not constraint.satisfied_by({x: 1})


def _solve_with(backend, build):
    model = MIPModel()
    handles = build(model)
    solution = model.solve(backend)
    return model, handles, solution


def enumerated_optimum(model):
    """Best objective over every point of the model's integer boxes.

    The exhaustive answer HiGHS is checked against: ``itertools.product``
    of each variable's ``range(lower, upper + 1)``, keeping the points that
    satisfy every constraint.  ``None`` when no point is feasible.
    """
    boxes = []
    for var in model.variables:
        assert var.kind != VarKind.CONTINUOUS and math.isfinite(var.upper), var.name
        boxes.append(range(int(var.lower), int(var.upper) + 1))
    best = None
    for point in itertools.product(*boxes):
        values = dict(zip(model.variables, point))
        if all(constraint.satisfied_by(values) for constraint in model.constraints):
            objective = model.objective.evaluate(values)
            if best is None or objective < best:
                best = objective
    return best


def assert_highs_matches_enumeration(build):
    model, _, solution = _solve_with(ScipyMilpBackend(), build)
    optimum = enumerated_optimum(model)
    if optimum is None:
        assert solution.status is SolveStatus.INFEASIBLE
    else:
        assert solution.is_optimal
        assert solution.objective == pytest.approx(optimum)
    return optimum


def _knapsack(model):
    """0/1 knapsack with known optimum value 11 (items 1 and 2), minimised as -11."""
    values = [6, 5, 6, 1]
    weights = [4, 3, 3, 1]
    xs = [model.add_binary(f"x{i}") for i in range(4)]
    model.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= 6)
    model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
    return xs


def _infeasible(model):
    x = model.add_binary("x")
    model.add_constraint(x >= 2)
    model.set_objective(x.to_expr())
    return x


def _equality(model):
    x = model.add_integer("x", upper=10)
    y = model.add_integer("y", upper=10)
    model.add_constraint(x + y == 7)
    model.add_constraint(x - y <= 1)
    model.set_objective(-x)
    return x, y


ASSIGNMENT_COST = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]


def _assignment(model):
    """3x3 assignment with a unique optimum."""
    x = {(i, j): model.add_binary(f"x_{i}{j}") for i in range(3) for j in range(3)}
    for i in range(3):
        model.add_constraint(lin_sum(x[i, j] for j in range(3)) == 1)
    for j in range(3):
        model.add_constraint(lin_sum(x[i, j] for i in range(3)) == 1)
    model.set_objective(
        lin_sum(ASSIGNMENT_COST[i][j] * x[i, j] for i in range(3) for j in range(3))
    )
    return x


@pytest.mark.parametrize("backend", [ScipyMilpBackend()], ids=["scipy-highs"])
class TestBackends:
    def test_knapsack_optimum(self, backend):
        _, xs, solution = _solve_with(backend, _knapsack)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-11)
        chosen = [i for i, x in enumerate(xs) if solution.rounded(x) == 1]
        assert chosen == [1, 2]

    def test_pure_lp(self, backend):
        def build(model):
            x = model.add_continuous("x", upper=10)
            y = model.add_continuous("y", upper=10)
            model.add_constraint(x + y <= 7)
            model.set_objective(-2 * x - 3 * y)
            return x, y

        _, (x, y), solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-21)
        assert solution.value(y) == pytest.approx(7)

    def test_infeasible_detected(self, backend):
        _, _, solution = _solve_with(backend, _infeasible)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self, backend):
        _, (x, y), solution = _solve_with(backend, _equality)
        assert solution.is_optimal
        assert solution.rounded(x) + solution.rounded(y) == 7
        assert solution.rounded(x) == 4

    def test_assignment_problem(self, backend):
        _, x, solution = _solve_with(backend, _assignment)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5)
        assignment = {i: j for (i, j), var in x.items() if solution.rounded(var) == 1}
        assert assignment == {0: 1, 1: 0, 2: 2}

    def test_mixed_integer_continuous(self, backend):
        def build(model):
            x = model.add_integer("x", upper=5)
            y = model.add_continuous("y", upper=5)
            model.add_constraint(x + y <= 4.5)
            model.set_objective(-3 * x - 2 * y)
            return x, y

        _, (x, y), solution = _solve_with(backend, build)
        assert solution.is_optimal
        assert solution.rounded(x) == 4
        assert solution.value(y) == pytest.approx(0.5)
        assert solution.objective == pytest.approx(-13)

    def test_solution_reports_all_constraints_satisfied(self, backend):
        model, _, solution = _solve_with(backend, _knapsack)
        assert all(c.satisfied_by(solution.values) for c in model.constraints)


class TestBackendAgreement:
    """HiGHS must return the optimum that exhaustive enumeration finds."""

    @pytest.mark.parametrize(
        "build, optimum",
        [(_knapsack, -11), (_infeasible, None), (_equality, -4), (_assignment, 5)],
        ids=["knapsack", "infeasible", "equality", "assignment"],
    )
    def test_hand_built_programs_agree(self, build, optimum):
        assert assert_highs_matches_enumeration(build) == optimum

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_knapsacks_agree(self, seed):
        rng = random.Random(seed)
        num_items = rng.randint(3, 8)
        values = [rng.randint(1, 20) for _ in range(num_items)]
        weights = [rng.randint(1, 10) for _ in range(num_items)]
        capacity = max(1, sum(weights) // 2)

        def build(model):
            xs = [model.add_binary(f"x{i}") for i in range(num_items)]
            model.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= capacity)
            model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
            return xs

        assert assert_highs_matches_enumeration(build) is not None

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_covering_problems_agree(self, seed):
        rng = random.Random(seed)
        num_vars, num_sets = rng.randint(4, 7), rng.randint(3, 6)
        membership = [
            [rng.random() < 0.5 for _ in range(num_vars)] for _ in range(num_sets)
        ]
        # Guarantee feasibility: every constraint covers at least one variable.
        for row in membership:
            if not any(row):
                row[rng.randrange(num_vars)] = True
        costs = [rng.randint(1, 5) for _ in range(num_vars)]

        def build(model):
            xs = [model.add_binary(f"x{i}") for i in range(num_vars)]
            for row in membership:
                model.add_constraint(lin_sum(x for x, used in zip(xs, row) if used) >= 1)
            model.set_objective(lin_sum(c * x for c, x in zip(costs, xs)))
            return xs

        assert assert_highs_matches_enumeration(build) is not None

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(seed=1302)  # HiGHS presolve reports "Solve error" on this one
    def test_random_integer_boxes_agree(self, seed):
        """General integers with mixed-sign rows of every sense; some are
        infeasible, which HiGHS must report too."""
        rng = random.Random(seed)
        num_vars = rng.randint(2, 4)
        uppers = [rng.randint(1, 5) for _ in range(num_vars)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            coefficients = [rng.randint(-4, 6) for _ in range(num_vars)]
            rows.append((coefficients, rng.choice(("<=", ">=", "==")), rng.randint(0, 12)))
        costs = [rng.randint(-5, 5) for _ in range(num_vars)]
        # Half the programs maximise: they minimise the negated costs.
        if rng.random() >= 0.5:
            costs = [-c for c in costs]

        def build(model):
            xs = [model.add_integer(f"x{i}", upper=u) for i, u in enumerate(uppers)]
            for coefficients, sense, rhs in rows:
                expr = lin_sum(a * x for a, x in zip(coefficients, xs))
                if sense == "<=":
                    model.add_constraint(expr <= rhs)
                elif sense == ">=":
                    model.add_constraint(expr >= rhs)
                else:
                    model.add_constraint(expr == rhs)
            model.set_objective(lin_sum(c * x for c, x in zip(costs, xs)))
            return xs

        assert_highs_matches_enumeration(build)


class TestDefaultBackend:
    def test_model_solve_uses_default_backend(self):
        model = MIPModel()
        x = model.add_binary("x")
        model.set_objective(-x)
        solution = model.solve()
        assert solution.is_optimal
        assert solution.rounded(x) == 1

    def test_default_cosa_backend_caps_nodes_and_not_time(self):
        from repro.arch import simba_like
        from repro.core import CoSAScheduler

        backend = CoSAScheduler(simba_like()).backend
        assert type(backend) is ScipyMilpBackend and vars(backend) == {}
        for presolve in (True, False):
            options = backend._options(presolve)
            assert options["mip_max_nodes"] == NODE_LIMIT
            assert "time_limit" not in options


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestHighsCore:
    """The backend drives SciPy's private ``_core`` extension directly, so a
    SciPy release that moves or renames any part of it must fail here."""

    def test_core_is_loaded_under_its_canonical_name(self):
        assert _core.__name__ == "scipy.optimize._highspy._core"
        assert sys.modules[_core.__name__] is _core

    def test_every_name_the_backend_uses_exists(self):
        for name in ("_Highs", "HighsLp", "HighsVarType", "MatrixFormat",
                     "HighsModelStatus", "HighsStatus", "kHighsInf"):
            assert hasattr(_core, name), name
        for name in ("setOptionValue", "passModel", "run", "getModelStatus",
                     "getInfo", "getSolution", "version"):
            assert callable(getattr(_core._Highs, name, None)), name
        for name in ("kOptimal", "kTimeLimit", "kIterationLimit", "kSolutionLimit",
                     "kInfeasible", "kModelError", "kUnbounded"):
            assert hasattr(_core.HighsModelStatus, name), name
        assert hasattr(_core.HighsVarType, "kContinuous")
        assert hasattr(_core.HighsVarType, "kInteger")
        assert hasattr(_core.MatrixFormat, "kColwise")
        assert hasattr(_core.HighsStatus, "kOk") and hasattr(_core.HighsStatus, "kError")
        info = _core.HighsInfo()
        assert hasattr(info, "objective_function_value") and hasattr(info, "mip_node_count")
        matrix = _core.HighsLp().a_matrix_
        for name in ("num_col_", "num_row_", "format_", "start_", "index_", "value_"):
            assert hasattr(matrix, name), name
        assert _core.kHighsInf == math.inf

    def test_cosa_run_does_not_import_scipy_optimize(self):
        out = _run_python("""
            import sys
            from repro.api import RunSpec, run
            spec = RunSpec.from_dict({
                "kind": "schedule",
                "scheduler": "cosa",
                "workload": {"layers": ["1_1_4_4_1"]},
            })
            result = run(spec)
            assert result.succeeded, result.data
            print("scipy.optimize" in sys.modules)
        """)
        assert out.split() == ["False"]

    @pytest.mark.parametrize("backend_first", [True, False], ids=["backend-first", "scipy-first"])
    def test_one_core_module_in_either_import_order(self, backend_first):
        load_backend = "from repro.solver.scipy_backend import ScipyMilpBackend, _core"
        load_scipy = "from scipy.optimize import milp; from scipy.optimize._highspy import _core as scipy_core"
        first, second = (load_backend, load_scipy) if backend_first else (load_scipy, load_backend)
        out = _run_python(f"""
            import sys
            {first}
            {second}
            import numpy as np
            from repro.solver import MIPModel
            model = MIPModel()
            x = model.add_integer("x", upper=3)
            model.add_constraint(x <= 2)
            model.set_objective(-x)
            ours = model.solve(ScipyMilpBackend())
            theirs = milp(c=[-1.0], integrality=[1], bounds=(0, 3),
                          constraints=(np.array([[1.0]]), -np.inf, 2.0))
            print(_core is scipy_core is sys.modules["scipy.optimize._highspy._core"],
                  ours.objective, theirs.fun)
        """)
        assert out.split() == ["True", "-2.0", "-2.0"]


class _CountingBackend(ScipyMilpBackend):
    """HiGHS, counting its attempts."""

    def __init__(self):
        self.attempts = 0

    def _attempt(self, lp, is_mip: bool, presolve: bool):
        self.attempts += 1
        return super()._attempt(lp, is_mip, presolve)


class TestLimitStatuses:
    def test_node_capped_solve_keeps_its_incumbent_after_one_attempt(self, monkeypatch):
        from repro.arch import simba_like
        from repro.core.formulation import CoSAFormulation
        from repro.workloads import layer_from_name

        # A layer whose gap-0 solve branches (44 nodes uncapped), so one
        # node cannot close it.
        formulation = CoSAFormulation(layer_from_name("3_28_128_128_2"), simba_like())
        monkeypatch.setattr(scipy_backend, "NODE_LIMIT", 1)
        backend = _CountingBackend()
        solution = formulation.solve(backend)
        # HiGHS reports the reached node cap as kSolutionLimit: a limit that
        # keeps its incumbent, not a failure retried without presolve.
        assert backend.attempts == 1
        assert solution.status is SolveStatus.LIMIT
        assert math.isfinite(solution.objective)
        assert solution.values
        formulation.decode(solution).validate_against_layer()
