"""The public CoSA scheduler API.

:class:`CoSAScheduler` generates one schedule per layer in a single MIP
solve — no iterative search, no simulation feedback — exactly the
"one-shot" property the paper highlights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.accelerator import Accelerator
from repro.core.formulation import CoSAFormulation, FormulationStats
from repro.core.objectives import ObjectiveBreakdown, ObjectiveWeights
from repro.digest import canonical_json
from repro.engine.outcome import ScheduleOutcome
from repro.mapping.mapping import Mapping
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.solution import Solution, SolveStatus
from repro.workloads.problem import ProblemLayer

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.cost import CostResult


@dataclass
class ScheduleResult:
    """Outcome of scheduling one layer with CoSA.

    Attributes
    ----------
    layer:
        The scheduled layer.
    mapping:
        The decoded schedule (``None`` when the solver found none).
    solution:
        Raw solver solution.
    objective:
        Values of the utilization / compute / traffic objective terms.
    solve_time_seconds:
        Wall-clock time spent building + solving the MIP (the paper's
        time-to-solution metric).
    stats:
        Size of the generated MIP.
    cost:
        The cost model's result for ``mapping`` (the validity check prices
        it), or ``None`` without a mapping.
    """

    layer: ProblemLayer
    mapping: Mapping | None
    solution: Solution
    objective: ObjectiveBreakdown | None
    solve_time_seconds: float
    stats: FormulationStats
    cost: CostResult | None = None

    @property
    def succeeded(self) -> bool:
        """True when a schedule was produced."""
        return self.mapping is not None


class CoSAScheduler:
    """Constrained-optimization scheduler for spatial DNN accelerators.

    Parameters
    ----------
    accelerator:
        Target architecture.
    weights:
        Objective weights (Eq. 12); the defaults work well for the baseline
        architecture and can be re-calibrated per architecture as the paper
        does with micro-benchmarks.
    backend:
        MIP backend; defaults to scipy's HiGHS MILP solver, run to proven
        optimality (gap 0) under a branch-and-bound node cap
        (:data:`~repro.solver.scipy_backend.NODE_LIMIT`), never a clock.  A
        schedule is then the objective's optimum and depends only on the
        layer, the architecture and the weights, not on host speed.
    capacity_fraction:
        Derating of the per-tensor shares of shared buffers inside the MIP
        (see :class:`~repro.core.formulation.CoSAFormulation`).
    """

    #: Scheduler identifier (engine reports and layer-tier keys).
    name = "cosa"

    #: Default derating of the per-tensor shares of shared buffers.
    DEFAULT_CAPACITY_FRACTION = 0.8

    def __init__(
        self,
        accelerator: Accelerator,
        weights: ObjectiveWeights | None = None,
        backend=None,
        capacity_fraction: float = DEFAULT_CAPACITY_FRACTION,
    ):
        self.accelerator = accelerator
        self.weights = weights or ObjectiveWeights()
        self.backend = backend or ScipyMilpBackend()
        self.capacity_fraction = capacity_fraction

    def schedule(self, layer: ProblemLayer) -> ScheduleResult:
        """Produce a schedule for ``layer`` with one MIP solve.

        The capacity rows bound the cost model's footprints, so a decoded
        mapping the model rejects is a formulation defect: it raises
        ``RuntimeError`` naming the layer.
        """
        from repro.model.cost import CostModel

        start = time.perf_counter()
        formulation = CoSAFormulation(
            layer,
            self.accelerator,
            weights=self.weights,
            capacity_fraction=self.capacity_fraction,
        )
        solution = formulation.solve(self.backend)
        mapping = objective = cost = None
        if solution.status in (SolveStatus.OPTIMAL, SolveStatus.LIMIT) and solution.values:
            mapping = formulation.decode(solution)
            objective = formulation.objective_breakdown(solution)
            cost = CostModel(self.accelerator).evaluate(mapping)
            if not cost.valid:
                raise RuntimeError(
                    f"CoSA's mapping of layer {layer.name or layer.canonical_name} on "
                    f"{self.accelerator.name} is invalid: {'; '.join(cost.violations)}"
                )
        return ScheduleResult(
            layer=layer,
            mapping=mapping,
            solution=solution,
            objective=objective,
            solve_time_seconds=time.perf_counter() - start,
            stats=formulation.stats,
            cost=cost,
        )

    # -------------------------------------------------------- engine protocol
    def config_fingerprint(self) -> str:
        """Deterministic configuration description (layer-tier key part).

        The backend enters by class name; it carries no settings, and a change
        to its constants that moves a result bumps ``RESULTS_VERSION``.
        """
        config = {
            "weights": {
                "utilization": self.weights.utilization,
                "compute": self.weights.compute,
                "traffic": self.weights.traffic,
            },
            "capacity_fraction": self.capacity_fraction,
            "backend": type(self.backend).__name__,
        }
        return canonical_json(config)

    def schedule_outcome(self, layer: ProblemLayer) -> ScheduleOutcome:
        """Run :meth:`schedule` and report the unified engine outcome."""
        result = self.schedule(layer)
        return ScheduleOutcome(
            layer=layer,
            scheduler=self.name,
            mapping=result.mapping,
            cost=result.cost,
            wall_time_seconds=result.solve_time_seconds,
            solve_time_seconds=result.solve_time_seconds,
            num_sampled=1,
            num_evaluated=1,
            detail=result,
        )
