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
from repro.solver.solution import Solution, SolveStatus
from repro.workloads.layer import Layer

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
        The decoded schedule (``None`` only if the MIP was infeasible, which
        cannot happen for well-formed architectures — every factor can always
        be placed temporally at the outermost level).
    solution:
        Raw solver solution.
    objective:
        Values of the utilization / compute / traffic objective terms.
    solve_time_seconds:
        Wall-clock time spent building + solving the MIP (the paper's
        time-to-solution metric).
    stats:
        Size of the generated MIP, or ``None`` when no formulation could be
        built (every capacity fraction failed before producing one).
    cost:
        The cost model's result for ``mapping`` (the validity check prices
        it), or ``None`` without a mapping.
    """

    layer: Layer
    mapping: Mapping | None
    solution: Solution
    objective: ObjectiveBreakdown | None
    solve_time_seconds: float
    stats: FormulationStats | None
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
        MIP backend; defaults to scipy's HiGHS MILP solver with a small
        optimality gap and a time limit — CoSA's schedule quality does not
        hinge on proving the last fraction of a percent of optimality, and
        the limit keeps the one-shot property ("seconds per layer") that the
        paper reports for Gurobi.
    capacity_fraction:
        Buffer-capacity derating used inside the MIP (see
        :class:`~repro.core.formulation.CoSAFormulation`).
    """

    #: Scheduler identifier (engine reports and layer-tier keys).
    name = "cosa"

    #: Default per-layer solver budget (seconds).
    DEFAULT_TIME_LIMIT = 20.0
    #: Default relative MIP gap at which the solver may stop.
    DEFAULT_MIP_GAP = 0.02
    #: Default buffer-capacity derating inside the MIP.
    DEFAULT_CAPACITY_FRACTION = 0.8
    #: Successive deratings tried when the decoded mapping overflows a buffer
    #: under the cost model's exact (halo- and sharing-aware) accounting.
    FALLBACK_FRACTIONS = (0.5, 0.3)

    def __init__(
        self,
        accelerator: Accelerator,
        weights: ObjectiveWeights | None = None,
        backend=None,
        capacity_fraction: float | None = None,
    ):
        self.accelerator = accelerator
        self.weights = weights or ObjectiveWeights()
        if backend is None:
            from repro.solver.scipy_backend import ScipyMilpBackend

            backend = ScipyMilpBackend(
                time_limit_seconds=self.DEFAULT_TIME_LIMIT, mip_rel_gap=self.DEFAULT_MIP_GAP
            )
        self.backend = backend
        self.capacity_fraction = (
            self.DEFAULT_CAPACITY_FRACTION if capacity_fraction is None else capacity_fraction
        )

    def schedule(self, layer: Layer) -> ScheduleResult:
        """Produce a schedule for ``layer``.

        Normally this is a single MIP solve.  Because the MIP's log-space
        capacity model slightly under-approximates input halos and
        shared-buffer packing, the decoded mapping is re-validated against
        the exact cost model; in the rare case it overflows a buffer, the MIP
        is re-solved with a tighter capacity derating (still no iterative
        *search* — at most a couple of additional one-shot solves).
        """
        from repro.model.cost import CostModel

        start = time.perf_counter()
        cost_model = CostModel(self.accelerator)
        fractions = (self.capacity_fraction,) + tuple(
            f for f in self.FALLBACK_FRACTIONS if f < self.capacity_fraction
        )

        formulation = None
        solution = None
        mapping = None
        cost = None
        objective = None
        for fraction in fractions:
            formulation = CoSAFormulation(
                layer,
                self.accelerator,
                weights=self.weights,
                capacity_fraction=fraction,
            )
            solution = formulation.solve(self.backend)
            if solution.status not in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT):
                continue
            if not solution.values:
                continue
            candidate = formulation.decode(solution)
            objective = formulation.objective_breakdown(solution)
            mapping = candidate
            cost = cost_model.evaluate(candidate)
            if cost.valid:
                break
        elapsed = time.perf_counter() - start
        return ScheduleResult(
            layer=layer,
            mapping=mapping,
            solution=solution,
            objective=objective,
            solve_time_seconds=elapsed,
            stats=formulation.stats if formulation is not None else None,
            cost=cost,
        )

    # -------------------------------------------------------- engine protocol
    def config_fingerprint(self) -> str:
        """Deterministic configuration description (layer-tier key part).

        The backend enters with its class name and every scalar attribute it
        carries (time limits, gaps, node budgets, ...), so two schedulers
        with differently-budgeted backends never share a cache key.
        """
        backend_config = {
            name: value
            for name, value in sorted(vars(self.backend).items())
            if isinstance(value, (bool, int, float, str, type(None)))
        }
        config = {
            "weights": {
                "utilization": self.weights.utilization,
                "compute": self.weights.compute,
                "traffic": self.weights.traffic,
            },
            "capacity_fraction": self.capacity_fraction,
            "fallback_fractions": list(self.FALLBACK_FRACTIONS),
            "backend": type(self.backend).__name__,
            "backend_config": backend_config,
        }
        return canonical_json(config)

    def schedule_outcome(self, layer: Layer) -> ScheduleOutcome:
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
