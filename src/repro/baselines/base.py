"""Shared machinery of the search-based baseline schedulers.

Besides the classic :class:`SearchResult`, this module hosts the shared
adapter that makes every search baseline satisfy the engine's
:class:`~repro.engine.outcome.Scheduler` protocol: a stable scheduler
``name``, a deterministic :meth:`SearchScheduler.config_fingerprint` (used in
layer-tier keys) and :meth:`SearchScheduler.schedule_outcome`, which
converts the native :class:`SearchResult` into the unified
:class:`~repro.engine.outcome.ScheduleOutcome`.

It also hosts what all search baselines share:

* **Scoring**: a batch of candidates, kept as the per-level loop lists of a
  :class:`~repro.mapping.space.MappingDraws`, is scored in one pass of the
  vectorized :class:`~repro.model.batch.BatchCostModel`, which is
  bit-identical to the scalar :class:`~repro.model.cost.CostModel` oracle
  (the parity suite checks every baseline's winner and counters against a
  loop of scalar evaluations over the same candidates).  A lone candidate
  goes straight to the scalar model, which is faster for a batch of one.
* **Wall-clock budget** (``time_budget_seconds``): the search stops once the
  budget is exhausted, regardless of how many iterations remain, so
  time-to-solution comparisons are apples-to-apples.  A budget-capped
  search stops wherever the clock catches it, which depends on machine
  speed, so with a budget set the budget enters the fingerprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.digest import canonical_json, stable_seed32
from repro.engine.outcome import ScheduleOutcome
from repro.mapping.mapping import Mapping
from repro.mapping.space import MappingDraws
from repro.model.batch import BatchCostModel
from repro.model.cost import CostModel, CostResult
from repro.workloads.problem import ProblemLayer


def stable_layer_seed(*parts) -> int:
    """Deterministic 32-bit seed derived from arbitrary key parts.

    The baselines previously seeded their per-layer RNGs with
    ``hash((seed, layer.canonical_name))``, which changes between processes
    under string-hash randomisation.  A content hash makes per-layer seeds
    reproducible across processes — a prerequisite for the engine's
    guarantee that serial and threaded runs, reruns and separate worker
    processes produce identical mappings.
    """
    return stable_seed32(*parts)


@dataclass
class SearchResult:
    """Outcome of one baseline search on one layer.

    Attributes
    ----------
    mapping:
        Best valid mapping found (``None`` when the search found no valid
        mapping within its budget).
    cost:
        Cost of the best mapping under the optimisation metric's model.
    num_sampled:
        Mappings drawn/generated (the paper's "samples per layer").
    num_evaluated:
        Valid mappings that were fully evaluated (the paper's
        "evaluations per layer").
    elapsed_seconds:
        Wall-clock search time (time-to-solution).
    """

    mapping: Mapping | None
    cost: CostResult | None
    num_sampled: int = 0
    num_evaluated: int = 0
    elapsed_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when a valid mapping was found."""
        return self.mapping is not None and self.cost is not None and self.cost.valid


class SearchScheduler:
    """Base class holding the optimisation metric shared by the baselines.

    Parameters
    ----------
    accelerator:
        Target architecture; both cost models are built for it.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    time_budget_seconds:
        Optional wall-clock budget per layer; the search stops at the first
        check point after the budget expires.  ``None`` means unbounded.
    """

    #: Supported optimisation metrics.
    METRICS = ("latency", "energy", "edp")

    #: Scheduler identifier (subclasses override; used in reports and cache keys).
    name = "search"

    def __init__(
        self,
        accelerator: Accelerator,
        metric: str = "latency",
        time_budget_seconds: float | None = None,
    ):
        if metric not in self.METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {self.METRICS}")
        if time_budget_seconds is not None and time_budget_seconds < 0:
            raise ValueError(f"time_budget_seconds must be >= 0, got {time_budget_seconds}")
        self.accelerator = accelerator
        self.metric = metric
        self.time_budget_seconds = time_budget_seconds
        self._cost_model = CostModel(accelerator)
        self._batch_model = BatchCostModel(accelerator)

    def score(self, cost: CostResult) -> float:
        """Scalar to minimise for a cost result (``inf`` for invalid mappings)."""
        if not cost.valid:
            return float("inf")
        if self.metric == "latency":
            return cost.latency
        if self.metric == "energy":
            return cost.energy
        return cost.edp

    # -------------------------------------------------------------- scoring
    def _score_draws(self, draws: MappingDraws) -> tuple[list[bool], list[float]]:
        """Score a :class:`MappingDraws` chunk: ``(valid, scores)`` lists, in order.

        The vectorized path never materializes :class:`Mapping` objects —
        candidates live as factor matrices; only winners are materialized by
        the caller via :meth:`MappingDraws.materialize`.  A lone candidate
        goes to the scalar model instead, which is faster for a batch of
        one; scores are bit-identical either way.
        """
        if len(draws) == 1:
            cost = self._cost_model.evaluate(draws.materialize(0))
            return [cost.valid], [self.score(cost)]
        result = self._batch_model.evaluate_draws(draws)
        return result.valid.tolist(), result.score(self.metric).tolist()

    # --------------------------------------------------------- wall-clock budget
    def _deadline(self, start: float) -> float | None:
        """Absolute deadline for a search that started at ``start`` (or ``None``)."""
        if self.time_budget_seconds is None:
            return None
        return start + self.time_budget_seconds

    @staticmethod
    def _out_of_time(deadline: float | None) -> bool:
        """True when the wall-clock budget is exhausted."""
        return deadline is not None and time.perf_counter() >= deadline

    # -------------------------------------------------------- engine protocol
    def _config(self) -> dict:
        """Configuration entering the fingerprint (subclasses extend)."""
        config: dict = {"metric": self.metric}
        if self.time_budget_seconds is not None:
            config["time_budget_seconds"] = self.time_budget_seconds
        return config

    def config_fingerprint(self) -> str:
        """Deterministic description of this scheduler's configuration.

        Everything that can change the produced mapping — metric, budgets,
        seeds — must appear here, because the fingerprint keys the layer
        tier (:func:`repro.engine.cache.cache_key`).
        """
        return canonical_json(self._config())

    def schedule_outcome(self, layer: ProblemLayer) -> ScheduleOutcome:
        """Run :meth:`schedule` and report the unified outcome."""
        result = self.schedule(layer)
        mapping = result.mapping if result.succeeded else None
        return ScheduleOutcome(
            layer=layer,
            scheduler=self.name,
            mapping=mapping,
            cost=result.cost if mapping is not None else None,
            wall_time_seconds=result.elapsed_seconds,
            solve_time_seconds=result.elapsed_seconds,
            num_sampled=result.num_sampled,
            num_evaluated=result.num_evaluated,
            detail=result,
        )
