"""The unified scheduler contract: the :class:`Scheduler` protocol and the
:class:`ScheduleOutcome` every scheduler reports through.

Historically each scheduler exposed its own result type
(:class:`~repro.core.scheduler.ScheduleResult` for CoSA,
:class:`~repro.baselines.base.SearchResult` for the search baselines,
:class:`~repro.core.gpu.GPUScheduleResult` for the GPU variant), forcing
every consumer — the experiment harness, the CLI, future service frontends —
to special-case all of them.  The engine layer instead talks to schedulers
through two requirements:

* :meth:`Scheduler.schedule_outcome` returns a :class:`ScheduleOutcome`,
* :meth:`Scheduler.config_fingerprint` deterministically identifies the
  scheduler's configuration (used in the layer-tier key, see
  :mod:`repro.engine.cache`).

Both are implemented once per scheduler family: a shared adapter on
:class:`~repro.baselines.base.SearchScheduler` covers Random,
Timeloop-Hybrid and the TVM-like tuner, and :class:`~repro.core.scheduler.CoSAScheduler`
carries its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, runtime_checkable

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import Mapping
from repro.workloads.problem import ProblemLayer


@dataclass
class ScheduleOutcome:
    """Scheduler-agnostic result of scheduling one layer.

    Attributes
    ----------
    layer:
        The scheduled layer.
    scheduler:
        Identifier of the scheduler that produced the mapping (``"cosa"``,
        ``"random"``, ``"timeloop-hybrid"``, ``"tvm-like"``, ...).
    mapping:
        The schedule, or ``None`` when the scheduler found no valid mapping.
    metrics:
        Metric values of the mapping under the analytical cost model
        (``latency`` in cycles, ``energy`` in pJ, ``edp``).  Populated by the
        engine; empty when the mapping is missing or was never evaluated.
    cost:
        The scheduler's own :class:`~repro.model.cost.CostResult` of
        ``mapping``, when it priced it, so the engine fills ``metrics`` from
        it instead of pricing the mapping a second time.  Live only, like
        ``from_cache``.
    wall_time_seconds:
        Time-to-solution of the underlying solve/search.  For layer-tier
        hits this is zero, not the original solve time (which is preserved
        in :attr:`solve_time_seconds`).
    solve_time_seconds:
        Wall time of the original solve that produced the mapping (equal to
        :attr:`wall_time_seconds` unless the outcome came from the store).
    num_sampled / num_evaluated:
        The paper's "samples per layer" / "evaluations per layer" effort
        counters (both 1 for one-shot MIP schedulers).
    from_cache:
        ``True`` when the outcome was served by a result store's layer tier
        (:meth:`~repro.api.store.ResultStore.load_layer`) instead of a fresh
        solve.  Live only: :meth:`to_dict` leaves it out, so an envelope does
        not depend on what the store held.
    detail:
        The scheduler's native result object (``None`` for layer-tier hits).
    """

    layer: ProblemLayer
    scheduler: str
    mapping: Mapping | None
    metrics: dict[str, float] = field(default_factory=dict)
    wall_time_seconds: float = 0.0
    solve_time_seconds: float = 0.0
    num_sampled: int = 0
    num_evaluated: int = 0
    from_cache: bool = False
    cost: Any = None
    detail: Any = None

    @property
    def succeeded(self) -> bool:
        """True when a mapping was produced."""
        return self.mapping is not None

    def with_layer(self, layer: ProblemLayer) -> "ScheduleOutcome":
        """Copy of this outcome re-attached to an equal layer.

        Used when de-duplicated layers fan a single solve back out to every
        duplicate: the duplicates compare equal but may carry different
        display names.  The native ``detail`` result is re-attached too (when
        it is a dataclass with a ``layer`` field) so consumers reading
        ``outcome.detail.layer.name`` see the duplicate, not the solved twin.
        """
        detail = self.detail
        if (
            dataclasses.is_dataclass(detail)
            and not isinstance(detail, type)
            and any(f.name == "layer" for f in dataclasses.fields(detail))
        ):
            detail = dataclasses.replace(detail, layer=layer)
        return replace(self, layer=layer, detail=detail, metrics=dict(self.metrics))

    def to_dict(self) -> dict:
        """JSON-compatible summary (used by the CLI ``--json`` output)."""
        return {
            "layer": self.layer.name or self.layer.canonical_name,
            "scheduler": self.scheduler,
            "succeeded": self.succeeded,
            "mapping": self.mapping.summary() if self.mapping is not None else None,
            "metrics": dict(self.metrics),
            "wall_time_seconds": self.wall_time_seconds,
            "solve_time_seconds": self.solve_time_seconds,
            "num_sampled": self.num_sampled,
            "num_evaluated": self.num_evaluated,
        }


@runtime_checkable
class Scheduler(Protocol):
    """What the :class:`~repro.engine.engine.SchedulingEngine` requires of a scheduler.

    All four shipped schedulers (CoSA, Random, Timeloop-Hybrid, TVM-like)
    satisfy this protocol; any object with the same surface can be driven by
    the engine.
    """

    #: Stable scheduler identifier used in reports and layer-tier keys.
    name: str

    #: Target architecture (the engine evaluates metrics and keys the
    #: layer tier against it).
    accelerator: Accelerator

    def schedule_outcome(self, layer: ProblemLayer) -> ScheduleOutcome:
        """Schedule ``layer`` and report the unified outcome."""
        ...

    def config_fingerprint(self) -> str:
        """Deterministic description of the scheduler's configuration.

        Two scheduler instances with equal fingerprints must produce
        identical mappings for identical layers on identical architectures —
        this string is part of the layer-tier key.
        """
        ...
