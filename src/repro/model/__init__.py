"""Analytical performance and energy model (the Timeloop substitute).

The paper evaluates schedules on two platforms; the first is Timeloop's
analytical model.  This subpackage re-implements the same style of analysis:

* :mod:`repro.model.nest` — tile sizes, buffer occupancy and data-movement
  counts derived from the loop nest (reuse analysis),
* :mod:`repro.model.performance` — latency under the perfect
  double-buffering assumption (max of compute and per-level memory time),
* :mod:`repro.model.energy` — access-count x energy-per-access accounting,
* :mod:`repro.model.cost` — the :class:`CostModel` facade combining the
  above, used by every scheduler and experiment,
* :mod:`repro.model.batch` — the vectorized evaluator pricing whole
  batches of candidate mappings at once,
* :mod:`repro.model.delta` — incremental (move-based) re-evaluation for the
  local-search scheduler.
"""

from repro.model.nest import NestAnalysis, BoundaryFlow
from repro.model.performance import PerformanceModel, LatencyBreakdown
from repro.model.energy import EnergyModel, EnergyBreakdown
from repro.model.cost import CostModel, CostResult
from repro.model.batch import BatchCostModel, BatchCostResult, MappingBatch
from repro.model.delta import DeltaCostResult, DeltaEvaluator

__all__ = [
    "NestAnalysis",
    "BoundaryFlow",
    "PerformanceModel",
    "LatencyBreakdown",
    "EnergyModel",
    "EnergyBreakdown",
    "CostModel",
    "CostResult",
    "BatchCostModel",
    "BatchCostResult",
    "MappingBatch",
    "DeltaEvaluator",
    "DeltaCostResult",
]
