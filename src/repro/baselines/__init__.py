"""Baseline schedulers the paper compares CoSA against.

* :class:`~repro.baselines.random_search.RandomScheduler` — draws random
  mappings until a handful of valid ones are found and keeps the best
  (the paper's "Random (5x)" baseline),
* :class:`~repro.baselines.timeloop_hybrid.TimeloopHybridScheduler` — a
  re-implementation of Timeloop's hybrid mapper: random tiling
  factorisations, pruned permutation sweeps, per-thread termination after a
  run of valid-but-not-better mappings,
* :class:`~repro.baselines.tvm_like.TVMLikeTuner` — an iterative
  feedback-driven tuner standing in for TVM's XGBoost tuner in the GPU
  experiment (Sec. V-D),
* :class:`~repro.baselines.local_search.LocalSearchScheduler` — move-based
  local search over the map space, pricing each step's candidate moves in
  one batched call and steering through infeasible regions with DDFW-style
  adaptive constraint weights.
"""

from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.baselines.local_search import LocalSearchScheduler
from repro.baselines.random_search import RandomScheduler
from repro.baselines.timeloop_hybrid import TimeloopHybridScheduler
from repro.baselines.tvm_like import TVMLikeTuner

__all__ = [
    "SearchResult",
    "SearchScheduler",
    "stable_layer_seed",
    "RandomScheduler",
    "TimeloopHybridScheduler",
    "TVMLikeTuner",
    "LocalSearchScheduler",
]
