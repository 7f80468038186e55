"""Timeloop-Hybrid-style mapper.

Re-implements the search strategy of Timeloop's hybrid mapper as described in
Sec. IV-B of the paper: every (simulated) thread repeatedly

1. draws a **random tiling factorisation** (including the spatial split),
2. **prunes superfluous permutations** — only the relative order of the
   NoC-facing loops materially changes the cost, and loops over the same
   dimension are merged before permuting,
3. **linearly explores** the pruned permutation subspace, evaluating each
   valid mapping with the analytical cost model,

and self-terminates after a run of ``termination_condition`` consecutive
valid-yet-suboptimal mappings.  The best mapping over all threads is
returned.

Bases and their permutations stay per-level ``(dim, bound)`` loop lists, the
form :meth:`~repro.mapping.space.MapSpace.sample_batch` draws; the sweeps of
up to :data:`BASES_PER_BATCH` bases are scored as one
:class:`~repro.mapping.space.MappingDraws`, and only the winner is
materialized as a :class:`~repro.mapping.mapping.Mapping`.

The paper runs 32 threads with a 500-mapping termination window, visiting
67 M samples and 16 K+ valid mappings per layer; the defaults here are scaled
down so a full four-network sweep stays practical in pure Python (see
:class:`TimeloopHybridScheduler` for the paper's numbers).
"""

from __future__ import annotations

import random
import time
from itertools import islice, permutations

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.space import DrawnLoop, DrawnMapping, MappingDraws, MapSpace
from repro.workloads.problem import ProblemLayer

#: Factorisations a search thread draws, with their permutation sweeps,
#: before scoring them together: each batched cost-model call carries a
#: fixed cost that one sweep of a few candidates does not amortise.
BASES_PER_BATCH = 8

#: Cap on permutations explored per factorisation (pruning).
MAX_PERMUTATIONS = 24


class TimeloopHybridScheduler(SearchScheduler):
    """Random-factorisation + pruned-permutation search (Timeloop hybrid mapper).

    The paper's budget is 32 threads, a 500-mapping termination window, 64
    permutations per factorisation and 20,000 evaluations per layer; the
    defaults are scaled down, and :data:`MAX_PERMUTATIONS` is fixed at 24.

    Parameters
    ----------
    accelerator:
        Target architecture.
    num_threads:
        Independent search threads (executed sequentially, like the paper's
        32-thread mapper but scaled down by default).
    termination_condition:
        A thread stops after this many consecutive valid mappings that did
        not improve its best.
    max_evaluations:
        Global cap on valid-mapping evaluations per layer (safety budget).
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed for the random factorisations.
    time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  The pruned
        permutation sweeps of up to :data:`BASES_PER_BATCH` factorisations
        are scored as one batch; the budget is checked once per drawn
        factorisation.  How many factorisations a budget buys
        depends on machine speed, so budget-capped outcomes are
        time-dependent.
    """

    name = "timeloop-hybrid"

    def __init__(
        self,
        accelerator: Accelerator,
        num_threads: int = 4,
        termination_condition: int = 96,
        max_evaluations: int = 3000,
        metric: str = "latency",
        seed: int = 0,
        time_budget_seconds: float | None = None,
    ):
        super().__init__(accelerator, metric, time_budget_seconds=time_budget_seconds)
        self.num_threads = num_threads
        self.termination_condition = termination_condition
        self.max_evaluations = max_evaluations
        self.seed = seed

    def _config(self) -> dict:
        return {
            **super()._config(),
            "num_threads": self.num_threads,
            "termination_condition": self.termination_condition,
            # The constant stays in the fingerprint so stored layer entries keep serving.
            "max_permutations": MAX_PERMUTATIONS,
            "max_evaluations": self.max_evaluations,
            "seed": self.seed,
        }

    # ----------------------------------------------------------------- search
    def schedule(self, layer: ProblemLayer) -> SearchResult:
        """Run the hybrid search for ``layer`` and return the best mapping found."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        space = MapSpace(layer, self.accelerator)
        noc_level = self.accelerator.pe_level_index()

        best: tuple[MappingDraws, int] | None = None
        best_score = float("inf")
        sampled = 0
        evaluated = 0

        for thread in range(self.num_threads):
            if self._out_of_time(deadline):
                break
            rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name, thread))
            consecutive_suboptimal = 0
            thread_best = float("inf")
            while (
                consecutive_suboptimal < self.termination_condition
                and evaluated < self.max_evaluations
                and not self._out_of_time(deadline)
            ):
                # Draw several bases and their sweeps in the order a
                # one-base-at-a-time search would, score them in one batch,
                # then replay the bookkeeping up to where that search stops.
                batch = MappingDraws(layer=layer, num_levels=space.num_levels)
                sweep_sizes = []
                for _ in range(BASES_PER_BATCH):
                    if sweep_sizes and self._out_of_time(deadline):
                        break
                    drawn = space.sample_batch(1, rng)
                    base = drawn.temporal[0], drawn.spatial[0]
                    sweep = self._permutation_sweep(base, noc_level, rng)
                    for temporal, spatial in sweep:
                        batch.temporal.append(temporal)
                        batch.spatial.append(spatial)
                    sweep_sizes.append(len(sweep))
                valid, scores = self._score_draws(batch)
                offset = 0
                for sweep_size in sweep_sizes:
                    if (
                        consecutive_suboptimal >= self.termination_condition
                        or evaluated >= self.max_evaluations
                    ):
                        break
                    sampled += 1
                    for index in range(offset, offset + sweep_size):
                        sampled += 1
                        if not valid[index]:
                            continue
                        evaluated += 1
                        score = float(scores[index])
                        if score < thread_best:
                            thread_best = score
                            consecutive_suboptimal = 0
                        else:
                            consecutive_suboptimal += 1
                        if score < best_score:
                            best, best_score = (batch, index), score
                        if (
                            consecutive_suboptimal >= self.termination_condition
                            or evaluated >= self.max_evaluations
                        ):
                            break
                    offset += sweep_size

        best_mapping = best[0].materialize(best[1]) if best is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=sampled,
            num_evaluated=evaluated,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------ permutations
    def _permutation_sweep(self, base: DrawnMapping, noc_level: int, rng: random.Random) -> list:
        """The base candidate under every (pruned) NoC-level loop permutation."""
        merged = self._merged_outer_loops(base, noc_level)
        if len(merged) <= 1:
            return [base]
        orders = list(islice(permutations(merged), MAX_PERMUTATIONS * 4))
        rng.shuffle(orders)
        return [
            self._with_outer_order(base, noc_level, order) for order in orders[:MAX_PERMUTATIONS]
        ]

    @staticmethod
    def _merged_outer_loops(candidate: DrawnMapping, noc_level: int) -> list[DrawnLoop]:
        """NoC-level temporal loops merged per dimension (permutation pruning)."""
        merged: dict[str, int] = {}
        for dim, bound in candidate[0][noc_level]:
            merged[dim] = merged.get(dim, 1) * bound
        return [(dim, bound) for dim, bound in merged.items() if bound > 1]

    @staticmethod
    def _with_outer_order(candidate: DrawnMapping, noc_level: int, order) -> DrawnMapping:
        """Copy of ``candidate`` with the NoC-level temporal loops replaced by ``order``."""
        temporal, spatial = candidate
        temporal = list(temporal)
        temporal[noc_level] = list(order)
        return temporal, spatial
