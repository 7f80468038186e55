"""TVM-like iterative tuner (baseline of the GPU experiment, Sec. V-D).

The paper compares CoSA-GPU against TVM's XGBoost tuner running 50
measurement trials per layer.  Hardware measurements are unavailable here
(documented substitution), so both sides are evaluated on the same
analytical cost model; this tuner reproduces the *search behaviour* of a
feedback-driven autotuner: it alternates exploration (random candidates)
with exploitation (mutations of the best schedules found so far), spending a
fixed number of "measurement" trials, each of which evaluates a small batch
of candidates.

Candidates stay per-level ``(dim, bound)`` loop lists, the form
:meth:`~repro.mapping.space.MapSpace.sample_batch` draws: mutations copy and
edit the lists, each trial's batch is scored as one
:class:`~repro.mapping.space.MappingDraws`, and only the winner is
materialized as a :class:`~repro.mapping.mapping.Mapping`.
"""

from __future__ import annotations

import random
import time

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.space import DrawnMapping, MappingDraws, MapSpace
from repro.workloads.problem import ProblemLayer
from repro.workloads.prime import factorize

#: Fraction of each batch drawn at random instead of mutated from the
#: incumbent population.
EXPLORATION = 0.3


class TVMLikeTuner(SearchScheduler):
    """Feedback-driven autotuner in the style of AutoTVM.

    Parameters
    ----------
    accelerator:
        Target (typically the GPU-as-accelerator description).
    trials:
        Number of measurement trials (50 in the paper's TVM baseline).
    batch_size:
        Candidates evaluated per trial.  Each trial's batch is scored in one
        :class:`~repro.model.batch.BatchCostModel` pass.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base random seed.
    time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.  The budget is
        checked once per trial; the number of trials it buys depends on
        machine speed, so budget-capped outcomes are time-dependent.
    """

    name = "tvm-like"

    def __init__(
        self,
        accelerator: Accelerator,
        trials: int = 50,
        batch_size: int = 8,
        metric: str = "latency",
        seed: int = 0,
        time_budget_seconds: float | None = None,
    ):
        super().__init__(accelerator, metric, time_budget_seconds=time_budget_seconds)
        if trials < 1 or batch_size < 1:
            raise ValueError("trials and batch_size must be positive")
        self.trials = trials
        self.batch_size = batch_size
        self.seed = seed

    def _config(self) -> dict:
        return {
            **super()._config(),
            "trials": self.trials,
            "batch_size": self.batch_size,
            # The constant stays in the fingerprint so stored layer entries keep serving.
            "exploration": EXPLORATION,
            "seed": self.seed,
        }

    def schedule(self, layer: ProblemLayer) -> SearchResult:
        """Tune ``layer`` for ``trials`` measurement rounds and return the best mapping."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)

        population: list[tuple[float, DrawnMapping]] = []
        best: tuple[MappingDraws, int] | None = None
        best_score = float("inf")
        sampled = 0
        evaluated = 0

        for _ in range(self.trials):
            if self._out_of_time(deadline):
                break
            batch = MappingDraws(layer=layer, num_levels=space.num_levels)
            for _ in range(self.batch_size):
                if population and rng.random() > EXPLORATION:
                    _, parent = population[rng.randrange(min(len(population), 4))]
                    temporal, spatial = self._mutate(parent, rng)
                else:
                    drawn = space.sample_batch(1, rng)
                    temporal, spatial = drawn.temporal[0], drawn.spatial[0]
                batch.temporal.append(temporal)
                batch.spatial.append(spatial)
            valid, scores = self._score_draws(batch)
            for index, (ok, score) in enumerate(zip(valid, scores)):
                sampled += 1
                if not ok:
                    continue
                evaluated += 1
                score = float(score)
                population.append((score, (batch.temporal[index], batch.spatial[index])))
                if score < best_score:
                    best, best_score = (batch, index), score
            population.sort(key=lambda item: item[0])
            del population[16:]

        best_mapping = best[0].materialize(best[1]) if best is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=sampled,
            num_evaluated=evaluated,
            elapsed_seconds=time.perf_counter() - start,
        )

    # ---------------------------------------------------------------- mutation
    def _mutate(self, candidate: DrawnMapping, rng: random.Random) -> DrawnMapping:
        """Local perturbation: move one prime factor to a different level or
        shuffle one level's loop order."""
        if rng.random() < 0.5:
            return self._shuffle_level(candidate, rng)
        return self._move_factor(candidate, rng)

    @staticmethod
    def _shuffle_level(candidate: DrawnMapping, rng: random.Random) -> DrawnMapping:
        temporal, spatial = candidate
        temporal = [list(loops) for loops in temporal]
        levels = [i for i, loops in enumerate(temporal) if len(loops) > 1]
        if levels:
            rng.shuffle(temporal[rng.choice(levels)])
        return temporal, spatial

    @staticmethod
    def _move_factor(candidate: DrawnMapping, rng: random.Random) -> DrawnMapping:
        temporal, spatial = candidate
        temporal = [list(loops) for loops in temporal]
        sources = [
            (i, j)
            for i, loops in enumerate(temporal)
            for j, (_, bound) in enumerate(loops)
            if bound > 1
        ]
        if not sources:
            return temporal, spatial
        level_index, loop_index = rng.choice(sources)
        dim, bound = temporal[level_index].pop(loop_index)
        # Split off one prime factor of the loop and move it elsewhere.
        moved = rng.choice(factorize(bound))
        remaining = bound // moved
        if remaining > 1:
            temporal[level_index].insert(loop_index, (dim, remaining))
        # The target level may already hold a loop of ``dim``: the two stay
        # separate loops.
        temporal[rng.randrange(len(temporal))].append((dim, moved))
        return temporal, spatial
