"""Scalar reference searches for the outcome-parity tests.

The search baselines score their candidates in vectorized batches.
:func:`scalar_reference` derives, from a baseline class, a variant that
scores the same candidate stream with a plain loop of
:meth:`~repro.model.cost.CostModel.evaluate` calls, one candidate at a
time; local search's seed batches and neighbourhoods go through the
pure-Python delta evaluator one state at a time.  A baseline and its
reference must agree on the winner and on every counter.

:class:`SequentialTimeloopHybrid` is the Timeloop-Hybrid search as it ran
before it scored several factorisations per batch: one base and its
permutation sweep per scoring call.  :class:`SequentialLocalSearch` is the
local search as it ran before it priced plateau steps ahead: one step's
neighbourhood per pricing call.
"""

import math
import random
import time

from repro.baselines.base import SearchResult, stable_layer_seed
from repro.baselines.local_search import (
    CONSTRAINT_GROUPS,
    MOVES_PER_STEP,
    PERTURBATION,
    RESTART_AFTER,
    LocalSearchScheduler,
    _Priced,
)
from repro.baselines.timeloop_hybrid import TimeloopHybridScheduler
from repro.mapping import MapSpace, MappingDraws, mapping_to_dict
from repro.mapping.moves import MappingState
from repro.model.cost import CostModel
from repro.model.delta import DeltaEvaluator


def scalar_reference(scheduler_class):
    """Subclass of ``scheduler_class`` that scores with a scalar loop."""

    class ScalarReference(scheduler_class):
        def _score_draws(self, draws):
            model = CostModel(self.accelerator)
            costs = [model.evaluate(mapping) for mapping in draws.iter_mappings()]
            return [cost.valid for cost in costs], [self.score(cost) for cost in costs]

        # Local search also reads the unmasked cost and the violation
        # totals, which the scalar model does not report: its seeds and its
        # neighbourhoods are priced one state at a time with the pure-Python
        # delta evaluator.
        def _price_draws(self, draws):
            return [
                self._price_state(MappingState.from_draws(draws, index))
                for index in range(len(draws))
            ]

        def _price_moves(self, state, moves):
            priced = []
            for move in moves:
                record = state.apply(move)
                priced.append(self._price_state(state))
                state.undo(record)
            return priced

        def _price_state(self, state):
            result = DeltaEvaluator(state, self.accelerator).evaluate()
            return _Priced(
                result.valid,
                result.score(self.metric),
                result.raw_score(self.metric),
                result.capacity_violation,
                result.spatial_violation,
                result.raw_utilization,
            )

    ScalarReference.__name__ = f"Scalar{scheduler_class.__name__}"
    return ScalarReference


class SequentialTimeloopHybrid(TimeloopHybridScheduler):
    """Timeloop-Hybrid scoring one base's permutation sweep per call."""

    def schedule(self, layer):
        start = time.perf_counter()
        deadline = self._deadline(start)
        space = MapSpace(layer, self.accelerator)
        noc_level = self.accelerator.pe_level_index()

        best_mapping = None
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
                drawn = space.sample_batch(1, rng)
                sweep = self._permutation_sweep(
                    (drawn.temporal[0], drawn.spatial[0]), noc_level, rng
                )
                draws = MappingDraws(
                    layer=layer,
                    num_levels=space.num_levels,
                    temporal=[temporal for temporal, _ in sweep],
                    spatial=[spatial for _, spatial in sweep],
                )
                sampled += 1
                valid, scores = self._score_draws(draws)
                for index, (ok, score) in enumerate(zip(valid, scores)):
                    sampled += 1
                    if not ok:
                        continue
                    evaluated += 1
                    score = float(score)
                    if score < thread_best:
                        thread_best = score
                        consecutive_suboptimal = 0
                    else:
                        consecutive_suboptimal += 1
                    if score < best_score:
                        best_mapping, best_score = draws.materialize(index), score
                    if (
                        consecutive_suboptimal >= self.termination_condition
                        or evaluated >= self.max_evaluations
                    ):
                        break

        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=sampled,
            num_evaluated=evaluated,
            elapsed_seconds=time.perf_counter() - start,
        )


class SequentialLocalSearch(LocalSearchScheduler):
    """Local search pricing one step's neighbourhood per call, with no lookahead."""

    def schedule(self, layer):
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)

        evaluations = 0
        best_state = None
        best_score = float("inf")
        state = current = None
        ref = 1.0
        weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
        stalled = 0

        while evaluations < self.max_evaluations and not self._out_of_time(deadline):
            if state is None:
                num_init = min(self.init_samples, self.max_evaluations - evaluations)
                draws = space.sample_batch(num_init, rng)
                priced = self._price_draws(draws)
                evaluations += num_init
                seed_index = 0
                seed_score = float("inf")
                for i, candidate in enumerate(priced):
                    if candidate.valid and candidate.score < seed_score:
                        seed_index, seed_score = i, candidate.score
                state = space.initial_state(draws, seed_index)
                current = priced[seed_index]
                if current.valid and current.score < best_score:
                    best_state, best_score = state.clone(), current.score
                ref = current.raw_score
                if not math.isfinite(ref) or ref <= 0.0:
                    ref = 1.0
                weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
                stalled = 0
                continue

            budget = self.max_evaluations - evaluations
            moves = space.neighborhood(state, rng, min(MOVES_PER_STEP, budget))
            if not moves:
                break
            priced = self._price_moves(state, moves)
            evaluations += len(moves)

            improved_best = False
            best_move = None
            best_result = None
            best_guidance = float("inf")
            for move, result in zip(moves, priced):
                guidance = self._guidance(result, weights, ref)
                if guidance < best_guidance:
                    best_move, best_result, best_guidance = move, result, guidance
                if result.valid and result.score < best_score:
                    best_state, best_score = state.clone(), result.score
                    best_state.apply(move)
                    improved_best = True

            stalled = 0 if improved_best else stalled + 1
            if stalled >= RESTART_AFTER:
                state = None
                continue
            if best_move is None:
                continue
            if best_guidance < self._guidance(current, weights, ref):
                state.apply(best_move)
                current = best_result
                continue
            self._transfer_weights(weights, current)
            if rng.random() < PERTURBATION:
                state.apply(best_move)
                current = best_result

        best_mapping = best_state.to_mapping() if best_state is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=evaluations,
            num_evaluated=evaluations,
            elapsed_seconds=time.perf_counter() - start,
        )


def assert_same_outcome(reference, result):
    """Same winner, same best cost and same counters."""
    assert reference.num_sampled == result.num_sampled
    assert reference.num_evaluated == result.num_evaluated
    assert (reference.mapping is None) == (result.mapping is None)
    if reference.mapping is not None:
        assert mapping_to_dict(reference.mapping) == mapping_to_dict(result.mapping)
        assert reference.cost.latency == result.cost.latency
        assert reference.cost.energy == result.cost.energy
