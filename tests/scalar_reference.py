"""Scalar reference searches for the outcome-parity tests.

The search baselines score their candidates in vectorized batches.
:func:`scalar_reference` derives, from a baseline class, a variant that
scores the same candidate stream with a plain loop of
:meth:`~repro.model.cost.CostModel.evaluate` calls, one candidate at a time
and lazily (a search that stops early never scores the rest); local search's
seeds and neighbourhoods go through the pure-Python delta evaluator one
state at a time.  A baseline and its reference must agree on the winner and
on every counter.

:class:`SequentialTimeloopHybrid` is the Timeloop-Hybrid search as it ran
before it scored several factorisations per batch: one base and its
permutation sweep per scoring call.
"""

import random
import time

from repro.baselines.base import SearchResult, stable_layer_seed
from repro.baselines.local_search import _Priced
from repro.baselines.timeloop_hybrid import TimeloopHybridScheduler
from repro.mapping import MapSpace, mapping_to_dict
from repro.mapping.moves import MappingState
from repro.model.cost import CostModel
from repro.model.delta import DeltaEvaluator


def scalar_reference(scheduler_class):
    """Subclass of ``scheduler_class`` that scores with a scalar loop."""

    class ScalarReference(scheduler_class):
        def _scored(self, candidates):
            model = CostModel(self.accelerator)
            for mapping in candidates:
                cost = model.evaluate(mapping)
                yield mapping, cost.valid, self.score(cost)

        def _score_draws(self, draws):
            model = CostModel(self.accelerator)
            costs = [model.evaluate(mapping) for mapping in draws.iter_mappings()]
            return [cost.valid for cost in costs], [self.score(cost) for cost in costs]

        def _price(self, draws):
            # Local search also reads the unmasked cost and the violation
            # totals, which the scalar model does not report: price each
            # draw alone with the pure-Python delta evaluator.
            priced = []
            for index in range(len(draws)):
                state = MappingState.from_draws(draws, index)
                result = DeltaEvaluator(state, self.accelerator).evaluate()
                priced.append(
                    _Priced(
                        result.valid,
                        result.score(self.metric),
                        result.raw_score(self.metric),
                        result.capacity_violation,
                        result.spatial_violation,
                        result.raw_utilization,
                    )
                )
            return priced

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
                base = space.random_mapping(rng)
                sampled += 1
                for candidate, ok, score in self._scored(
                    self._permutation_sweep(base, noc_level, rng)
                ):
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
                        best_mapping, best_score = candidate, score
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


def assert_same_outcome(reference, result):
    """Same winner, same best cost and same counters."""
    assert reference.num_sampled == result.num_sampled
    assert reference.num_evaluated == result.num_evaluated
    assert (reference.mapping is None) == (result.mapping is None)
    if reference.mapping is not None:
        assert mapping_to_dict(reference.mapping) == mapping_to_dict(result.mapping)
        assert reference.cost.latency == result.cost.latency
        assert reference.cost.energy == result.cost.energy
