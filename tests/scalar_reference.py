"""Scalar reference searches for the outcome-parity tests.

The search baselines score their candidates in vectorized batches.
:func:`scalar_reference` derives, from a baseline class, a variant that
scores the same candidate stream with a plain loop of
:meth:`~repro.model.cost.CostModel.evaluate` calls, one candidate at a time
and lazily (a search that stops early never scores the rest).  A baseline
and its reference must agree on the winner and on every counter.
"""

from repro.mapping import mapping_to_dict
from repro.model.cost import CostModel


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

    ScalarReference.__name__ = f"Scalar{scheduler_class.__name__}"
    return ScalarReference


def assert_same_outcome(reference, result):
    """Same winner, same best cost and same counters."""
    assert reference.num_sampled == result.num_sampled
    assert reference.num_evaluated == result.num_evaluated
    assert (reference.mapping is None) == (result.mapping is None)
    if reference.mapping is not None:
        assert mapping_to_dict(reference.mapping) == mapping_to_dict(result.mapping)
        assert reference.cost.latency == result.cost.latency
        assert reference.cost.energy == result.cost.energy
