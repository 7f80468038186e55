"""Move-based local search with DDFW-style adaptive constraint weights.

Instead of redrawing whole mappings, this scheduler walks the map space one
*move* at a time — relocating a single prime factor between (level,
temporal/spatial) slots, swapping two temporal loops, or flipping a factor
between temporal and spatial at one level (:mod:`repro.mapping.moves`).
Each step prices its whole neighbourhood in one call of the vectorized
:class:`~repro.model.batch.BatchCostModel`: every proposed move is applied,
the moved state's loops are written straight into the batch
(:meth:`~repro.model.batch.MappingBatch.from_moves`), and the move is
undone.  The batch model is bit-identical to the scalar oracle and also
reports the unmasked cost and the violation totals of invalid states.

Most steps are plateau steps that leave the state unchanged, so the search
draws ahead: while the perturbation draw, taken early, says a plateau would
not commit, the next step's neighbourhood is drawn from the same state, up
to :data:`LOOKAHEAD` steps, and the chain is priced in one call.  The steps
are then replayed one at a time.  A step that leaves the chain (an
improving commit, a restart, no move with finite guidance) puts the rng
back to the state saved before its perturbation draw, so the walk, its
winner and its evaluation count are those of a search that draws and
prices one step at a time.

Guidance borrows the *divide and distribute fixed weights* (DDFW) idea from
SAT local search: each constraint group — buffer **capacity**, spatial
**fanout**, and a soft compute-**utilization** target — carries a weight, and
the search minimises ``cost/ref + sum(weight * violation)``.  The raw cost
term stays finite even for invalid states, so the search can cross
infeasible regions instead of rejecting them outright.  On a plateau (no
proposed move improves the guidance), weight is *transferred* from the
maximum-weight satisfied group to every violated group
(``WEIGHT_TRANSFER * donor + WEIGHT_INCREMENT`` each), re-shaping the
landscape until the violated constraints dominate and the search is pushed
back into the feasible region; with a small :data:`PERTURBATION` probability
the best proposal is committed anyway (random-walk escape).  The transfer
rule and its parameters are fixed, as in DDFW itself: they are module
constants, not options.

The final winner is always re-costed by the scalar
:class:`~repro.model.cost.CostModel` oracle.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from repro.arch.accelerator import Accelerator
from repro.baselines.base import SearchResult, SearchScheduler, stable_layer_seed
from repro.mapping.moves import MappingState
from repro.mapping.space import MappingDraws, MapSpace
from repro.model.batch import BatchCostResult, MappingBatch
from repro.workloads.problem import ProblemLayer

#: Constraint groups carrying DDFW weights.
CONSTRAINT_GROUPS = ("capacity", "spatial", "utilization")

#: Weights never decay below this floor, so no group is ever ignored.
MIN_WEIGHT = 0.1

#: Candidate moves priced per step (in one batch); the best by guidance is
#: committed when it improves on the current state.
MOVES_PER_STEP = 8

#: DDFW transfer rule: on a plateau every violated group receives
#: ``WEIGHT_TRANSFER * donor_weight + WEIGHT_INCREMENT`` from the
#: maximum-weight satisfied group (or just the increment when every group
#: is violated).
WEIGHT_TRANSFER = 0.2
WEIGHT_INCREMENT = 1.0

#: Probability of committing the best proposal on a plateau even though it
#: worsens the guidance (random-walk escape).
PERTURBATION = 0.1

#: Plateau steps drawn ahead and priced in one batch call.  While the state
#: is unchanged, the next step's neighbourhood is drawn from the same state,
#: so a run of plateau steps costs one evaluator call per ``LOOKAHEAD``
#: steps; the steps are then replayed one at a time.
LOOKAHEAD = 4

#: Steps without improving the best valid cost before the search restarts
#: from a fresh best-of-``init_samples`` seed with reset weights (escapes
#: basins no single move leads out of).
RESTART_AFTER = 30

#: Soft lower bound on compute utilization; the shortfall
#: ``max(0, target - utilization) / target`` is the violation of the
#: ``"utilization"`` group.
UTILIZATION_TARGET = 0.5


class _Priced(NamedTuple):
    """One priced candidate state, as the Python floats the guidance reads."""

    valid: bool
    score: float
    raw_score: float
    capacity_violation: float
    spatial_violation: float
    raw_utilization: float


class LocalSearchScheduler(SearchScheduler):
    """Batch-priced local search guided by adaptive constraint weights.

    The moves priced per step, the DDFW transfer rule, the perturbation
    probability, the restart window and the utilization target are the
    module constants above, not options.

    Parameters
    ----------
    accelerator:
        Target architecture.
    metric:
        ``"latency"``, ``"energy"`` or ``"edp"``.
    seed:
        Base seed; perturbed per layer like the other baselines.
    max_evaluations:
        Total cost-evaluation budget per layer (initial samples plus one per
        priced move) — the unit for equal-budget comparisons against the
        sampling baselines.
    init_samples:
        Random draws scored to pick the starting state (the best valid draw,
        else the first).
    time_budget_seconds:
        See :class:`~repro.baselines.base.SearchScheduler`.
    """

    name = "local-search"

    def __init__(
        self,
        accelerator: Accelerator,
        metric: str = "latency",
        seed: int = 0,
        max_evaluations: int = 4000,
        init_samples: int = 64,
        time_budget_seconds: float | None = None,
    ):
        super().__init__(accelerator, metric, time_budget_seconds=time_budget_seconds)
        if max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
        if init_samples < 1:
            raise ValueError(f"init_samples must be >= 1, got {init_samples}")
        self.seed = seed
        self.max_evaluations = max_evaluations
        self.init_samples = init_samples

    def _config(self) -> dict:
        return {
            **super()._config(),
            "seed": self.seed,
            "max_evaluations": self.max_evaluations,
            "init_samples": self.init_samples,
            # The constants stay in the fingerprint so stored layer entries keep serving.
            "moves_per_step": MOVES_PER_STEP,
            "weight_transfer": WEIGHT_TRANSFER,
            "weight_increment": WEIGHT_INCREMENT,
            "perturbation": PERTURBATION,
            "restart_after": RESTART_AFTER,
            "utilization_target": UTILIZATION_TARGET,
        }

    # ----------------------------------------------------------------- search
    def schedule(self, layer: ProblemLayer) -> SearchResult:
        """Run the weighted local search for ``layer``."""
        start = time.perf_counter()
        deadline = self._deadline(start)
        rng = random.Random(stable_layer_seed(self.seed, layer.canonical_name))
        space = MapSpace(layer, self.accelerator)
        fanouts = space.spatial_fanouts

        evaluations = 0
        best_state: MappingState | None = None
        best_score = float("inf")
        state = current = None
        ref = 1.0
        weights = {group: 1.0 for group in CONSTRAINT_GROUPS}
        stalled = 0

        while evaluations < self.max_evaluations and not self._out_of_time(deadline):
            if state is None:
                # (Re)seed: best valid of a random batch, else the first draw.
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

            steps = self._draw_chain(space, state, rng, evaluations, stalled, deadline)
            chained = [move for moves, _, _ in steps for move in moves]
            priced = self._price_moves(state, chained) if chained else []

            # Replay the chain one step at a time.  A step that changes the
            # state, restarts or finds no finite guidance leaves the chain:
            # the rng goes back to where that step's perturbation draw was
            # taken ahead, and the steps drawn after it are dropped.
            frozen = False
            offset = 0
            for moves, rng_state, draw in steps:
                if not moves:
                    frozen = True  # every loop bound is 1, or no move could be drawn
                    break
                step_priced = priced[offset : offset + len(moves)]
                offset += len(moves)
                evaluations += len(moves)

                improved_best = False
                best_move = None
                best_result: _Priced | None = None
                best_guidance = float("inf")
                for move, result in zip(moves, step_priced):
                    guidance = self._guidance(result, weights, ref)
                    if guidance < best_guidance:
                        best_move, best_result, best_guidance = move, result, guidance
                    if result.valid and result.score < best_score:
                        best_state, best_score = state.clone(), result.score
                        best_state.apply(move)
                        improved_best = True

                stalled = 0 if improved_best else stalled + 1
                if stalled >= RESTART_AFTER:
                    state = None  # basin exhausted: restart from a fresh seed
                elif best_move is None:
                    pass  # no move has finite guidance: the state stays
                elif best_guidance < self._guidance(current, weights, ref):
                    state.apply(best_move)
                    current = best_result
                else:
                    # Plateau: re-shape the landscape (DDFW weight transfer),
                    # then optionally random-walk through it.
                    self._transfer_weights(weights, current)
                    if draw is None:
                        draw = rng.random()
                    if draw < PERTURBATION:
                        state.apply(best_move)  # the chain's last step
                        current = best_result
                    continue
                if rng_state is not None:
                    rng.setstate(rng_state)
                break
            if frozen:
                break

        best_mapping = best_state.to_mapping() if best_state is not None else None
        best_cost = self._cost_model.evaluate(best_mapping) if best_mapping is not None else None
        return SearchResult(
            mapping=best_mapping,
            cost=best_cost,
            num_sampled=evaluations,
            num_evaluated=evaluations,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _draw_chain(self, space, state, rng, evaluations, stalled, deadline) -> list:
        """Draw the neighbourhoods of the next steps from the unchanged ``state``.

        Returns ``[(moves, rng_state, draw)]``.  Each step but the last has
        its plateau perturbation draw taken ahead: ``draw``, with
        ``rng_state`` the rng state just before it.  Drawing goes on only
        while that draw would leave a plateau unchanged, and the chain ends
        after :data:`LOOKAHEAD` steps, at an empty neighbourhood, at a step
        that could spend the last of the budget or restart the walk, and
        after one step under a wall-clock budget.
        """
        steps = []
        while True:
            count = min(MOVES_PER_STEP, self.max_evaluations - evaluations)
            moves = space.neighborhood(state, rng, count)
            evaluations += len(moves)
            if (
                not moves
                or deadline is not None
                or len(steps) + 1 == LOOKAHEAD
                or evaluations >= self.max_evaluations
                or stalled + len(steps) + 1 >= RESTART_AFTER
            ):
                steps.append((moves, None, None))
                return steps
            rng_state = rng.getstate()
            draw = rng.random()
            steps.append((moves, rng_state, draw))
            if draw < PERTURBATION:
                return steps

    # ---------------------------------------------------------------- pricing
    def _price_draws(self, draws: MappingDraws) -> list[_Priced]:
        """Price every candidate of ``draws`` in one batch-model call."""
        return self._priced(self._batch_model.evaluate_draws(draws))

    def _price_moves(self, state: MappingState, moves) -> list[_Priced]:
        """Price the states ``moves`` lead to from ``state`` in one batch-model call."""
        return self._priced(self._batch_model.evaluate_batch(MappingBatch.from_moves(state, moves)))

    def _priced(self, result: BatchCostResult) -> list[_Priced]:
        """The rows of ``result`` as the Python floats the guidance reads."""
        return list(
            map(
                _Priced,
                result.valid.tolist(),
                result.score(self.metric).tolist(),
                result.raw_score(self.metric).tolist(),
                result.capacity_violation.tolist(),
                result.spatial_violation.tolist(),
                result.raw_utilization.tolist(),
            )
        )

    # --------------------------------------------------------------- guidance
    @staticmethod
    def _violations(result: _Priced) -> tuple[float, float, float]:
        """Violations of a (possibly invalid) state, in :data:`CONSTRAINT_GROUPS` order."""
        shortfall = max(0.0, UTILIZATION_TARGET - result.raw_utilization)
        return result.capacity_violation, result.spatial_violation, shortfall / UTILIZATION_TARGET

    def _guidance(self, result: _Priced, weights: dict, ref: float) -> float:
        """Weighted objective: normalized raw cost plus weighted violations."""
        capacity, spatial, utilization = self._violations(result)
        return (
            result.raw_score / ref
            + weights["capacity"] * capacity
            + weights["spatial"] * spatial
            + weights["utilization"] * utilization
        )

    def _transfer_weights(self, weights: dict, current: _Priced) -> None:
        """DDFW plateau rule: move weight from satisfied onto violated groups."""
        violations = dict(zip(CONSTRAINT_GROUPS, self._violations(current)))
        violated = [g for g in CONSTRAINT_GROUPS if violations[g] > 0]
        satisfied = [g for g in CONSTRAINT_GROUPS if violations[g] == 0]
        if not violated:
            return
        if satisfied:
            donor = max(satisfied, key=lambda g: weights[g])
            for group in violated:
                amount = WEIGHT_TRANSFER * weights[donor] + WEIGHT_INCREMENT
                amount = min(amount, weights[donor] - MIN_WEIGHT)
                if amount > 0:
                    weights[donor] -= amount
                    weights[group] += amount
                else:
                    weights[group] += WEIGHT_INCREMENT
        else:
            for group in violated:
                weights[group] += WEIGHT_INCREMENT
