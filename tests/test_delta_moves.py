"""Property tests: delta and batched evaluation under random move sequences.

Hand-rolled generators (seeded ``random.Random``, no external property
testing dependency — the coverage CI job installs none) drive long random
walks of factor moves, spatial flips and permutation swaps over every
built-in tensor problem, asserting after **every committed move** that the
delta-accumulated result equals

* a fresh full re-evaluation of the same state (raw values included, so
  invalid states are checked too),
* the scalar :class:`~repro.model.cost.CostModel` oracle on the
  materialized mapping, with ``==`` (bit-for-bit, no tolerance),
* and the batched evaluator.

Local search prices a chain of up to ``LOOKAHEAD`` neighbourhoods of one
state in one batched call, packed straight from the moves
(:meth:`~repro.model.batch.MappingBatch.from_moves`); every row of that
batch, raw values and violation totals included, must equal the delta
preview of its move and the scalar oracle, on every registered problem and
every architecture preset.

Plus the mechanics underneath: ``preview`` leaves state and caches
untouched, ``apply``/``undo`` round-trips restore both, and
``MappingState`` materializes exactly the mapping its seed draw would.
"""

import random

import pytest

from repro.arch import architecture_presets, gpu_k80, simba_like
from repro.baselines.local_search import LOOKAHEAD, MOVES_PER_STEP
from repro.mapping import MapSpace, mapping_to_dict
from repro.mapping.moves import FactorMove, PermutationSwap, propose_move
from repro.model import CostModel
from repro.model.batch import BatchCostModel, MappingBatch
from repro.model.delta import DeltaEvaluator
from repro.workloads import (
    attention_av,
    attention_qk,
    depthwise_conv,
    grouped_conv,
    layer_from_name,
    matmul,
)
from repro.workloads.problem import available_problems, bn_relu, softmax

ARCH = simba_like()


def builtin_problem_layers():
    """One small layer per built-in tensor problem (all six)."""
    return [
        layer_from_name("3_7_64_64_1"),  # conv7
        matmul(m=8, n=16, k=32, name="delta_matmul"),
        depthwise_conv(r=3, p=8, c=16, name="delta_dw"),
        grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="delta_gconv"),
        attention_qk(seq=16, heads=2, head_dim=8, name="delta_qk"),
        attention_av(seq=16, heads=2, head_dim=8, name="delta_av"),
    ]


def seeded_state(layer, arch, rng):
    """A state from one random draw plus the space's fanout table."""
    space = MapSpace(layer, arch)
    draws = space.sample_batch(1, rng)
    return space.initial_state(draws, 0), space.spatial_fanouts


def snapshot(state):
    """Deep-copied placement lists for exact-restoration assertions."""
    return (
        [[list(e) for e in level] for level in state.temporal],
        [[list(e) for e in level] for level in state.spatial],
    )


def assert_full_parity(result, state, arch, scalar):
    """One committed state: delta result vs fresh recompute vs the oracles."""
    # Fresh evaluator: full recompute of the identical state must be
    # bit-equal on raw values too (covers invalid states, which the masked
    # oracle comparison below cannot distinguish).
    fresh = DeltaEvaluator(state.clone(), arch).evaluate()
    assert result.valid == fresh.valid
    assert result.consistent == fresh.consistent
    assert result.raw_latency == fresh.raw_latency
    assert result.raw_energy == fresh.raw_energy
    assert result.raw_utilization == fresh.raw_utilization
    assert result.capacity_violation == fresh.capacity_violation
    assert result.spatial_violation == fresh.spatial_violation

    mapping = state.to_mapping()
    cost = scalar.evaluate(mapping)
    assert result.valid == cost.valid
    assert result.latency == cost.latency
    assert result.energy == cost.energy
    assert result.utilization == cost.utilization
    if cost.valid:
        assert result.edp == cost.edp

    batch = BatchCostModel(arch).evaluate_mappings([mapping])
    assert result.valid == bool(batch.valid[0])
    assert result.latency == batch.latency[0]
    assert result.energy == batch.energy[0]
    assert result.utilization == batch.utilization[0]


class TestDeltaMatchesFullReevaluation:
    def test_random_walks_on_every_builtin_problem(self):
        """Satellite: delta == full batch/scalar re-evaluation, bit-for-bit."""
        rng = random.Random(2026)
        for layer in builtin_problem_layers():
            scalar = CostModel(ARCH)
            state, fanouts = seeded_state(layer, ARCH, rng)
            evaluator = DeltaEvaluator(state, ARCH)
            assert_full_parity(evaluator.evaluate(), state, ARCH, scalar)
            committed = 0
            for _ in range(60):
                move = propose_move(state, fanouts, rng)
                if move is None:
                    break
                result, _token = evaluator.apply(move)
                committed += 1
                assert_full_parity(result, state, ARCH, scalar)
            assert committed >= 20, f"{layer.name}: walk froze too early"

    def test_random_walks_across_architecture_presets(self):
        rng = random.Random(7)
        layer = layer_from_name("3_14_32_64_1")
        for _, arch in sorted(architecture_presets().items()):
            scalar = CostModel(arch)
            state, fanouts = seeded_state(layer, arch, rng)
            evaluator = DeltaEvaluator(state, arch)
            for _ in range(25):
                move = propose_move(state, fanouts, rng)
                if move is None:
                    break
                result, _token = evaluator.apply(move)
                assert_full_parity(result, state, arch, scalar)

    def test_moves_conserve_consistency(self):
        """Factor products are conserved, so consistency never breaks."""
        rng = random.Random(13)
        for layer in builtin_problem_layers():
            state, fanouts = seeded_state(layer, ARCH, rng)
            evaluator = DeltaEvaluator(state, ARCH)
            for _ in range(40):
                move = propose_move(state, fanouts, rng)
                if move is None:
                    break
                result, _ = evaluator.apply(move)
                assert result.consistent
            assert state.to_mapping().is_consistent()


class TestPreviewAndUndo:
    def test_preview_leaves_state_and_caches_untouched(self):
        rng = random.Random(3)
        state, fanouts = seeded_state(layer_from_name("3_7_64_64_1"), ARCH, rng)
        evaluator = DeltaEvaluator(state, ARCH)
        before = evaluator.evaluate()
        for _ in range(30):
            move = propose_move(state, fanouts, rng)
            if move is None:
                break
            shape = snapshot(state)
            previewed = evaluator.preview(move)
            assert snapshot(state) == shape, "preview mutated the state"
            # The cached terms are still those of the un-moved state.
            after = evaluator.evaluate()
            assert after.raw_latency == before.raw_latency
            assert after.raw_energy == before.raw_energy
            # Committing the same move reproduces the preview exactly.
            committed, token = evaluator.apply(move)
            assert committed.valid == previewed.valid
            assert committed.raw_latency == previewed.raw_latency
            assert committed.raw_energy == previewed.raw_energy
            assert committed.raw_utilization == previewed.raw_utilization
            assert committed.capacity_violation == previewed.capacity_violation
            assert committed.spatial_violation == previewed.spatial_violation
            evaluator.undo(token)

    def test_apply_undo_restores_state_and_result(self):
        rng = random.Random(4)
        for layer in builtin_problem_layers():
            state, fanouts = seeded_state(layer, ARCH, rng)
            evaluator = DeltaEvaluator(state, ARCH)
            baseline = evaluator.evaluate()
            shape = snapshot(state)
            for _ in range(25):
                move = propose_move(state, fanouts, rng)
                if move is None:
                    break
                _, token = evaluator.apply(move)
                evaluator.undo(token)
                assert snapshot(state) == shape
                restored = evaluator.evaluate()
                assert restored.raw_latency == baseline.raw_latency
                assert restored.raw_energy == baseline.raw_energy
                assert restored.raw_utilization == baseline.raw_utilization

    def test_state_apply_undo_round_trips(self):
        rng = random.Random(5)
        state, fanouts = seeded_state(
            grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="undo_gconv"), ARCH, rng
        )
        for _ in range(50):
            move = propose_move(state, fanouts, rng)
            if move is None:
                break
            shape = snapshot(state)
            record = state.apply(move)
            state.undo(record)
            assert snapshot(state) == shape


class TestMappingStateMechanics:
    def test_state_materializes_its_seed_draw(self):
        rng = random.Random(6)
        for layer in builtin_problem_layers():
            space = MapSpace(layer, ARCH)
            draws = space.sample_batch(8, rng)
            for index in range(len(draws)):
                state = space.initial_state(draws, index)
                assert mapping_to_dict(state.to_mapping()) == mapping_to_dict(
                    draws.materialize(index)
                )

    def test_spatial_flip_and_move_classification(self):
        flip = FactorMove(
            dim="C", factor=2, src_level=1, src_spatial=False, dst_level=1, dst_spatial=True
        )
        assert flip.touches_temporal and flip.touches_spatial
        hop = FactorMove(
            dim="C", factor=2, src_level=0, src_spatial=False, dst_level=3, dst_spatial=False
        )
        assert hop.touches_temporal and not hop.touches_spatial

    def test_apply_rejects_bad_factor_and_missing_entry(self):
        rng = random.Random(9)
        state, _ = seeded_state(matmul(m=8, n=16, k=32, name="guard_mm"), ARCH, rng)
        # Find some placed entry, then ask for a factor that cannot divide it.
        level, spatial, entry = next(
            (lvl, sp, e)
            for sp, levels in ((False, state.temporal), (True, state.spatial))
            for lvl, loops in enumerate(levels)
            for e in loops
        )
        bad = FactorMove(
            dim=entry[0],
            factor=entry[1] + 1,
            src_level=level,
            src_spatial=spatial,
            dst_level=(level + 1) % state.num_levels,
            dst_spatial=False,
        )
        with pytest.raises(ValueError, match="does not divide"):
            state.apply(bad)
        missing = FactorMove(
            dim="Z9", factor=2, src_level=0, src_spatial=False, dst_level=1, dst_spatial=False
        )
        with pytest.raises(ValueError, match="no Z9 entry"):
            state.apply(missing)

    def test_propose_move_returns_none_on_frozen_state(self):
        layer = matmul(m=1, n=1, k=1, name="frozen_mm")
        space = MapSpace(layer, ARCH)
        draws = space.sample_batch(1, random.Random(0))
        state = space.initial_state(draws, 0)
        assert propose_move(state, space.spatial_fanouts, random.Random(1)) is None

    def test_permutation_swap_changes_order_only(self):
        rng = random.Random(10)
        state, _ = seeded_state(layer_from_name("3_7_64_64_1"), ARCH, rng)
        level = next(
            lvl for lvl in range(state.num_levels) if len(state.temporal[lvl]) >= 2
        )
        before = [list(e) for e in state.temporal[level]]
        record = state.apply(PermutationSwap(level=level, i=0, j=1))
        after = state.temporal[level]
        assert after[0] == before[1] and after[1] == before[0]
        assert sorted(map(tuple, after)) == sorted(map(tuple, before))
        state.undo(record)
        assert [list(e) for e in state.temporal[level]] == before


def assert_step_parity(state, moves, arch, evaluator, scalar, batch_model):
    """One batched chain of neighbourhoods against the delta previews and the oracle."""
    shape = snapshot(state)
    result = batch_model.evaluate_batch(MappingBatch.from_moves(state, moves))
    assert snapshot(state) == shape, "pricing a neighbourhood mutated the state"
    assert len(result) == len(moves)
    for i, move in enumerate(moves):
        preview = evaluator.preview(move)
        assert bool(result.valid[i]) == preview.valid
        assert result.latency[i] == preview.latency
        assert result.energy[i] == preview.energy
        assert result.utilization[i] == preview.utilization
        assert result.raw_latency[i] == preview.raw_latency
        assert result.raw_energy[i] == preview.raw_energy
        assert result.raw_utilization[i] == preview.raw_utilization
        assert result.capacity_violation[i] == preview.capacity_violation
        assert result.spatial_violation[i] == preview.spatial_violation

        record = state.apply(move)
        cost = scalar.evaluate(state.to_mapping())
        state.undo(record)
        assert bool(result.valid[i]) == cost.valid
        assert result.latency[i] == cost.latency
        assert result.energy[i] == cost.energy
        assert result.utilization[i] == cost.utilization


def every_arch_preset():
    return [*sorted(architecture_presets().items()), ("gpu-k80", gpu_k80())]


class TestBatchedNeighbourhood:
    def walk(self, layer, arch, rng, steps):
        space = MapSpace(layer, arch)
        state = space.initial_state(space.sample_batch(1, rng), 0)
        evaluator = DeltaEvaluator(state, arch)
        scalar, batch_model = CostModel(arch), BatchCostModel(arch)
        priced = 0
        for _ in range(steps):
            moves = [
                move
                for _ in range(LOOKAHEAD)
                for move in space.neighborhood(state, rng, MOVES_PER_STEP)
            ]
            if not moves:
                break
            assert_step_parity(state, moves, arch, evaluator, scalar, batch_model)
            priced += len(moves)
            evaluator.apply(moves[rng.randrange(len(moves))])
        return priced

    def test_steps_on_every_registered_problem(self):
        rng = random.Random(33)
        layers = builtin_problem_layers() + [
            softmax(seq=16, heads=2, name="step_softmax"),
            bn_relu(p=8, k=16, name="step_bn_relu"),
        ]
        assert {layer.problem.name for layer in layers} == set(available_problems())
        for layer in layers:
            assert self.walk(layer, ARCH, rng, steps=12) >= 48, f"{layer.name}: walk froze"

    def test_steps_on_every_architecture_preset(self):
        rng = random.Random(34)
        layers = (layer_from_name("3_14_32_64_1"), matmul(m=16, n=32, k=64, name="step_mm"))
        for name, arch in every_arch_preset():
            for layer in layers:
                assert self.walk(layer, arch, rng, steps=10) >= 40, f"{name}/{layer.name}"

    def test_violation_totals_sum_every_level_in_order(self):
        # States past several limits at once: the totals are the level-order
        # sums of excess / limit, as the delta evaluator accumulates them.
        rng = random.Random(35)
        layer = layer_from_name("3_28_128_128_1")
        space = MapSpace(layer, ARCH)
        draws = space.sample_batch(64, rng)
        result = BatchCostModel(ARCH).evaluate_draws(draws)
        over = 0
        for i in range(len(draws)):
            delta = DeltaEvaluator(space.initial_state(draws, i), ARCH).evaluate()
            assert result.capacity_violation[i] == delta.capacity_violation
            assert result.spatial_violation[i] == delta.spatial_violation
            assert result.raw_energy[i] == delta.raw_energy
            over += delta.capacity_violation > 0
        assert over, "no draw overflows a buffer: weak test"
