"""Batched fused-group evaluation and the frontier alignment search.

The scalar :class:`~repro.model.fused.FusedCostModel` is the parity oracle:
the batched combiner (:mod:`repro.model.fused_batch`) must agree with it
**bit-for-bit** on every preset fusion group — headline numbers and per-edge
detail alike.

Also covered here: the frontier helpers of :mod:`repro.fusion.schedule`
(including ``_retile_outer`` leftover handling), the frontier alignment
search itself (it must fully pin the small attention chain, never lose to
the unfused baseline, and pick the winner the scalar oracle picks), the
fused layer-tier key, and the legacy ``engine.fusion_options`` spec key
(parsed and dropped).
"""

import dataclasses
import random

import pytest

from repro.api import RunSpec
from repro.api.specs import EngineSpec
from repro.api.store import spec_fingerprint
from repro.arch.presets import simba_like
from repro.core.scheduler import CoSAScheduler
from repro.engine.engine import SchedulingEngine
from repro.fusion.presets import (
    attention_block,
    bert_base_block_plan,
    conv_bn_relu,
    gpt2_small_block_plan,
)
from repro.fusion import schedule as fusion_schedule
from repro.fusion.group import FusionGroup
from repro.fusion.schedule import (
    MAX_CANDIDATES,
    _align_group,
    _frontier_combos,
    _group_key,
    _retile_outer,
)
from repro.mapping.mapping import Mapping
from repro.mapping.space import MapSpace
from repro.model.batch import MappingBatch
from repro.model.cost import CostModel
from repro.model.fused import FusedCostModel
from repro.model.fused_batch import (
    BatchFusedCostModel,
    BatchFusedResult,
    FusedMappingBatch,
)
from repro.workloads.problem import matmul

ARCH = simba_like()

#: Every array field of ``BatchFusedResult`` (``per_op`` is an object list).
RESULT_ARRAYS = tuple(
    f.name for f in dataclasses.fields(BatchFusedResult) if f.name != "per_op"
)


def preset_groups():
    """Every multi-operator preset group, at CI-sized shapes."""
    groups = [
        attention_block(seq=32, heads=2, head_dim=16),
        conv_bn_relu(r=3, p=8, c=16, k=16),
    ]
    for plan in (bert_base_block_plan(seq=64), gpt2_small_block_plan(seq=64)):
        groups.extend(g for g in plan.groups if len(g.layers) > 1)
    return groups


def random_candidates(group, samples, seed):
    """``samples`` random group tilings (one mapping list per candidate)."""
    rng = random.Random(seed)
    per_op = [MapSpace(layer, ARCH).sample_batch(samples, rng) for layer in group.layers]
    return [[draws.materialize(i) for draws in per_op] for i in range(samples)]


def assert_candidate_matches_scalar(cost, result, i):
    """One batched row equals the scalar ``FusedGroupCost`` exactly (``==``)."""
    assert bool(result.valid[i]) == cost.valid
    assert float(result.latency[i]) == cost.latency
    assert float(result.energy[i]) == cost.energy
    assert float(result.dram_words[i]) == cost.dram_words
    assert float(result.dram_bytes[i]) == cost.dram_bytes
    assert float(result.unfused_latency[i]) == cost.unfused_latency
    assert float(result.unfused_energy[i]) == cost.unfused_energy
    assert float(result.unfused_dram_words[i]) == cost.unfused_dram_words
    assert float(result.unfused_dram_bytes[i]) == cost.unfused_dram_bytes
    assert int(result.pipeline_rounds[i]) == cost.pipeline_rounds
    assert int(result.num_pinned_edges[i]) == cost.num_pinned_edges
    if cost.valid and cost.edges:
        for e, edge in enumerate(cost.edges):
            assert bool(result.edge_pinned[i, e]) == edge.pinned
            assert float(result.edge_rounds[i, e]) == edge.rounds
            assert bool(result.edge_aligned[i, e]) == edge.aligned
            assert float(result.edge_pinned_bytes[i, e]) == edge.pinned_bytes
            assert float(result.edge_saved_dram_words[i, e]) == edge.saved_dram_words
            assert float(result.edge_saved_dram_bytes[i, e]) == edge.saved_dram_bytes
            assert float(result.edge_saved_energy_pj[i, e]) == edge.saved_energy_pj


# ------------------------------------------------- batched vs scalar oracle


class TestBatchedParity:
    def test_batched_equals_scalar_on_every_preset_group(self):
        for group in preset_groups():
            candidates = random_candidates(group, 16, seed=7)
            scalar = FusedCostModel(ARCH)
            costs = [scalar.evaluate_group(group, c) for c in candidates]
            batch = FusedMappingBatch.from_candidates(group, candidates)
            result = BatchFusedCostModel(ARCH).evaluate_group(batch)
            assert len(result) == len(candidates)
            for i, cost in enumerate(costs):
                assert_candidate_matches_scalar(cost, result, i)
            assert any(c.valid for c in costs), f"{group.name}: weak test, no valid draw"

    def test_randomized_property_parity(self):
        """Property test: fresh seeds each class of shapes, exact agreement."""
        group = attention_block(seq=32, heads=2, head_dim=16)
        for seed in (0, 1, 2, 3, 4):
            candidates = random_candidates(group, 12, seed=seed)
            scalar = FusedCostModel(ARCH)
            batch = FusedMappingBatch.from_candidates(group, candidates)
            result = BatchFusedCostModel(ARCH).evaluate_group(batch)
            for i, candidate in enumerate(candidates):
                assert_candidate_matches_scalar(
                    scalar.evaluate_group(group, candidate), result, i
                )

    def test_unfused_view_matches_scalar(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 8, seed=3)
        per_op = CostModel(ARCH)
        batch = FusedMappingBatch.from_candidates(group, candidates)
        result = BatchFusedCostModel(ARCH).evaluate_group(batch)
        for i, candidate in enumerate(candidates):
            costs = [per_op.evaluate(mapping) for mapping in candidate]
            assert float(result.unfused_latency[i]) == sum(cost.latency for cost in costs)
            assert float(result.unfused_energy[i]) == sum(cost.energy for cost in costs)
        # A singleton group's totals are its one operator's, batched or not.
        scalar = FusedCostModel(ARCH)
        for j, layer in enumerate(group.layers):
            solo = FusionGroup(name=f"solo_{j}", layers=(layer,))
            solo_candidates = [[candidate[j]] for candidate in candidates]
            solo_batch = FusedMappingBatch.from_candidates(solo, solo_candidates)
            solo_result = BatchFusedCostModel(ARCH).evaluate_group(solo_batch)
            assert solo_result.num_edges == 0
            assert not solo_result.all_pinned.any()
            for i, candidate in enumerate(solo_candidates):
                assert_candidate_matches_scalar(
                    scalar.evaluate_group(solo, candidate), solo_result, i
                )

    def test_mappings_round_trip_through_the_batch(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 4, seed=1)
        batch = FusedMappingBatch.from_candidates(group, candidates)
        # Row i of operator j's batch packs exactly candidate i's mapping j.
        for i, candidate in enumerate(candidates):
            for op_batch, mapping in zip(batch.batches, candidate, strict=True):
                alone = MappingBatch.from_mappings([mapping])
                for field in ("temporal", "spatial", "loop_level", "loop_dim", "loop_bound"):
                    row = getattr(op_batch, field)[i]
                    width = getattr(alone, field).shape[-1]
                    assert (row[..., :width] == getattr(alone, field)[0]).all()

    def test_batch_guards(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        candidates = random_candidates(group, 4, seed=1)
        with pytest.raises(ValueError, match="zero candidates"):
            FusedMappingBatch.from_candidates(group, [])
        with pytest.raises(ValueError, match="operators"):
            FusedMappingBatch.from_candidates(group, [c[:2] for c in candidates])


# ------------------------------------------------- frontier helpers


class TestFrontierHelpers:
    def test_divisors_edge_cases(self):
        # The frontier is built from the divisors the search imports.
        divisors = fusion_schedule.divisors
        assert divisors(1) == (1,)
        assert divisors(7) == (1, 7)  # prime
        assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
        assert divisors(97) == (1, 97)  # larger prime
        large = divisors(2 * 3 * 5 * 7 * 11 * 13)  # 30030, highly composite
        assert len(large) == 64
        assert list(large) == sorted(large)
        assert all(30030 % d == 0 for d in large)

    def test_frontier_combos_sorted_and_thinned(self):
        combos = _frontier_combos([12], [1])
        assert combos == [(1,), (2,), (3,), (4,), (6,), (12,)]
        combos = _frontier_combos([12], [3])
        assert combos == [(3,), (4,), (6,), (12,)]  # frontier starts at 3
        # 10! = 2^8 3^4 5^2 7 has 270 divisors, more than MAX_CANDIDATES
        thinned = _frontier_combos([3628800], [1])
        assert thinned[0] == (1,) and thinned[-1] == (3628800,)  # endpoints survive
        assert len(thinned) == MAX_CANDIDATES
        assert thinned == sorted(thinned)
        # two classes: sorted by total round count, ties by combo
        combos = _frontier_combos([4, 4], [1, 1])
        assert combos[0] == (1, 1) and combos[-1] == (4, 4)
        products = [a * b for a, b in combos]
        assert products == sorted(products)

    def _mapping(self, temporal_m):
        """A matmul mapping whose per-level temporal M factors are given."""
        layer = matmul(m=8, n=4, k=4, name="retile_probe")
        levels = len(ARCH.hierarchy.levels)
        temporal = [{} for _ in range(levels)]
        temporal[0] = {"N": 4, "K": 4}
        for index, factor in enumerate(temporal_m):
            if factor > 1:
                temporal[index]["M"] = factor
        spatial = [{} for _ in range(levels)]
        perms = [tuple(t) for t in temporal]
        return Mapping.from_factors(layer, temporal, spatial, perms)

    def test_retile_outer_moves_the_target_factor_to_dram(self):
        mapping = self._mapping([8])
        retiled = _retile_outer(mapping, {"M": 2})
        dram = mapping.num_levels - 1
        assert retiled.levels[dram].factor("M", include_spatial=False) == 2
        assert retiled.dim_product("M", include_spatial=False) == 8
        assert retiled.levels[0].factor("M", include_spatial=False) == 4

    def test_retile_outer_leftover_lands_just_below_dram(self):
        # All of M already sits at DRAM: pulling only a factor of 2 back out
        # leaves a leftover of 4 that no inner level can absorb via gcd; it
        # must land at the level just under DRAM (rounds, not footprint).
        levels = len(ARCH.hierarchy.levels)
        factors = [1] * levels
        factors[levels - 1] = 8
        mapping = self._mapping(factors)
        retiled = _retile_outer(mapping, {"M": 2})
        dram = levels - 1
        assert retiled.levels[dram].factor("M", include_spatial=False) == 2
        assert retiled.levels[dram - 1].factor("M", include_spatial=False) == 4
        assert retiled.dim_product("M", include_spatial=False) == 8

    def test_retile_outer_rejects_non_divisors(self):
        mapping = self._mapping([8])
        assert _retile_outer(mapping, {"M": 3}) is None
        assert _retile_outer(mapping, {"M": 16}) is None
        assert _retile_outer(mapping, {"M": 0}) is None


# ------------------------------------------------- the alignment search


class TestFrontierAlignment:
    def _base(self, group):
        engine = SchedulingEngine(CoSAScheduler(ARCH))
        base = engine.schedule_network(list(group.layers))
        return engine, [outcome.mapping for outcome in base.outcomes]

    def test_frontier_fully_pins_the_small_attention_chain(self):
        group = attention_block(seq=32, heads=2, head_dim=16)
        engine, base_mappings = self._base(group)
        mappings, cost, _retiled = _align_group(
            engine, group, base_mappings, FusedCostModel(ARCH)
        )
        assert cost.valid
        assert cost.num_pinned_edges == len(group.edges)
        assert cost.dram_words <= cost.unfused_dram_words
        assert len(mappings) == len(group.layers)

    def test_scalar_oracle_picks_the_same_winner(self, monkeypatch):
        group = attention_block(seq=32, heads=2, head_dim=16)
        engine, base_mappings = self._base(group)
        _, fast, _ = _align_group(engine, group, base_mappings, FusedCostModel(ARCH))
        oracle = FusedCostModel(ARCH)

        def scalar_select(engine, group, candidates):
            best_index = best_key = None
            for index, candidate in enumerate(candidates):
                cost = oracle.evaluate_group(group, candidate)
                if not (cost.valid and cost.num_pinned_edges == len(group.edges)):
                    continue
                key = (cost.dram_words, cost.edp)
                if best_key is None or key < best_key:
                    best_key, best_index = key, index
            return best_index

        monkeypatch.setattr(fusion_schedule, "_select_candidate", scalar_select)
        _, slow, _ = _align_group(engine, group, base_mappings, FusedCostModel(ARCH))
        assert slow.dram_words == fast.dram_words
        assert slow.latency == fast.latency
        assert slow.energy == fast.energy

    def test_max_candidates_caps_the_search(self, monkeypatch):
        group = attention_block(seq=32, heads=2, head_dim=16)
        engine, base_mappings = self._base(group)
        full = _align_group(engine, group, base_mappings, FusedCostModel(ARCH))
        # The smallest cap the even thinning supports: the two endpoints.
        monkeypatch.setattr(fusion_schedule, "MAX_CANDIDATES", 2)
        capped = _align_group(engine, group, base_mappings, FusedCostModel(ARCH))
        # the capped search sees a subset of the frontier: it can never beat
        # the full search
        assert full[1].dram_words <= capped[1].dram_words
        assert MAX_CANDIDATES > 1

    def test_group_key_is_pinned(self):
        """Fused layer-tier keys still name the candidate cap, from when it
        was settable.  The pin moves with ``RESULTS_VERSION`` and CoSA's
        config fingerprint, and with nothing else."""
        engine = SchedulingEngine(CoSAScheduler(ARCH))
        group = next(g for g in bert_base_block_plan().groups if not g.is_singleton)
        assert group.name == "bert_base_attention_128_h12"
        assert _group_key(engine, group.layers[0], group, 0) == (
            "6017bb448ce6f10e9ddbdcec15756e87a47a11ef8884091d962c513a5232e3d5"
        )


# ------------------------------------------------- the spec surface


class TestEngineSpecFusionOptions:
    """``engine.fusion_options`` is a legacy key: the fixed cap parses and is
    dropped, any other value is refused."""

    def test_round_trip_and_defaults(self):
        assert "fusion_options" not in EngineSpec().to_dict()
        assert EngineSpec.from_dict(EngineSpec().to_dict()) == EngineSpec()
        for legacy in ({}, {"max_candidates": MAX_CANDIDATES}):
            assert EngineSpec.from_dict({"fusion_options": legacy}) == EngineSpec()

    def test_rejects_unknown_and_invalid_options(self):
        for legacy in ({"max_candidates": 1}, {"max_candidates": 0}, {"bogus": 1}):
            with pytest.raises(ValueError, match="no longer settable"):
                EngineSpec.from_dict({"fusion_options": legacy})

    def test_legacy_cap_keeps_the_default_fingerprint(self):
        base = {
            "kind": "schedule",
            "workload": {"fusion": "bert-base-block"},
            "scheduler": "random",
        }
        plain = RunSpec.from_dict(base)
        legacy = RunSpec.from_dict(
            {**base, "engine": {"fusion_options": {"max_candidates": MAX_CANDIDATES}}}
        )
        assert legacy == plain
        assert spec_fingerprint(legacy) == (
            "2bbff9db37dad1183c83223f7b1af11f869c34028b49792142d4e1e916418eed"
        )
