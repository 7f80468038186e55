"""Parity tests: the vectorized batch evaluator against the scalar oracle.

Three layers of protection:

* **Cost parity** — for every mapping the scalar test-suite constructs (the
  hand-built nests of ``test_model.py``) plus hundreds of random samples per
  architecture preset, the batched evaluator must agree with
  :class:`~repro.model.cost.CostModel` on validity and match latency /
  energy / EDP / utilization to within 1e-9 relative (they are bit-identical
  in practice: the batch model mirrors the scalar float expression order).
  Every built-in tensor problem is checked bit-exactly (``==``, no
  tolerance) through the draws fast path.
* **Packing parity** — :meth:`MappingBatch.from_draws` produces exactly the
  arrays of :meth:`MappingBatch.from_mappings` for the same candidates.
* **Search parity** — every search baseline must produce the *identical*
  outcome (same winner mapping, same sample/evaluation counters, same best
  cost) as a loop of scalar evaluations over the same candidate stream.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from repro.arch import architecture_presets, gpu_k80, simba_like
from repro.baselines import RandomScheduler, TimeloopHybridScheduler, TVMLikeTuner, random_search
from repro.mapping import MapSpace, Mapping
from repro.model import CostModel, BatchCostModel, MappingBatch
from repro.workloads import (
    Layer,
    attention_av,
    attention_qk,
    depthwise_conv,
    grouped_conv,
    layer_from_name,
    matmul,
)
from scalar_reference import SequentialTimeloopHybrid, assert_same_outcome, scalar_reference

ARCH = simba_like()
REL = 1e-9


def builtin_problem_layers():
    """One small layer per built-in tensor problem (all six)."""
    return [
        layer_from_name("3_7_64_64_1"),  # conv7
        matmul(m=8, n=16, k=32, name="parity_matmul"),
        depthwise_conv(r=3, p=8, c=16, name="parity_dw"),
        grouped_conv(r=3, p=8, c=4, k=4, groups=8, name="parity_gconv"),
        attention_qk(seq=16, heads=2, head_dim=8, name="parity_qk"),
        attention_av(seq=16, heads=2, head_dim=8, name="parity_av"),
    ]


def assert_results_identical(a, b):
    """BatchCostResult equality with ``==`` — bit-exact, not approximate."""
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.latency, b.latency)
    assert np.array_equal(a.energy, b.energy)
    assert np.array_equal(a.utilization, b.utilization)


def assert_draws_match_scalar_exactly(arch, draws):
    """Evaluate ``draws`` through the fast path; compare with ``==``."""
    scalar = CostModel(arch)
    result = BatchCostModel(arch).evaluate_draws(draws)
    for i in range(len(draws)):
        cost = scalar.evaluate(draws.materialize(i))
        assert bool(result.valid[i]) == cost.valid
        if cost.valid:
            assert result.latency[i] == cost.latency
            assert result.energy[i] == cost.energy
            assert result.utilization[i] == cost.utilization
    return result


def make_mapping(arch, layer, temporal, spatial=None, permutations=None):
    """Pad per-level factor dicts to the architecture's level count."""
    num = arch.num_memory_levels
    temporal = list(temporal) + [{}] * (num - len(temporal))
    spatial = list(spatial or []) + [{}] * (num - len(spatial or []))
    return Mapping.from_factors(layer, temporal, spatial, permutations)


def assert_batch_matches_scalar(arch, mappings):
    """Core parity assertion: evaluate ``mappings`` both ways and compare."""
    scalar = CostModel(arch)
    result = BatchCostModel(arch).evaluate_mappings(mappings)
    for i, mapping in enumerate(mappings):
        cost = scalar.evaluate(mapping)
        assert bool(result.valid[i]) == cost.valid, f"validity diverges for candidate {i}"
        if not cost.valid:
            assert result.latency[i] == float("inf")
            assert result.energy[i] == float("inf")
            continue
        assert result.latency[i] == pytest.approx(cost.latency, rel=REL, abs=0)
        assert result.energy[i] == pytest.approx(cost.energy, rel=REL, abs=0)
        assert result.edp[i] == pytest.approx(cost.edp, rel=REL, abs=0)
        assert result.utilization[i] == pytest.approx(cost.utilization, rel=REL)


class TestCostParityHandBuilt:
    """The exact nests the scalar model's own tests construct."""

    def test_suite_constructed_mappings(self):
        cases = []
        layer = layer_from_name("3_7_64_64_1")
        cases.append(
            make_mapping(ARCH, layer, [{"R": 3, "S": 3, "P": 7, "Q": 7, "C": 64, "K": 64}])
        )
        cases.append(
            make_mapping(
                ARCH, layer, [{"R": 3, "S": 3}, {"C": 4}, {"C": 16}, {"P": 7, "Q": 7}, {"K": 64}, {}]
            )
        )
        cases.append(
            make_mapping(
                ARCH, layer,
                [{"R": 3, "S": 3}, {"C": 64}, {}, {"P": 7, "Q": 7}, {"K": 64}, {}],
            )
        )
        cases.append(
            make_mapping(
                ARCH, layer,
                [{"R": 3, "S": 3}, {}, {}, {"P": 7, "Q": 7}, {"C": 64, "K": 64}, {}],
                permutations=[(), (), (), (), ("C", "K"), ()],
            )
        )
        assert_batch_matches_scalar(ARCH, cases)

    def test_small_layer_variants(self):
        layer = Layer(p=4, q=4, c=8, k=16)
        cases = [
            make_mapping(ARCH, layer, [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}]),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
                spatial=[{}, {}, {}, {}, {"K": 4}, {}],
            ),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {}, {}],
                spatial=[{}, {}, {}, {}, {"K": 16}, {}],
            ),
            make_mapping(
                ARCH, layer,
                [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 1}, {}],
                spatial=[{"K": 16}, {}, {}, {}, {}, {}],
            ),
        ]
        assert_batch_matches_scalar(ARCH, cases)

    def test_strided_input_halo(self):
        layer = Layer(r=3, s=3, p=4, q=4, c=1, k=1, stride=2)
        cases = [make_mapping(ARCH, layer, [{"R": 3, "S": 3, "P": 4, "Q": 4}])]
        assert_batch_matches_scalar(ARCH, cases)

    def test_invalid_mappings_rejected_identically(self):
        oversized = make_mapping(ARCH, Layer(p=64, q=64), [{"P": 64, "Q": 64}])
        overfanout = make_mapping(
            ARCH, Layer(k=32), [{}] * 6, spatial=[{}, {}, {}, {}, {"K": 32}, {}]
        )
        inconsistent = make_mapping(ARCH, Layer(p=4, k=4), [{"P": 2, "K": 4}])
        valid = make_mapping(
            ARCH, Layer(p=4, q=4, c=8, k=16),
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        # Mixed batch: invalids must not poison the valid candidate.
        for layer_cases in ([oversized], [overfanout], [inconsistent]):
            assert_batch_matches_scalar(ARCH, layer_cases)
        mixed = BatchCostModel(ARCH).evaluate_mappings([valid, valid])
        assert mixed.num_valid == 2

    def test_level_count_mismatch_marks_all_invalid(self):
        layer = Layer(p=2)
        short = Mapping.from_factors(layer, temporal_factors=[{"P": 2}])
        result = BatchCostModel(ARCH).evaluate_mappings([short, short])
        assert not result.valid.any()
        assert result.latency[0] == float("inf")

    def test_level_count_mismatch_marks_everything_invalid(self):
        layer = layer_from_name("3_7_64_64_1")
        model = BatchCostModel(ARCH)  # 6-level hierarchy
        shallow = gpu_k80()  # 4-level hierarchy
        draws = MapSpace(layer, shallow).sample_batch(8, random.Random(2))
        result = model.evaluate_draws(draws)
        assert not result.valid.any()
        assert np.all(np.isinf(result.latency))
        assert np.all(np.isinf(result.energy))
        assert np.all(result.utilization == 0.0)
        with pytest.raises(ValueError, match="level count"):
            model.evaluate_detail(MappingBatch.from_draws(draws))

    def test_problem_mismatch_is_an_error(self):
        conv = layer_from_name("3_7_64_64_1")
        other = matmul(m=8, n=16, k=32, name="wrong_problem")
        packed = MappingBatch.from_draws(MapSpace(other, ARCH).sample_batch(4, random.Random(0)))
        # matmul factor matrices relabelled as a conv layer: the dimension
        # columns cannot be priced against the conv problem.
        forged = MappingBatch(
            conv,
            packed.temporal,
            packed.spatial,
            packed.loop_level,
            packed.loop_dim,
            packed.loop_bound,
        )
        with pytest.raises(ValueError, match="cannot"):
            BatchCostModel(ARCH).evaluate_batch(forged)


class TestCostParityRandom:
    """Random sampling parity over every architecture preset."""

    @pytest.mark.parametrize("arch_name", sorted(architecture_presets()))
    @pytest.mark.parametrize("layer_name", ["3_7_64_64_1", "3_28_128_128_2", "1_14_256_256_1"])
    def test_random_samples(self, arch_name, layer_name):
        arch = architecture_presets()[arch_name]
        layer = layer_from_name(layer_name)
        space = MapSpace(layer, arch)
        rng = random.Random(7)
        mappings = [space.random_mapping(rng) for _ in range(60)]
        assert_batch_matches_scalar(arch, mappings)

    def test_parity_across_architecture_presets(self):
        layer = layer_from_name("3_14_32_64_1")
        for _, arch in sorted(architecture_presets().items()):
            draws = MapSpace(layer, arch).sample_batch(48, random.Random(3))
            assert_draws_match_scalar_exactly(arch, draws)

    def test_parity_without_noc_multicast(self):
        # Without multicast every word a child reads leaves its parent once
        # per instance: the read counts take the unscaled branch.
        arch = dataclasses.replace(ARCH, noc=dataclasses.replace(ARCH.noc, multicast=False))
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, arch).sample_batch(24, random.Random(12))
            result = assert_draws_match_scalar_exactly(arch, draws)
            assert result.num_valid, f"no valid draw for {layer.name}: weak test"

    def test_draws_match_materialized_mappings(self):
        """from_draws and from_mappings agree on the same candidates."""
        layer = layer_from_name("3_7_64_64_1")
        space = MapSpace(layer, ARCH)
        draws = space.sample_batch(40, random.Random(3))
        model = BatchCostModel(ARCH)
        via_draws = model.evaluate_batch(MappingBatch.from_draws(draws))
        via_mappings = model.evaluate_mappings([draws.materialize(i) for i in range(40)])
        assert (via_draws.valid == via_mappings.valid).all()
        assert (via_draws.latency == via_mappings.latency).all()
        assert (via_draws.energy == via_mappings.energy).all()


class TestBuiltinProblems:
    """Bit-exact parity on every built-in tensor problem."""

    def test_every_builtin_problem_matches_scalar_oracle(self):
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, ARCH).sample_batch(24, random.Random(11))
            assert_draws_match_scalar_exactly(ARCH, draws)

    def test_evaluate_draws_equals_evaluate_mappings_on_every_builtin_problem(self):
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, ARCH).sample_batch(64, random.Random(7))
            model = BatchCostModel(ARCH)
            via_draws = model.evaluate_draws(draws)
            via_mappings = model.evaluate_mappings(
                [draws.materialize(i) for i in range(len(draws))]
            )
            assert_results_identical(via_draws, via_mappings)
            assert bool(via_draws.valid.any()), f"no valid draw for {layer.name}: weak test"

    def test_from_draws_reproduces_from_mappings_arrays(self):
        for layer in builtin_problem_layers():
            draws = MapSpace(layer, ARCH).sample_batch(32, random.Random(0))
            fast = MappingBatch.from_draws(draws)
            reference = MappingBatch.from_mappings(
                [draws.materialize(i) for i in range(len(draws))]
            )
            for name in ("temporal", "spatial", "loop_level", "loop_dim", "loop_bound"):
                assert np.array_equal(getattr(fast, name), getattr(reference, name)), (
                    f"{layer.name}: {name} diverges"
                )
            assert fast.layer is draws.layer

    def test_from_mappings_multiplies_repeated_dims(self):
        layer = Layer(p=4, q=4, c=8, k=16)
        split = make_mapping(
            ARCH, layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}],
        )
        levels = list(split.levels)
        k_loop = levels[4].temporal[0]
        levels[4] = type(levels[4])(
            temporal=[type(k_loop)(dim="K", bound=4), type(k_loop)(dim="K", bound=4)],
            spatial=list(levels[4].spatial),
        )
        repeated = Mapping(layer, levels)
        batch = MappingBatch.from_mappings([repeated])
        assert batch.temporal[0, 4, batch.layer.problem.dims.index("K")] == 16.0
        assert_batch_matches_scalar(ARCH, [repeated, split])

    def test_problem_tables_are_cached_per_instance(self):
        layer = matmul(m=8, n=16, k=32, name="cache_probe")
        model = BatchCostModel(ARCH)
        draws = MapSpace(layer, ARCH).sample_batch(4, random.Random(1))
        model.evaluate_draws(draws)
        tables = model._layer_consts[layer][0]
        assert tables.problem == layer.problem
        model.evaluate_draws(draws)
        assert list(model._layer_consts) == [layer]
        assert model._layer_consts[layer][0] is tables


#: ResNet-50 shapes covering 1x1, 3x3 and strided 7x7 convolutions.
HYBRID_PARITY_LAYERS = (
    "7_112_3_64_2",
    "3_56_64_64_1",
    "1_56_64_256_1",
    "3_28_128_128_1",
    "1_14_256_1024_1",
    "3_7_512_512_1",
)


class TestSearchParity:
    """Each baseline against a scalar loop over the same candidates."""

    LAYERS = ("3_7_64_64_1", "1_14_256_256_1")

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_random_scheduler(self, layer_name, monkeypatch):
        layer = layer_from_name(layer_name)
        kwargs = dict(num_valid=5, max_attempts=2000)
        batched = RandomScheduler(ARCH, **kwargs).schedule(layer)
        # One draw per chunk: the candidate stream must not depend on chunking.
        monkeypatch.setattr(random_search, "MAX_CHUNK", 1)
        reference = scalar_reference(RandomScheduler)(ARCH, **kwargs).schedule(layer)
        assert_same_outcome(reference, batched)

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_tvm_like_tuner(self, layer_name):
        layer = layer_from_name(layer_name)
        kwargs = dict(trials=8, batch_size=8)
        reference = scalar_reference(TVMLikeTuner)(ARCH, **kwargs).schedule(layer)
        batched = TVMLikeTuner(ARCH, **kwargs).schedule(layer)
        assert_same_outcome(reference, batched)

    @pytest.mark.parametrize("layer_name", LAYERS)
    def test_timeloop_hybrid(self, layer_name):
        layer = layer_from_name(layer_name)
        kwargs = dict(num_threads=2, termination_condition=32, max_evaluations=250)
        reference = scalar_reference(TimeloopHybridScheduler)(ARCH, **kwargs).schedule(layer)
        batched = TimeloopHybridScheduler(ARCH, **kwargs).schedule(layer)
        assert_same_outcome(reference, batched)

    @pytest.mark.parametrize("preset", ["baseline-4x4", "pe-8x8"])
    @pytest.mark.parametrize("metric", ["latency", "energy", "edp"])
    def test_timeloop_hybrid_matches_one_sweep_per_batch(self, preset, metric):
        """Scoring several factorisations per batch replays the one-sweep-
        per-call search exactly: same winner, cost and counters."""
        arch = architecture_presets()[preset]
        # Threads stop on the termination window, then on the evaluation cap.
        budgets = [
            dict(num_threads=2, termination_condition=24, max_evaluations=200),
            dict(num_threads=2, termination_condition=1000, max_evaluations=45),
        ]
        for layer_name, budget in itertools.product(HYBRID_PARITY_LAYERS, budgets):
            layer = layer_from_name(layer_name)
            reference = SequentialTimeloopHybrid(arch, metric=metric, **budget).schedule(layer)
            batched = TimeloopHybridScheduler(arch, metric=metric, **budget).schedule(layer)
            assert_same_outcome(reference, batched)

    def test_time_budget_is_in_fingerprint(self):
        """A budget-capped search is machine-dependent: it must key the cache."""
        free = RandomScheduler(ARCH, seed=3)
        capped = RandomScheduler(ARCH, seed=3, time_budget_seconds=1.0)
        assert free.config_fingerprint() != capped.config_fingerprint()
