"""Unit tests for the baseline schedulers (Random, Timeloop-Hybrid, TVM-like)."""

import math

import pytest

from repro.arch import gpu_k80, simba_like
from repro.arch.gpu import gpu_as_accelerator
from repro.baselines import RandomScheduler, TimeloopHybridScheduler, TVMLikeTuner, random_search
from repro.baselines.base import SearchScheduler
from repro.engine import SchedulingEngine
from repro.mapping import MapSpace
from repro.model import BatchCostModel, CostModel
from repro.workloads import conv_layer, layer_from_name
from repro.workloads.problem import matmul
from scalar_reference import assert_same_outcome, scalar_reference

ARCH = simba_like()
SMALL_LAYER = conv_layer(r=3, p=4, c=8, k=16, name="small")
MEDIUM_LAYER = layer_from_name("3_14_128_256_1")


class TestSearchScheduler:
    def test_metric_validation(self):
        with pytest.raises(ValueError):
            RandomScheduler(ARCH, metric="throughput")

    def test_score_prefers_valid(self):
        scheduler = RandomScheduler(ARCH, metric="edp")
        from repro.model.cost import CostResult

        invalid = CostResult(valid=False)
        valid = CostResult(valid=True, latency=10.0, energy=5.0)
        assert scheduler.score(invalid) == float("inf")
        assert scheduler.score(valid) == 50.0

    def test_all_metrics_supported(self):
        for metric in SearchScheduler.METRICS:
            RandomScheduler(ARCH, metric=metric)


class TestRandomScheduler:
    def test_finds_valid_mapping(self):
        scheduler = RandomScheduler(ARCH, num_valid=3, max_attempts=3000, seed=0)
        result = scheduler.schedule(SMALL_LAYER)
        assert result.succeeded
        assert result.num_evaluated <= 3
        assert result.num_sampled >= result.num_evaluated
        assert result.cost.valid
        assert result.mapping.is_consistent()

    def test_deterministic_given_seed(self):
        a = RandomScheduler(ARCH, num_valid=2, seed=7).schedule(SMALL_LAYER)
        b = RandomScheduler(ARCH, num_valid=2, seed=7).schedule(SMALL_LAYER)
        assert a.cost.latency == b.cost.latency

    def test_more_samples_never_hurt(self):
        few = RandomScheduler(ARCH, num_valid=1, seed=3).schedule(MEDIUM_LAYER)
        many = RandomScheduler(ARCH, num_valid=10, seed=3).schedule(MEDIUM_LAYER)
        assert many.cost.latency <= few.cost.latency

    def test_network_scheduling(self):
        scheduler = RandomScheduler(ARCH, num_valid=1, seed=0)
        results = SchedulingEngine(scheduler).schedule_network([SMALL_LAYER, MEDIUM_LAYER])
        assert len(results.outcomes) == 2

    def test_best_mapping_validated_by_cost_model(self):
        result = RandomScheduler(ARCH, num_valid=3, seed=5).schedule(MEDIUM_LAYER)
        assert CostModel(ARCH).evaluate(result.mapping).valid


class TestRandomChunking:
    """Random search draws only about the candidates it reads.

    Chunks are sized from the valid mappings still needed, so the draw
    count depends on the chunk cap while the winner and counters do not.
    The reference search draws and scores one candidate per chunk.
    """

    @staticmethod
    def chunk_sizes(monkeypatch):
        sizes = []
        sample_batch = MapSpace.sample_batch

        def spy(space, count, rng=None):
            sizes.append(count)
            return sample_batch(space, count, rng)

        monkeypatch.setattr(MapSpace, "sample_batch", spy)
        return sizes

    @staticmethod
    def reference(monkeypatch, layer):
        with monkeypatch.context() as patch:
            patch.setattr(random_search, "MAX_CHUNK", 1)
            return scalar_reference(RandomScheduler)(ARCH).schedule(layer)

    def test_best_of_five_draws_less_than_one_batch(self, monkeypatch):
        layer = layer_from_name("3_56_64_64_1")  # a ResNet-50 conv
        reference = self.reference(monkeypatch, layer)
        sizes = self.chunk_sizes(monkeypatch)
        batched = RandomScheduler(ARCH).schedule(layer)
        assert sum(sizes) < random_search.MAX_CHUNK
        assert sizes[0] == 10  # twice the five valid mappings needed
        assert_same_outcome(reference, batched)

    def test_low_validity_layer_needs_logarithmically_many_chunks(self, monkeypatch):
        layer = matmul(1 << 14, 1 << 14, 1 << 14)  # well under 1% of draws fit
        reference = self.reference(monkeypatch, layer)
        # Lift the cap so the doubling alone sizes the chunks.
        monkeypatch.setattr(random_search, "MAX_CHUNK", 1 << 14)
        sizes = self.chunk_sizes(monkeypatch)
        batched = RandomScheduler(ARCH).schedule(layer)
        assert reference.num_sampled > 500
        # Each chunk at least doubles the multiplier, so K chunks draw at
        # least 2**(K + 1) - 2 candidates.
        assert len(sizes) <= math.log2(sum(sizes) + 2)
        assert sum(sizes) < 2 * reference.num_sampled + 10
        assert_same_outcome(reference, batched)


class TestTimeloopHybridScheduler:
    def test_finds_valid_mapping(self):
        scheduler = TimeloopHybridScheduler(
            ARCH, num_threads=1, termination_condition=16, max_evaluations=100, seed=0
        )
        result = scheduler.schedule(SMALL_LAYER)
        assert result.succeeded
        assert result.num_evaluated > 0
        assert result.mapping.is_consistent()

    def test_beats_or_matches_single_random_sample(self):
        random_result = RandomScheduler(ARCH, num_valid=1, seed=11).schedule(MEDIUM_LAYER)
        hybrid_result = TimeloopHybridScheduler(
            ARCH, num_threads=2, termination_condition=32, max_evaluations=400, seed=11
        ).schedule(MEDIUM_LAYER)
        assert hybrid_result.cost.latency <= random_result.cost.latency

    def test_respects_evaluation_budget(self):
        scheduler = TimeloopHybridScheduler(
            ARCH, num_threads=4, termination_condition=1000, max_evaluations=50, seed=0
        )
        result = scheduler.schedule(SMALL_LAYER)
        assert result.num_evaluated <= 50

    def test_energy_metric_changes_selection_target(self):
        latency_result = TimeloopHybridScheduler(
            ARCH, num_threads=1, termination_condition=24, max_evaluations=200, seed=2
        ).schedule(MEDIUM_LAYER)
        energy_result = TimeloopHybridScheduler(
            ARCH,
            num_threads=1,
            termination_condition=24,
            max_evaluations=200,
            metric="energy",
            seed=2,
        ).schedule(MEDIUM_LAYER)
        assert energy_result.cost.energy <= latency_result.cost.energy * 1.001

    def test_permutation_sweep_preserves_consistency(self):
        scheduler = TimeloopHybridScheduler(ARCH, num_threads=1, termination_condition=8,
                                            max_evaluations=40, seed=1)
        result = scheduler.schedule(MEDIUM_LAYER)
        assert result.mapping.is_consistent()


class TestTVMLikeTuner:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TVMLikeTuner(ARCH, trials=0)
        with pytest.raises(ValueError):
            TVMLikeTuner(ARCH, batch_size=0)

    def test_tunes_on_gpu_target(self):
        gpu = gpu_as_accelerator()
        tuner = TVMLikeTuner(gpu, trials=5, batch_size=4, seed=0)
        result = tuner.schedule(SMALL_LAYER)
        assert result.succeeded
        assert result.mapping.is_consistent()
        assert CostModel(gpu).evaluate(result.mapping).valid

    def test_more_trials_never_hurt(self):
        gpu = gpu_as_accelerator()
        short = TVMLikeTuner(gpu, trials=2, batch_size=4, seed=4).schedule(MEDIUM_LAYER)
        long = TVMLikeTuner(gpu, trials=10, batch_size=4, seed=4).schedule(MEDIUM_LAYER)
        assert long.cost.latency <= short.cost.latency

    def test_mutations_keep_layer_bounds(self):
        tuner = TVMLikeTuner(ARCH, trials=4, batch_size=4, seed=9)
        result = tuner.schedule(SMALL_LAYER)
        assert result.mapping.is_consistent()

    def test_direct_construction_scores_in_batches(self, monkeypatch):
        # Fig. 11 builds the tuner directly on the K80 target: each trial's
        # candidates go through one vectorized pass.
        calls = []
        evaluate_draws = BatchCostModel.evaluate_draws

        def spy(model, draws):
            calls.append(len(draws))
            return evaluate_draws(model, draws)

        monkeypatch.setattr(BatchCostModel, "evaluate_draws", spy)
        result = TVMLikeTuner(gpu_k80(), trials=3, seed=1).schedule(MEDIUM_LAYER)
        assert calls == [8, 8, 8]
        assert result.num_sampled == sum(calls)


class TestWallClockBudget:
    """The search baselines must honor a wall-clock budget, not only their
    iteration counts, so time-to-solution tables are apples-to-apples."""

    def test_zero_budget_returns_immediately(self):
        for scheduler in (
            RandomScheduler(ARCH, max_attempts=10**9, num_valid=10**9, time_budget_seconds=0.0),
            TimeloopHybridScheduler(ARCH, max_evaluations=10**9, time_budget_seconds=0.0),
            TVMLikeTuner(ARCH, trials=10**6, time_budget_seconds=0.0),
        ):
            result = scheduler.schedule(SMALL_LAYER)
            assert result.num_sampled == 0, type(scheduler).__name__
            assert result.mapping is None
            assert result.elapsed_seconds < 1.0

    def test_budget_cuts_an_unbounded_iteration_count(self):
        import time

        # Without a budget this configuration would draw ~10^9 samples.
        scheduler = RandomScheduler(
            ARCH, max_attempts=10**9, num_valid=10**9, time_budget_seconds=0.2
        )
        start = time.perf_counter()
        result = scheduler.schedule(MEDIUM_LAYER)
        elapsed = time.perf_counter() - start
        assert 0 < result.num_sampled < 10**6
        assert elapsed < 5.0  # generous CI headroom over the 0.2 s budget

    def test_budget_applies_to_batched_path_too(self):
        # Every TVM trial is one scored batch; the budget stops the trials.
        scheduler = TVMLikeTuner(ARCH, trials=10**9, time_budget_seconds=0.2)
        result = scheduler.schedule(MEDIUM_LAYER)
        assert 0 < result.num_sampled < 10**6
        assert result.elapsed_seconds < 5.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RandomScheduler(ARCH, time_budget_seconds=-1.0)

    def test_unbudgeted_runs_keep_their_fingerprint(self):
        # Budget-free configurations fingerprint exactly as before, so
        # existing cache entries stay valid; budgeted ones key separately.
        free = RandomScheduler(ARCH, seed=1)
        assert "time_budget" not in free.config_fingerprint()
        capped = RandomScheduler(ARCH, seed=1, time_budget_seconds=0.5)
        assert "time_budget" in capped.config_fingerprint()
