"""Tests for the DDFW-style local-search scheduler and its plumbing.

Five layers of contract:

* **End-to-end** — ``local-search`` is registered, schedules conv and
  matmul layers through ``schedule_outcome`` and the declarative ``run()``
  path, and its winner validates against the layer.
* **Outcome invariance** — batched pricing of the seed draws and the
  neighbourhoods gives the winner, cost and counters of pricing each state
  alone, and only result-determining options split the config fingerprint
  (the layer-tier key).
* **Quality** — under an equal evaluation budget the guided search is never
  worse than random search on a spread of ResNet-50 layers (and strictly
  better on some).
* **Pinned outcomes** — the winners, costs and evaluation counts of five
  default-budget searches are fixed: pricing a step one move at a time or
  as one batch must not move them.
* **Store identity** — legacy specs that still carry the removed
  ``engine.kernel_backend`` key share the result-store entry of the same
  spec without it (the key's parsing is covered with the other legacy
  engine keys in ``test_api.py``).
"""

import itertools

import pytest

from repro.api import (
    EngineSpec,
    RunSpec,
    SchedulingService,
    run,
    schedulers,
)
from repro.api.store import ResultStore
from repro.arch import architecture_presets, gpu_k80, simba_like
from repro.baselines import LocalSearchScheduler, RandomScheduler, SearchScheduler
from repro.baselines.local_search import LOOKAHEAD
from repro.mapping import MapSpace
from repro.workloads import layer_from_name, matmul
from scalar_reference import SequentialLocalSearch, assert_same_outcome, scalar_reference

ARCH = simba_like()

#: Cheap spec used by the fingerprint/store tests below.
LOCAL_SEARCH_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {
        "name": "local-search",
        "options": {"max_evaluations": 200, "init_samples": 32},
    },
}


def small_scheduler(scheduler_class=LocalSearchScheduler, **overrides):
    options = {"max_evaluations": 400, "init_samples": 64, "seed": 3}
    options.update(overrides)
    return scheduler_class(ARCH, **options)


class TestEndToEnd:
    def test_registered_and_creatable(self):
        assert "local-search" in schedulers.available()
        scheduler = schedulers.create("local-search", ARCH, max_evaluations=100)
        assert isinstance(scheduler, LocalSearchScheduler)
        assert scheduler.max_evaluations == 100

    def test_schedules_conv_and_matmul(self):
        scheduler = small_scheduler()
        for layer in (
            layer_from_name("3_7_64_64_1"),
            matmul(m=64, n=256, k=256, name="ls_matmul"),
        ):
            outcome = scheduler.schedule_outcome(layer)
            assert outcome.succeeded, layer.name
            outcome.mapping.validate_against_layer()
            result = scheduler.schedule(layer)
            assert result.cost.valid
            assert result.num_evaluated <= scheduler.max_evaluations

    def test_runs_through_the_declarative_api(self):
        result = run(RunSpec.from_dict(LOCAL_SEARCH_SPEC))
        assert result.data["succeeded"] is True
        assert result.data["outcomes"][0]["scheduler"] == "local-search"


class TestOutcomeInvariance:
    def test_matches_the_scalar_reference(self):
        # The second walk starts from an invalid seed (one initial sample),
        # so the DDFW weights on the violation totals steer it: a wrong
        # capacity or fanout total moves its winner.
        for layer_name, overrides in (
            ("3_14_32_64_1", {}),
            ("3_28_128_128_2", {"init_samples": 1, "seed": 0}),
        ):
            layer = layer_from_name(layer_name)
            reference = small_scheduler(scalar_reference(LocalSearchScheduler), **overrides)
            result = small_scheduler(**overrides).schedule(layer)
            assert_same_outcome(reference.schedule(layer), result)

    def test_fingerprint_ignores_execution_knobs_when_budget_free(self):
        reference = small_scheduler().config_fingerprint()
        # How candidates are scored does not enter it.
        assert small_scheduler(scalar_reference(LocalSearchScheduler)).config_fingerprint() == reference
        # Result-determining knobs do split the fingerprint.
        assert small_scheduler(seed=9).config_fingerprint() != reference
        assert small_scheduler(init_samples=16).config_fingerprint() != reference


def every_arch():
    return {**architecture_presets(), "gpu-k80": gpu_k80()}


class ChainRecorder(LocalSearchScheduler):
    """Local search that records the length of every chain it draws."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chains = []

    def _draw_chain(self, *args):
        steps = super()._draw_chain(*args)
        self.chains.append(len(steps))
        return steps


def assert_same_walk(expected, result):
    assert_same_outcome(expected, result)
    assert expected.mapping.summary() == result.mapping.summary()


class TestLookahead:
    """Pricing plateau steps ahead replays the step-at-a-time walk exactly."""

    LAYER = layer_from_name("3_4_8_16_1")

    @pytest.mark.parametrize("metric", SearchScheduler.METRICS)
    @pytest.mark.parametrize("arch_name", sorted(every_arch()))
    def test_matches_a_step_at_a_time_walk(self, arch_name, metric):
        arch = every_arch()[arch_name]
        chains = []
        for seed, budget in itertools.product((0, 1, 2), (45, 150, 400)):
            options = dict(metric=metric, seed=seed, max_evaluations=budget, init_samples=8)
            expected = SequentialLocalSearch(arch, **options).schedule(self.LAYER)
            scheduler = ChainRecorder(arch, **options)
            assert_same_walk(expected, scheduler.schedule(self.LAYER))
            chains += scheduler.chains
        assert max(chains) == LOOKAHEAD

    def test_an_empty_neighbourhood_ends_the_search_only_when_reached(self, monkeypatch):
        # Both walks see an empty neighbourhood at the same rng positions; the
        # lookahead also draws some its replay never reaches.
        draw_moves = MapSpace.neighborhood
        empty = {"hit": 0}

        def sometimes_empty(space, state, rng, count):
            if hash(rng.getstate()[1]) % 17 == 0:
                empty["hit"] += 1
                return []
            return draw_moves(space, state, rng, count)

        monkeypatch.setattr(MapSpace, "neighborhood", sometimes_empty)
        reached = drawn = 0
        for arch_name, seed in itertools.product(sorted(every_arch()), range(6)):
            options = dict(seed=seed, max_evaluations=400, init_samples=8)
            empty["hit"] = 0
            expected = SequentialLocalSearch(every_arch()[arch_name], **options).schedule(
                self.LAYER
            )
            reached += empty["hit"]
            empty["hit"] = 0
            result = LocalSearchScheduler(every_arch()[arch_name], **options).schedule(self.LAYER)
            drawn += empty["hit"]
            assert_same_walk(expected, result)
        assert 0 < reached < drawn

    def test_a_wall_clock_budget_prices_one_step_per_call(self):
        options = dict(max_evaluations=400, init_samples=8, seed=1, time_budget_seconds=600.0)
        expected = SequentialLocalSearch(ARCH, **options).schedule(self.LAYER)
        scheduler = ChainRecorder(ARCH, **options)
        assert_same_walk(expected, scheduler.schedule(self.LAYER))
        assert set(scheduler.chains) == {1}


class TestBeatsRandomAtEqualBudget:
    def test_never_worse_on_resnet50_layers(self):
        budget = 1200
        wins = 0
        for name in (
            "3_56_64_64_1",
            "1_28_128_512_1",
            "3_14_256_256_1",
            "1_7_512_2048_1",
        ):
            layer = layer_from_name(name)
            local = LocalSearchScheduler(ARCH, max_evaluations=budget, seed=0).schedule(layer)
            rand = RandomScheduler(
                ARCH, num_valid=budget, max_attempts=budget, seed=0
            ).schedule(layer)
            assert local.num_evaluated <= budget
            assert local.cost.latency <= rand.cost.latency, name
            wins += local.cost.latency < rand.cost.latency
        assert wins >= 1, "guided search should strictly beat random somewhere"


#: Default-budget searches (seed 0, 4000 evaluations) whose outcomes are
#: pinned: the two ``search-eval`` layers of the end-to-end benchmark, a
#: matmul under EDP, a strided (``Window``) conv under energy and a GPU layer.
PINNED = [
    (
        "baseline-4x4", "latency", "1_28_512_256_1",
        "L0: s[P7 C8] t[Q7 P2 C4] | L1: s[-] t[K4] | L2: s[-] t[Q2 K4] | L3: s[-] t[C2] "
        "| L4: s[C8 K2] t[K8 Q2 P2] | L5: s[-] t[-]",
        140800.0, 638633410.5600001,
    ),
    (
        "baseline-4x4", "latency", "1_7_512_2048_1",
        "L0: s[Q7 C4 K2] t[C2 P7 K4] | L1: s[-] t[K2 C2] | L2: s[-] t[K4] | L3: s[-] t[C8 K2] "
        "| L4: s[C4 K4] t[-] | L5: s[-] t[K4]",
        146752.0, 478798510.08000004,
    ),
    (
        "baseline-4x4", "edp", "matmul",
        "L0: s[M16 N4] t[M4 K24] | L1: s[-] t[K4 N8] | L2: s[-] t[-] | L3: s[-] t[K2] "
        "| L4: s[M2 N2 K4] t[N3] | L5: s[-] t[N4]",
        98304.0, 439888773.12000006,
    ),
    (
        "baseline-4x4", "energy", "3_28_128_128_2",
        "L0: s[R3 P7 Q2] t[Q7 K4] | L1: s[-] t[C8 S3 K2] | L2: s[-] t[Q2 K2] | L3: s[-] t[K8 C2] "
        "| L4: s[C4] t[C2 P4] | L5: s[-] t[-]",
        688128.0, 636896020.4800001,
    ),
    (
        "gpu-k80", "latency", "3_14_256_256_1",
        "L0: s[P2 Q14 C32] t[K128] | L1: s[-] t[C8] | L2: s[R3 S3] t[P7] | L3: s[-] t[K2]",
        42560.0, 567988633.6,
    ),
]


class TestPinnedOutcomes:
    @pytest.mark.parametrize(
        "arch_name, metric, layer_name, summary, latency, energy",
        PINNED,
        ids=[f"{row[0]}-{row[2]}-{row[1]}" for row in PINNED],
    )
    def test_default_search_outcome(self, arch_name, metric, layer_name, summary, latency, energy):
        arch = {**architecture_presets(), "gpu-k80": gpu_k80()}[arch_name]
        if layer_name == "matmul":
            layer = matmul(m=128, n=768, k=768, name="pin_matmul")
        else:
            layer = layer_from_name(layer_name)
        result = LocalSearchScheduler(arch, metric=metric).schedule(layer)
        assert result.mapping.summary() == summary
        assert (result.cost.latency, result.cost.energy) == (latency, energy)
        assert result.num_evaluated == 4000


class TestSpecAndStoreIdentity:
    def test_engine_spec_serialization_is_legacy_identical_when_unset(self):
        assert "kernel_backend" not in EngineSpec().to_dict()
        legacy = EngineSpec.from_dict({"kernel_backend": "numba"})
        assert legacy == EngineSpec()
        assert "kernel_backend" not in legacy.to_dict()
        with pytest.raises(ValueError, match="kernel_backend must be one of"):
            EngineSpec.from_dict({"kernel_backend": "cuda"})

    def test_backend_switch_is_a_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        numpy_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numpy"}}
        )
        numba_spec = RunSpec.from_dict(
            {**LOCAL_SEARCH_SPEC, "engine": {"kernel_backend": "numba"}}
        )
        with SchedulingService(max_workers=1, store=store) as service:
            first = service.submit(numpy_spec)
            first.result(timeout=300)
            second = service.submit(numba_spec)
            second.result(timeout=300)
        assert store.stats.puts == 1
        assert store.stats.hits == 1


class TestKnobValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evaluations": 0},
            {"init_samples": 0},
            {"metric": "throughput"},
        ],
        # Each row keeps the id it had when the list also held the six DDFW
        # values that are now module constants.
        ids=["kwargs0", "kwargs1", "kwargs8"],
    )
    def test_bad_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LocalSearchScheduler(ARCH, **kwargs)
