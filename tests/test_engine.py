"""Tests for the unified scheduling engine: protocol conformance, parallel
equivalence, layer reuse through a result store and the ``stats=None``
regression."""

import json

import pytest

from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import (
    LocalSearchScheduler,
    RandomScheduler,
    TimeloopHybridScheduler,
    TVMLikeTuner,
)
from repro.core import CoSAScheduler
from repro.core.gpu import CoSAGPUScheduler
from repro.core.scheduler import ScheduleResult
from repro.engine import SchedulingEngine, Scheduler, cache_key
from repro.model import CostModel
from repro.solver.solution import Solution, SolveStatus
from repro.workloads import Layer, layer_from_name
from repro.workloads.networks import resnet50_layers

ARCH = simba_like()

TINY = Layer(r=3, p=4, q=4, s=3, c=8, k=16, name="tiny")


def normalize_times(obj):
    """Zero wall-clock float fields (solve times vary run to run)."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if "time" in key and isinstance(value, float) else normalize_times(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [normalize_times(value) for value in obj]
    return obj


class TestSchedulerProtocol:
    def test_all_four_schedulers_conform(self):
        schedulers = [
            CoSAScheduler(ARCH),
            RandomScheduler(ARCH),
            TimeloopHybridScheduler(ARCH),
            TVMLikeTuner(ARCH),
        ]
        for scheduler in schedulers:
            assert isinstance(scheduler, Scheduler), scheduler
        assert len({s.name for s in schedulers}) == 4

    def test_gpu_scheduler_conforms(self):
        assert isinstance(CoSAGPUScheduler(), Scheduler)

    def test_outcome_shape(self):
        outcome = RandomScheduler(ARCH, num_valid=2).schedule_outcome(TINY)
        assert outcome.scheduler == "random"
        assert outcome.layer == TINY
        assert outcome.num_sampled >= outcome.num_evaluated >= 2
        assert outcome.wall_time_seconds > 0
        assert not outcome.from_cache
        assert outcome.detail is not None
        data = outcome.to_dict()
        assert data["succeeded"] is True
        json.dumps(data)  # JSON-compatible

    def test_cosa_outcome_is_one_shot(self):
        outcome = CoSAScheduler(ARCH).schedule_outcome(TINY)
        assert outcome.scheduler == "cosa"
        assert outcome.num_sampled == 1
        assert outcome.num_evaluated == 1
        assert outcome.succeeded

    def test_config_fingerprint_reflects_config(self):
        base = RandomScheduler(ARCH, seed=0)
        assert base.config_fingerprint() == RandomScheduler(ARCH, seed=0).config_fingerprint()
        assert base.config_fingerprint() != RandomScheduler(ARCH, seed=1).config_fingerprint()
        assert base.config_fingerprint() != RandomScheduler(ARCH, num_valid=9).config_fingerprint()

    def test_engine_rejects_non_schedulers(self):
        with pytest.raises(TypeError):
            SchedulingEngine(object())


class TestEngineNetwork:
    def test_dedup_solves_unique_layers_once(self):
        layers = [
            Layer(c=8, k=8, name="a"),
            Layer(p=4, k=16, name="b"),
            Layer(c=8, k=8, name="a-again"),  # equal to "a" (name ignored)
        ]
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2))
        network = engine.schedule_network(layers)
        assert network.stats.num_layers == 3
        assert network.stats.unique_layers == 2
        assert network.stats.dedup_reuses == 1
        assert network.stats.solves == 2
        # The duplicate keeps its own layer identity but shares the mapping.
        assert network.outcomes[2].layer.name == "a-again"
        assert network.outcomes[2].mapping.summary() == network.outcomes[0].mapping.summary()

    def test_metrics_populated(self):
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2))
        outcome = engine.schedule_network([TINY]).outcomes[0]
        assert set(outcome.metrics) == {"latency", "energy", "edp"}
        assert outcome.metrics["edp"] == pytest.approx(
            outcome.metrics["latency"] * outcome.metrics["energy"]
        )

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda: CoSAScheduler(ARCH),
            lambda: LocalSearchScheduler(ARCH, max_evaluations=200, init_samples=16),
        ],
        ids=["cosa", "local-search"],
    )
    def test_each_fresh_layer_is_priced_once(self, make_scheduler, monkeypatch):
        # The engine takes the scheduler's own pricing of its mapping: one
        # scalar CostModel.evaluate per freshly solved layer, not two.
        calls = []
        evaluate = CostModel.evaluate

        def spy(self, mapping):
            calls.append(mapping.layer)
            return evaluate(self, mapping)

        monkeypatch.setattr(CostModel, "evaluate", spy)
        layers = [TINY, Layer(c=8, k=16, name="pointwise"), TINY]
        network = SchedulingEngine(make_scheduler()).schedule_network(layers)
        assert calls == [TINY, layers[1]]
        monkeypatch.setattr(CostModel, "evaluate", evaluate)
        for outcome in network.outcomes:
            cost = CostModel(ARCH).evaluate(outcome.mapping)
            assert outcome.metrics == {"latency": cost.latency, "energy": cost.energy, "edp": cost.edp}

    def test_a_stored_layer_without_metrics_is_priced_on_load(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scheduler = RandomScheduler(ARCH, num_valid=2)
        SchedulingEngine(scheduler, store=store, evaluate_metrics=False).schedule_network([TINY])
        hit = SchedulingEngine(scheduler, store=store).schedule_network([TINY]).outcomes[0]
        assert hit.from_cache and hit.cost is None
        assert hit.metrics["latency"] == CostModel(ARCH).evaluate(hit.mapping).latency

    def test_threads_match_serial_for_search(self):
        layers = [Layer(c=8, k=8), Layer(p=4, k=16), Layer(c=16, k=4), Layer(p=8, c=4)]
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), evaluate_metrics=False)
        serial = engine.schedule_network(layers, jobs=1)
        threaded = engine.schedule_network(layers, jobs=4)
        reference = [o.mapping.summary() for o in serial.outcomes]
        assert [o.mapping.summary() for o in threaded.outcomes] == reference

    def test_invalid_arguments_rejected(self):
        engine = SchedulingEngine(RandomScheduler(ARCH))
        with pytest.raises(ValueError):
            engine.schedule_network([TINY], jobs=0)

    def test_cosa_parallel_matches_serial_on_resnet_slice(self, tmp_path):
        """Acceptance: jobs=N returns mappings identical to the serial path,
        and a second store-backed run performs zero MIP solves."""
        layers = resnet50_layers()[:4]
        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(CoSAScheduler(ARCH), store=store, evaluate_metrics=False)

        first = engine.schedule_network(layers, jobs=1)
        assert first.stats.solves == 4
        assert first.stats.cache_misses == 4
        assert first.stats.cache_hits == 0
        assert all(o.succeeded for o in first.outcomes)

        # Second run: every layer is served from the store, zero MIP solves.
        second = engine.schedule_network(layers, jobs=1)
        assert second.stats.solves == 0
        assert second.stats.cache_hits == 4
        assert second.stats.cache_misses == 0
        assert all(o.from_cache for o in second.outcomes)
        reference = [o.mapping.summary() for o in first.outcomes]
        assert [o.mapping.summary() for o in second.outcomes] == reference

        # Parallel run without a store: same mappings as the serial path.
        parallel_engine = SchedulingEngine(CoSAScheduler(ARCH), evaluate_metrics=False)
        parallel = parallel_engine.schedule_network(layers, jobs=4)
        assert parallel.stats.solves == 4
        assert [o.mapping.summary() for o in parallel.outcomes] == reference

    def test_suite_shares_cache_across_networks(self, tmp_path):
        # ResNet-50 and ResNeXt-50 share their first layer (7_112_3_64_2);
        # with a store the suite must solve it only once.
        suite = {
            "resnet50": resnet50_layers()[:1],
            "resnext50": [layer_from_name("7_112_3_64_2")],
        }
        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), store=store)
        result = engine.schedule_suite(suite)
        assert result.networks["resnet50"].stats.solves == 1
        assert result.networks["resnext50"].stats.cache_hits == 1
        assert result.networks["resnext50"].stats.solves == 0
        assert result.stats.num_layers == 2
        json.dumps(result.to_dict())


class TestMappingCache:
    """Per-layer solves kept in and served from a store's layer tier."""

    def test_disk_round_trip_and_hit(self, tmp_path):
        scheduler = RandomScheduler(ARCH, num_valid=2)
        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(scheduler, store=store)
        solved = engine.schedule_network([TINY]).outcomes[0]
        assert not solved.from_cache
        # Written through on the solve: no save step.
        assert store.layer_path(cache_key(TINY, ARCH, scheduler)).exists()

        # A fresh process-equivalent: a new store object over the same directory.
        engine2 = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), store=ResultStore(tmp_path / "store")
        )
        network = engine2.schedule_network([TINY])
        hit = network.outcomes[0]
        assert hit.from_cache
        assert network.stats.cache_hits == 1
        assert hit.mapping.summary() == solved.mapping.summary()
        # The original solve time survives the round trip.
        assert hit.solve_time_seconds == pytest.approx(solved.solve_time_seconds)

    def test_key_separates_schedulers_architectures_and_configs(self):
        random_a = RandomScheduler(ARCH, seed=0)
        keys = {
            cache_key(TINY, ARCH, random_a),
            cache_key(TINY, ARCH, RandomScheduler(ARCH, seed=1)),
            cache_key(TINY, ARCH, CoSAScheduler(ARCH)),
            cache_key(Layer(c=8, k=16), ARCH, random_a),
            cache_key(TINY, simba_like(), random_a),  # equal arch -> equal key
        }
        assert len(keys) == 4
        # Batch size must enter the key even though canonical names ignore it.
        batched = Layer(r=3, p=4, q=4, s=3, c=8, k=16, n=2)
        assert cache_key(batched, ARCH, random_a) != cache_key(TINY, ARCH, random_a)

    def test_failed_outcomes_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        from repro.engine.outcome import ScheduleOutcome

        store.put_layer("key", ScheduleOutcome(layer=TINY, scheduler="x", mapping=None))
        assert not store.layer_path("key").exists()
        assert store.load_layer("key", TINY) is None

    def test_unreadable_store_entry_degrades_to_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scheduler = RandomScheduler(ARCH, num_valid=2)
        key = cache_key(TINY, ARCH, scheduler)
        store.layer_path(key).parent.mkdir(parents=True)
        store.layer_path(key).write_text('{"version": 99, "entries": {}}')
        engine = SchedulingEngine(scheduler, store=store)
        network = engine.schedule_network([TINY])
        outcome = network.outcomes[0]
        assert outcome.succeeded and not outcome.from_cache
        assert (network.stats.cache_hits, network.stats.cache_misses) == (0, 1)
        # The fresh solve overwrote the entry.
        assert store.load_layer(key, TINY) is not None


class _FailingBackend:
    """MIP backend that never returns a usable solution."""

    time_limit_seconds = None
    mip_rel_gap = 0.0

    def solve(self, model) -> Solution:
        return Solution(status=SolveStatus.ERROR)


class TestStatsNoneRegression:
    def test_schedule_result_allows_missing_stats(self):
        # Regression for the type lie: ScheduleResult.stats is optional.
        result = ScheduleResult(
            layer=TINY,
            mapping=None,
            solution=Solution(status=SolveStatus.ERROR),
            objective=None,
            solve_time_seconds=0.0,
            stats=None,
        )
        assert not result.succeeded
        assert result.stats is None

    def test_failing_solver_produces_guarded_result(self, tmp_path):
        scheduler = CoSAScheduler(ARCH, backend=_FailingBackend())
        result = scheduler.schedule(TINY)
        assert not result.succeeded
        assert result.mapping is None
        assert result.objective is None

        # The unified outcome and the engine handle the failure gracefully.
        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(scheduler, store=store)
        outcome = engine.schedule_network([TINY]).outcomes[0]
        assert not outcome.succeeded
        assert outcome.metrics == {}
        assert store.stats_summary()["layers"] == 0  # failures are never stored

    def test_cli_reports_failure_through_summary_path(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.api import schedulers

        monkeypatch.setitem(
            schedulers._factories,
            "cosa",
            lambda accelerator, **kw: CoSAScheduler(accelerator, backend=_FailingBackend()),
        )
        code = cli.main(["schedule", "3_13_256_256_1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no valid schedule found" in captured.err
        # The single summary path prints nothing on stdout for failed runs.
        assert captured.out == ""


class TestEngineCLI:
    def test_compare_json_output(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        args = ["compare", "alexnet", "--layers", "1", "--jobs", "2", "--json",
                "--store", str(store_dir)]
        assert __import__("repro.cli", fromlist=["main"]).main(args) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema_version"] == 1
        assert envelope["kind"] == "compare"
        assert envelope["spec"]["workload"]["network"] == "alexnet"
        data = envelope["data"]
        assert data["label"] == "alexnet"
        assert len(data["comparisons"]) == 1
        assert {"random", "timeloop-hybrid", "cosa"} <= set(data["engine_stats"])
        assert ResultStore(store_dir).stats_summary()["layers"] == 3
        assert len(ResultStore(store_dir)) == 0  # the verbs keep no envelope

        # Second run against the store's layer tier: zero fresh solves, and
        # the same envelope (wall-clock times aside).
        text_args = [arg for arg in args if arg != "--json"]
        assert __import__("repro.cli", fromlist=["main"]).main(text_args) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "solves=" in line]
        assert len(lines) == 3
        assert all("solves=0 cache_hits=1 " in line for line in lines)
        assert __import__("repro.cli", fromlist=["main"]).main(args) == 0
        rerun = json.loads(capsys.readouterr().out)
        assert normalize_times(rerun) == normalize_times(envelope)

    def test_suite_json_output(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["suite", "--scheduler", "random", "--layers", "1", "--json"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 0
        # An empty-workload suite covers every registered workload, which now
        # includes the transformer-block presets — non-conv problems stamp v2.
        assert envelope["schema_version"] == 2
        data = envelope["data"]
        assert {
            "alexnet",
            "resnet50",
            "resnext50",
            "deepbench",
            "bert-base-block",
            "gpt2-small-block",
        } == set(data["networks"])
        assert data["stats"]["num_layers"] == 6

    def test_schedule_json_output(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["schedule", "3_13_256_256_1", "--scheduler", "random", "--json"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 0
        assert envelope["schema_version"] == 1
        assert envelope["spec"]["scheduler"]["name"] == "random"
        outcome = envelope["data"]["outcomes"][0]
        assert envelope["data"]["succeeded"] is True
        assert outcome["succeeded"] is True
        assert "loop_nest" in outcome
        assert outcome["metrics"]["latency"] > 0


class TestLayerObserver:
    """schedule_network/schedule_suite report one LayerReport per input
    layer, in input order, regardless of jobs — the substrate of the
    service's deterministic layer_scheduled events."""

    def _reports(self, engine, layers, **kwargs):
        reports = []
        engine.schedule_network(layers, observer=reports.append, **kwargs)
        return reports

    def test_reports_in_input_order_with_sources(self, tmp_path):
        scheduler = RandomScheduler(ARCH, num_valid=2, seed=0)
        engine = SchedulingEngine(scheduler, store=ResultStore(tmp_path / "store"))
        layers = [Layer(r=3, p=4, c=8, k=16, name="a"),
                  Layer(r=1, p=2, c=4, k=4, name="b"),
                  Layer(r=3, p=4, c=8, k=16, name="a2")]  # dup of "a"

        cold = self._reports(engine, layers, label="net")
        assert [r.index for r in cold] == [0, 1, 2]
        assert [r.source for r in cold] == ["solve", "solve", "dedup"]
        assert all(r.network == "net" for r in cold)
        assert [r.layer.name for r in cold] == ["a", "b", "a2"]
        assert all(r.outcome.succeeded for r in cold)

        warm = self._reports(engine, layers, label="net")
        assert [r.source for r in warm] == ["cache", "cache", "dedup"]

    def test_reports_identical_under_jobs(self):
        scheduler = RandomScheduler(ARCH, num_valid=2, seed=0)
        engine = SchedulingEngine(scheduler)
        layers = [Layer(r=3, p=4, c=8, k=16), Layer(r=1, p=2, c=4, k=4)]

        from repro.mapping.serialize import mapping_to_dict

        serial = self._reports(engine, layers, jobs=1)
        threaded = self._reports(engine, layers, jobs=2)
        key = lambda r: (r.index, r.source, mapping_to_dict(r.outcome.mapping))
        assert [key(r) for r in serial] == [key(r) for r in threaded]

    def test_reports_stream_between_solves(self):
        # Progress is live: with jobs=1 the observer fires for layer N before
        # layer N+1's solve starts, not in a batch after the whole network.
        scheduler = RandomScheduler(ARCH, num_valid=1, seed=0)
        engine = SchedulingEngine(scheduler)
        trace = []
        original = scheduler.schedule_outcome

        def traced(layer):
            trace.append(("solve", layer.name))
            return original(layer)

        scheduler.schedule_outcome = traced
        layers = [Layer(r=1, p=2, c=4, k=4, name="a"), Layer(p=4, k=8, name="b")]
        engine.schedule_network(
            layers, observer=lambda r: trace.append(("report", r.layer.name))
        )
        assert trace == [
            ("solve", "a"), ("report", "a"), ("solve", "b"), ("report", "b"),
        ]

    def test_suite_observer_covers_every_network(self):
        scheduler = RandomScheduler(ARCH, num_valid=1, seed=0)
        engine = SchedulingEngine(scheduler)
        suite = {"one": [Layer(r=1, p=2, c=4, k=4)], "two": [Layer(p=4, k=8)]}
        reports = []
        engine.schedule_suite(suite, observer=reports.append)
        assert [(r.network, r.index) for r in reports] == [("one", 0), ("two", 0)]
