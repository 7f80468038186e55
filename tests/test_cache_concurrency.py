"""Concurrency tests for layer reuse: write-through to the result store's
layer tier under parallel ``jobs>1`` engine runs and under direct
multi-threaded hammering of one store."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import RandomScheduler
from repro.engine import SchedulingEngine
from repro.workloads import ProblemLayer, conv_layer

ARCH = simba_like()


def distinct_layers(count: int) -> list[ProblemLayer]:
    """Small distinct layers (distinct layer keys, fast to schedule)."""
    dims = [(4, 8), (8, 4), (4, 16), (16, 4), (8, 8), (2, 16), (16, 2), (4, 4), (2, 8), (8, 2)]
    return [conv_layer(r=1, p=4, c=c, k=k, name=f"l{c}x{k}") for c, k in dims[:count]]


class TestEngineCacheConcurrency:
    def test_parallel_run_with_eviction_stays_bounded_and_persistable(self, tmp_path):
        """jobs>1 writes every solve through to the store, whole."""
        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), store=store)
        layers = distinct_layers(10)

        network = engine.schedule_network(layers, jobs=4)
        assert network.num_succeeded == len(layers)

        # Every solve was written through, and each entry is a complete JSON file.
        files = sorted(store.layers_dir.rglob("*.json"))
        assert len(files) == len(layers)
        assert all(json.loads(path.read_text())["mapping"] for path in files)

        # The stored entries really serve a fresh store instance: every layer
        # hits without a fresh solve.
        engine2 = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), store=ResultStore(tmp_path / "store")
        )
        rerun = engine2.schedule_network(layers, jobs=4)
        assert rerun.num_succeeded == len(layers)
        assert rerun.stats.cache_hits == len(layers)
        assert rerun.stats.solves == 0

    def test_parallel_and_serial_runs_agree_through_shared_cache(self, tmp_path):
        """A store shared by concurrent workers returns the exact solve results."""
        layers = distinct_layers(6)
        serial = SchedulingEngine(RandomScheduler(ARCH, num_valid=2)).schedule_network(
            layers, jobs=1
        )

        store = ResultStore(tmp_path / "store")
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), store=store)
        parallel = engine.schedule_network(layers, jobs=6)
        reference = [o.mapping.summary() for o in serial.outcomes]
        assert [o.mapping.summary() for o in parallel.outcomes] == reference

        # Second pass: all hits, identical mappings again.
        second = engine.schedule_network(layers, jobs=6)
        assert second.stats.cache_hits == len(layers)
        assert [o.mapping.summary() for o in second.outcomes] == reference


class TestCacheHammer:
    def test_concurrent_put_get_save_keeps_invariants(self, tmp_path):
        """Direct hammering: puts, loads and fresh readers race on one store."""
        store = ResultStore(tmp_path / "store")
        layers = distinct_layers(10)
        scheduler = RandomScheduler(ARCH, num_valid=1)
        outcomes = [scheduler.schedule_outcome(layer) for layer in layers]
        errors: list[Exception] = []
        barrier = threading.Barrier(8)

        def worker(worker_id: int) -> None:
            try:
                barrier.wait()
                for round_ in range(20):
                    index = (worker_id + round_) % len(layers)
                    store.put_layer(f"key-{index}", outcomes[index])
                    other = (index + 3) % len(layers)
                    store.load_layer(f"key-{other}", layers[other])
                    if round_ % 5 == 0:  # a fresh reader sees a whole entry
                        fresh = ResultStore(tmp_path / "store")
                        assert fresh.load_layer(f"key-{index}", layers[index]) is not None
            except Exception as error:  # pragma: no cover - failure diagnostics
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(worker, range(8)))
        finally:
            sys.setswitchinterval(interval)

        assert not errors
        # Every key that was put is in the store, whole (atomic temp-file +
        # rename), for a fresh instance to serve.
        reloaded = ResultStore(tmp_path / "store")
        for index, layer in enumerate(layers):
            assert reloaded.load_layer(f"key-{index}", layer) is not None

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        """Two stores writing the same keys to one directory: entries stay valid JSON."""
        layers = distinct_layers(4)
        scheduler = RandomScheduler(ARCH, num_valid=1)
        outcomes = [scheduler.schedule_outcome(layer) for layer in layers]
        stores = [ResultStore(tmp_path / "store") for _ in range(2)]

        def writer(store: ResultStore) -> None:
            for _ in range(25):
                for i, outcome in enumerate(outcomes):
                    store.put_layer(f"key-{i}", outcome)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(writer, stores))

        store = ResultStore(tmp_path / "store")
        files = list(store.layers_dir.rglob("*"))
        assert sorted(path.name for path in files if path.is_file()) == sorted(
            f"key-{i}.json" for i in range(len(layers))
        )  # no temp debris either
        for i, layer in enumerate(layers):
            entry = json.loads(store.layer_path(f"key-{i}").read_text())  # torn -> raises
            assert entry["scheduler"] == outcomes[i].scheduler
            assert store.load_layer(f"key-{i}", layer) is not None
