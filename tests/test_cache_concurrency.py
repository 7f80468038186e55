"""Concurrency tests for the mapping cache: eviction and write-through to
the result store's layer tier under parallel ``jobs>1`` engine runs and
under direct multi-threaded hammering."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import RandomScheduler
from repro.engine import MappingCache, SchedulingEngine
from repro.workloads import Layer

ARCH = simba_like()


def distinct_layers(count: int) -> list[Layer]:
    """Small distinct layers (distinct cache keys, fast to schedule)."""
    dims = [(4, 8), (8, 4), (4, 16), (16, 4), (8, 8), (2, 16), (16, 2), (4, 4), (2, 8), (8, 2)]
    return [Layer(p=4, q=4, c=c, k=k, name=f"l{c}x{k}") for c, k in dims[:count]]


class TestEngineCacheConcurrency:
    def test_parallel_run_with_eviction_stays_bounded_and_persistable(self, tmp_path, monkeypatch):
        """jobs>1 + a tiny LRU: eviction races must not corrupt the cache."""
        monkeypatch.setattr(MappingCache, "MAX_ENTRIES", 4)
        store = ResultStore(tmp_path / "store")
        cache = MappingCache(store=store)
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), cache=cache)
        layers = distinct_layers(10)

        network = engine.schedule_network(layers, jobs=4, executor="thread")
        assert network.num_succeeded == len(layers)
        assert len(cache) <= 4

        # The memory bound does not bound the store: every solve was written
        # through, and each entry is a complete JSON file.
        files = sorted(store.layers_dir.rglob("*.json"))
        assert len(files) == len(layers)
        assert all(json.loads(path.read_text())["mapping"] for path in files)

        reloaded = MappingCache(store=store)
        assert len(reloaded) == 0  # read through lazily, not loaded eagerly
        # The stored entries really serve: even the layers evicted from the
        # first cache's memory hit without a fresh solve.
        engine2 = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), cache=reloaded)
        rerun = engine2.schedule_network(layers, jobs=4, executor="thread")
        assert rerun.num_succeeded == len(layers)
        assert rerun.stats.cache_hits == len(layers)
        assert len(reloaded) <= 4

    def test_parallel_and_serial_runs_agree_through_shared_cache(self):
        """A cache shared by concurrent workers returns the exact solve results."""
        layers = distinct_layers(6)
        serial = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), evaluate_metrics=False
        ).schedule_network(layers, jobs=1)

        cache = MappingCache()
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), cache=cache)
        parallel = engine.schedule_network(layers, jobs=6, executor="thread")
        reference = [o.mapping.summary() for o in serial.outcomes]
        assert [o.mapping.summary() for o in parallel.outcomes] == reference

        # Second pass: all hits, identical mappings again.
        second = engine.schedule_network(layers, jobs=6, executor="thread")
        assert second.stats.cache_hits == len(layers)
        assert [o.mapping.summary() for o in second.outcomes] == reference


class TestCacheHammer:
    def test_concurrent_put_get_save_keeps_invariants(self, tmp_path, monkeypatch):
        """Direct hammering: puts, gets and store reads race on one instance."""
        monkeypatch.setattr(MappingCache, "MAX_ENTRIES", 8)
        store = ResultStore(tmp_path / "store")
        cache = MappingCache(store=store)
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
                    cache.put(f"key-{index}", outcomes[index])
                    cache.get(f"key-{(index + 3) % len(layers)}", layers[index])
                    if round_ % 5 == 0:  # a fresh reader sees a whole entry
                        assert MappingCache(store=store).get(f"key-{index}") is not None
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
        assert len(cache) <= 8
        # Every key that was put is in the store, whole (atomic temp-file +
        # rename), for a fresh instance to serve.
        reloaded = MappingCache(store=ResultStore(tmp_path / "store"))
        for index, layer in enumerate(layers):
            assert reloaded.get(f"key-{index}", layer) is not None
        assert len(reloaded) <= 8

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        """Two caches writing the same keys to one store: entries stay valid JSON."""
        layers = distinct_layers(4)
        scheduler = RandomScheduler(ARCH, num_valid=1)
        outcomes = [scheduler.schedule_outcome(layer) for layer in layers]
        caches = [MappingCache(store=ResultStore(tmp_path / "store")) for _ in range(2)]

        def writer(cache: MappingCache) -> None:
            for _ in range(25):
                for i, outcome in enumerate(outcomes):
                    cache.put(f"key-{i}", outcome)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(writer, caches))

        store = ResultStore(tmp_path / "store")
        files = list(store.layers_dir.rglob("*"))
        assert sorted(path.name for path in files if path.is_file()) == sorted(
            f"key-{i}.json" for i in range(len(layers))
        )  # no temp debris either
        for i, layer in enumerate(layers):
            entry = json.loads(store.layer_path(f"key-{i}").read_text())  # torn -> raises
            assert entry["scheduler"] == outcomes[i].scheduler
            assert MappingCache(store=store).get(f"key-{i}", layer) is not None
