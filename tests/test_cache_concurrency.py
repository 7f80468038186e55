"""Concurrency tests for the mapping cache: eviction and JSON persistence
under parallel ``jobs>1`` engine runs and under direct multi-threaded
hammering (previously untested)."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.arch import simba_like
from repro.baselines import RandomScheduler
from repro.engine import MappingCache, SchedulingEngine
from repro.engine.cache import CACHE_FORMAT_VERSION
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
        path = tmp_path / "cache.json"
        cache = MappingCache(path=path)
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), cache=cache)
        layers = distinct_layers(10)

        network = engine.schedule_network(layers, jobs=4, executor="thread")
        assert network.num_succeeded == len(layers)
        assert len(cache) <= 4

        saved = cache.save()
        data = json.loads(saved.read_text())
        assert data["version"] == CACHE_FORMAT_VERSION
        assert len(data["entries"]) <= 4

        reloaded = MappingCache(path=path)
        assert len(reloaded) == len(data["entries"])
        # The reloaded entries really serve: the tail layers (most recently
        # used survive LRU eviction) hit without a fresh solve.
        engine2 = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), cache=reloaded)
        rerun = engine2.schedule_network(layers, jobs=4, executor="thread")
        assert rerun.num_succeeded == len(layers)
        assert rerun.stats.cache_hits >= 1

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
        """Direct hammering: puts, gets and saves race on one instance."""
        monkeypatch.setattr(MappingCache, "MAX_ENTRIES", 8)
        path = tmp_path / "hammer.json"
        cache = MappingCache(path=path)
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
                    if round_ % 5 == 0:
                        cache.save()
            except Exception as error:  # pragma: no cover - failure diagnostics
                errors.append(error)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))

        assert not errors
        assert len(cache) <= 8
        # The last save (atomic temp-file + rename) must be a loadable snapshot.
        cache.save()
        reloaded = MappingCache(path=path)
        assert len(reloaded) <= 8
        for key in list(reloaded._entries):
            assert reloaded.get(key) is not None

    def test_concurrent_saves_to_one_path_never_tear_the_file(self, tmp_path):
        """Two caches persisting to the same path: the file is always valid JSON."""
        path = tmp_path / "shared.json"
        layers = distinct_layers(4)
        scheduler = RandomScheduler(ARCH, num_valid=1)
        caches = []
        for offset in range(2):
            cache = MappingCache()
            for i, layer in enumerate(layers):
                cache.put(f"key-{offset}-{i}", scheduler.schedule_outcome(layer))
            caches.append(cache)

        def saver(cache: MappingCache) -> None:
            for _ in range(25):
                cache.save(path)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(saver, caches))

        data = json.loads(path.read_text())  # would raise on a torn write
        assert data["version"] == CACHE_FORMAT_VERSION
        assert len(data["entries"]) == len(layers)
        assert MappingCache(path=path) is not None
