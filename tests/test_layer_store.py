"""Tests for the result store's layer tier: per-layer solves in ``ResultStore``.

A job's :class:`~repro.engine.cache.MappingCache` reads through to the
layer tier of its store on a miss and writes every fresh solve through to
it, one file per :func:`~repro.engine.cache.cache_key`.  Covered here: the
tier's layout and its place in ``gc``/``compact``/``stats``, that caches
sharing a store never lose each other's entries, and that a spec sharing a
layer with an earlier spec solves that layer zero times on both backends
while its envelope otherwise equals a cold run.
"""

import json
import os
import threading
import time

import pytest

from repro.api import RunSpec, SchedulingService, run
from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import RandomScheduler
from repro.engine import MappingCache, SchedulingEngine, cache_key
from repro.fabric.worker import FabricWorker
from repro.workloads import Layer

ARCH = simba_like()

SHARED = "3_4_8_16_1"
SCHEDULER = {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}}
SPEC_A = {"kind": "schedule", "workload": {"layers": ["1_2_4_4_1", SHARED]}, "scheduler": SCHEDULER}
SPEC_B = {"kind": "schedule", "workload": {"layers": [SHARED, "3_4_16_8_1"]}, "scheduler": SCHEDULER}

#: Payload fields that say where a layer's mapping came from, not what it is.
PROVENANCE = {"from_cache", "cache_hits", "cache_misses", "solves", "cache_hit"}


def normalize(obj):
    """Zero wall-clock floats and drop provenance fields, recursively."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if "time" in key and isinstance(value, float) else normalize(value)
            for key, value in obj.items()
            if key not in PROVENANCE
        }
    if isinstance(obj, list):
        return [normalize(value) for value in obj]
    return obj


def solved_entry(layer=Layer(p=4, q=4, c=4, k=8)):
    """``(key, outcome)`` of one fresh random-search solve."""
    scheduler = RandomScheduler(ARCH, num_valid=1)
    return cache_key(layer, ARCH, scheduler), scheduler.schedule_outcome(layer)


def age(path, seconds=3600):
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestLayerTier:
    def test_entries_are_sharded_files_under_results_root(self, tmp_path):
        store = ResultStore(tmp_path / "tenant", results_root=tmp_path / "shared")
        key, outcome = solved_entry()
        MappingCache(store=store).put(key, outcome)
        path = store.layer_path(key)
        assert path == tmp_path / "shared" / "layers" / key[:2] / f"{key}.json"
        assert json.loads(path.read_text())["scheduler"] == "random"
        assert not (tmp_path / "tenant").exists()  # nothing tenant-private

    def test_another_tenant_is_served_from_the_shared_tier(self, tmp_path):
        shared = tmp_path / "shared"
        key, outcome = solved_entry()
        MappingCache(store=ResultStore(tmp_path / "acme", results_root=shared)).put(key, outcome)
        globex = MappingCache(store=ResultStore(tmp_path / "globex", results_root=shared))
        hit = globex.get(key, outcome.layer)
        assert hit is not None and hit.from_cache
        assert hit.mapping.summary() == outcome.mapping.summary()

    def test_layer_lookups_leave_envelope_counters_alone(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, outcome = solved_entry()
        cache = MappingCache(store=store)
        assert cache.get(key) is None
        cache.put(key, outcome)
        assert MappingCache(store=store).get(key) is not None
        assert store.stats.to_dict() == ResultStore(tmp_path / "other").stats.to_dict()
        assert len(store) == 0  # no envelope was written

    def test_unreadable_entry_reads_as_a_miss_until_rewritten(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, outcome = solved_entry()
        store.layer_path(key).parent.mkdir(parents=True)
        store.layer_path(key).write_text("{")
        cache = MappingCache(store=store)
        assert cache.get(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put(key, outcome)
        assert MappingCache(store=store).get(key) is not None

    def test_two_caches_on_one_store_keep_both_keys(self, tmp_path):
        """Regression: a whole-file cache kept only the last saver's keys."""
        store_dir = tmp_path / "store"
        first_key, first = solved_entry(Layer(p=4, q=4, c=4, k=8))
        second_key, second = solved_entry(Layer(p=4, q=4, c=8, k=4))
        MappingCache(store=ResultStore(store_dir)).put(first_key, first)
        MappingCache(store=ResultStore(store_dir)).put(second_key, second)
        fresh = MappingCache(store=ResultStore(store_dir))
        assert fresh.get(first_key) is not None
        assert fresh.get(second_key) is not None
        assert fresh.stats.hits == 2


class TestLayerTierMaintenance:
    def test_gc_bounds_envelopes_and_layer_entries_together(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        envelope = run(RunSpec.from_dict(SPEC_A))
        old_envelope = store.put(envelope)
        age(old_envelope, 300)
        key, outcome = solved_entry()
        MappingCache(store=store).put(key, outcome)  # the newest entry
        total = old_envelope.stat().st_size + store.layer_path(key).stat().st_size
        report = store.gc(max_bytes=total - 1)
        assert report.evicted == [old_envelope.stem]
        assert store.layer_path(key).exists()
        report = store.gc(max_bytes=0)
        assert report.evicted == [key]
        assert report.remaining_entries == 0

    def test_compact_sweeps_layer_debris_and_empty_layer_shards(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, outcome = solved_entry()
        store.put_layer(key, {"scheduler": "random"})
        shard = store.layer_path(key).parent
        debris = shard / f".{key}.json.1.2.tmp"
        debris.write_text("{")
        age(debris)
        empty = store.layers_dir / "zz"
        empty.mkdir()
        report = store.compact()
        assert report.removed_temp_files == 1
        assert report.removed_empty_shards == 1
        assert not debris.exists() and not empty.exists()
        assert report.remaining_entries == 1
        assert store.stats_summary()["layers"] == 1


def _submit_both(service):
    first = service.submit(RunSpec.from_dict(SPEC_A))
    first.result(timeout=300)
    second = service.submit(RunSpec.from_dict(SPEC_B))
    return second.result(timeout=300), second


def _check_reuse(result, job):
    assert job.store_hit is False  # B itself ran; only its layer was reused
    data = result.to_dict()["data"]
    shared, fresh = data["outcomes"]
    assert shared["from_cache"] is True
    assert fresh["from_cache"] is False
    assert data["stats"]["solves"] == 1  # the shared layer was solved zero times
    assert data["stats"]["cache_hits"] == 1
    cold = run(RunSpec.from_dict(SPEC_B))
    assert cold.data["stats"]["solves"] == 2
    assert normalize(result.to_dict()) == normalize(cold.to_dict())


class TestCrossSpecReuse:
    def test_local_service_reuses_a_layer_an_earlier_spec_solved(self, tmp_path):
        with SchedulingService(max_workers=1, store=tmp_path / "store") as service:
            result, job = _submit_both(service)
        _check_reuse(result, job)

    def test_fabric_worker_reuses_a_layer_an_earlier_spec_solved(self, tmp_path):
        service = SchedulingService(
            store=tmp_path / "store", backend="fabric", fabric_root=tmp_path / "fabric"
        )
        worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            result, job = _submit_both(service)
        finally:
            worker.stop()
            thread.join(timeout=10)
            service.shutdown()
        _check_reuse(result, job)

    def test_run_without_a_store_reuses_nothing(self):
        run(RunSpec.from_dict(SPEC_A))
        result = run(RunSpec.from_dict(SPEC_B))
        assert result.data["stats"]["solves"] == 2
        assert result.data["stats"]["cache_hits"] == 0


class TestEngineWriteThrough:
    def test_parallel_solves_all_land_in_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        layers = [Layer(p=4, q=4, c=c, k=k) for c, k in ((4, 8), (8, 4), (4, 16), (16, 4))]
        engine = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), cache=MappingCache(store=store)
        )
        engine.schedule_network(layers, jobs=4, executor="thread")
        assert store.stats_summary()["layers"] == len(layers)
        rerun = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), cache=MappingCache(store=store)
        ).schedule_network(layers, jobs=4, executor="thread")
        assert rerun.stats.solves == 0
        assert rerun.stats.cache_hits == len(layers)


@pytest.mark.parametrize("value", ["mappings.json", ""])
def test_spec_with_a_cache_path_is_rejected_with_a_pointer_to_store(value):
    with pytest.raises(ValueError, match="engine.cache") as excinfo:
        RunSpec.from_dict({**SPEC_A, "engine": {"cache": value}})
    assert "--store" in str(excinfo.value)
