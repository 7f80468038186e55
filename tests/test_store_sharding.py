"""Tests for the sharded, tiered result store.

Covers the fabric-era store features layered onto :class:`ResultStore`:
fingerprint-prefix sharding, the warm in-memory LRU tier and its hit
counters, size-bounded eviction (``gc``), temp-debris compaction (results
tier and ``jobs/``), the stats summary, and cross-tenant envelope sharing
through ``results_root``.
"""

import pytest

from repro.api import RunSpec, run, spec_fingerprint
from repro.api import store as store_module
from repro.api.store import ResultStore

SCHEDULE_SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
}


@pytest.fixture(scope="module")
def envelope():
    return run(RunSpec.from_dict(SCHEDULE_SPEC))


class TestShardedLayout:
    def test_results_are_sharded_by_fingerprint_prefix(self, tmp_path, envelope):
        store = ResultStore(tmp_path / "store")
        fingerprint = spec_fingerprint(envelope.spec)
        path = store.put(envelope)
        assert path == store.result_path(fingerprint)
        assert path.parent.name == fingerprint[:2]
        assert path.parent.parent == store.results_dir

    def test_leftover_layout_file_is_ignored(self, tmp_path, envelope):
        # Older stores wrote a store.json beside results/; it is not read.
        ResultStore(tmp_path / "store").put(envelope)
        (tmp_path / "store" / "store.json").write_text('{"layout_version": 2, "shard_depth": 2}')
        store = ResultStore(tmp_path / "store")
        assert store.get(RunSpec.from_dict(SCHEDULE_SPEC)).to_dict() == envelope.to_dict()


class TestWarmTier:
    def test_second_get_is_a_warm_hit(self, tmp_path, envelope):
        store = ResultStore(tmp_path / "store")
        store.put(envelope)
        reader = ResultStore(tmp_path / "store")  # cold instance
        spec = RunSpec.from_dict(SCHEDULE_SPEC)
        reader.get(spec)
        reader.get(spec)
        assert reader.stats.disk_hits == 1
        assert reader.stats.warm_hits == 1
        assert reader.stats.hits == 2  # the pre-fabric total still adds up

    def test_warm_tier_evicts_least_recently_used(self, tmp_path, envelope, monkeypatch):
        monkeypatch.setattr(store_module, "WARM_CAPACITY", 2)
        store = ResultStore(tmp_path / "store")
        for name in ("aa", "bb", "cc"):
            store._warm_put(name * 20, envelope)
        assert "aa" * 20 not in store._warm
        assert {"bb" * 20, "cc" * 20} <= set(store._warm)


class TestGcAndCompaction:
    def fill(self, store, envelope, count):
        """Store ``count`` distinct-fingerprint copies with increasing mtimes."""
        import os
        import time

        fingerprints = []
        for index in range(count):
            fingerprint = f"{index:02d}" + "e" * 38
            path = store.put(envelope, fingerprint)
            stamp = time.time() - (count - index) * 100
            os.utime(path, (stamp, stamp))
            fingerprints.append(fingerprint)
        return fingerprints

    def test_gc_evicts_oldest_first_until_under_bound(self, tmp_path, envelope):
        store = ResultStore(tmp_path / "store")
        fingerprints = self.fill(store, envelope, 4)
        size = store.result_path(fingerprints[0]).stat().st_size
        report = store.gc(max_bytes=2 * size)
        assert report.evicted == fingerprints[:2]  # oldest mtimes go first
        assert not store.result_path(fingerprints[0]).exists()
        assert store.result_path(fingerprints[3]).exists()
        assert store.stats.evictions == 2
        assert store.load(fingerprints[0]) is None  # warm tier dropped too

    def test_gc_dry_run_touches_nothing(self, tmp_path, envelope):
        store = ResultStore(tmp_path / "store")
        fingerprints = self.fill(store, envelope, 3)
        report = store.gc(max_bytes=0, dry_run=True)
        assert len(report.evicted) == 3 and report.dry_run is True
        assert all(store.result_path(f).exists() for f in fingerprints)
        assert store.stats.evictions == 0

    def test_compact_sweeps_stale_temp_files_and_empty_shards(self, tmp_path, envelope):
        import os
        import time

        store = ResultStore(tmp_path / "store")
        [fingerprint] = self.fill(store, envelope, 1)
        shard = store.result_path(fingerprint).parent
        debris = shard / ".crashed-writer.tmp"
        debris.write_text("{")
        old = time.time() - 3600
        os.utime(debris, (old, old))
        fresh = shard / ".inflight-writer.tmp"
        fresh.write_text("{")
        empty = store.results_dir / "zz"
        empty.mkdir()

        report = store.compact()
        assert report.removed_temp_files == 1
        assert report.removed_empty_shards == 1
        assert not debris.exists()
        assert fresh.exists()  # young temp files may be in-flight writes
        assert not empty.exists()
        assert store.result_path(fingerprint).exists()

    def test_compact_sweeps_stale_temp_files_in_jobs(self, tmp_path):
        import os
        import time

        # A store with job records but no results tier yet.
        store = ResultStore(tmp_path / "store")
        store.jobs_dir.mkdir(parents=True)
        stale = store.jobs_dir / ".new-job.1.2.tmp"  # a killed first-record write
        stale.write_text("{}")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = store.jobs_dir / ".job-000001-abc.json.3.4.tmp"  # in flight
        fresh.write_text("{}")

        report = store.compact()
        assert report.removed_temp_files == 1
        assert not stale.exists()
        assert fresh.exists()
        assert not store.results_dir.exists()

    def test_stats_summary_snapshot(self, tmp_path, envelope):
        store = ResultStore(tmp_path / "store")
        store.put(envelope)
        store.get(RunSpec.from_dict(SCHEDULE_SPEC))
        summary = store.stats_summary()
        assert summary["entries"] == 1
        assert summary["bytes"] > 0
        assert sum(summary["shards"].values()) == 1
        assert summary["counters"]["warm_hits"] == 1  # put() warmed the tier
        assert summary["warm_tier"]["entries"] == 1


class TestSharedResultsRoot:
    def test_envelopes_shared_records_private(self, tmp_path, envelope):
        shared = tmp_path / "shared"
        acme = ResultStore(tmp_path / "acme", "acme-", results_root=shared)
        globex = ResultStore(tmp_path / "globex", "globex-", results_root=shared)
        spec = RunSpec.from_dict(SCHEDULE_SPEC)

        acme.put(envelope)
        # The other tenant's store sees the envelope without a fresh solve...
        assert globex.get(spec) is not None
        assert globex.stats.hits == 1
        assert acme.result_path(spec_fingerprint(spec)) == globex.result_path(
            spec_fingerprint(spec)
        )
        # ...while job records stay in each tenant's private subtree.
        acme_id = acme.record_job(
            {"job_id": None, "state": "done", "spec_fingerprint": spec_fingerprint(spec)}
        )
        assert globex.load_jobs() == []
        assert acme.load_job(acme_id) is not None
        assert (tmp_path / "acme" / "jobs").is_dir()
        assert not (tmp_path / "globex" / "jobs").is_dir()

    def test_results_root_defaults_to_root(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.results_root == store.root
        assert store.results_dir == tmp_path / "store" / "results"
