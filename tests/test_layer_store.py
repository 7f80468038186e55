"""Tests for the result store's layer tier: per-layer solves in ``ResultStore``.

A job's :class:`~repro.engine.engine.SchedulingEngine` reads the layer tier
of its store before solving and writes every fresh solve to it, one file
per :func:`~repro.engine.cache.cache_key`.  Covered here: the tier's layout
and its place in ``gc``/``compact``/``stats``, that stores sharing a
directory never lose each other's entries, that a spec sharing a layer
with an earlier spec solves that layer zero times on both backends, and
that an envelope depends only on its spec: a cold ``run()``, a cold and a
warm store-backed job and a fabric job give the same bytes once wall-clock
times are zeroed.
"""

import json
import os
import threading
import time

import pytest

import repro.engine.engine as engine_module
from repro.api import RunSpec, SchedulingService, run, spec_fingerprint
from repro.api.events import LayerScheduled
from repro.api.result import RunResult
from repro.api.store import ResultStore
from repro.arch import simba_like
from repro.baselines import RandomScheduler
from repro.cli import main as cli_main
from repro.engine import SchedulingEngine, cache_key
from repro.fabric.worker import FabricWorker
from repro.workloads import conv_layer

ARCH = simba_like()

SHARED = "3_4_8_16_1"
SCHEDULER = {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}}
SPEC_A = {"kind": "schedule", "workload": {"layers": ["1_2_4_4_1", SHARED]}, "scheduler": SCHEDULER}
SPEC_B = {"kind": "schedule", "workload": {"layers": [SHARED, "3_4_16_8_1"]}, "scheduler": SCHEDULER}

#: Envelope fields that said where a layer's mapping came from, before
#: that provenance left the envelope.
PROVENANCE = ("from_cache", "cache_hits", "cache_misses", "solves")


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


def envelope_bytes(result) -> str:
    """The envelope's JSON with wall-clock times zeroed."""
    return json.dumps(normalize_times(result.to_dict()), sort_keys=True)


def has_provenance(obj) -> bool:
    if isinstance(obj, dict):
        return any(key in PROVENANCE or has_provenance(v) for key, v in obj.items())
    if isinstance(obj, list):
        return any(has_provenance(value) for value in obj)
    return False


def solved_entry(layer=conv_layer(r=1, p=4, c=4, k=8)):
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
        store.put_layer(key, outcome)
        path = store.layer_path(key)
        assert path == tmp_path / "shared" / "layers" / key[:2] / f"{key}.json"
        assert json.loads(path.read_text())["scheduler"] == "random"
        assert not (tmp_path / "tenant").exists()  # nothing tenant-private

    def test_another_tenant_is_served_from_the_shared_tier(self, tmp_path):
        shared = tmp_path / "shared"
        key, outcome = solved_entry()
        ResultStore(tmp_path / "acme", results_root=shared).put_layer(key, outcome)
        globex = ResultStore(tmp_path / "globex", results_root=shared)
        hit = globex.load_layer(key, outcome.layer)
        assert hit is not None and hit.from_cache
        assert hit.mapping.summary() == outcome.mapping.summary()

    def test_layer_lookups_leave_envelope_counters_alone(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, outcome = solved_entry()
        assert store.load_layer(key, outcome.layer) is None
        store.put_layer(key, outcome)
        assert store.load_layer(key, outcome.layer) is not None
        assert store.stats.to_dict() == ResultStore(tmp_path / "other").stats.to_dict()
        assert len(store) == 0  # no envelope was written

    def test_unreadable_entry_reads_as_a_miss_until_rewritten(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key, outcome = solved_entry()
        store.layer_path(key).parent.mkdir(parents=True)
        store.layer_path(key).write_text("{")
        assert store.load_layer(key, outcome.layer) is None
        store.put_layer(key, outcome)
        assert ResultStore(tmp_path / "store").load_layer(key, outcome.layer) is not None

    def test_two_caches_on_one_store_keep_both_keys(self, tmp_path):
        """Regression: a whole-file cache kept only the last saver's keys."""
        store_dir = tmp_path / "store"
        first_key, first = solved_entry(conv_layer(r=1, p=4, c=4, k=8))
        second_key, second = solved_entry(conv_layer(r=1, p=4, c=8, k=4))
        ResultStore(store_dir).put_layer(first_key, first)
        ResultStore(store_dir).put_layer(second_key, second)
        fresh = ResultStore(store_dir)
        assert fresh.load_layer(first_key, first.layer) is not None
        assert fresh.load_layer(second_key, second.layer) is not None


class TestLayerTierMaintenance:
    def test_gc_bounds_envelopes_and_layer_entries_together(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        envelope = run(RunSpec.from_dict(SPEC_A))
        old_envelope = store.put(envelope)
        age(old_envelope, 300)
        key, outcome = solved_entry()
        store.put_layer(key, outcome)  # the newest entry
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
        store.put_layer(key, outcome)
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
    layers = [e for e in job.events(timeout=60) if isinstance(e, LayerScheduled)]
    # The shared layer was solved zero times; the job's log says so.
    assert [e.cache_hit["random"] for e in layers] == [True, False]
    cold = run(RunSpec.from_dict(SPEC_B))
    assert envelope_bytes(result) == envelope_bytes(cold)


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
        stats = result.artifacts["network"].stats
        assert (stats.solves, stats.cache_hits) == (2, 0)


class TestEngineWriteThrough:
    def test_parallel_solves_all_land_in_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        layers = [conv_layer(r=1, p=4, c=c, k=k) for c, k in ((4, 8), (8, 4), (4, 16), (16, 4))]
        engine = SchedulingEngine(RandomScheduler(ARCH, num_valid=2), store=store)
        engine.schedule_network(layers, jobs=4)
        assert store.stats_summary()["layers"] == len(layers)
        rerun = SchedulingEngine(
            RandomScheduler(ARCH, num_valid=2), store=ResultStore(tmp_path / "store")
        ).schedule_network(layers, jobs=4)
        assert rerun.stats.solves == 0
        assert rerun.stats.cache_hits == len(layers)


@pytest.mark.parametrize("value", ["mappings.json", ""])
def test_spec_with_a_cache_path_is_rejected_with_a_pointer_to_store(value):
    with pytest.raises(ValueError, match="engine.cache") as excinfo:
        RunSpec.from_dict({**SPEC_A, "engine": {"cache": value}})
    assert "--store" in str(excinfo.value)


COMPARE = {
    "kind": "compare",
    "workload": {"layers": [SHARED, "1_2_4_4_1"]},
    "options": {
        "random_valid": 2,
        "hybrid_threads": 1,
        "hybrid_termination": 8,
        "hybrid_max_evaluations": 40,
    },
}
FUSED = {
    "kind": "schedule",
    "workload": {"fusion": "bert-base-block", "fusion_options": {"seq": 64}},
    "scheduler": SCHEDULER,
}

#: ``name -> (spec, warmer)``: the warmer is a *different* spec whose solves
#: cover every layer of ``spec`` (for the fused spec, its groups too).
ENVELOPE_SPECS = {
    "schedule": (
        {**SPEC_A, "workload": {"layers": [SHARED, "1_2_4_4_1"]}},
        {**SPEC_A, "workload": {"layers": ["1_2_4_4_1", "3_4_16_8_1", SHARED]}},
    ),
    "compare": (
        COMPARE,
        {**COMPARE, "workload": {"layers": ["3_4_16_8_1", "1_2_4_4_1", SHARED]}},
    ),
    # The platform metric changes only the reported value, not the solves.
    "fused": (FUSED, {**FUSED, "platform": {"name": "timeloop", "metric": "energy"}}),
}


def _fabric_result(tmp_path, spec):
    service = SchedulingService(
        store=tmp_path / "fabric-store", backend="fabric", fabric_root=tmp_path / "fabric"
    )
    worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        return service.submit(spec).result(timeout=300)
    finally:
        worker.stop()
        thread.join(timeout=10)
        service.shutdown()


@pytest.mark.parametrize("name", sorted(ENVELOPE_SPECS))
def test_envelope_depends_only_on_its_spec(name, tmp_path, monkeypatch):
    """A cold run(), a cold and a warm store-backed job and a fabric job of
    one spec give byte-identical envelopes once wall-clock times are zeroed."""
    spec_dict, warmer = ENVELOPE_SPECS[name]
    spec = RunSpec.from_dict(spec_dict)
    cold_run = run(spec)

    with SchedulingService(max_workers=1, store=tmp_path / "cold") as service:
        cold_job = service.submit(spec).result(timeout=300)

    solves = []
    solve_one = engine_module._solve_one

    def counting_solve(scheduler, layer):
        solves.append(layer)
        return solve_one(scheduler, layer)

    monkeypatch.setattr(engine_module, "_solve_one", counting_solve)
    with SchedulingService(max_workers=1, store=tmp_path / "warm") as service:
        service.submit(RunSpec.from_dict(warmer)).result(timeout=300)
        assert solves  # the warmer solved the layers
        solves.clear()
        job = service.submit(spec)
        warm_job = job.result(timeout=300)
    assert job.store_hit is False
    assert solves == []  # every layer came from the layer tier
    layer_events = [e for e in job.events(timeout=60) if isinstance(e, LayerScheduled)]
    assert layer_events
    assert all(all(e.cache_hit.values()) for e in layer_events)

    fabric = _fabric_result(tmp_path, spec)

    expected = envelope_bytes(cold_run)
    assert not has_provenance(cold_run.to_dict())
    assert envelope_bytes(cold_job) == expected
    assert envelope_bytes(warm_job) == expected
    assert envelope_bytes(fabric) == expected


def test_stored_envelope_with_provenance_is_served_verbatim(tmp_path):
    """An envelope stored while it still carried the provenance fields loads
    and is served as a store hit, byte for byte."""
    spec = RunSpec.from_dict(SPEC_A)
    old = run(spec).to_dict()
    old["data"]["stats"].update(cache_hits=0, cache_misses=2, solves=2)
    for outcome in old["data"]["outcomes"]:
        outcome["from_cache"] = False
    ResultStore(tmp_path / "store").put(RunResult.from_dict(old))

    with SchedulingService(max_workers=1, store=tmp_path / "store") as service:
        job = service.submit(spec)
        result = job.result(timeout=300)
    assert job.store_hit is True
    assert result.to_dict() == old
    assert has_provenance(result.to_dict())
    assert ResultStore(tmp_path / "store").load(spec_fingerprint(spec)).to_dict() == old


def test_cli_schedule_json_is_the_same_cold_and_warm(tmp_path, capsys):
    """Regression: a re-run over one store printed other engine counters."""
    args = ["schedule", SHARED, "--scheduler", "random", "--store", str(tmp_path / "store")]
    assert cli_main([*args, "--json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cli_main([*args, "--json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert normalize_times(warm) == normalize_times(cold)
    # The text renderer still says where the layer came from.
    assert cli_main(args) == 0
    assert "served from the result store's layer tier" in capsys.readouterr().out
