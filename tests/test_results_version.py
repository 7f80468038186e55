"""``RESULTS_VERSION``: stores do not serve results the current code would not produce.

Both store keys — the envelope tier's :func:`~repro.api.store.spec_fingerprint`
and the layer tier's :func:`~repro.engine.cache.cache_key_from_parts` — carry
:data:`repro.digest.RESULTS_VERSION`.  The first test replays a store filled
under another version, with its stored numbers made stale, and gets a fresh
solve.  The second ties the version to the committed result files: a change
that regenerates the golden envelopes or the figure files must bump the
version and re-pin the digest here, or this test fails.
"""

import hashlib
import json
from pathlib import Path

import repro.api.store as store_module
import repro.engine.cache as cache_module
from repro.api import RunSpec, run, spec_fingerprint
from repro.api.runner import execute_job
from repro.api.store import ResultStore
from repro.digest import RESULTS_VERSION

ROOT = Path(__file__).resolve().parent.parent

#: One stride-2 layer with CoSA: the kind of result a formulation change moves.
SPEC = RunSpec.from_dict(
    {"kind": "schedule", "workload": {"layers": ["1_4_8_8_2"]}, "scheduler": "cosa"}
)

#: A latency no solve produces, planted in the entries of the old version.
STALE_LATENCY = 1.0


def _latency(result) -> float:
    return result.to_dict()["data"]["outcomes"][0]["metrics"]["latency"]


def test_entries_stored_under_another_version_are_solved_afresh(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    with monkeypatch.context() as older:
        older.setattr(store_module, "RESULTS_VERSION", RESULTS_VERSION - 1)
        older.setattr(cache_module, "RESULTS_VERSION", RESULTS_VERSION - 1)
        stale_fingerprint = spec_fingerprint(SPEC)
        execute_job(SPEC, stale_fingerprint, store)
    assert stale_fingerprint != spec_fingerprint(SPEC)

    # Make both stale entries say something the current code does not.
    [layer_file] = store.layers_dir.rglob("*.json")
    entry = json.loads(layer_file.read_text())
    entry["metrics"]["latency"] = STALE_LATENCY
    layer_file.write_text(json.dumps(entry))
    envelope_file = store.result_path(stale_fingerprint)
    envelope = json.loads(envelope_file.read_text())
    envelope["data"]["outcomes"][0]["metrics"]["latency"] = STALE_LATENCY
    envelope_file.write_text(json.dumps(envelope))

    store = ResultStore(tmp_path / "store")
    result, store_hit = execute_job(SPEC, spec_fingerprint(SPEC), store)
    assert not store_hit
    assert _latency(result) == _latency(run(SPEC)) != STALE_LATENCY
    # The fresh solve went under new keys in both tiers, next to the stale ones.
    assert store.stats_summary()["layers"] == 2
    assert len(store) == 2


def _results_digest() -> str:
    """sha256 over the golden envelopes and the figure files, names included.

    ``benchmarks/results/BENCH_*.json`` are throughput timings, not results,
    and stay out.
    """
    files = sorted((ROOT / "tests" / "golden").glob("*.json"))
    files += sorted((ROOT / "benchmarks" / "results").glob("*.txt"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def test_results_version_is_bumped_with_the_result_files():
    assert (RESULTS_VERSION, _results_digest()) == (
        3,
        "d15e84fd703a049aee4fce0ac2232b59e113210c8b5634947e697c68c62965dd",
    ), "result files changed: bump RESULTS_VERSION and re-pin this digest"
