"""Content-addressed on-disk store of finished :class:`RunResult` envelopes.

The paper's sweeps re-run the same experiments constantly — across shell
sessions, CI jobs and notebook restarts.  The :class:`ResultStore` persists
every finished run under the **fingerprint of its spec**, so resubmitting an
identical spec is a store hit that returns the stored envelope verbatim
without invoking any scheduler.  Its **layer tier** keeps every successful
per-layer solve under its :func:`~repro.engine.cache.cache_key`, so a
*different* spec sharing a layer skips that layer's MIP or search: a job's
:class:`~repro.engine.engine.SchedulingEngine` reads and writes it through
:meth:`ResultStore.load_layer` / :meth:`ResultStore.put_layer`.  Where a
layer came from never reaches the envelope, so a job's envelope does not
depend on what the store held when it ran.

* Envelopes are the plain v1 :meth:`~repro.api.result.RunResult.to_dict`
  JSON — the store adds no wrapper, so a stored file round-trips through
  ``RunResult.from_json`` and is byte-for-byte what ``run()`` produced.
* The key (:func:`spec_fingerprint`) hashes everything a spec serializes
  except ``engine.jobs``, which cannot change the payload: a 1-job and an
  8-job run of the same experiment share one entry, while kind, axes, seed,
  options and time budget split entries.  A spec serializes only what a run
  reads, so no other key needs filtering.  The key also carries
  :data:`~repro.digest.RESULTS_VERSION`.
* Writes go through :func:`repro.io_utils.atomic_write_json`, so concurrent
  services sharing one store directory never tear an entry.

Layout (fingerprint-prefix sharded)
-----------------------------------
One flat directory stops scaling somewhere in the tens of thousands of
entries (every lookup lists siblings, every backup walks one dir), so the
results and layer tiers shard by the first two hex characters of the key —
the standard content-addressed trick (git objects, blob caches)::

    <results_root>/results/<fp[:2]>/<fp>.json      # RunResult envelopes
    <results_root>/layers/<key[:2]>/<key>.json     # per-layer solves
    <root>/jobs/<job_id>.json                      # job records (tenant-private)
    <root>/jobs/<job_id>.events.ndjson             # append-only, one event per line

``results_root`` defaults to ``root`` but may point elsewhere: the gateway
gives every tenant a private ``root`` (job records, event logs) while all
tenants share one ``results_root`` — identical specs submitted by different
tenants are **one** content-addressed entry, executed once, and so is a
layer solve.  A ``store.json`` left beside ``results/`` by older versions is
ignored.

Tiers, eviction, compaction
---------------------------
A warm in-memory LRU tier (:data:`WARM_CAPACITY` parsed envelopes) fronts
the disk tier; :class:`StoreStats` splits hits into ``warm_hits`` /
``disk_hits`` (layer lookups are not counted here; the engine reports them
as ``"cache"`` layer sources).  The layer tier has no memory tier: every
lookup reads its file.  :meth:`gc` evicts least-recently-*used* entries of
both tiers — every disk hit refreshes the file's mtime — until they fit a
byte bound, and :meth:`compact` sweeps crashed writers' temp debris and
empty shard directories.  ``repro store stats`` / ``repro store gc`` expose both from
the shell.

Job ids: a job's first record mints its id and is published by hard-linking
a complete temp file to ``<id>.json``; the link arbitrates between services
sharing one store, and no placeholder is written.  A ``{}`` placeholder
left by older versions, which reserved ids with ``O_EXCL`` first, reads as an
unknown record without a warning.

Record repair semantics: a job record that cannot be parsed (empty,
truncated, or not a JSON object — debris of a crashed writer or a damaged
disk) is **skipped with a** :class:`StoreRecordWarning` by
:meth:`ResultStore.load_jobs` and treated as unknown by
:meth:`ResultStore.load_job`, so one bad file never takes down job listings
for the whole store.  The next ``record_job`` for that id rewrites the file
atomically and repairs it.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.result import RunResult
from repro.api.specs import RunSpec
from repro.digest import RESULTS_VERSION, stable_digest
from repro.engine.outcome import ScheduleOutcome
from repro.io_utils import append_bytes, atomic_write_json, read_ndjson
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict

#: Fingerprint-prefix characters used as the shard directory name.  Two hex
#: chars give 256 shards.
SHARD_DEPTH = 2

#: Envelopes kept parsed in the warm tier.
WARM_CAPACITY = 128


def spec_fingerprint(spec: RunSpec) -> str:
    """Content hash of ``spec`` (all keys but ``engine.jobs``) and ``RESULTS_VERSION``."""
    payload = spec.to_dict()
    del payload["engine"]["jobs"]
    payload["results_version"] = RESULTS_VERSION
    return stable_digest(payload)


class StoreRecordWarning(RuntimeWarning):
    """An on-disk job record was unreadable and has been skipped."""


@dataclass
class StoreStats:
    """Hit/miss counters of one :class:`ResultStore` instance.

    ``hits`` remains the total (warm + disk) so pre-fabric consumers keep
    reading the same field; the tier split rides alongside.  ``fused_hits``
    counts the subset of hits whose spec requested fusion-group scheduling
    (``spec.workload.fusion`` set), so operators can see how much of the
    store traffic the fusion tier serves.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    warm_hits: int = 0
    disk_hits: int = 0
    fused_hits: int = 0
    evictions: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "warm_hits": self.warm_hits,
            "disk_hits": self.disk_hits,
            "fused_hits": self.fused_hits,
            "evictions": self.evictions,
        }


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` / :meth:`ResultStore.compact` pass did."""

    evicted: list = field(default_factory=list)
    evicted_bytes: int = 0
    removed_temp_files: int = 0
    removed_empty_shards: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    dry_run: bool = False

    def to_dict(self) -> dict:
        return {
            "evicted": list(self.evicted),
            "evicted_bytes": self.evicted_bytes,
            "removed_temp_files": self.removed_temp_files,
            "removed_empty_shards": self.removed_empty_shards,
            "remaining_entries": self.remaining_entries,
            "remaining_bytes": self.remaining_bytes,
            "dry_run": self.dry_run,
        }


class ResultStore:
    """Spec-fingerprint-addressed directory of finished run envelopes.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).  One store may
        be shared by many services and processes; every write is atomic.
    job_prefix:
        Optional prefix minted into every job id (``<prefix>job-000001-…``).
        The gateway uses it to give each tenant a distinct id namespace, so
        an id names its tenant even outside the tenant's store subtree.
    results_root:
        Directory holding the shared ``results/`` tier (defaults to
        ``root``).  Point several stores' ``results_root`` at one directory
        to share envelopes cross-tenant while job records stay private.
    """

    def __init__(
        self,
        root: str | Path,
        job_prefix: str = "",
        *,
        results_root: str | Path | None = None,
    ):
        self.root = Path(root)
        self.job_prefix = job_prefix
        self.results_root = Path(results_root) if results_root is not None else self.root
        #: ``results_root`` resolved once: the identity of the results tier
        #: (single-flight keys, fabric task paths).
        self.resolved_results_root = self.results_root.resolve()
        self.stats = StoreStats()
        self._warm: OrderedDict[str, RunResult] = OrderedDict()
        self._warm_lock = threading.Lock()
        self._alloc_lock = threading.Lock()
        #: Cached next job ordinal; ``None`` until the first new job scans
        #: the directory once.  Cross-process safety still comes from the
        #: exclusive link of each first record; the cache only kills the
        #: per-submit O(n) re-glob.
        self._next_ordinal: int | None = None

    @property
    def results_dir(self) -> Path:
        return self.results_root / "results"

    @property
    def layers_dir(self) -> Path:
        return self.results_root / "layers"

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    def result_path(self, fingerprint: str) -> Path:
        """The envelope path of ``fingerprint``."""
        return self.results_dir / fingerprint[:SHARD_DEPTH] / f"{fingerprint}.json"

    def layer_path(self, key: str) -> Path:
        """The layer-tier path of the per-layer solve ``key``."""
        return self.layers_dir / key[:SHARD_DEPTH] / f"{key}.json"

    @staticmethod
    def _iter_files(pattern: str, *directories: Path):
        for directory in directories:
            if directory.is_dir():
                yield from directory.rglob(pattern)

    # ------------------------------------------------------------- warm tier
    def _warm_get(self, fingerprint: str) -> RunResult | None:
        with self._warm_lock:
            result = self._warm.get(fingerprint)
            if result is not None:
                self._warm.move_to_end(fingerprint)
            return result

    def _warm_put(self, fingerprint: str, result: RunResult) -> None:
        with self._warm_lock:
            self._warm[fingerprint] = result
            self._warm.move_to_end(fingerprint)
            while len(self._warm) > WARM_CAPACITY:
                self._warm.popitem(last=False)

    def _warm_drop(self, fingerprint: str) -> None:
        with self._warm_lock:
            self._warm.pop(fingerprint, None)

    # -------------------------------------------------------------- envelopes
    def _lookup(self, fingerprint: str) -> tuple[RunResult | None, bool]:
        """``(envelope, served_from_warm_tier)`` for ``fingerprint``."""
        warm = self._warm_get(fingerprint)
        if warm is not None:
            return warm, True
        path = self.result_path(fingerprint)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, False  # miss, or evicted between exists-check and read
        result = RunResult.from_json(text)
        try:
            os.utime(path)  # refresh LRU recency for size-bounded eviction
        except OSError:
            pass
        self._warm_put(fingerprint, result)
        return result, False

    def load(self, fingerprint: str) -> RunResult | None:
        """Envelope stored under ``fingerprint`` (no hit/miss counting)."""
        return self._lookup(fingerprint)[0]

    def get(self, spec: RunSpec, fingerprint: str | None = None) -> RunResult | None:
        """Stored result of ``spec`` (``None`` on a miss; counted either way)."""
        fingerprint = fingerprint or spec_fingerprint(spec)
        result, from_warm = self._lookup(fingerprint)
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if from_warm:
                self.stats.warm_hits += 1
            else:
                self.stats.disk_hits += 1
            if spec.workload.fusion is not None:
                self.stats.fused_hits += 1
        return result

    def put(self, result: RunResult, fingerprint: str | None = None) -> Path:
        """Persist ``result`` under its spec's fingerprint, atomically."""
        fingerprint = fingerprint or spec_fingerprint(result.spec)
        self.stats.puts += 1
        path = atomic_write_json(self.result_path(fingerprint), result.to_dict())
        self._warm_put(fingerprint, result)
        return path

    # ------------------------------------------------------------ layer tier
    def load_layer(self, key: str, layer) -> ScheduleOutcome | None:
        """The solve stored under ``key``, re-attached to ``layer``.

        ``None`` on a miss, and for an entry that cannot be read or
        deserialized (a torn file, or a mapping whose tensor problem is not
        registered in this process).  A hit refreshes the file's mtime for
        :meth:`gc`; no counter moves.
        """
        path = self.layer_path(key)
        try:
            entry = json.loads(path.read_text())
            scheduler, mapping = entry["scheduler"], mapping_from_dict(entry["mapping"])
        except (OSError, KeyError, TypeError, ValueError):
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return ScheduleOutcome(
            layer=layer,
            scheduler=scheduler,
            mapping=mapping,
            metrics=dict(entry.get("metrics", {})),
            solve_time_seconds=entry.get("solve_time_seconds", 0.0),
            num_sampled=entry.get("num_sampled", 0),
            num_evaluated=entry.get("num_evaluated", 0),
            from_cache=True,
        )

    def put_layer(self, key: str, outcome: ScheduleOutcome) -> None:
        """Persist ``outcome`` under ``key``, atomically.

        Failed outcomes are not stored: a search that found nothing with one
        budget says nothing definitive about the layer.
        """
        if outcome.mapping is None:
            return
        entry = {
            "scheduler": outcome.scheduler,
            "mapping": mapping_to_dict(outcome.mapping),
            "metrics": dict(outcome.metrics),
            "solve_time_seconds": outcome.solve_time_seconds,
            "num_sampled": outcome.num_sampled,
            "num_evaluated": outcome.num_evaluated,
        }
        # Compact JSON: indenting takes several times as long to encode.
        atomic_write_json(self.layer_path(key), entry, indent=None)

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_files("*.json", self.results_dir))

    # ------------------------------------------------------- gc / compaction
    def gc(self, max_bytes: int | None = None, dry_run: bool = False) -> GCReport:
        """Evict least-recently-used entries until the tiers fit ``max_bytes``.

        Envelopes and layer entries share the bound.  ``None`` evicts
        nothing (the report still sizes the tiers).  Recency is file mtime,
        refreshed on every disk hit.  With ``dry_run`` the report lists what
        *would* go without touching disk.
        """
        report = GCReport(dry_run=dry_run)
        entries = []
        total = 0
        for path in self._iter_files("*.json", self.results_dir, self.layers_dir):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if max_bytes is not None and total > max_bytes:
            for mtime, size, path in sorted(entries):
                if total <= max_bytes:
                    break
                report.evicted.append(path.stem)
                report.evicted_bytes += size
                total -= size
                if not dry_run:
                    self._warm_drop(path.stem)
                    path.unlink(missing_ok=True)
                    self.stats.evictions += 1
        report.remaining_entries = len(entries) - len(report.evicted)
        report.remaining_bytes = total
        return report

    def compact(self, dry_run: bool = False) -> GCReport:
        """Sweep crashed writers' temp debris and empty shard directories.

        Temp files (``.*.tmp`` siblings left by a writer that died between
        creating and publishing its scratch file) older than a minute are
        removed from the results and layer tiers and from ``jobs/`` —
        younger ones may belong to an in-flight write.  Shard directories
        emptied by eviction are pruned so ``stats`` histograms reflect
        reality.
        """
        import time

        report = GCReport(dry_run=dry_run)
        now = time.time()
        tiers = (self.results_dir, self.layers_dir)
        for path in self._iter_files(".*.tmp", *tiers, self.jobs_dir):
            try:
                if now - path.stat().st_mtime < 60:
                    continue
            except OSError:
                continue
            report.removed_temp_files += 1
            if not dry_run:
                path.unlink(missing_ok=True)
        for path in (shard for tier in tiers if tier.is_dir() for shard in tier.iterdir()):
            if path.is_dir() and not any(path.iterdir()):
                report.removed_empty_shards += 1
                if not dry_run:
                    try:
                        path.rmdir()
                    except OSError:
                        pass
        entries = list(self._iter_files("*.json", *tiers))
        report.remaining_entries = len(entries)
        report.remaining_bytes = sum(p.stat().st_size for p in entries if p.exists())
        return report

    def stats_summary(self) -> dict:
        """One JSON-ready snapshot: sizes, shard histogram, tiers."""
        histogram: dict[str, int] = {}
        total_bytes = 0
        entries = 0
        for path in self._iter_files("*.json", self.results_dir):
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            shard = path.parent.name if path.parent != self.results_dir else "."
            histogram[shard] = histogram.get(shard, 0) + 1
        with self._warm_lock:
            warm_entries = len(self._warm)
        return {
            "root": str(self.root),
            "results_root": str(self.results_root),
            "entries": entries,
            "bytes": total_bytes,
            "shards": dict(sorted(histogram.items())),
            "warm_tier": {
                "capacity": WARM_CAPACITY,
                "entries": warm_entries,
            },
            "counters": self.stats.to_dict(),
            "layers": sum(1 for _ in self._iter_files("*.json", self.layers_dir)),
            "jobs": sum(1 for _ in self.jobs_dir.glob(f"{self.job_prefix}job-*.json"))
            if self.jobs_dir.is_dir()
            else 0,
        }

    # ------------------------------------------------------------ job records
    def _scan_next_ordinal(self) -> int:
        """One directory scan for the highest minted ordinal, plus one."""
        highest = 0
        start = len(self.job_prefix) + len("job-")
        for path in self.jobs_dir.glob(f"{self.job_prefix}job-*.json"):
            digits = path.name[start : start + 6]
            if digits.isdigit():
                highest = max(highest, int(digits))
        return highest + 1

    def record_job(self, record: dict) -> str:
        """Persist one job record (see ``job_record``); returns its job id.

        A record whose ``job_id`` is ``None`` is a job's first: the store
        sets ``record["job_id"]`` to the next id — a 1-based ordinal plus
        the spec fingerprint, so ids sort chronologically
        (``job-000001-…``) and name the result by eye — and publishes the
        record under it in one step.  The record is written to a sibling
        temp file which is then hard-linked to ``<id>.json``; the link
        refuses an existing name, so concurrent services sharing one store
        directory can never mint the same id (a loser moves to the next
        ordinal and rewrites the id).  Readers never see a partial first
        record.  The jobs directory must be on a filesystem with hard links.  The next ordinal is cached per
        store instance: the directory is scanned once, not on every submit,
        and a collision re-synchronizes the cache.  Every later record of
        the job replaces the file atomically.
        """
        if record["job_id"] is not None:
            atomic_write_json(self.jobs_dir / f"{record['job_id']}.json", record)
            return record["job_id"]
        fingerprint = record["spec_fingerprint"]
        with self._alloc_lock:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            if self._next_ordinal is None:
                self._next_ordinal = self._scan_next_ordinal()
            index = self._next_ordinal
            temp = self.jobs_dir / f".new-job.{os.getpid()}.{threading.get_ident()}.tmp"
            try:
                while True:
                    record["job_id"] = f"{self.job_prefix}job-{index:06d}-{fingerprint[:12]}"
                    temp.write_text(json.dumps(record, indent=2) + "\n")
                    try:
                        os.link(temp, self.jobs_dir / f"{record['job_id']}.json")
                    except FileExistsError:
                        index += 1
                        continue
                    self._next_ordinal = index + 1
                    return record["job_id"]
            finally:
                temp.unlink(missing_ok=True)

    def _read_record(self, path: Path) -> dict | None:
        """Parse one record file; unreadable files warn and read as ``None``.

        An empty or truncated file is debris a crashed writer or a damaged
        disk left behind; it must never crash a listing.
        """
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            warnings.warn(
                f"skipping unreadable job record {path}: {error}",
                StoreRecordWarning,
                stacklevel=3,
            )
            return None
        if not isinstance(record, dict) or not record.get("job_id"):
            return None  # an id placeholder ("{}") older stores reserved
        return record

    def load_jobs(self) -> list[dict]:
        """Every readable job record, sorted by job id (= submission order).

        Id placeholders and unreadable files are skipped (the latter with a
        :class:`StoreRecordWarning`), so a torn record never takes down
        ``repro jobs`` for the whole store.
        """
        if not self.jobs_dir.is_dir():
            return []
        records = []
        for path in sorted(self.jobs_dir.glob(f"{self.job_prefix}job-*.json")):
            record = self._read_record(path)
            if record is not None:
                records.append(record)
        return records

    def load_job(self, job_id: str) -> dict | None:
        """One persisted job record, or ``None`` when unknown or unreadable."""
        path = self.jobs_dir / f"{job_id}.json"
        if not path.exists():
            return None
        return self._read_record(path)

    def events_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.events.ndjson"

    def record_events(self, job_id: str, events) -> Path:
        """Append ``events`` to the job's NDJSON log, one line each.

        The append-only log's one writer: the service and fabric workers
        call it *before* delivering an event.  One call is one ``O_APPEND``
        write, so the lines of one call land together.
        """
        path = self.events_path(job_id)
        lines = "".join(json.dumps(event.to_dict()) + "\n" for event in events)
        if lines:
            append_bytes(path, lines.encode())
        return path

    def read_events(self, job_id: str, start: int = 0) -> list[dict]:
        """The job's logged events from index ``start`` on, as dicts.

        The log's one reader: a torn final line (a writer mid-append) is
        skipped, a bad line elsewhere raises (:func:`~repro.io_utils.read_ndjson`).
        """
        return read_ndjson(self.events_path(job_id))[start:]
