"""Content-addressed mapping cache.

Repeated shapes are everywhere in the evaluated workloads: ResNet-50 and
ResNeXt-50 share layers, DeepBench repeats shapes across batch settings, and
every harness re-run re-solves the exact same problems.  The cache keys a
finished schedule by everything that determines it:

``key = sha256(layer dimensions, architecture fingerprint, scheduler name,
scheduler config fingerprint)``

* the **layer** enters through :meth:`~repro.workloads.layer.Layer.key_dict`:
  conv layers contribute all seven loop bounds plus the stride (not just the
  paper's ``R_P_C_K_Stride`` shorthand, which ignores the batch size) in the
  historic payload shape, so pre-IR cache files stay valid; other tensor
  problems contribute their problem name plus every dimension bound,
* the **architecture fingerprint** (:meth:`repro.arch.accelerator.Accelerator.fingerprint`)
  covers the memory hierarchy, PE array, NoC, precisions and energy table,
* the **scheduler config fingerprint** covers objective weights, budgets,
  metrics and seeds (see :meth:`repro.engine.outcome.Scheduler.config_fingerprint`).

Two lookups with equal keys are therefore guaranteed to describe the same
solve, so serving the stored mapping is exact, not approximate.  Entries
live in a bounded in-memory LRU and can be persisted to a JSON file (via
:mod:`repro.mapping.serialize`) so later processes skip the MIP entirely.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.accelerator import Accelerator
from repro.digest import stable_digest
from repro.engine.outcome import ScheduleOutcome, Scheduler
from repro.io_utils import atomic_write_json
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.workloads.layer import Layer

#: Schema version of the on-disk cache file.
CACHE_FORMAT_VERSION = 1


def cache_key(layer: Layer, accelerator: Accelerator, scheduler: Scheduler) -> str:
    """Content hash identifying one (layer, architecture, scheduler) solve."""
    return cache_key_from_parts(
        layer, accelerator.fingerprint(), scheduler.name, scheduler.config_fingerprint()
    )


def cache_key_from_parts(
    layer: Layer, arch_fingerprint: str, scheduler_name: str, config_fingerprint: str
) -> str:
    """:func:`cache_key` with the layer-invariant parts precomputed.

    The architecture and scheduler fingerprints are constant while an engine
    drives a network, so callers iterating over many layers hash them once
    and reuse them here.
    """
    payload = {
        "layer": layer.key_dict(),
        "arch": arch_fingerprint,
        "scheduler": scheduler_name,
        "config": config_fingerprint,
    }
    return stable_digest(payload)


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`MappingCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache queries."""
        return self.hits + self.misses

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


class MappingCache:
    """Bounded LRU of finished schedules with optional JSON persistence.

    Parameters
    ----------
    path:
        Optional JSON file backing the cache.  When it exists its entries
        are loaded eagerly; :meth:`save` writes the current state back.

    At most :attr:`MAX_ENTRIES` entries stay in memory; the least recently
    used entry is evicted first.  The cache is thread-safe so a parallel
    :meth:`~repro.engine.engine.SchedulingEngine.schedule_network` can share
    one instance across workers.
    """

    #: In-memory LRU bound.
    MAX_ENTRIES = 4096

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ lookup
    def get(self, key: str, layer: Layer | None = None) -> ScheduleOutcome | None:
        """Return the cached outcome for ``key`` (``None`` on a miss).

        ``layer`` re-attaches the caller's layer object (cached layers may
        carry a different display name than the query).  Every call counts
        towards the hit/miss statistics.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        try:
            mapping = mapping_from_dict(entry["mapping"]) if entry["mapping"] is not None else None
        except (KeyError, ValueError):
            # Undeserializable entry — e.g. a v2 mapping whose TensorProblem
            # is not registered in this process.  Degrade to a miss (and drop
            # the entry) instead of crashing what should be a cache lookup.
            with self._lock:
                self.stats.hits -= 1
                self.stats.misses += 1
                self._entries.pop(key, None)
            return None
        outcome = ScheduleOutcome(
            layer=layer if layer is not None else (mapping.layer if mapping else None),
            scheduler=entry["scheduler"],
            mapping=mapping,
            metrics=dict(entry.get("metrics", {})),
            wall_time_seconds=0.0,
            solve_time_seconds=entry.get("solve_time_seconds", 0.0),
            num_sampled=entry.get("num_sampled", 0),
            num_evaluated=entry.get("num_evaluated", 0),
            from_cache=True,
        )
        return outcome

    def put(self, key: str, outcome: ScheduleOutcome) -> None:
        """Store ``outcome`` under ``key`` (evicting the LRU entry if full).

        Unsuccessful outcomes are not cached: a failed search with one budget
        says nothing definitive about the layer.
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
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.MAX_ENTRIES:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------- persistence
    def save(self, path: str | Path | None = None) -> Path:
        """Write every entry to ``path`` (default: the constructor path).

        The write is atomic (:func:`repro.io_utils.atomic_write_json`):
        concurrent runs persisting to the same file — e.g. two parallel
        ``jobs>1`` engine invocations sharing a cache path — can never leave
        a torn, unloadable JSON file behind; readers see either the old or
        the new snapshot.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the cache was created without one")
        with self._lock:
            payload = {
                "version": CACHE_FORMAT_VERSION,
                "entries": {key: entry for key, entry in self._entries.items()},
            }
        return atomic_write_json(target, payload)

    def _load(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not a mapping-cache file: {error}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path} is not a mapping-cache file")
        version = data.get("version")
        if version != CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported cache format version {version!r}")
        for key, entry in data.get("entries", {}).items():
            self._entries[key] = entry
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
