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
  historic payload shape, so pre-IR keys stay valid; other tensor
  problems contribute their problem name plus every dimension bound,
* the **architecture fingerprint** (:meth:`repro.arch.accelerator.Accelerator.fingerprint`)
  covers the memory hierarchy, PE array, NoC, precisions and energy table,
* the **scheduler config fingerprint** covers objective weights, budgets,
  metrics and seeds (see :meth:`repro.engine.outcome.Scheduler.config_fingerprint`).

Two lookups with equal keys are therefore guaranteed to describe the same
solve, so serving the stored mapping is exact, not approximate.  Entries
live in a bounded in-memory LRU that can read and write through to a
:class:`~repro.api.store.ResultStore`'s layer tier, so later processes,
specs and tenants sharing the store skip the MIP entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.digest import stable_digest
from repro.engine.outcome import ScheduleOutcome, Scheduler
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.workloads.layer import Layer


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

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


class MappingCache:
    """Bounded LRU of finished schedules, optionally backed by a result store.

    Parameters
    ----------
    store:
        Optional :class:`~repro.api.store.ResultStore` (``load_layer`` /
        ``put_layer``): a key missing from memory is read from its layer
        tier, and every :meth:`put` is written through, one file per key.

    At most :attr:`MAX_ENTRIES` entries stay in memory; the least recently
    used entry is evicted first.  The cache is thread-safe so a parallel
    :meth:`~repro.engine.engine.SchedulingEngine.schedule_network` can share
    one instance across workers.
    """

    #: In-memory LRU bound.
    MAX_ENTRIES = 4096

    def __init__(self, store=None):
        self.store = store
        self.stats = CacheStats()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _remember(self, key: str, entry: dict) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.MAX_ENTRIES:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------------ lookup
    def get(self, key: str, layer: Layer | None = None) -> ScheduleOutcome | None:
        """Return the cached outcome for ``key`` (``None`` on a miss).

        ``layer`` re-attaches the caller's layer object (cached layers may
        carry a different display name than the query).  Every call counts
        towards the hit/miss statistics.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None and self.store is not None:
            entry = self.store.load_layer(key)
            if entry is not None:
                self._remember(key, entry)
        if entry is not None:
            try:
                mapping = mapping_from_dict(entry["mapping"])
            except (KeyError, TypeError, ValueError):
                # Undeserializable entry — e.g. a v2 mapping whose TensorProblem
                # is not registered in this process.  Degrade to a miss (and drop
                # the entry) instead of crashing what should be a cache lookup.
                entry = None
        with self._lock:
            if entry is None:
                self.stats.misses += 1
                self._entries.pop(key, None)
                return None
            self.stats.hits += 1
        return ScheduleOutcome(
            layer=layer if layer is not None else mapping.layer,
            scheduler=entry["scheduler"],
            mapping=mapping,
            metrics=dict(entry.get("metrics", {})),
            wall_time_seconds=0.0,
            solve_time_seconds=entry.get("solve_time_seconds", 0.0),
            num_sampled=entry.get("num_sampled", 0),
            num_evaluated=entry.get("num_evaluated", 0),
            from_cache=True,
        )

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
        self._remember(key, entry)
        if self.store is not None:
            self.store.put_layer(key, entry)
