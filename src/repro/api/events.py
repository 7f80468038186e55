"""The typed, schema-versioned event protocol of the scheduling service.

Every job submitted to a :class:`~repro.api.service.SchedulingService`
narrates its life through exactly five event types:

=================  =========================================================
``run_queued``     the spec was accepted; carries the spec fingerprint used
                   by the :class:`~repro.api.store.ResultStore`
``run_started``    a worker picked the job up
``layer_scheduled``  one per input layer (duplicates included): per-layer
                   cost and cache-hit fields, keyed by scheduler name
``run_finished``   terminal success; carries the full ``RunResult`` envelope
                   and whether it was served from the result store
``run_failed``     terminal failure (or cancellation); carries the error
                   type and message
=================  =========================================================

Events serialize to flat JSON objects via :meth:`Event.to_dict` — the shape
streamed as NDJSON by ``repro run --follow`` — and parse back through
:func:`event_from_dict`.  Every payload leads with the ``event`` tag and the
``schema_version`` stamp, mirroring the :class:`~repro.api.result.RunResult`
contract: consumers can detect drift mechanically, and any change to the
payload shapes bumps :data:`EVENT_SCHEMA_VERSION`.

Determinism
-----------
``layer_scheduled`` payloads are **deterministic**: for a fixed spec (seed
included) the emitted sequence is byte-identical regardless of ``jobs`` and
the hosting process, because the engine reports layers in input order and
every cost value is seed-stable (see the determinism notes in
:mod:`repro.engine.engine`).  Wall-clock readings deliberately live only in
the ``run_finished`` envelope, never in per-layer events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

#: Version of the serialized event payloads.  Bump on any change to the
#: shapes below and extend :func:`event_from_dict` to read what you still
#: support.
EVENT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Event:
    """Common header of every service event.

    ``seq`` is the 0-based position in the job's event log; subscribers can
    detect gaps (a dropped consumer) by watching it.  Concrete event types
    define ``KIND`` and extend :meth:`payload`.
    """

    KIND = ""

    job_id: str
    seq: int

    def payload(self) -> dict:
        """The type-specific fields (overridden by every event type)."""
        return {}

    def to_dict(self) -> dict:
        """Flat JSON object: tag and schema version first, by contract."""
        return {
            "event": self.KIND,
            "schema_version": EVENT_SCHEMA_VERSION,
            "job_id": self.job_id,
            "seq": self.seq,
            **self.payload(),
        }


@dataclass(frozen=True)
class RunQueued(Event):
    """The service accepted a spec and created the job."""

    KIND = "run_queued"

    kind: str = ""
    spec_fingerprint: str = ""

    def payload(self) -> dict:
        return {"kind": self.kind, "spec_fingerprint": self.spec_fingerprint}


@dataclass(frozen=True)
class RunStarted(Event):
    """A worker began executing the job."""

    KIND = "run_started"


@dataclass(frozen=True)
class LayerScheduled(Event):
    """One layer of the job's workload was resolved.

    Exactly one event is emitted per *input* layer (so duplicate layers in a
    network each get their own event), in input order.  ``cost`` and
    ``cache_hit`` are keyed by scheduler name — one entry for ``schedule``/
    ``suite`` runs, three (``random``/``hybrid``/``cosa``) for ``compare``
    runs — so one shape serves every run kind:

    * ``cost[scheduler]`` — metric-name → value mapping (``None`` when the
      scheduler found no valid mapping),
    * ``cache_hit[scheduler]`` — ``True`` when the mapping was served from
      the result store's layer tier (a layer an earlier run solved in the
      same store) rather than a fresh solve.

    ``dedup`` is ``True`` when this layer was served by copying an identical
    layer's solve instead of solving again.
    """

    KIND = "layer_scheduled"

    network: str = ""
    index: int = 0
    layer: str = ""
    succeeded: bool = False
    dedup: bool = False
    cache_hit: Mapping[str, bool] = field(default_factory=dict)
    cost: Mapping[str, Mapping[str, float | None]] = field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "network": self.network,
            "index": self.index,
            "layer": self.layer,
            "succeeded": self.succeeded,
            "dedup": self.dedup,
            "cache_hit": dict(self.cache_hit),
            "cost": {name: dict(values) for name, values in self.cost.items()},
        }


@dataclass(frozen=True)
class RunFinished(Event):
    """Terminal success: the full v1 ``RunResult`` envelope rides along.

    ``store_hit`` is ``True`` when the envelope was served verbatim from the
    :class:`~repro.api.store.ResultStore` (no scheduler ran); a followed
    run's final event therefore always equals what the synchronous
    :func:`repro.api.run` would have returned.
    """

    KIND = "run_finished"

    store_hit: bool = False
    result: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {"store_hit": self.store_hit, "result": self.result}


@dataclass(frozen=True)
class RunFailed(Event):
    """Terminal failure or cancellation."""

    KIND = "run_failed"

    error_type: str = ""
    error_message: str = ""

    def payload(self) -> dict:
        return {"error_type": self.error_type, "error_message": self.error_message}


#: The five event types of protocol version 1, keyed by their tag.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.KIND: cls for cls in (RunQueued, RunStarted, LayerScheduled, RunFinished, RunFailed)
}

#: Tags of events that end a job's stream.
TERMINAL_EVENTS = (RunFinished.KIND, RunFailed.KIND)


def event_from_dict(data: dict) -> Event:
    """Parse one serialized event (the inverse of :meth:`Event.to_dict`)."""
    if not isinstance(data, dict):
        raise ValueError(f"event must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema_version {version!r}; "
            f"this build reads {EVENT_SCHEMA_VERSION}"
        )
    tag = data.get("event")
    cls = EVENT_TYPES.get(tag)
    if cls is None:
        raise ValueError(
            f"unknown event type {tag!r}; expected one of {', '.join(sorted(EVENT_TYPES))}"
        )
    fields = {k: v for k, v in data.items() if k not in ("event", "schema_version")}
    try:
        return cls(**fields)
    except TypeError as error:
        raise ValueError(f"malformed {tag} event: {error}") from None
