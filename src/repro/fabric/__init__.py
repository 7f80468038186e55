"""The distributed solve fabric: a persistent work queue drained by workers.

Since PR 4 every job has run on one bounded thread pool inside one process;
the PR 7 gateway put a wire protocol on that single-host ceiling.  This
package is the scale-out layer underneath both:

* :mod:`repro.fabric.queue` — a crash-safe on-disk work queue any number of
  processes (or NFS-sharing hosts) can enqueue into and claim from: atomic
  ``O_EXCL`` lease files arbitrate claims, leases carry a TTL renewed by
  worker heartbeats, expired leases are reclaimed with a bounded retry
  count and dead-lettered past it, and an append-only NDJSON journal audits
  every transition;
* :mod:`repro.fabric.worker` — the ``repro worker`` process: claim, execute
  through the same :mod:`repro.api.runner` path as a local ``run()``
  (envelopes are bit-identical), stream the typed event protocol into the
  job's NDJSON log, heartbeat while solving, finish cleanly on SIGTERM.

:class:`~repro.api.service.SchedulingService` (and therefore the gateway)
gains ``backend="fabric"``: submissions enqueue here instead of onto the
in-process pool, and N external ``repro worker`` processes drain them.  See
``docs/fabric.md``.
"""

from repro.fabric.queue import (
    DEFAULT_LEASE_TTL,
    MAX_ATTEMPTS,
    Claim,
    TaskState,
    WorkQueue,
)
from repro.fabric.worker import FabricWorker

__all__ = [
    "Claim",
    "DEFAULT_LEASE_TTL",
    "FabricWorker",
    "MAX_ATTEMPTS",
    "TaskState",
    "WorkQueue",
]
