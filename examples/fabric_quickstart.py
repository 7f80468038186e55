"""The distributed solve fabric, end to end in one process.

Demonstrates `repro serve --backend fabric` + `repro worker` without
needing a shell: a gateway with **zero in-process workers** enqueues jobs
into a persistent on-disk work queue, and two `FabricWorker` drains — the
exact code a `repro worker` subprocess runs — execute them against one
shared fabric root:

1. start a fabric-backend `SchedulingGateway` and two workers,
2. submit a batch sweep plus an interactive job from two tenants,
3. stream a fabric job's events over HTTP — identical to local mode,
4. observe cross-tenant dedup: the identical spec executed once, the
   second tenant's job is a content-addressed store hit,
5. inspect the queue journal — the audit trail of every transition.

Run with:  PYTHONPATH=src python examples/fabric_quickstart.py

The multi-process spelling of the same setup::

    repro serve --backend fabric --store /tmp/fab-store &
    repro worker /tmp/fab-store/fabric &
    repro worker /tmp/fab-store/fabric &
    repro submit spec.json --server http://127.0.0.1:8123 --tenant acme
"""

import tempfile
import threading
from pathlib import Path

from repro.api.auth import ApiKeyAuth
from repro.api.client import GatewayClient
from repro.api.gateway import SchedulingGateway
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import FabricWorker

SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 3, "max_attempts": 800}},
}
SWEEP_SPEC = {**SPEC, "workload": {"layers": ["3_8_16_32_1"]}}


def main() -> None:
    store_root = Path(tempfile.mkdtemp(prefix="repro-fabric-"))
    fabric_root = store_root / "fabric"
    auth = ApiKeyAuth({"alice-key": "acme", "bob-key": "bobco"})

    # A fabric gateway runs zero in-process workers: it only accepts jobs,
    # enqueues them, and tails the event logs the workers write.
    gateway = SchedulingGateway(
        store_root, auth=auth, backend="fabric", fabric_root=fabric_root
    )
    gateway.start()
    print(f"gateway (backend=fabric) on {gateway.url}")

    # Two workers drain the same fabric root — each is what one
    # `repro worker <fabric_root>` process runs.
    workers = [
        FabricWorker(fabric_root, worker_id=f"w{index}", poll_interval=0.02)
        for index in range(2)
    ]
    threads = [threading.Thread(target=worker.run, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()

    alice = GatewayClient(gateway.url, tenant="acme", api_key="alice-key")
    bob = GatewayClient(gateway.url, tenant="bobco", api_key="bob-key")
    try:
        # --- a batch sweep and an interactive job, side by side.
        sweep = alice.submit(SWEEP_SPEC, priority="batch")
        urgent = alice.submit(SPEC, priority="interactive")
        print(f"submitted {sweep['job_id']} (batch) and {urgent['job_id']} (interactive)")

        # --- the event stream of a fabric job reads exactly like local mode.
        for event in alice.events(urgent["job_id"]):
            print(f"  [{urgent['job_id']}] {event['event']}")
        alice.wait(sweep["job_id"])

        # --- cross-tenant dedup: bob submits alice's spec; one results
        #     tier is shared, so it completes as a store hit.
        record = bob.wait(bob.submit(SPEC)["job_id"])
        print(
            f"bob's {record['job_id']}: state={record['state']} "
            f"store_hit={record['store_hit']}  (executed once, by alice's job)"
        )
        assert record["store_hit"] is True

        # --- the queue journal is the fabric's audit trail.
        journal = WorkQueue(fabric_root).read_journal()
        print("journal transitions:")
        for line in journal:
            print(f"  {line['event']:<10} {line['task']}")
    finally:
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=10)
        alice.close()
        bob.close()
        gateway.close()
    print("done")


if __name__ == "__main__":
    main()
