"""The multi-tenant HTTP gateway, end to end in one process.

Demonstrates the network shape of the API (`repro.api.gateway`):

1. start a `SchedulingGateway` with API-key auth on an ephemeral port,
2. submit a spec over HTTP with `GatewayClient` and stream the chunked
   NDJSON event feed live,
3. fetch the stored envelope — byte-identical to a local `run()` —,
4. resubmit the identical spec and observe the store hit (zero scheduler
   invocations), and
5. watch the auth boundary: no key is 401, another tenant's key is 403.

Run with:  PYTHONPATH=src python examples/gateway_quickstart.py
"""

import tempfile
from pathlib import Path

from repro.api.auth import ApiKeyAuth
from repro.api.client import GatewayClient, GatewayError
from repro.api.gateway import SchedulingGateway

SPEC = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1", "3_8_16_32_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 3, "max_attempts": 800}},
}


def main() -> None:
    store_root = Path(tempfile.mkdtemp(prefix="repro-gateway-"))
    auth = ApiKeyAuth({"alice-key": "acme", "bob-key": "bobco"})
    with SchedulingGateway(store_root, auth=auth, max_workers=2) as gateway:
        gateway.start()
        print(f"gateway listening on {gateway.url}")

        with GatewayClient(gateway.url, tenant="acme", api_key="alice-key") as client:
            print(f"health: {client.health()}")

            # --- submit over HTTP; the response is the queued job record.
            record = client.submit(SPEC)
            print(f"submitted {record['job_id']} (priority={record['priority']})")

            # --- the event stream is live chunked NDJSON, terminal event last.
            for event in client.events(record["job_id"]):
                print(f"  {event['event']}" + (
                    f"  layer {event['layer']}" if event["event"] == "layer_scheduled" else ""
                ))

            final = client.job(record["job_id"])
            result = client.result(record["job_id"])
            print(f"state={final['state']} store_hit={final['store_hit']} "
                  f"succeeded={result.data['succeeded']}")

            # --- identical spec again: a store hit, no scheduler runs.
            rerun = client.submit(SPEC)
            rerun_final = client.wait(rerun["job_id"])
            print(f"resubmitted as {rerun['job_id']}: store_hit={rerun_final['store_hit']}")
            assert rerun_final["store_hit"] is True
            assert client.result_text(rerun["job_id"]) == client.result_text(record["job_id"])

        # --- the auth boundary.
        for label, probe in [
            ("no key", GatewayClient(gateway.url, tenant="acme")),
            ("bob's key", GatewayClient(gateway.url, tenant="acme", api_key="bob-key")),
        ]:
            with probe:
                try:
                    probe.jobs()
                except GatewayError as error:
                    print(f"{label} -> HTTP {error.status}: {error}")

    print(f"per-tenant stores persisted under {store_root}/tenants/")


if __name__ == "__main__":
    main()
