"""Fused scheduling through the distributed fabric backend.

A fused bert-base-block spec is submitted to a fabric-backend service and
executed by an external-style :class:`FabricWorker` (in a thread, same code
path as a ``repro worker`` subprocess).  The resulting envelope — schema
version, fusion payload, per-group costs and all — must match an
in-process ``run()`` byte for byte once wall-clock fields are zeroed, and a
resubmission must count as a **fused** store hit.
"""

import threading

import pytest

from repro.api import RunSpec, SchedulingService, run
from repro.api.service import JobState
from repro.fabric.worker import FabricWorker

FUSED_SPEC = {
    "kind": "schedule",
    "workload": {
        "fusion": "bert-base-block",
        "fusion_options": {"seq": 64},
    },
}


def normalize_times(obj):
    """Zero wall-clock float fields (solve times vary run to run)."""
    if isinstance(obj, dict):
        return {
            key: 0.0 if "time" in key and isinstance(value, float) else normalize_times(value)
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [normalize_times(item) for item in obj]
    return obj


@pytest.fixture
def fabric(tmp_path):
    service = SchedulingService(
        store=tmp_path / "store",
        backend="fabric",
        fabric_root=tmp_path / "fabric",
    )
    worker = FabricWorker(tmp_path / "fabric", worker_id="w1", poll_interval=0.02)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        yield service, worker
    finally:
        worker.stop()
        thread.join(timeout=10)
        service.shutdown()


class TestFusedFabric:
    def test_fused_block_envelope_matches_local_run(self, fabric):
        service, _ = fabric
        job = service.submit(RunSpec.from_dict(FUSED_SPEC))
        fabric_result = job.result(timeout=300)
        assert job.state is JobState.DONE

        fusion = fabric_result.data["fusion"]
        assert fusion["plan"]["num_fused_groups"] == 1
        assert fusion["saved_dram_words"] > 0
        group = next(g for g in fusion["groups"] if g["fused"])
        assert group["traffic"]["consistent"] is True

        local_result = run(RunSpec.from_dict(FUSED_SPEC))
        assert normalize_times(fabric_result.to_dict()) == normalize_times(
            local_result.to_dict()
        )

    def test_resubmission_is_a_fused_store_hit(self, fabric):
        service, _ = fabric
        spec = RunSpec.from_dict(FUSED_SPEC)
        first = service.submit(spec)
        first.result(timeout=300)
        second = service.submit(spec)
        second.result(timeout=300)
        assert second.store_hit is True
        assert second.result().to_dict() == first.result().to_dict()
        # Reading the worker-persisted fused envelope back through the
        # service's own store instance is a disk-tier hit that the fused
        # counter must pick up.
        assert service.store.get(spec) is not None
        assert service.store.stats.fused_hits == 1
        assert service.store.stats.disk_hits == 1
