"""Content-addressed keys of per-layer solves.

Repeated shapes are everywhere in the evaluated workloads: ResNet-50 and
ResNeXt-50 share layers, DeepBench repeats shapes across batch settings, and
every harness re-run re-solves the exact same problems.  A finished schedule
is keyed by everything that determines it:

``key = sha256(layer dimensions, architecture fingerprint, scheduler name,
scheduler config fingerprint, results version)``

* the **layer** enters through :meth:`~repro.workloads.problem.ProblemLayer.key_dict`:
  conv layers contribute all seven loop bounds plus the stride (not just the
  paper's ``R_P_C_K_Stride`` shorthand, which ignores the batch size) in the
  historic payload shape, so pre-IR keys stay valid; other tensor
  problems contribute their problem name plus every dimension bound,
* the **architecture fingerprint** (:meth:`repro.arch.accelerator.Accelerator.fingerprint`)
  covers the memory hierarchy, PE array, NoC, precisions and energy table,
* the **scheduler config fingerprint** covers objective weights, budgets,
  metrics and seeds (see :meth:`repro.engine.outcome.Scheduler.config_fingerprint`),
* the **results version** (:data:`repro.digest.RESULTS_VERSION`) moves with what a solve produces.

Two lookups with equal keys are therefore guaranteed to describe the same
solve, so serving the stored mapping is exact, not approximate.  The solves
live in a :class:`~repro.api.store.ResultStore`'s layer tier under these
keys, so later processes, specs and tenants sharing the store skip the MIP
entirely.
"""

from __future__ import annotations

from repro.arch.accelerator import Accelerator
from repro.digest import RESULTS_VERSION, stable_digest
from repro.engine.outcome import Scheduler
from repro.workloads.problem import ProblemLayer


def cache_key(layer: ProblemLayer, accelerator: Accelerator, scheduler: Scheduler) -> str:
    """Content hash identifying one (layer, architecture, scheduler) solve."""
    return cache_key_from_parts(
        layer, accelerator.fingerprint(), scheduler.name, scheduler.config_fingerprint()
    )


def cache_key_from_parts(
    layer: ProblemLayer, arch_fingerprint: str, scheduler_name: str, config_fingerprint: str
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
        "results_version": RESULTS_VERSION,
    }
    return stable_digest(payload)
