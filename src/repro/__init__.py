"""Reproduction of *CoSA: Scheduling by Constrained Optimization for Spatial
Accelerators* (ISCA 2021).

The package is organised around the paper's pipeline:

* :mod:`repro.workloads` — DNN layers and the evaluated networks,
* :mod:`repro.arch` — spatial accelerator descriptions (Simba-like baseline,
  Fig. 9 variants, K80-like GPU),
* :mod:`repro.mapping` — the schedule IR (tiling, permutation, spatial
  mapping),
* :mod:`repro.solver` — the mixed-integer-programming substrate,
* :mod:`repro.core` — the CoSA scheduler itself (the paper's contribution),
* :mod:`repro.model` — the Timeloop-like analytical performance/energy model,
* :mod:`repro.noc` — the transaction-level NoC simulator,
* :mod:`repro.baselines` — Random search and the Timeloop-Hybrid-style mapper,
* :mod:`repro.experiments` — harnesses regenerating every table and figure,
* :mod:`repro.api` — the declarative public facade: spec objects, plugin
  registries for every axis, and the versioned ``run()`` entry point.

Quickstart (declarative)::

    from repro import RunSpec, run

    result = run(RunSpec.from_dict({
        "kind": "schedule",
        "workload": {"layers": ["3_7_512_512_1"]},
    }))
    print(result.data["outcomes"][0]["metrics"]["latency"])

Quickstart (imperative)::

    from repro import CoSAScheduler, simba_like, layer_from_name
    from repro.model import CostModel

    arch = simba_like()
    layer = layer_from_name("3_7_512_512_1")
    mapping = CoSAScheduler(arch).schedule(layer).mapping
    print(CostModel(arch).evaluate(mapping).latency)
"""

import functools

from repro.arch import Accelerator, simba_like, pe_array_8x8, large_buffers
from repro.workloads import ProblemLayer, layer_from_name, workload_suite
from repro.mapping import Mapping

__version__ = "1.0.0"


@functools.cache
def package_version() -> str:
    """The installed distribution version (else the source tree's), looked up once."""
    from importlib import metadata

    try:
        return metadata.version("cosa-repro")
    except metadata.PackageNotFoundError:
        return __version__


__all__ = [
    "Accelerator",
    "simba_like",
    "pe_array_8x8",
    "large_buffers",
    "ProblemLayer",
    "layer_from_name",
    "workload_suite",
    "Mapping",
    "CoSAScheduler",
    "SchedulingEngine",
    "api",
    "run",
    "RunSpec",
    "RunResult",
    "SchedulingService",
    "__version__",
]


def __getattr__(name: str):
    """Lazily expose the scheduler/engine/api to avoid importing scipy at package import time."""
    if name == "CoSAScheduler":
        from repro.core.scheduler import CoSAScheduler

        return CoSAScheduler
    if name == "SchedulingEngine":
        from repro.engine import SchedulingEngine

        return SchedulingEngine
    if name in ("api", "run", "RunSpec", "RunResult", "SchedulingService"):
        import repro.api as api

        return api if name == "api" else getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
