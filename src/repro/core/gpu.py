"""CoSA-GPU: the GPU instantiation of the formulation (Sec. V-D of the paper).

The paper shows that the same constrained-optimization formulation schedules
GPU kernels once thread groups are treated as spatial levels and shared
memory / the register file as buffers.  :func:`repro.arch.gpu.gpu_as_accelerator`
performs exactly that translation, so the GPU scheduler below is a thin
wrapper around the regular :class:`~repro.core.scheduler.CoSAScheduler` with
GPU-appropriate objective weights: the compute objective is effectively
discounted by the number of threads (spatial factors never enter Eq. 6), and
traffic is weighted more heavily because GPU kernels are typically bound by
global-memory bandwidth rather than by the NoC of a spatial accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.gpu import gpu_as_accelerator
from repro.core.objectives import ObjectiveWeights
from repro.core.scheduler import CoSAScheduler, ScheduleResult
from repro.engine.outcome import ScheduleOutcome
from repro.workloads.problem import ProblemLayer


#: Default objective weights used for GPU targets (traffic-heavy).
GPU_OBJECTIVE_WEIGHTS = ObjectiveWeights(utilization=0.5, compute=1.0, traffic=2.0)


@dataclass
class GPUScheduleResult:
    """Schedule of one layer on the GPU target plus CUDA-style launch hints."""

    result: ScheduleResult
    threads_per_block: int
    blocks: int

    @property
    def mapping(self):
        """The decoded mapping (same IR as the spatial-accelerator schedules)."""
        return self.result.mapping

    @property
    def solve_time_seconds(self) -> float:
        """Time-to-solution of the MIP solve."""
        return self.result.solve_time_seconds


class CoSAGPUScheduler:
    """One-shot constrained-optimization scheduling of DNN layers on a GPU.

    The target is the paper's K80-like GPU (the default
    :class:`~repro.arch.gpu.GPUSpec`).

    Parameters
    ----------
    weights:
        Objective weights; defaults to :data:`GPU_OBJECTIVE_WEIGHTS`.
    backend:
        MIP backend override.
    """

    #: Scheduler identifier (engine reports and layer-tier keys).
    name = "cosa-gpu"

    def __init__(self, weights: ObjectiveWeights | None = None, backend=None):
        self.accelerator = gpu_as_accelerator()
        self._scheduler = CoSAScheduler(
            self.accelerator,
            weights=weights or GPU_OBJECTIVE_WEIGHTS,
            backend=backend,
            capacity_fraction=0.5,
        )

    def schedule(self, layer: ProblemLayer) -> GPUScheduleResult:
        """Schedule ``layer`` and derive the CUDA launch shape of the result."""
        result = self._scheduler.schedule(layer)
        threads = 1
        blocks = 1
        if result.mapping is not None:
            register_level = self.accelerator.hierarchy.index_of("RegisterFile")
            l2_level = self.accelerator.hierarchy.index_of("L2Cache")
            threads = result.mapping.spatial_product_at(register_level)
            blocks = result.mapping.spatial_product_at(l2_level)
        return GPUScheduleResult(result=result, threads_per_block=threads, blocks=blocks)

    # -------------------------------------------------------- engine protocol
    def config_fingerprint(self) -> str:
        """Deterministic configuration description (layer-tier key part)."""
        return self._scheduler.config_fingerprint()

    def schedule_outcome(self, layer: ProblemLayer) -> ScheduleOutcome:
        """Run :meth:`schedule` and report the unified engine outcome."""
        result = self.schedule(layer)
        return ScheduleOutcome(
            layer=layer,
            scheduler=self.name,
            mapping=result.mapping,
            cost=result.result.cost,
            wall_time_seconds=result.solve_time_seconds,
            solve_time_seconds=result.solve_time_seconds,
            num_sampled=1,
            num_evaluated=1,
            detail=result,
        )
