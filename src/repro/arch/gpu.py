"""GPU target description for the CoSA GPU extension (Sec. V-D of the paper).

The paper maps the CoSA formulation onto an NVIDIA K80: thread-block
dimensions play the role of spatial levels, shared memory and the register
file play the role of software-managed buffers.  No physical GPU is available
in this reproduction, so the GPU is described by this spec and evaluated with
the analytical model in :mod:`repro.model.gpu` (documented substitution in
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of a CUDA GPU relevant to the CoSA-GPU formulation.

    The defaults describe an NVIDIA K80 (one GK210 die) as used in the paper:
    2496 CUDA cores, 48 KB shared memory and 64 K 32-bit registers per SM,
    at most 1024 threads per block with block dimension limits
    (1024, 1024, 64).
    """

    name: str = "k80"
    cuda_cores: int = 2496
    num_sms: int = 13
    max_threads_per_block: int = 1024
    max_block_dims: tuple[int, int, int] = (1024, 1024, 64)
    shared_memory_bytes: int = 48 * 1024
    registers_per_block: int = 64 * 1024
    l2_cache_bytes: int = 1536 * 1024
    dram_bandwidth_gbps: float = 240.0
    clock_ghz: float = 0.82
    fma_per_core_per_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.cuda_cores < 1 or self.num_sms < 1:
            raise ValueError("cuda_cores and num_sms must be positive")
        if self.max_threads_per_block < 1:
            raise ValueError("max_threads_per_block must be positive")
        if len(self.max_block_dims) != 3 or any(d < 1 for d in self.max_block_dims):
            raise ValueError("max_block_dims must be three positive integers")
        if self.shared_memory_bytes < 1 or self.registers_per_block < 1:
            raise ValueError("memory sizes must be positive")

    @property
    def cores_per_sm(self) -> int:
        """CUDA cores per streaming multiprocessor."""
        return self.cuda_cores // self.num_sms

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Off-chip bandwidth expressed in bytes per core clock cycle."""
        return self.dram_bandwidth_gbps / self.clock_ghz


def gpu_as_accelerator(spec: GPUSpec | None = None) -> "Accelerator":
    """Describe a CUDA GPU with the spatial-accelerator abstractions.

    The CoSA-GPU formulation of Sec. V-D treats thread groups as spatial
    levels and shared memory / the register file as software-managed buffers.
    We express exactly that by building an :class:`~repro.arch.accelerator.
    Accelerator` whose hierarchy is

    ``Registers (per-block register file, fanned out across the threads of a
    block) -> SharedMemory (per block) -> L2 (fanned out across the SMs) ->
    DRAM``

    so the unchanged CoSA machinery (and the unchanged analytical cost model)
    can schedule and evaluate GPU kernels.  This is the documented
    substitution for the physical K80 + CUDA measurements of the paper.
    """
    from repro.arch.accelerator import Accelerator, Precision
    from repro.arch.energy import EnergyTable
    from repro.arch.memory import MemoryHierarchy, MemoryLevel
    from repro.arch.spatial import NoCSpec, PEArraySpec
    from repro.workloads.layer import TensorKind

    spec = spec or GPUSpec()
    all_tensors = frozenset(TensorKind)
    hierarchy = MemoryHierarchy(
        [
            MemoryLevel(
                name="RegisterFile",
                capacity_bytes=spec.registers_per_block * 4,
                tensors=all_tensors,
                spatial_fanout=spec.max_threads_per_block,
                bandwidth_words_per_cycle=float(spec.max_threads_per_block),
            ),
            MemoryLevel(
                name="SharedMemory",
                capacity_bytes=spec.shared_memory_bytes,
                tensors=all_tensors,
                spatial_fanout=1,
                bandwidth_words_per_cycle=32.0,
            ),
            MemoryLevel(
                name="L2Cache",
                capacity_bytes=spec.l2_cache_bytes,
                tensors=all_tensors,
                spatial_fanout=spec.num_sms,
                bandwidth_words_per_cycle=128.0,
            ),
            MemoryLevel(
                name="DRAM",
                capacity_bytes=None,
                tensors=all_tensors,
                spatial_fanout=1,
                bandwidth_words_per_cycle=spec.dram_bytes_per_cycle / 4.0,
            ),
        ]
    )
    return Accelerator(
        name=f"gpu-{spec.name}",
        hierarchy=hierarchy,
        pe_array=PEArraySpec(rows=spec.num_sms, cols=1, macs_per_pe=spec.cores_per_sm),
        noc=NoCSpec(
            flit_bits=256,
            link_bandwidth_flits=4.0,
            multicast=True,
            dram_bandwidth_bytes_per_cycle=spec.dram_bytes_per_cycle,
            dram_latency_cycles=300,
        ),
        precision=Precision(weight_bytes=4, input_bytes=4, output_bytes=4),
        energy=EnergyTable(
            level_energy_pj={
                "RegisterFile": 0.1,
                "SharedMemory": 2.0,
                "L2Cache": 10.0,
                "DRAM": 250.0,
            },
            mac_energy_pj=1.5,
            noc_hop_energy_pj=1.0,
        ),
    )
