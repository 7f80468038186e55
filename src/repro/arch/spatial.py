"""Spatial (PE array and network-on-chip) specification.

The baseline accelerator of the paper (Table V) is a Simba-like design: a
4x4 array of PEs connected by a wormhole-routed 2-D mesh NoC with X-Y
routing and multicast support, each PE containing 64 MAC units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PEArraySpec:
    """Geometry and arithmetic capability of the PE array.

    Parameters
    ----------
    rows, cols:
        PE mesh dimensions (the baseline is 4x4).
    macs_per_pe:
        Number of multiply-accumulate units inside one PE (64 in Table V).
    mac_throughput:
        MACs completed per MAC unit per cycle (1 for the baseline).
    """

    rows: int = 4
    cols: int = 4
    macs_per_pe: int = 64
    mac_throughput: float = 1.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"PE array dimensions must be positive, got {self.rows}x{self.cols}")
        if self.macs_per_pe < 1:
            raise ValueError(f"macs_per_pe must be >= 1, got {self.macs_per_pe}")
        if self.mac_throughput <= 0:
            raise ValueError(f"mac_throughput must be positive, got {self.mac_throughput}")

    @property
    def num_pes(self) -> int:
        """Total number of processing elements."""
        return self.rows * self.cols

    @property
    def peak_macs_per_cycle(self) -> float:
        """Aggregate MAC throughput of the whole array per cycle."""
        return self.num_pes * self.macs_per_pe * self.mac_throughput


@dataclass(frozen=True)
class NoCSpec:
    """Network-on-chip parameters used by the traffic model and simulator.

    Parameters
    ----------
    flit_bits:
        Width of one flit (64 bits in Table V).
    link_bandwidth_flits:
        Flits a single mesh link can transfer per cycle.
    router_latency:
        Cycles a flit spends traversing one router (pipeline depth).
    multicast:
        Whether routers can replicate flits for multicast destinations.
    routing:
        Routing algorithm identifier; only ``"xy"`` (dimension ordered) is
        implemented by the simulator.
    dram_bandwidth_bytes_per_cycle:
        Off-chip bandwidth available to the global buffer.
    dram_latency_cycles:
        Fixed access latency added to every DRAM transaction.
    """

    flit_bits: int = 64
    link_bandwidth_flits: float = 1.0
    router_latency: int = 1
    multicast: bool = True
    routing: str = "xy"
    dram_bandwidth_bytes_per_cycle: float = 8.0
    dram_latency_cycles: int = 100

    def __post_init__(self) -> None:
        if self.flit_bits <= 0:
            raise ValueError(f"flit_bits must be positive, got {self.flit_bits}")
        if self.link_bandwidth_flits <= 0:
            raise ValueError("link_bandwidth_flits must be positive")
        if self.router_latency < 0:
            raise ValueError("router_latency must be non-negative")
        if self.routing not in ("xy",):
            raise ValueError(f"unsupported routing algorithm {self.routing!r}")
        if self.dram_bandwidth_bytes_per_cycle <= 0:
            raise ValueError("dram_bandwidth_bytes_per_cycle must be positive")
        if self.dram_latency_cycles < 0:
            raise ValueError("dram_latency_cycles must be non-negative")

    @property
    def flit_bytes(self) -> float:
        """Flit size in bytes."""
        return self.flit_bits / 8.0

    def flits_for_bytes(self, num_bytes: float) -> int:
        """Number of flits needed to carry ``num_bytes`` of payload."""
        if num_bytes <= 0:
            return 0
        return int(-(-num_bytes // self.flit_bytes))

    def scaled_bandwidth(self, factor: float) -> "NoCSpec":
        """Return a copy with on-chip and DRAM bandwidth scaled by ``factor``.

        Fig. 9a scales both by 2x when quadrupling the PE count.
        """
        return replace(
            self,
            link_bandwidth_flits=self.link_bandwidth_flits * factor,
            dram_bandwidth_bytes_per_cycle=self.dram_bandwidth_bytes_per_cycle * factor,
        )
