"""2-D mesh network with X-Y routing, multicast trees and link contention.

The mesh has one router per PE plus an injection node for the global buffer
attached to the router at position (0, 0) (matching the Simba-style design
where the global buffer sits at the array edge).  Every directed link keeps a
"free at" timestamp; a packet reserves each link along its route in order,
so hot links near the injection point naturally serialise traffic — this is
the congestion effect the analytical model cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.spatial import NoCSpec, PEArraySpec
from repro.noc.packet import Packet, TrafficDirection

#: Identifier of the global-buffer injection node.
GLOBAL_BUFFER_NODE = -1


@dataclass
class LinkState:
    """Occupancy bookkeeping of one directed link."""

    free_at: float = 0.0
    busy_cycles: float = 0.0


class MeshNetwork:
    """An ``rows x cols`` wormhole mesh with per-link occupancy tracking."""

    def __init__(self, pe_array: PEArraySpec, noc: NoCSpec):
        self.pe_array = pe_array
        self.noc = noc
        self.rows = pe_array.rows
        self.cols = pe_array.cols
        self._links: dict[tuple[int, int], LinkState] = {}

    # ----------------------------------------------------------------- layout
    def coordinates(self, pe_id: int) -> tuple[int, int]:
        """(row, col) of a PE id (row-major numbering)."""
        if pe_id == GLOBAL_BUFFER_NODE:
            return (0, 0)
        if not 0 <= pe_id < self.rows * self.cols:
            raise ValueError(f"PE id {pe_id} out of range for a {self.rows}x{self.cols} mesh")
        return divmod(pe_id, self.cols)

    def node_id(self, row: int, col: int) -> int:
        """PE id of mesh position (row, col)."""
        return row * self.cols + col

    def xy_route(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Directed links of the X-Y route from ``src`` to ``dst``.

        The route first travels along the row (X direction), then along the
        column (Y direction).  The injection link from the global buffer into
        router (0, 0) is represented by the pair ``(GLOBAL_BUFFER_NODE, 0)``.
        """
        links: list[tuple[int, int]] = []
        if src == GLOBAL_BUFFER_NODE:
            links.append((GLOBAL_BUFFER_NODE, self.node_id(0, 0)))
            src = self.node_id(0, 0)
        if dst == GLOBAL_BUFFER_NODE:
            # Route to router (0, 0) first, then eject.
            links.extend(self.xy_route(src, self.node_id(0, 0)))
            links.append((self.node_id(0, 0), GLOBAL_BUFFER_NODE))
            return links
        row_src, col_src = self.coordinates(src)
        row_dst, col_dst = self.coordinates(dst)
        current = src
        step = 1 if col_dst > col_src else -1
        for col in range(col_src + step, col_dst + step, step) if col_src != col_dst else []:
            nxt = self.node_id(row_src, col)
            links.append((current, nxt))
            current = nxt
        step = 1 if row_dst > row_src else -1
        for row in range(row_src + step, row_dst + step, step) if row_src != row_dst else []:
            nxt = self.node_id(row, col_dst)
            links.append((current, nxt))
            current = nxt
        return links

    def multicast_tree(self, src: int, destinations: tuple[int, ...]) -> set[tuple[int, int]]:
        """Union of the X-Y routes to every destination (the multicast tree)."""
        tree: set[tuple[int, int]] = set()
        for dst in destinations:
            tree.update(self.xy_route(src, dst))
        return tree

    # ------------------------------------------------------------------ timing
    def _link(self, key: tuple[int, int]) -> LinkState:
        if key not in self._links:
            self._links[key] = LinkState()
        return self._links[key]

    def reset(self) -> None:
        """Clear all link occupancy (start of a new simulation)."""
        self._links.clear()

    def deliver(self, packet: Packet, start_time: float) -> float:
        """Send ``packet`` at ``start_time`` and return its completion time.

        The packet's flits occupy every link of its route (or multicast tree)
        for ``flits / link_bandwidth`` cycles, starting no earlier than the
        link becomes free; the head flit additionally pays one router latency
        per hop.  Without multicast hardware a multicast packet degenerates
        into independent unicasts.
        """
        flits = max(1, self.noc.flits_for_bytes(packet.payload_bytes))
        serialization = flits / self.noc.link_bandwidth_flits

        if packet.direction is TrafficDirection.DISTRIBUTE:
            source = GLOBAL_BUFFER_NODE
            if packet.is_multicast and not self.noc.multicast:
                return max(
                    self._deliver_over_links(self.xy_route(source, dst), serialization, start_time)
                    for dst in packet.destinations
                )
            links = (
                self.multicast_tree(source, packet.destinations)
                if packet.is_multicast
                else set(self.xy_route(source, packet.destinations[0]))
            )
            return self._deliver_over_links(links, serialization, start_time)

        # Collection: the (single) source PE sends toward the global buffer.
        source_pe = packet.destinations[0]
        return self._deliver_over_links(self.xy_route(source_pe, GLOBAL_BUFFER_NODE), serialization, start_time)

    def _deliver_over_links(self, links, serialization: float, start_time: float) -> float:
        completion = start_time
        hop_latency = self.noc.router_latency
        for key in links:
            link = self._link(key)
            begin = max(link.free_at, start_time)
            end = begin + serialization
            link.free_at = end
            link.busy_cycles += serialization
            completion = max(completion, end + hop_latency)
        return completion

    # ------------------------------------------------------------------ stats
    def max_link_busy_cycles(self) -> float:
        """Busy cycles of the most-loaded link (congestion indicator)."""
        if not self._links:
            return 0.0
        return max(state.busy_cycles for state in self._links.values())
