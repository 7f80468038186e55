"""Unit tests for the NoC simulator (mesh, DRAM, traffic generation, simulation)."""

import pytest

from repro.arch import simba_like, pe_array_8x8
from repro.arch.spatial import NoCSpec, PEArraySpec
from repro.mapping import Mapping
from repro.noc import DramModel, MeshNetwork, NoCSimulator, Packet, TrafficDirection, TrafficGenerator
from repro.noc.mesh import GLOBAL_BUFFER_NODE
from repro.workloads import conv_layer, layer_from_name
from repro.workloads.layer import TensorKind

ARCH = simba_like()


def make_mapping(layer, temporal, spatial=None, permutations=None):
    num = ARCH.num_memory_levels
    temporal = list(temporal) + [{}] * (num - len(temporal))
    spatial = list(spatial or []) + [{}] * (num - len(spatial or []))
    return Mapping.from_factors(layer, temporal, spatial, permutations)


class TestMesh:
    def setup_method(self):
        self.mesh = MeshNetwork(PEArraySpec(rows=4, cols=4), NoCSpec())

    def test_coordinates_roundtrip(self):
        for pe in range(16):
            row, col = self.mesh.coordinates(pe)
            assert self.mesh.node_id(row, col) == pe

    def test_out_of_range_pe(self):
        with pytest.raises(ValueError):
            self.mesh.coordinates(16)

    def test_xy_route_goes_column_then_row(self):
        # From PE 0 (0,0) to PE 15 (3,3): three column hops then three row hops.
        route = self.mesh.xy_route(0, 15)
        assert len(route) == 6
        assert route[0] == (0, 1)
        assert route[-1] == (11, 15)

    def test_route_from_global_buffer_includes_injection_link(self):
        route = self.mesh.xy_route(GLOBAL_BUFFER_NODE, 5)
        assert route[0] == (GLOBAL_BUFFER_NODE, 0)

    def test_route_to_self_is_empty(self):
        assert self.mesh.xy_route(3, 3) == []

    def test_multicast_tree_shares_common_prefix(self):
        tree = self.mesh.multicast_tree(GLOBAL_BUFFER_NODE, (1, 2))
        # Routes to PE1 and PE2 share the injection link and link 0->1.
        assert (GLOBAL_BUFFER_NODE, 0) in tree
        assert (0, 1) in tree
        assert (1, 2) in tree
        assert len(tree) == 3

    def test_link_contention_serialises_packets(self):
        noc = NoCSpec(link_bandwidth_flits=1.0, router_latency=0)
        mesh = MeshNetwork(PEArraySpec(rows=4, cols=4), noc)
        packet = Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, 64.0, (3,))
        first = mesh.deliver(packet, 0.0)
        second = mesh.deliver(packet, 0.0)
        # Both packets cross the same injection link: the second finishes later.
        assert second > first

    def test_multicast_cheaper_than_unicasts(self):
        noc_multicast = NoCSpec(multicast=True, router_latency=0)
        noc_unicast = NoCSpec(multicast=False, router_latency=0)
        destinations = tuple(range(16))
        packet = Packet(TensorKind.INPUT, TrafficDirection.DISTRIBUTE, 128.0, destinations)
        with_mc = MeshNetwork(PEArraySpec(4, 4), noc_multicast)
        without_mc = MeshNetwork(PEArraySpec(4, 4), noc_unicast)
        t_mc = with_mc.deliver(packet, 0.0)
        t_uc = without_mc.deliver(packet, 0.0)
        assert t_mc <= t_uc
        # Unicasts queue 16 packets on the global buffer's injection link.
        assert with_mc.max_link_busy_cycles() < without_mc.max_link_busy_cycles()

    def test_collection_packets_route_to_global_buffer(self):
        packet = Packet(TensorKind.OUTPUT, TrafficDirection.COLLECT, 32.0, (15,))
        completion = self.mesh.deliver(packet, 0.0)
        assert completion > 0
        assert self.mesh.max_link_busy_cycles() > 0

    def test_reset_clears_state(self):
        self.mesh.deliver(Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, 64.0, (3,)), 0.0)
        self.mesh.reset()
        assert self.mesh.max_link_busy_cycles() == 0


class TestPacket:
    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, -1.0, (0,))
        with pytest.raises(ValueError):
            Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, 1.0, ())

    def test_multicast_flag(self):
        assert Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, 1.0, (0, 1)).is_multicast
        assert not Packet(TensorKind.WEIGHT, TrafficDirection.DISTRIBUTE, 1.0, (0,)).is_multicast


class TestDram:
    def test_service_time(self):
        # An unloaded transfer takes latency plus bytes over bandwidth.
        dram = DramModel(bandwidth_bytes_per_cycle=8.0, latency_cycles=100)
        assert dram.transfer(0, 5.0) == 5.0
        assert dram.transfer(800, 5.0) == 5.0 + 100 + 100

    def test_back_to_back_requests_serialise(self):
        dram = DramModel(bandwidth_bytes_per_cycle=8.0, latency_cycles=10)
        first = dram.transfer(80, 0.0)
        second = dram.transfer(80, 0.0)
        assert second == pytest.approx(first + 10 + 10)
        assert dram.total_bytes == 160

    def test_from_noc(self):
        dram = DramModel.from_noc(NoCSpec())
        assert dram.bandwidth_bytes_per_cycle == NoCSpec().dram_bandwidth_bytes_per_cycle


class TestTrafficGenerator:
    def _generator(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 2}, {}],
            spatial=[{}, {}, {}, {}, {"K": 8}, {}],
        )
        return TrafficGenerator(mapping, ARCH)

    def test_active_pes_and_groups(self):
        gen = self._generator()
        assert len(gen.pe_spatial_indices()) == 8
        # K is spatial: weights are unicast (8 groups of one PE), inputs are
        # multicast to all 8 PEs (K irrelevant to inputs).
        assert len(gen.multicast_groups(TensorKind.WEIGHT)) == 8
        input_groups = gen.multicast_groups(TensorKind.INPUT)
        assert len(input_groups) == 1
        assert len(input_groups[0]) == 8

    def test_round_count_matches_outer_loops(self):
        gen = self._generator()
        assert gen.total_rounds == 2  # single K loop of bound 2 at the GB level
        rounds = list(gen.rounds(gen.total_rounds))
        assert len(rounds) == 2

    def test_first_round_transfers_everything(self):
        gen = self._generator()
        first = next(gen.rounds(gen.total_rounds))
        tensors = {p.tensor for p in first.packets}
        assert TensorKind.WEIGHT in tensors
        assert TensorKind.INPUT in tensors

    def test_stationary_tensor_not_retransferred(self):
        # K at the outer level is irrelevant to inputs, so inputs transfer
        # only in round 0; weights (K-relevant) transfer every round.
        gen = self._generator()
        rounds = list(gen.rounds(gen.total_rounds))
        second = rounds[1]
        tensors = [p.tensor for p in second.packets if p.direction is TrafficDirection.DISTRIBUTE]
        assert TensorKind.WEIGHT in tensors
        assert TensorKind.INPUT not in tensors

    def test_outputs_collected_in_final_round(self):
        gen = self._generator()
        rounds = list(gen.rounds(gen.total_rounds))
        collects = [
            p for p in rounds[-1].packets if p.direction is TrafficDirection.COLLECT
        ]
        assert collects

    def test_compute_cycles_per_round(self):
        gen = self._generator()
        assert gen.compute_cycles_per_round() == 4 * 4 * 8

    def test_max_rounds_cap(self):
        layer = conv_layer(r=1, p=4, c=8, k=64, q=1)
        mapping = make_mapping(layer, [{"P": 4}, {"C": 8}, {}, {}, {"K": 64}, {}])
        gen = TrafficGenerator(mapping, ARCH)
        assert gen.total_rounds == 64
        assert len(list(gen.rounds(max_rounds=8))) == 8


class TestNoCSimulator:
    def test_latency_is_at_least_compute(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 2}, {}],
            spatial=[{}, {}, {}, {}, {"K": 8}, {}],
        )
        result = NoCSimulator(ARCH).simulate(mapping)
        assert result.latency >= result.compute_cycles / max(result.rounds_total, 1)
        assert result.rounds_total == 2
        assert result.rounds_simulated == 2

    def test_extrapolation_for_many_rounds(self):
        layer = conv_layer(r=1, p=4, c=8, k=256, q=1)
        mapping = make_mapping(layer, [{"P": 4}, {"C": 8}, {}, {}, {"K": 256}, {}])
        result = NoCSimulator(ARCH).simulate(mapping)
        assert result.rounds_total == 256
        assert result.rounds_simulated == 64
        assert result.latency > 0

    def test_unicast_heavy_schedule_is_slower_on_noc(self):
        """Spreading a weight-relevant dimension across PEs (unicast weights)
        should cost more NoC time than spreading an irrelevant one (multicast),
        for the same tile sizes — the congestion effect of Fig. 4."""
        layer = conv_layer(r=1, p=16, c=16, k=16, q=1)
        multicast_friendly = make_mapping(
            layer,
            [{"P": 4}, {"C": 16}, {}, {}, {"K": 16}, {}],
            spatial=[{}, {}, {}, {}, {"P": 4}, {}],
        )
        unicast_heavy = make_mapping(
            layer,
            [{"P": 4}, {"C": 4}, {}, {}, {"K": 16, "P": 4}, {}],
            spatial=[{}, {}, {}, {}, {"C": 4}, {}],
        )
        sim = NoCSimulator(ARCH)
        assert sim.simulate(multicast_friendly).latency > 0
        assert sim.simulate(unicast_heavy).latency > 0

    def test_more_pes_helps_compute_bound_layers(self):
        layer = layer_from_name("3_14_128_256_1")
        small, big = simba_like(), pe_array_8x8()

        def mapping_for(arch, k_spatial):
            temporal = [{"R": 3, "S": 3}, {"C": 8}, {"C": 16}, {}, {"P": 14, "Q": 14, "K": 256 // k_spatial}, {}]
            spatial = [{}, {}, {}, {}, {"K": k_spatial}, {}]
            return Mapping.from_factors(layer, temporal, spatial)

        lat_small = NoCSimulator(small).simulate(mapping_for(small, 16)).latency
        lat_big = NoCSimulator(big).simulate(mapping_for(big, 64)).latency
        assert lat_big < lat_small

