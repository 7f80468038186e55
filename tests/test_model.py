"""Unit tests for the analytical cost model (nest analysis, latency, energy)."""

import pytest

from repro.arch import simba_like
from repro.mapping import Mapping
from repro.model import CostModel, EnergyModel, NestAnalysis, PerformanceModel
from repro.workloads import conv_layer, layer_from_name
from repro.workloads.layer import TensorKind


ARCH = simba_like()
LEVEL = {name: ARCH.hierarchy.index_of(name) for name in ARCH.hierarchy.names}


def make_mapping(layer, temporal, spatial=None, permutations=None):
    """Helper building a 6-level mapping for the baseline architecture."""
    num = ARCH.num_memory_levels
    temporal = list(temporal) + [{}] * (num - len(temporal))
    spatial = list(spatial or []) + [{}] * (num - len(spatial or []))
    return Mapping.from_factors(layer, temporal, spatial, permutations)


class TestTileSizes:
    def test_dram_holds_full_tensors(self):
        layer = layer_from_name("3_7_64_64_1")
        mapping = make_mapping(layer, [{"R": 3, "S": 3, "P": 7, "Q": 7, "C": 64, "K": 64}])
        analysis = NestAnalysis(mapping, ARCH)
        dram = ARCH.hierarchy.dram_index
        for tensor in TensorKind:
            assert analysis.tile_elements(tensor, dram) == layer.tensor_volume(tensor)

    def test_tile_excludes_levels_above(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}],
        )
        analysis = NestAnalysis(mapping, ARCH)
        # Weight tile at the weight buffer: footprint of loops below it
        # (P, Q at registers; C at accum buffer) restricted to weight dims.
        assert analysis.tile_elements(TensorKind.WEIGHT, LEVEL["WeightBuffer"]) == 8
        # Output tile at the accumulation buffer: P*Q from the register level.
        assert analysis.tile_elements(TensorKind.OUTPUT, LEVEL["AccumulationBuffer"]) == 16

    def test_spatial_factors_at_level_count_towards_its_tile(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        base = make_mapping(layer, [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}])
        spread = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        gb = LEVEL["GlobalBuffer"]
        base_tile = NestAnalysis(base, ARCH).tile_elements(TensorKind.OUTPUT, gb)
        spread_tile = NestAnalysis(spread, ARCH).tile_elements(TensorKind.OUTPUT, gb)
        # Spreading K across PEs makes the global buffer hold 4x more outputs.
        assert spread_tile == 4 * base_tile

    def test_input_halo(self):
        layer = conv_layer(r=3, p=4, c=1, k=1, stride=2)
        mapping = make_mapping(layer, [{"R": 3, "S": 3, "P": 4, "Q": 4}])
        analysis = NestAnalysis(mapping, ARCH)
        expected = ((4 - 1) * 2 + 3) ** 2
        assert analysis.tile_elements(TensorKind.INPUT, LEVEL["AccumulationBuffer"]) == 0  # IA not stored there
        assert analysis.tile_elements(TensorKind.INPUT, LEVEL["InputBuffer"]) == expected

    def test_level_not_holding_tensor_reports_zero(self):
        layer = conv_layer(r=1, p=2, c=1, k=2, q=1)
        mapping = make_mapping(layer, [{"P": 2, "K": 2}])
        analysis = NestAnalysis(mapping, ARCH)
        assert analysis.tile_elements(TensorKind.WEIGHT, LEVEL["InputBuffer"]) == 0

    def test_mismatched_level_count_rejected(self):
        layer = conv_layer(r=1, p=2, c=1, k=1, q=1)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"P": 2}])
        with pytest.raises(ValueError):
            NestAnalysis(mapping, ARCH)


class TestBufferChecks:
    def test_small_mapping_fits(self):
        layer = conv_layer(r=1, p=4, c=4, k=4)
        mapping = make_mapping(layer, [{"P": 4, "Q": 4}, {"C": 4}, {"K": 4}])
        assert NestAnalysis(mapping, ARCH).buffer_violations() == []
        assert CostModel(ARCH).evaluate(mapping).valid

    def test_oversized_accumulation_tile_is_rejected(self):
        # 64x64 outputs kept below the accumulation buffer (3 KB at 3 B each)
        # overflow it: loops at the register level build the AccumBuf tile.
        layer = conv_layer(r=1, p=64, c=1, k=1)
        mapping = make_mapping(layer, [{"P": 64, "Q": 64}])
        analysis = NestAnalysis(mapping, ARCH)
        violated_levels = [v[0] for v in analysis.buffer_violations()]
        assert LEVEL["AccumulationBuffer"] in violated_levels
        assert not CostModel(ARCH).evaluate(mapping).valid


class TestRefetchFactors:
    def test_weight_stationary_when_relevant_loops_are_innermost(self):
        layer = conv_layer(r=1, p=8, c=4, k=4, q=1)
        # C and K (weight-relevant) at the weight buffer level; P outside at the GB.
        mapping = make_mapping(layer, [{}, {}, {"C": 4, "K": 4}, {}, {"P": 8}, {}])
        analysis = NestAnalysis(mapping, ARCH)
        wbuf = LEVEL["WeightBuffer"]
        # Walking from the WeightBuffer outward, the innermost relevant loop is
        # C/K at the same level, so the refetch factor includes C*K*P.
        assert analysis.refetch_factor(TensorKind.WEIGHT, wbuf) == 4 * 4 * 8

    def test_irrelevant_inner_loops_enable_reuse(self):
        layer = conv_layer(r=1, p=8, c=4, k=4, q=1)
        perm_reuse = make_mapping(
            layer,
            [{}, {}, {}, {}, {"P": 8, "C": 4, "K": 4}, {}],
            permutations=[(), (), (), (), ("P", "C", "K"), ()],
        )
        perm_refetch = make_mapping(
            layer,
            [{}, {}, {}, {}, {"C": 4, "K": 4, "P": 8}, {}],
            permutations=[(), (), (), (), ("C", "K", "P"), ()],
        )
        gb = LEVEL["GlobalBuffer"]
        analysis_reuse = NestAnalysis(perm_reuse, ARCH)
        analysis_refetch = NestAnalysis(perm_refetch, ARCH)
        # With P innermost (irrelevant to weights), weights at the weight buffer
        # are refetched fewer times than when P is outermost... the weight
        # tile sees P iterations only after a relevant loop appears outside it.
        wbuf = LEVEL["WeightBuffer"]
        assert analysis_reuse.refetch_factor(TensorKind.WEIGHT, wbuf) < analysis_refetch.refetch_factor(
            TensorKind.WEIGHT, wbuf
        )

    def test_no_relevant_loops_means_single_fetch(self):
        layer = conv_layer(r=1, p=1, c=4, k=4)
        mapping = make_mapping(layer, [{"C": 4, "K": 4}])
        analysis = NestAnalysis(mapping, ARCH)
        assert analysis.refetch_factor(TensorKind.WEIGHT, LEVEL["WeightBuffer"]) == 1.0


class TestFlowsAndAccessCounts:
    def test_total_dram_reads_at_least_tensor_volume(self):
        layer = layer_from_name("3_7_64_64_1")
        mapping = make_mapping(
            layer,
            [{"R": 3, "S": 3}, {"C": 4}, {"C": 16}, {"P": 7, "Q": 7}, {"K": 64}, {}],
        )
        analysis = NestAnalysis(mapping, ARCH)
        dram = ARCH.hierarchy.dram_index
        weight_reads = analysis.access_counts[dram][TensorKind.WEIGHT]["reads"]
        assert weight_reads >= layer.tensor_volume(TensorKind.WEIGHT)

    def test_multicast_reduces_parent_reads(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        # K spatial at the GB level: inputs are multicast to the K-partitioned PEs.
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        analysis = NestAnalysis(mapping, ARCH)
        input_flows = [
            f
            for f in analysis.boundary_flows
            if f.tensor is TensorKind.INPUT and f.parent_level == LEVEL["GlobalBuffer"]
        ]
        assert len(input_flows) == 1
        flow = input_flows[0]
        assert flow.words_read_from_parent * 4 == pytest.approx(flow.words_into_child)

    def test_compute_accesses_at_innermost_level(self):
        layer = conv_layer(r=1, p=2, c=2, k=2)
        mapping = make_mapping(layer, [{"P": 2, "Q": 2, "C": 2, "K": 2}])
        analysis = NestAnalysis(mapping, ARCH)
        weight_level = ARCH.hierarchy.innermost_level_for(TensorKind.WEIGHT)
        output_level = ARCH.hierarchy.innermost_level_for(TensorKind.OUTPUT)
        assert analysis.access_counts[weight_level][TensorKind.WEIGHT]["reads"] >= layer.macs
        assert analysis.access_counts[output_level][TensorKind.OUTPUT]["writes"] >= layer.macs

    def test_noc_boundary_words_positive_for_multi_pe_mapping(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        words = NestAnalysis(mapping, ARCH).noc_boundary_words()
        assert words[TensorKind.INPUT] > 0
        assert words[TensorKind.OUTPUT] > 0

    def test_describe_runs(self):
        layer = conv_layer(r=1, p=2, c=1, k=2, q=1)
        mapping = make_mapping(layer, [{"P": 2, "K": 2}])
        assert "NestAnalysis" in NestAnalysis(mapping, ARCH).describe()


class TestPerformanceModel:
    def test_compute_bound_schedule(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 1}, {}],
            spatial=[{"K": 16}, {}, {}, {}, {}, {}],
        )
        result = PerformanceModel(ARCH).evaluate(mapping)
        assert result.compute_cycles == 4 * 4 * 8
        assert result.latency >= result.compute_cycles

    def test_spatial_mapping_reduces_compute_cycles(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        sequential = make_mapping(layer, [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 16}, {}])
        parallel = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {}, {}],
            spatial=[{}, {}, {}, {}, {"K": 16}, {}],
        )
        model = PerformanceModel(ARCH)
        assert model.evaluate(parallel).compute_cycles * 16 == model.evaluate(sequential).compute_cycles

    def test_utilization_counts_all_spatial_lanes(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {}, {}],
            spatial=[{"C": 1}, {}, {}, {}, {"K": 16}, {}],
        )
        util = PerformanceModel(ARCH).utilization(mapping)
        assert util == pytest.approx(16 / (16 * 64))


class TestEnergyModel:
    def test_poor_dram_reuse_costs_more_energy(self):
        layer = layer_from_name("3_7_64_64_1")
        # Good reuse: all temporal iteration kept on chip, DRAM visited once.
        reuse = make_mapping(
            layer,
            [{"R": 3, "S": 3}, {"C": 64}, {}, {"P": 7, "Q": 7}, {"K": 64}, {}],
        )
        # Poor reuse: C is hoisted out of the on-chip tile (to the global
        # buffer level, inside the K loop), so the input tile kept on chip is
        # C-times smaller and gets re-streamed from DRAM for every K x C
        # iteration.
        refetch = make_mapping(
            layer,
            [{"R": 3, "S": 3}, {}, {}, {"P": 7, "Q": 7}, {"C": 64, "K": 64}, {}],
            permutations=[(), (), (), (), ("C", "K"), ()],
        )
        model = EnergyModel(ARCH)
        good = model.evaluate(reuse)
        bad = model.evaluate(refetch)
        assert good.total > 0
        assert bad.level_energy["DRAM"] > good.level_energy["DRAM"]
        assert bad.total > good.total

    def test_energy_total_is_sum_of_parts(self):
        layer = conv_layer(r=1, p=4, c=8, k=8)
        mapping = make_mapping(layer, [{"P": 4, "Q": 4}, {"C": 8}, {"K": 8}])
        b = EnergyModel(ARCH).evaluate(mapping)
        assert b.total == pytest.approx(b.mac_energy + b.noc_energy + sum(b.level_energy.values()))


class TestCostModel:
    def test_invalid_mapping_gets_infinite_cost(self):
        layer = conv_layer(r=1, p=64, c=1, k=1)
        mapping = make_mapping(layer, [{"P": 64, "Q": 64}])
        result = CostModel(ARCH).evaluate(mapping)
        assert not result.valid
        assert result.latency == float("inf")
        assert result.violations

    def test_valid_mapping_reports_finite_cost(self):
        layer = conv_layer(r=1, p=4, c=8, k=16)
        mapping = make_mapping(
            layer,
            [{"P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        result = CostModel(ARCH).evaluate(mapping)
        assert result.valid
        assert 0 < result.latency < float("inf")
        assert 0 < result.energy < float("inf")
        assert result.edp == pytest.approx(result.latency * result.energy)

    def test_level_count_mismatch_is_reported(self):
        layer = conv_layer(r=1, p=2, c=1, k=1, q=1)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"P": 2}])
        result = CostModel(ARCH).evaluate(mapping)
        assert not result.valid
        assert any("levels" in v for v in result.violations)

    def test_spatial_fanout_violation_is_reported(self):
        layer = conv_layer(r=1, p=1, c=1, k=32)
        mapping = make_mapping(
            layer,
            [{}, {}, {}, {}, {}, {}],
            spatial=[{}, {}, {}, {}, {"K": 32}, {}],
        )
        result = CostModel(ARCH).evaluate(mapping)
        assert not result.valid
        assert any("fanout" in v for v in result.violations)
