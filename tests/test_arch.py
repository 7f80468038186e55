"""Unit tests for the architecture description subpackage."""

import pytest

from repro.arch import (
    Accelerator,
    EnergyTable,
    GPUSpec,
    MemoryHierarchy,
    MemoryLevel,
    NoCSpec,
    PEArraySpec,
    Precision,
    architecture_presets,
    k80_like_gpu,
    large_buffers,
    pe_array_8x8,
    simba_like,
)
from repro.mapping import Mapping
from repro.model import NestAnalysis
from repro.workloads import conv_layer
from repro.workloads.layer import TensorKind


class TestMemoryLevel:
    def test_basic_properties(self):
        level = MemoryLevel("Buf", 1024, frozenset({TensorKind.WEIGHT}), spatial_fanout=4)
        assert level.holds(TensorKind.WEIGHT)
        assert not level.holds(TensorKind.INPUT)
        assert not level.is_unbounded

    def test_unbounded_level(self):
        dram = MemoryLevel("DRAM", None, frozenset(TensorKind))
        assert dram.is_unbounded

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryLevel("Bad", 0, frozenset(TensorKind))
        with pytest.raises(ValueError):
            MemoryLevel("Bad", 16, frozenset(TensorKind), spatial_fanout=0)
        with pytest.raises(ValueError):
            MemoryLevel("Bad", 16, frozenset(TensorKind), bandwidth_words_per_cycle=0)


class TestMemoryHierarchy:
    def _hierarchy(self):
        return MemoryHierarchy(
            [
                MemoryLevel("Reg", 64, frozenset(TensorKind), spatial_fanout=8),
                MemoryLevel("Buf", 1024, frozenset({TensorKind.WEIGHT})),
                MemoryLevel("GB", 4096, frozenset({TensorKind.INPUT, TensorKind.OUTPUT}), spatial_fanout=4),
                MemoryLevel("DRAM", None, frozenset(TensorKind)),
            ]
        )

    def test_indexing_by_name_and_position(self):
        h = self._hierarchy()
        assert h.index_of("GB") == 2
        assert h["GB"].name == "GB"
        assert h[0].name == "Reg"
        assert len(h) == 4

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            self._hierarchy().index_of("L2")

    def test_levels_holding(self):
        h = self._hierarchy()
        assert h.levels_holding(TensorKind.WEIGHT) == [0, 1, 3]
        assert h.levels_holding(TensorKind.INPUT) == [0, 2, 3]

    def test_spatial_levels_and_fanout(self):
        h = self._hierarchy()
        assert h.spatial_levels() == [0, 2]
        assert [h[i].spatial_fanout for i in h.spatial_levels()] == [8, 4]

    def test_requires_unbounded_outermost(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                [
                    MemoryLevel("Reg", 64, frozenset(TensorKind)),
                    MemoryLevel("Buf", 128, frozenset(TensorKind)),
                ]
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                [
                    MemoryLevel("A", 64, frozenset(TensorKind)),
                    MemoryLevel("A", 128, frozenset(TensorKind)),
                    MemoryLevel("DRAM", None, frozenset(TensorKind)),
                ]
            )

    def test_describe_mentions_every_level(self):
        text = self._hierarchy().describe()
        for name in ("Reg", "Buf", "GB", "DRAM"):
            assert name in text


class TestSpatialSpecs:
    def test_pe_array(self):
        array = PEArraySpec(rows=4, cols=4, macs_per_pe=64)
        assert array.num_pes == 16
        assert array.peak_macs_per_cycle == 1024

    def test_pe_array_validation(self):
        with pytest.raises(ValueError):
            PEArraySpec(rows=0)
        with pytest.raises(ValueError):
            PEArraySpec(macs_per_pe=0)

    def test_noc_flit_math(self):
        noc = NoCSpec(flit_bits=64)
        assert noc.flit_bytes == 8
        assert noc.flits_for_bytes(0) == 0
        assert noc.flits_for_bytes(1) == 1
        assert noc.flits_for_bytes(8) == 1
        assert noc.flits_for_bytes(9) == 2

    def test_noc_scaled_bandwidth(self):
        noc = NoCSpec().scaled_bandwidth(2.0)
        assert noc.link_bandwidth_flits == 2.0
        assert noc.dram_bandwidth_bytes_per_cycle == 16.0

    def test_noc_validation(self):
        with pytest.raises(ValueError):
            NoCSpec(routing="adaptive")
        with pytest.raises(ValueError):
            NoCSpec(flit_bits=0)


class TestEnergyTable:
    def test_known_and_fallback_levels(self):
        table = EnergyTable()
        assert table.access_energy("DRAM") > table.access_energy("GlobalBuffer")
        assert table.access_energy("GlobalBuffer") > table.access_energy("Registers")
        assert table.access_energy("SomethingElse") == table.default_sram_pj

    def test_override(self):
        table = EnergyTable(level_energy_pj={**EnergyTable().level_energy_pj, "GlobalBuffer": 3.0})
        assert table.access_energy("GlobalBuffer") == 3.0
        assert table.access_energy("DRAM") == EnergyTable().access_energy("DRAM")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyTable(mac_energy_pj=-1.0)


class TestPrecision:
    def test_paper_defaults(self):
        precision = Precision()
        assert precision.bytes_for(TensorKind.WEIGHT) == 1
        assert precision.bytes_for(TensorKind.INPUT) == 1
        assert precision.bytes_for(TensorKind.OUTPUT) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Precision(weight_bytes=0)


class TestPresets:
    def test_baseline_matches_table_v(self):
        arch = simba_like()
        assert arch.num_pes == 16
        assert arch.pe_array.macs_per_pe == 64
        h = arch.hierarchy
        assert h["Registers"].capacity_bytes == 64
        assert h["AccumulationBuffer"].capacity_bytes == 3 * 1024
        assert h["WeightBuffer"].capacity_bytes == 32 * 1024
        assert h["InputBuffer"].capacity_bytes == 8 * 1024
        assert h["GlobalBuffer"].capacity_bytes == 128 * 1024
        assert h["DRAM"].is_unbounded
        assert arch.noc.flit_bits == 64

    def test_tensor_bindings_match_table_iv(self):
        h = simba_like().hierarchy
        assert h["WeightBuffer"].tensors == frozenset({TensorKind.WEIGHT})
        assert h["InputBuffer"].tensors == frozenset({TensorKind.INPUT})
        assert h["AccumulationBuffer"].tensors == frozenset({TensorKind.OUTPUT})
        assert h["GlobalBuffer"].tensors == frozenset({TensorKind.INPUT, TensorKind.OUTPUT})
        assert h["DRAM"].tensors == frozenset(TensorKind)

    def test_pe_8x8_variant(self):
        arch = pe_array_8x8()
        assert arch.num_pes == 64
        assert arch.noc.dram_bandwidth_bytes_per_cycle == 2 * simba_like().noc.dram_bandwidth_bytes_per_cycle

    def test_large_buffer_variant(self):
        base, big = simba_like(), large_buffers()
        assert big.hierarchy["GlobalBuffer"].capacity_bytes == 8 * base.hierarchy["GlobalBuffer"].capacity_bytes
        assert big.hierarchy["WeightBuffer"].capacity_bytes == 2 * base.hierarchy["WeightBuffer"].capacity_bytes

    def test_presets_registry(self):
        presets = architecture_presets()
        assert set(presets) == {"baseline-4x4", "pe-8x8", "large-buffers"}

    def test_pe_level_index_is_global_buffer(self):
        arch = simba_like()
        assert arch.hierarchy[arch.pe_level_index()].name == "GlobalBuffer"

    @staticmethod
    def _below_global_buffer(arch, layer, spatial=None):
        """Analysis of ``layer`` with its ``spatial`` factors at the global
        buffer and every other loop just below it, so the global buffer
        holds the whole tile."""
        spatial = spatial or {}
        gb = arch.hierarchy.index_of("GlobalBuffer")
        temporal_factors = [{} for _ in range(arch.num_memory_levels)]
        spatial_factors = [{} for _ in range(arch.num_memory_levels)]
        temporal_factors[gb - 1] = {d: b for d, b in layer.bounds.items() if d not in spatial}
        spatial_factors[gb] = spatial
        return NestAnalysis(Mapping.from_factors(layer, temporal_factors, spatial_factors), arch)

    def test_capacity_in_words_respects_precision(self):
        # 128 KiB holds 65536 one-byte words but only 43690 three-byte
        # outputs: a 65536-output tile overflows the global buffer.
        arch = simba_like()
        gb = arch.hierarchy.index_of("GlobalBuffer")
        fits = self._below_global_buffer(arch, conv_layer(r=1, p=16, c=1, k=2048, q=1))
        assert fits.tile_elements(TensorKind.OUTPUT, gb) == 32768
        assert fits.buffer_violations() == []
        overflows = self._below_global_buffer(arch, conv_layer(r=1, p=16, c=1, k=4096, q=1))
        assert overflows.tile_elements(TensorKind.OUTPUT, gb) == 65536
        # 65536 outputs at 3 B plus 16 one-byte inputs; DRAM never overflows.
        assert overflows.buffer_violations() == [(gb, 3 * 65536 + 16, 128 * 1024)]

    def test_global_buffer_fanout_replicates_the_levels_below(self):
        arch = simba_like()
        gb = arch.hierarchy.index_of("GlobalBuffer")
        layer = conv_layer(r=1, p=1, c=1, k=16)
        analysis = self._below_global_buffer(arch, layer, spatial={"K": 16})
        assert [analysis.active_instances(i) for i in range(arch.num_memory_levels)] == (
            [16] * gb + [1, 1]
        )

    def test_describe(self):
        assert "GlobalBuffer" in simba_like().describe()

    def test_accelerator_fanout_consistency_check(self):
        arch = simba_like()
        with pytest.raises(ValueError):
            Accelerator(
                name="broken",
                hierarchy=arch.hierarchy,
                pe_array=PEArraySpec(rows=3, cols=3),
            )


class TestGPUSpec:
    def test_defaults_match_k80(self):
        gpu = k80_like_gpu()
        assert gpu.cuda_cores == 2496
        assert gpu.max_threads_per_block == 1024
        assert gpu.shared_memory_bytes == 48 * 1024
        assert gpu.max_block_dims == (1024, 1024, 64)

    def test_derived_quantities(self):
        gpu = GPUSpec()
        assert gpu.cores_per_sm == gpu.cuda_cores // gpu.num_sms
        assert gpu.dram_bytes_per_cycle > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUSpec(max_block_dims=(0, 1, 1))
