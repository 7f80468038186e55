"""Unit tests for the mapping IR (loops, mappings, loop-nest rendering, map space)."""

import random
from collections import Counter
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import simba_like
from repro.mapping import LevelMapping, Loop, Mapping, MapSpace, render_loop_nest
from repro.mapping.space import random_mapping
from repro.workloads import conv_layer, layer_from_name
from repro.workloads.layer import TensorKind
from repro.workloads.problem import CONV7
from repro.workloads.prime import factorize


class TestLoop:
    def test_validation(self):
        # Dim names are problem-specific since the tensor-problem IR landed:
        # arbitrary names are allowed on the Loop itself and validated when a
        # mapping is built against a layer (see test_from_factors_unknown_dim).
        with pytest.raises(ValueError):
            Loop(dim="", bound=2)
        with pytest.raises(ValueError):
            Loop(dim="K", bound=0)

    def test_from_factors_unknown_dim(self):
        layer = conv_layer(r=1, p=4, c=4, k=4, n=1)
        with pytest.raises(KeyError, match="unknown conv7 dimension"):
            Mapping.from_factors(layer, temporal_factors=[{"Z": 4}])
        with pytest.raises(KeyError, match="spatial_factors"):
            Mapping.from_factors(layer, temporal_factors=[{}], spatial_factors=[{"M": 2}])

    def test_relevance(self):
        assert Loop("K", 2).relevant_to(TensorKind.WEIGHT, CONV7)
        assert Loop("K", 2).relevant_to(TensorKind.OUTPUT, CONV7)
        assert not Loop("K", 2).relevant_to(TensorKind.INPUT, CONV7)
        assert not Loop("P", 2).relevant_to(TensorKind.WEIGHT, CONV7)

    def test_str_shows_kind(self):
        assert "spatial_for" in str(Loop("C", 4, spatial=True))
        assert str(Loop("C", 4)).startswith("for")


class TestLevelMapping:
    def test_rejects_misplaced_loops(self):
        with pytest.raises(ValueError):
            LevelMapping(temporal=[Loop("K", 2, spatial=True)])
        with pytest.raises(ValueError):
            LevelMapping(spatial=[Loop("K", 2, spatial=False)])

    def test_products_and_factor(self):
        level = LevelMapping(
            temporal=[Loop("K", 2), Loop("C", 3)],
            spatial=[Loop("K", 4, spatial=True)],
        )
        assert level.temporal_product() == 6
        assert level.spatial_product() == 4
        assert level.factor("K") == 8
        assert level.factor("K", include_spatial=False) == 2
        assert level.factor("P") == 1

    def test_nontrivial_removes_unit_loops(self):
        level = LevelMapping(temporal=[Loop("K", 1), Loop("C", 3)])
        assert [l.dim for l in level.nontrivial().temporal] == ["C"]


def _simple_mapping(layer=None):
    """A hand-built 3-level mapping for a small layer."""
    layer = layer or conv_layer(r=1, p=4, c=8, k=16, n=1)
    return Mapping.from_factors(
        layer,
        temporal_factors=[{"P": 4, "Q": 4}, {"C": 8}, {"K": 4}],
        spatial_factors=[{}, {"K": 4}, {}],
    )


class TestMapping:
    def test_from_factors_structure(self):
        mapping = _simple_mapping()
        assert mapping.num_levels == 3
        assert mapping.factor("K", 1) == 4
        assert mapping.factor("K", 1, include_spatial=False) == 1
        assert mapping.dim_product("K") == 16
        assert mapping.total_spatial_product() == 4
        assert mapping.total_temporal_product() == 4 * 4 * 8 * 4

    def test_consistency_check(self):
        mapping = _simple_mapping()
        assert mapping.is_consistent()
        broken = Mapping.from_factors(
            mapping.layer,
            temporal_factors=[{"P": 4}, {"C": 8}, {"K": 16}],
        )
        assert not broken.is_consistent()
        with pytest.raises(ValueError):
            broken.validate_against_layer()

    def test_permutation_order_is_innermost_first(self):
        layer = conv_layer(r=1, p=4, c=3, k=5, q=2)
        mapping = Mapping.from_factors(
            layer,
            temporal_factors=[{"P": 4, "Q": 2, "C": 3, "K": 5}],
            permutations=[("K", "C", "Q", "P")],
        )
        assert tuple(loop.dim for loop in mapping.levels[0].temporal) == ("K", "C", "Q", "P")

    def test_loops_above_orders_inner_levels_first(self):
        mapping = _simple_mapping()
        above = mapping.loops_above(1)
        assert [(lvl, loop.dim) for lvl, loop in above] == [(1, "C"), (2, "K")]

    def test_compact_drops_unit_loops(self):
        layer = conv_layer(r=1, p=2, c=1, k=1, q=1)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"P": 2, "K": 1}, {}])
        loops = [loop for level in mapping.compact().levels for loop in level.all_loops]
        assert loops == [Loop("P", 2)]

    def test_summary_and_repr(self):
        text = _simple_mapping().summary()
        assert "s[K4]" in text and "t[C8]" in text


class TestLoopNestRendering:
    def test_listing1_style_output(self):
        # The small example layer of Listing 1.
        layer = conv_layer(r=3, p=28, c=8, k=4, stride=1, n=3, name="listing1")
        mapping = Mapping.from_factors(
            layer,
            temporal_factors=[
                {"Q": 2},
                {"S": 3, "P": 2},
                {"C": 8, "P": 2},
                {},
                {"P": 7, "Q": 7, "N": 3},
                {"Q": 2},
            ],
            spatial_factors=[{}, {}, {}, {"K": 2}, {"R": 3, "K": 2}, {}],
        )
        text = render_loop_nest(
            mapping,
            level_names=[
                "Register",
                "Accumulation Buffer",
                "Weight Buffer",
                "Input Buffer",
                "Global Buffer",
                "DRAM",
            ],
        )
        assert "// DRAM" in text
        assert "spatial_for r0 = [0 : 3)" in text
        assert "for q1 = [0 : 2)" in text or "for q0 = [0 : 2)" in text
        # Outer levels must be printed before inner levels.
        assert text.index("DRAM") < text.index("Global Buffer") < text.index("Register")

    def test_tile_suffixes_decrease_outwards(self):
        layer = conv_layer(r=1, p=8, c=1, k=1, q=1)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"P": 2}, {"P": 2}, {"P": 2}])
        text = render_loop_nest(mapping)
        assert text.index("p2") < text.index("p1") < text.index("p0")

    def test_level_name_count_mismatch(self):
        with pytest.raises(ValueError):
            render_loop_nest(_simple_mapping(), level_names=["only-one"])


class TestMapSpace:
    def setup_method(self):
        self.arch = simba_like()
        self.layer = layer_from_name("3_7_64_64_1")
        self.space = MapSpace(self.layer, self.arch)

    def test_random_mappings_cover_layer_bounds(self):
        rng = random.Random(1)
        for _ in range(20):
            mapping = self.space.random_mapping(rng)
            assert mapping.is_consistent()
            assert mapping.num_levels == self.arch.num_memory_levels

    def test_random_mappings_respect_fanouts(self):
        rng = random.Random(2)
        for _ in range(20):
            mapping = self.space.random_mapping(rng)
            for index, level in enumerate(self.arch.hierarchy):
                assert mapping.spatial_product_at(index) <= level.spatial_fanout

    def test_tiling_space_is_large(self):
        # The paper reports billions of schedules for realistic layers.
        # Each dimension splits into ordered factors over every temporal
        # slot plus one spatial slot per spatial level.
        big_layer = layer_from_name("3_14_256_256_1")
        hierarchy = self.arch.hierarchy
        slots = self.arch.num_memory_levels + len(hierarchy.spatial_levels())

        def ordered_splits(value):
            # Stars and bars per prime: each prime's multiplicity spreads
            # over the slots independently.
            return prod(
                comb(multiplicity + slots - 1, slots - 1)
                for multiplicity in Counter(factorize(value)).values()
            )

        size = prod(ordered_splits(bound) for bound in big_layer.bounds.values())
        assert size > 1e9

    def test_convenience_wrapper(self):
        mapping = random_mapping(self.layer, self.arch, seed=5)
        assert mapping.is_consistent()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_mapping_always_consistent(self, seed):
        mapping = self.space.random_mapping(random.Random(seed))
        assert mapping.is_consistent()
