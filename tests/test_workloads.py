"""Unit tests for the workload (layer / prime / networks) subpackage."""

from collections import Counter
from math import prod

import pytest
from hypothesis import given, strategies as st

from repro.workloads import (
    TensorKind,
    alexnet_layers,
    deepbench_layers,
    divisors,
    factorize,
    layer_from_name,
    resnet50_layers,
    resnext50_layers,
    workload_suite,
)
from repro.workloads.layer import conv_layer
from repro.workloads.problem import CONV7
from repro.workloads.networks import figure1_layer, figure3_layer, figure4_layer, figure8_layer


class TestFactorize:
    def test_small_values(self):
        assert factorize(1) == []
        assert factorize(2) == [2]
        assert factorize(12) == [2, 2, 3]
        assert factorize(97) == [97]
        assert factorize(1024) == [2] * 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-5)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_product_of_factors_reconstructs_value(self, value):
        assert prod(factorize(value)) == value

    @given(st.integers(min_value=2, max_value=100_000))
    def test_factors_are_prime(self, value):
        for factor in factorize(value):
            assert factor >= 2
            assert all(factor % d != 0 for d in range(2, int(factor**0.5) + 1))

    def test_multiset(self):
        assert Counter(factorize(360)) == {2: 3, 3: 2, 5: 1}
        assert Counter(factorize(1)) == {}


class TestDivisorsAndFactorizations:
    def test_divisors(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(97) == (1, 97)


class TestLayer:
    def test_bounds_and_macs(self):
        layer = conv_layer(r=3, p=4, c=8, k=16, n=2)
        assert layer.bounds == {"R": 3, "S": 3, "P": 4, "Q": 4, "C": 8, "K": 16, "N": 2}
        assert layer.macs == 3 * 3 * 4 * 4 * 8 * 16 * 2
        assert layer.bound("k") == 16

    def test_input_dimensions_follow_sliding_window(self):
        layer = conv_layer(r=3, p=14, c=4, k=4, stride=2)
        width = (layer.bound("P") - 1) * layer.stride + layer.bound("R")
        height = (layer.bound("Q") - 1) * layer.stride + layer.bound("S")
        assert (width, height) == (29, 29)
        assert layer.tensor_volume(TensorKind.INPUT) == (
            layer.bound("N") * layer.bound("C") * width * height
        )

    def test_tensor_volumes(self):
        layer = conv_layer(r=1, p=7, c=32, k=64, n=1)
        assert layer.tensor_volume(TensorKind.WEIGHT) == 32 * 64
        assert layer.tensor_volume(TensorKind.OUTPUT) == 7 * 7 * 64
        assert layer.tensor_volume(TensorKind.INPUT) == 7 * 7 * 32

    def test_rejects_invalid_dimensions(self):
        with pytest.raises(ValueError):
            conv_layer(r=0, p=1, c=1, k=1, s=1)
        with pytest.raises(ValueError):
            conv_layer(r=1, p=1, c=1, k=1, stride=0)

    def test_unknown_dimension_lookup(self):
        with pytest.raises(KeyError):
            conv_layer(r=1, p=1, c=1, k=1).bound("Z")

    def test_prime_factors_multiply_back(self):
        layer = layer_from_name("3_14_256_256_1")
        factors = layer.prime_factors()
        for dim, bound in layer.bounds.items():
            assert prod(factors[dim]) == bound

    def test_canonical_name_roundtrip(self):
        layer = layer_from_name("3_7_512_512_2")
        assert layer.canonical_name == "3_7_512_512_2"
        assert layer.bound("R") == layer.bound("S") == 3
        assert layer.bound("P") == layer.bound("Q") == 7
        assert layer.stride == 2

    def test_fc_layer_detection(self):
        # An FC layer is a 1x1 convolution over a 1x1 output: only C and K exceed 1.
        fc = layer_from_name("1_1_2048_1000_1")
        assert {dim for dim, bound in fc.bounds.items() if bound > 1} == {"C", "K"}
        conv = layer_from_name("3_7_512_512_1")
        assert {dim for dim, bound in conv.bounds.items() if bound > 1} > {"C", "K"}

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=56),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=2),
    )
    def test_conv_layer_volume_consistency(self, r, p, c, k, stride):
        layer = conv_layer(r=r, p=p, c=c, k=k, stride=stride)
        assert layer.macs == r * r * p * p * c * k
        assert layer.tensor_volume(TensorKind.OUTPUT) == p * p * k


class TestRelevance:
    """The conv problem's relevance matrix ``A`` (Table IV of the paper)."""

    def test_weight_dimensions(self):
        assert CONV7.relevant_dims(TensorKind.WEIGHT) == ("R", "S", "C", "K")

    def test_output_dimensions(self):
        assert CONV7.relevant_dims(TensorKind.OUTPUT) == ("P", "Q", "K", "N")

    def test_input_dimensions(self):
        assert CONV7.relevant_dims(TensorKind.INPUT) == ("R", "S", "P", "Q", "C", "N")

    def test_every_dimension_touches_some_tensor(self):
        for dim in CONV7.dims:
            assert any(CONV7.relevance(dim, t) for t in TensorKind)


class TestNetworks:
    def test_layer_counts_match_paper_figures(self):
        assert len(alexnet_layers()) == 8
        assert len(resnet50_layers()) == 23
        assert len(resnext50_layers()) == 25
        assert len(deepbench_layers()) == 9

    def test_workload_suite_contains_all_networks(self):
        suite = workload_suite()
        assert set(suite) == {"alexnet", "resnet50", "resnext50", "deepbench"}
        assert sum(len(layers) for layers in suite.values()) == 8 + 23 + 25 + 9

    def test_names_roundtrip(self):
        for layers in workload_suite().values():
            for layer in layers:
                assert layer.canonical_name == layer.name

    def test_batch_size_propagates(self):
        for layer in resnet50_layers(batch=4):
            assert layer.bound("N") == 4

    def test_unknown_network_raises(self):
        from repro.workloads.networks import _layers_for

        with pytest.raises(KeyError):
            _layers_for("vgg", 1)

    def test_bad_layer_string(self):
        with pytest.raises(ValueError):
            layer_from_name("3_7_512")

    def test_motivation_layers(self):
        assert figure1_layer().bound("C") == 256 and figure1_layer().bound("P") == 14
        assert figure3_layer().bound("K") == 1024 and figure3_layer().bound("C") == 32
        assert figure4_layer().bound("R") == 1 and figure4_layer().bound("P") == 16
        assert figure8_layer().canonical_name == "3_7_512_512_1"
