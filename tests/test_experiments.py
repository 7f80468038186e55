"""Tests for the experiment harness, reporting helpers and figure generators.

The full sweeps are exercised by the benchmark harness; here we test the
machinery on tiny inputs so the unit suite stays fast.
"""

import pytest

from repro.api import (
    ComparisonConfig,
    LayerComparison,
    SpeedupSummary,
    compare_on_layer,
    compare_on_network,
    geometric_mean,
)
from repro.arch import simba_like
from repro.experiments.figures import (
    fig1_latency_histogram,
    fig3_permutation_sweep,
    fig4_spatial_sweep,
)
from repro.experiments.reporting import format_speedup_rows, format_table
from repro.workloads import conv_layer

ARCH = simba_like()


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_ignores_invalid_entries(self):
        assert geometric_mean([4.0, float("inf"), 0.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestComparisonDataclasses:
    def test_speedups(self):
        comparison = LayerComparison(
            layer="x", random_value=100.0, hybrid_value=50.0, cosa_value=20.0
        )
        assert comparison.hybrid_speedup == pytest.approx(2.0)
        assert comparison.cosa_speedup == pytest.approx(5.0)

    def test_summary_geomeans(self):
        summary = SpeedupSummary(
            label="net",
            comparisons=[
                LayerComparison("a", 100.0, 50.0, 25.0),
                LayerComparison("b", 100.0, 50.0, 100.0),
            ],
        )
        assert summary.hybrid_geomean == pytest.approx(2.0)
        assert summary.cosa_geomean == pytest.approx(2.0)
        assert summary.cosa_vs_hybrid == pytest.approx(1.0)

    def test_zero_values_give_zero_speedup(self):
        comparison = LayerComparison("x", 10.0, 0.0, 0.0)
        assert comparison.hybrid_speedup == 0.0
        assert comparison.cosa_speedup == 0.0

    def test_config_validates_platform(self):
        with pytest.raises(ValueError):
            ComparisonConfig(accelerator=ARCH, platform="fpga")


class TestHarnessEndToEnd:
    def test_compare_on_layer_small(self):
        config = ComparisonConfig(
            accelerator=ARCH,
            hybrid_threads=1,
            hybrid_termination=8,
            hybrid_max_evaluations=40,
            random_valid=2,
        )
        layer = conv_layer(r=3, p=4, c=8, k=16, name="tiny", s=1, q=1)
        comparison = compare_on_layer(layer, config)
        assert comparison.random_value > 0
        assert comparison.hybrid_value > 0
        assert comparison.cosa_value > 0
        assert comparison.cosa_value < float("inf")

    def test_compare_on_network_groups_layers(self):
        config = ComparisonConfig(
            accelerator=ARCH,
            hybrid_threads=1,
            hybrid_termination=8,
            hybrid_max_evaluations=30,
            random_valid=1,
        )
        layers = [
            conv_layer(r=1, p=1, c=8, k=8, name="a"),
            conv_layer(r=1, p=4, c=1, k=16, name="b", q=1),
        ]
        summary = compare_on_network("tiny-net", layers, config)
        assert summary.label == "tiny-net"
        assert len(summary.comparisons) == 2
        assert summary.cosa_geomean > 0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["xy", 3.14159]], title="T")
        assert "T" in text
        assert "3.14" in text
        lines = text.splitlines()
        # title, title underline, header, separator and two data rows.
        assert len(lines) == 6

    def test_format_speedup_rows(self):
        summary = SpeedupSummary("net", [LayerComparison("a", 10.0, 5.0, 2.0)])
        text = format_speedup_rows([summary], title="Speedups")
        assert "net" in text
        assert "Speedups" in text


class TestFigureGenerators:
    def test_fig1_small_sample(self):
        result = fig1_latency_histogram(num_samples=60, seed=1)
        assert result.num_sampled == 60
        assert 0 <= result.num_valid <= 60
        assert len(result.bin_counts) == 4
        assert sum(result.bin_counts) == result.num_valid

    def test_fig3_produces_all_six_orders(self):
        points = fig3_permutation_sweep()
        assert sorted(p.order for p in points) == sorted(
            ["CKP", "CPK", "KCP", "KPC", "PCK", "PKC"]
        )
        assert all(p.latency_mcycles > 0 for p in points)

    def test_fig4_points_are_valid_and_sorted(self):
        points = fig4_spatial_sweep()
        assert len(points) >= 10
        latencies = [p.latency_mcycles for p in points]
        assert latencies == sorted(latencies, reverse=True)
        for point in points:
            product = 1
            for factor in point.spatial.values():
                product *= factor
            assert product <= simba_like().num_pes
