"""Fig. 6: per-network speedup over Random search on the analytical platform."""

from bench_utils import check_figure, layers_per_network

from repro.experiments.figures import fig6_timeloop_speedup
from repro.api import geometric_mean
from repro.experiments.reporting import format_speedup_rows, format_table


def test_fig6_timeloop_speedup():
    summaries = fig6_timeloop_speedup(layers_per_network=layers_per_network(4))

    per_layer_rows = []
    for summary in summaries:
        for comparison in summary.comparisons:
            per_layer_rows.append(
                [
                    summary.label,
                    comparison.layer,
                    comparison.hybrid_speedup,
                    comparison.cosa_speedup,
                ]
            )
    overall_hybrid = geometric_mean(s.hybrid_geomean for s in summaries)
    overall_cosa = geometric_mean(s.cosa_geomean for s in summaries)
    report = format_speedup_rows(summaries, title="Fig. 6 - speedup vs Random (Timeloop platform)")
    report += "\n\n" + format_table(
        ["network", "layer", "Timeloop Hybrid", "CoSA"],
        per_layer_rows,
        title="Per-layer speedups",
    )
    report += f"\n\nOVERALL geomean: Random=1.00  Hybrid={overall_hybrid:.2f}  CoSA={overall_cosa:.2f}"
    check_figure("fig6_timeloop_speedup", report)

    # Paper shape: CoSA > Hybrid > Random in overall geomean (5.2x / 3.5x / 1.0).
    assert overall_cosa > 1.0
    assert overall_cosa > overall_hybrid * 0.95
