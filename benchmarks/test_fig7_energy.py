"""Fig. 7: total-energy improvement over Random search (energy objective)."""

from bench_utils import check_figure, layers_per_network

from repro.experiments.figures import fig7_energy_improvement
from repro.api import geometric_mean
from repro.experiments.reporting import format_speedup_rows


def test_fig7_energy_improvement():
    summaries = fig7_energy_improvement(layers_per_network=layers_per_network(3))

    overall_cosa = geometric_mean(s.cosa_geomean for s in summaries)
    overall_hybrid = geometric_mean(s.hybrid_geomean for s in summaries)
    report = format_speedup_rows(
        summaries, title="Fig. 7 - energy improvement vs Random (Timeloop energy model)"
    )
    report += f"\n\nOVERALL geomean: Random=1.00  Hybrid={overall_hybrid:.2f}  CoSA={overall_cosa:.2f}"
    check_figure("fig7_energy", report)

    # Paper shape: CoSA improves energy over Random (3.3x) and is at least
    # competitive with the hybrid mapper (22% better in the paper).
    assert overall_cosa > 1.0
    assert overall_cosa > overall_hybrid * 0.8
