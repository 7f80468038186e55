"""Fig. 9: CoSA generalisation across hardware configurations."""

from bench_utils import check_figure, layers_per_network

from repro.experiments.figures import fig9_architecture_sweep
from repro.api import geometric_mean
from repro.experiments.reporting import format_speedup_rows


def test_fig9_architecture_sweep():
    results = fig9_architecture_sweep(layers_per_network=layers_per_network(3))

    report_parts = []
    for label, summaries in results.items():
        overall_cosa = geometric_mean(s.cosa_geomean for s in summaries)
        overall_hybrid = geometric_mean(s.hybrid_geomean for s in summaries)
        part = format_speedup_rows(summaries, title=f"Fig. 9 - {label}")
        part += f"\nOVERALL geomean: Random=1.00  Hybrid={overall_hybrid:.2f}  CoSA={overall_cosa:.2f}"
        report_parts.append(part)
    check_figure("fig9_architectures", "\n\n".join(report_parts))

    assert set(results) == {"8x8 PEs", "Larger Buffers"}
    for summaries in results.values():
        overall_cosa = geometric_mean(s.cosa_geomean for s in summaries)
        # Paper shape: CoSA keeps beating Random on both scaled architectures
        # (4.4x and 5.7x in the paper).
        assert overall_cosa > 1.0
