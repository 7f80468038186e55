"""Fig. 4: impact of the spatial-mapping choice (NoC simulator platform)."""

from bench_utils import check_figure

from repro.experiments.figures import fig4_spatial_sweep
from repro.experiments.reporting import format_table


def test_fig4_spatial_sweep():
    points = fig4_spatial_sweep()

    check_figure(
        "fig4_spatial",
        format_table(
            ["mapping", "latency [MCycles]"],
            [[p.label, p.latency_mcycles] for p in points],
            title="Fig. 4 - spatial mapping sweep (R=S=1, P=Q=16, C=256, K=1024)",
        ),
    )

    assert len(points) >= 10
    best = min(p.latency_mcycles for p in points)
    worst = max(p.latency_mcycles for p in points)
    # The paper reports a 4.3x gap between the best and worst spatial mapping.
    assert worst / best > 1.5
    # Using all 16 PEs should beat using only a handful.
    fully_spatial = [p for p in points if sum(p.spatial.values()) and
                     __import__("math").prod(p.spatial.values()) == 16]
    assert min(p.latency_mcycles for p in fully_spatial) <= best * 1.5
