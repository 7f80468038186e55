"""Fig. 3: impact of the loop permutation at the global-buffer level."""

from bench_utils import check_figure

from repro.experiments.figures import fig3_permutation_sweep
from repro.experiments.reporting import format_table


def test_fig3_permutation_sweep():
    points = fig3_permutation_sweep()

    check_figure(
        "fig3_permutation",
        format_table(
            ["order (outermost first)", "latency [MCycles]"],
            [[p.order, p.latency_mcycles] for p in points],
            title="Fig. 3 - permutation sweep (R=S=3, P=Q=8, C=32, K=1024)",
        ),
    )

    latencies = {p.order: p.latency_mcycles for p in points}
    assert len(latencies) == 6
    assert all(v > 0 for v in latencies.values())
    # The paper reports a ~1.7x spread between the best and worst order.
    spread = max(latencies.values()) / min(latencies.values())
    assert spread > 1.05
