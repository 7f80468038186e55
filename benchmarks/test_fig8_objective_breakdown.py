"""Fig. 8: CoSA objective breakdown of the three schedulers' mappings."""

from bench_utils import check_figure

from repro.experiments.figures import fig8_objective_breakdown
from repro.experiments.reporting import format_table


def test_fig8_objective_breakdown():
    rows = fig8_objective_breakdown()

    check_figure(
        "fig8_objective_breakdown",
        format_table(
            ["scheduler", "wU*Util", "wC*Comp", "wT*Traf", "Total (lower is better)"],
            [
                [r.scheduler, r.weighted_utilization, r.weighted_compute, r.weighted_traffic, r.total]
                for r in rows
            ],
            title="Fig. 8 - objective breakdown, ResNet-50 layer 3_7_512_512_1",
        ),
    )

    by_name = {r.scheduler: r for r in rows}
    assert set(by_name) == {"Random", "Timeloop Hybrid", "CoSA"}
    # Paper shape: CoSA reaches the lowest total objective value, since it
    # optimises this objective directly.
    assert by_name["CoSA"].total <= min(r.total for r in rows) + 1e-6
