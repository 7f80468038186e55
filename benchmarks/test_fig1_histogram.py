"""Fig. 1: latency histogram of random valid schedules of a ResNet-50 layer."""

from bench_utils import check_figure, full_evaluation

from repro.experiments.figures import fig1_latency_histogram
from repro.experiments.reporting import format_table


def test_fig1_latency_histogram():
    result = fig1_latency_histogram(num_samples=40_000 if full_evaluation() else 1500)

    rows = []
    labels = ["< 1 MCycle", "1-2 MCycles", "2-3 MCycles", "3+ MCycles"]
    for label, count in zip(labels, result.bin_counts):
        rows.append([label, count])
    rows.append(["valid / sampled", f"{result.num_valid} / {result.num_sampled}"])
    rows.append(["best-to-worst spread", f"{result.best_to_worst_ratio:.1f}x"])
    check_figure(
        "fig1_histogram",
        format_table(["bin", "schedules"], rows, title=f"Fig. 1 - {result.layer}"),
    )

    # Shape checks: about half of random samples violate buffer capacities and
    # the valid ones span a wide performance range (7.2x in the paper).
    assert result.num_valid > 0
    assert result.num_valid < result.num_sampled
    assert result.best_to_worst_ratio > 2.0
