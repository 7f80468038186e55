"""Schedule a slice of ResNet-50 with CoSA and the search baselines.

Reproduces the flavour of Fig. 6 on a handful of layers through the
declarative facade: one ``kind="compare"`` :class:`~repro.api.specs.RunSpec`
runs Random search, the Timeloop-Hybrid-style mapper and CoSA, evaluates all
three on the analytical platform and reports per-layer and geomean speedups.
Pass a result-store directory and every layer solved there is kept in the
store's layer tier: a second run of this script performs no solves at all.

Run:  python examples/resnet50_scheduling.py [num_layers] [jobs] [store_dir]
"""

import sys

from repro.api import ResultStore, RunSpec, execute


def main(num_layers: int = 5, jobs: int = 2, store_dir: str | None = None) -> None:
    spec = RunSpec.from_dict(
        {
            "kind": "compare",
            "arch": "baseline-4x4",
            "workload": {"network": "resnet50", "first_layers": num_layers},
            "platform": {"name": "timeloop", "metric": "latency"},
            "engine": {"jobs": jobs},
        }
    )
    # execute() is the core behind run(); unlike run() it takes a store,
    # whose layer tier serves and keeps per-layer solves.
    result = execute(spec, store=ResultStore(store_dir) if store_dir is not None else None)
    data = result.data

    # One layer tier serves all three schedulers: the key includes the
    # scheduler identity, so there are no collisions.  Where a layer came
    # from is not part of the envelope; the live engine stats count it.
    engine_stats = result.artifacts["summary"].engine_stats
    for name, stats in engine_stats.items():
        print(
            f"[{name}] {stats.solves} solves, {stats.cache_hits} cache hits, "
            f"{stats.dedup_reuses} dedup reuses, {stats.wall_time_seconds:.1f}s wall"
        )

    print()
    print(f"{'layer':20s} {'Random':>12s} {'Hybrid':>12s} {'CoSA':>12s} {'CoSA speedup':>14s}")
    for row in data["comparisons"]:
        print(
            f"{row['layer']:20s} {row['random_value']:12.3e} {row['hybrid_value']:12.3e} "
            f"{row['cosa_value']:12.3e} {row['cosa_speedup']:13.2f}x"
        )
    print(f"\ngeomean CoSA speedup over Random: {data['cosa_geomean']:.2f}x")
    if store_dir is not None:
        solves = sum(stats.solves for stats in engine_stats.values())
        print(f"solves: {solves} (layer solves kept in {store_dir})")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 5,
        int(sys.argv[2]) if len(sys.argv) > 2 else 2,
        sys.argv[3] if len(sys.argv) > 3 else None,
    )
