"""Schedule the 23 ResNet-50 layers with CoSA on baseline-4x4 and check every solve.

Exits 1 unless every MIP solve ends ``OPTIMAL`` (proven, gap 0) and decodes
to a mapping the cost model accepts.  Prints one line per layer, then the
p50 and max time-to-solution and the largest branch-and-bound node count, so
the margin to ``CoSAScheduler.DEFAULT_TIME_LIMIT`` stays visible.

Run:  PYTHONPATH=src python scripts/check_cosa_solves.py
"""

from __future__ import annotations

import statistics
import sys

from repro.arch import simba_like
from repro.core.scheduler import CoSAScheduler
from repro.solver.solution import SolveStatus
from repro.workloads.networks import resnet50_layers


def main() -> int:
    scheduler = CoSAScheduler(simba_like())
    seconds, nodes, failures = [], [], []
    for layer in resnet50_layers():
        result = scheduler.schedule(layer)
        status = result.solution.status
        valid = result.cost is not None and result.cost.valid
        seconds.append(result.solve_time_seconds)
        nodes.append(result.solution.iterations)
        print(
            f"{layer.canonical_name:<18} {status.value:<10} valid={valid!s:<5} "
            f"{result.solve_time_seconds:6.2f} s {nodes[-1]:>5} nodes"
        )
        if status is not SolveStatus.OPTIMAL or not valid:
            failures.append(layer.canonical_name)
    print(
        f"{len(seconds)} layers: p50 {statistics.median(seconds):.2f} s, "
        f"max {max(seconds):.2f} s (limit {CoSAScheduler.DEFAULT_TIME_LIMIT:.0f} s), "
        f"max {max(nodes)} nodes"
    )
    if failures:
        print(f"not OPTIMAL with a valid mapping: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
