"""Schedule the 23 ResNet-50 layers with CoSA on four presets and check every solve.

The presets are ``baseline-4x4``, ``pe-8x8`` and ``large-buffers`` through
``CoSAScheduler``, and ``gpu-k80`` through ``CoSAGPUScheduler``.  Exits 1
unless every layer's one MIP solve ends ``OPTIMAL`` (proven, gap 0) and
decodes to a mapping the cost model accepts.  Prints one line per layer
with a short digest of its mapping summary, then per preset the total, p50
and max time-to-solution, the total branch-and-bound node count and the
largest one, so the margin to the solver's node cap
(``repro.solver.scipy_backend.NODE_LIMIT``) stays visible.  The last line
is one digest over every preset, layer, status, node count and mapping (no
times): two trees that print the same one produce byte-identical CoSA
results on these presets.

Run:  PYTHONPATH=src python scripts/check_cosa_solves.py
"""

from __future__ import annotations

import statistics
import sys

from repro.api import architectures
from repro.core.gpu import CoSAGPUScheduler
from repro.core.scheduler import CoSAScheduler
from repro.digest import stable_digest
from repro.solver.scipy_backend import NODE_LIMIT
from repro.solver.solution import SolveStatus
from repro.workloads.networks import resnet50_layers


def _schedulers():
    """``(preset, scheduler)`` pairs, in the order they are checked."""
    for preset in ("baseline-4x4", "pe-8x8", "large-buffers"):
        yield preset, CoSAScheduler(architectures.get(preset)())
    yield "gpu-k80", CoSAGPUScheduler()


def main() -> int:
    failures = []
    records = []
    for preset, scheduler in _schedulers():
        seconds, nodes = [], []
        for layer in resnet50_layers():
            try:
                # ``CoSAGPUScheduler`` wraps the ``ScheduleResult`` in ``.result``.
                result = scheduler.schedule(layer)
                result = getattr(result, "result", result)
            except RuntimeError as error:
                print(f"{preset:<14} {layer.canonical_name:<18} {error}")
                records.append([preset, layer.canonical_name, "error", str(error)])
                failures.append(f"{preset}/{layer.canonical_name}")
                continue
            status = result.solution.status
            valid = result.cost is not None and result.cost.valid
            seconds.append(result.solve_time_seconds)
            nodes.append(result.solution.iterations)
            summary = result.mapping.summary() if result.mapping is not None else None
            records.append([preset, layer.canonical_name, status.value, nodes[-1], summary])
            print(
                f"{preset:<14} {layer.canonical_name:<18} {status.value:<10} "
                f"valid={valid!s:<5} {result.solve_time_seconds:6.2f} s {nodes[-1]:>5} nodes "
                f"mapping {stable_digest(summary)[:12]}"
            )
            if status is not SolveStatus.OPTIMAL or not valid:
                failures.append(f"{preset}/{layer.canonical_name}")
        if seconds:
            print(
                f"{preset}: {len(seconds)} layers, {sum(seconds):.2f} s and {sum(nodes)} nodes "
                f"in total, p50 {statistics.median(seconds):.2f} s, max {max(seconds):.2f} s, "
                f"max {max(nodes)} nodes (limit {NODE_LIMIT:,})"
            )
    print(f"combined digest {stable_digest(records)[:16]} over {len(records)} layers")
    if failures:
        print(f"not OPTIMAL with a valid mapping: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
