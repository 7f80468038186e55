#!/usr/bin/env python
"""Benchmark: scalar vs vectorized vs neighbourhood vs delta mapping evaluation.

For each ResNet-50 conv layer (plus transformer-style tensor problems), draw
one fixed set of random candidates, timing the draw
(:meth:`~repro.mapping.space.MapSpace.sample_batch` candidates per second),
and time the evaluation pipelines over identical inputs:

* **scalar** — one :class:`repro.model.cost.CostModel` call per mapping (the
  bit-exact reference oracle),
* **vectorized** — one :meth:`repro.model.batch.BatchCostModel.evaluate_draws`
  pass (packing included in the timing; the evaluator's per-layer constants
  are warm, as they are for every batch after a search's first), plus the
  cost of one such call at 1, 8 and 64 candidates,
* **neighbourhood** — local search's pricing along a plateau: a chain of up
  to ``LOOKAHEAD`` neighbourhoods of ``MOVES_PER_STEP`` moves of one state,
  packed straight from the moves and priced in one call
  (:meth:`~repro.model.batch.MappingBatch.from_moves`), against the
  batch-of-one path for the same moves (apply, pack a one-draw batch, run
  the vectorized evaluator, undo); plus the process CPU of one
  local-search step on that path, neighbourhood draw included,
* **delta** — single-move re-evaluation through the
  :class:`~repro.model.delta.DeltaEvaluator`, against the same batch-of-one
  path.

Every timing doubles as a parity audit: vectorized results must match the
scalar oracle, the draws packing must match the mappings packing
bit-for-bit, and each neighbourhood row and each delta preview must equal the
batch-of-one evaluation of the moved state exactly — a speedup claim is
meaningless if the fast path disagrees with the oracle.  The per-layer
throughput, speedups and cross-layer geomeans are printed as a table and
written (atomically) to ``BENCH_eval.json`` (default under
``benchmarks/results/``)::

    python benchmarks/bench_eval.py                  # full sweep (23 layers)
    python benchmarks/bench_eval.py --quick          # 6-layer subset
    python benchmarks/bench_eval.py --check 16       # exit 1 below 16x vectorized geomean
    python benchmarks/bench_eval.py --check 16 --check-neighbourhood 3
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from bench_utils import PARITY_TOLERANCE, positive_int

from repro.api import geometric_mean
from repro.arch import simba_like
from repro.baselines.local_search import LOOKAHEAD, MOVES_PER_STEP
from repro.io_utils import atomic_write_json
from repro.mapping.moves import MappingState
from repro.mapping.space import MapSpace, MappingDraws
from repro.model import BatchCostModel, CostModel, MappingBatch
from repro.model.delta import DeltaEvaluator
from repro.workloads import layer_from_name
from repro.workloads.networks import RESNET50_LAYER_STRINGS
from repro.workloads.problem import attention_av, attention_qk, matmul

DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "BENCH_eval.json"

#: Timed repeats of each layer's draw; a single pass of a few ms is at the
#: mercy of one collector pause.
DRAW_REPEATS = 3

#: Batch sizes whose per-call cost is reported, and the calls timed per
#: repeat (the fastest of ``DRAW_REPEATS`` repeats counts).
CALL_SIZES = (1, 8, 64)
CALLS_PER_REPEAT = 20

#: Quick subset: the 3x3 conv layers plus the stem (covers small and large shapes).
QUICK_LAYERS = (
    "7_112_3_64_2",
    "3_56_64_64_1",
    "3_28_128_128_2",
    "3_14_256_256_1",
    "3_7_512_512_1",
    "1_7_2048_512_1",
)


def benchmark_layers(quick: bool) -> list:
    """ResNet-50 conv layers (all, or the quick subset) plus a BERT-style
    projection / FFN matmul and the two attention contractions."""
    names = QUICK_LAYERS if quick else RESNET50_LAYER_STRINGS
    return [layer_from_name(name) for name in names] + [
        matmul(m=128, n=768, k=768, name="matmul_128x768x768"),
        matmul(m=128, n=3072, k=768, name="matmul_128x768x3072"),
        attention_qk(seq=128, heads=12, head_dim=64, name="attn_qk_128_h12d64"),
        attention_av(seq=128, heads=12, head_dim=64, name="attn_av_128_h12d64"),
    ]


#: Fields that must agree bitwise between two pricings of one moved state.
EXACT_FIELDS = (
    "valid", "latency", "energy", "utilization", "raw_latency", "raw_energy",
    "raw_utilization", "capacity_violation", "spatial_violation",
)


def _delta_matches_full(delta, full, index: int) -> bool:
    """Exact (bitwise) agreement of one delta preview with the full evaluation."""
    return all(getattr(delta, name) == getattr(full, name)[index] for name in EXACT_FIELDS)


def _row_matches_full(result, index: int, full) -> bool:
    """Exact agreement of row ``index`` of ``result`` with a one-row full evaluation."""
    return all(getattr(result, name)[index] == getattr(full, name)[0] for name in EXACT_FIELDS)


def _single_draw(state: MappingState) -> MappingDraws:
    """Pack the current state as a one-draw batch (the full path's input)."""
    return MappingDraws(
        layer=state.layer,
        num_levels=state.num_levels,
        temporal=[[[(d, b) for d, b in level] for level in state.temporal]],
        spatial=[[[(d, b) for d, b in level] for level in state.spatial]],
    )


def draw_chains(space: MapSpace, state: MappingState, rng, num_moves: int) -> list:
    """Local search's lookahead chains of one fixed state, ``num_moves`` moves in all.

    Each chain holds up to ``LOOKAHEAD`` neighbourhoods of up to
    ``MOVES_PER_STEP`` moves, drawn as local search draws them along a
    plateau; the last chain may be shorter.
    """
    chains: list[list] = []
    drawn = 0
    while drawn < num_moves:
        if not chains or len(chains[-1]) == LOOKAHEAD:
            chains.append([])
        step = space.neighborhood(state, rng, min(MOVES_PER_STEP, num_moves - drawn))
        if not step:
            break
        chains[-1].append(step)
        drawn += len(step)
    return [chain for chain in chains if chain]


def bench_moves(arch, layer, space: MapSpace, draws, valid, seed: int, num_moves: int) -> dict:
    """Time neighbourhood and delta pricing vs the batch-of-one path.

    The state is seeded from the first valid draw (else draw 0); every move
    is drawn against that fixed state, as local search draws a plateau's
    neighbourhoods, so the timed pipelines see the exact same moves.  The
    neighbourhood path prices each chain of up to ``LOOKAHEAD``
    neighbourhoods in one call, packed straight from the moves
    (:meth:`~repro.model.batch.MappingBatch.from_moves`).  ``step_cpu_us``
    is the process CPU of one local-search step on that path: drawing its
    neighbourhood plus its share of the chain's pricing call.  Each
    neighbourhood row and each delta preview is audited bitwise against the
    batch-of-one path before the timing runs.
    """
    seed_index = next((i for i in range(len(draws)) if valid[i]), 0)
    state = MappingState.from_draws(draws, seed_index)
    evaluator = DeltaEvaluator(state, arch)
    model = BatchCostModel(arch)

    chains = draw_chains(space, state, random.Random(seed + 1), num_moves)
    chained = [[move for step in chain for move in step] for chain in chains]
    moves = [move for chain in chained for move in chain]
    if not moves:
        return {"delta_moves_per_sec": 0.0, "full_moves_per_sec": 0.0,
                "neighbourhood_moves_per_sec": 0.0, "delta_speedup": 1.0,
                "neighbourhood_speedup": 1.0, "step_cpu_us": 0.0, "delta_mismatches": 0,
                "neighbourhood_mismatches": 0, "num_moves": 0}
    num_steps = sum(len(chain) for chain in chains)

    mismatches = 0
    full_results = []
    for move in moves:
        preview = evaluator.preview(move)
        record = state.apply(move)
        full = model.evaluate_draws(_single_draw(state))
        state.undo(record)
        full_results.append(full)
        if not _delta_matches_full(preview, full, 0):
            mismatches += 1
    neighbourhood_mismatches = 0
    offset = 0
    for chain in chained:
        result = model.evaluate_batch(MappingBatch.from_moves(state, chain))
        for row in range(len(chain)):
            full = full_results[offset + row]
            neighbourhood_mismatches += not _row_matches_full(result, row, full)
        offset += len(chain)

    start = time.perf_counter()
    for move in moves:
        evaluator.preview(move)
    delta_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for chain in chained:
        model.evaluate_batch(MappingBatch.from_moves(state, chain))
    neighbourhood_seconds = time.perf_counter() - start

    start = time.process_time()
    rng = random.Random(seed + 1)
    for chain in chains:
        steps = [space.neighborhood(state, rng, len(step)) for step in chain]
        model.evaluate_batch(MappingBatch.from_moves(state, [m for step in steps for m in step]))
    step_seconds = (time.process_time() - start) / num_steps

    start = time.perf_counter()
    for move in moves:
        record = state.apply(move)
        model.evaluate_draws(_single_draw(state))
        state.undo(record)
    full_seconds = time.perf_counter() - start

    return {
        "delta_moves_per_sec": len(moves) / delta_seconds,
        "full_moves_per_sec": len(moves) / full_seconds,
        "neighbourhood_moves_per_sec": len(moves) / neighbourhood_seconds,
        "delta_speedup": full_seconds / delta_seconds,
        "neighbourhood_speedup": full_seconds / neighbourhood_seconds,
        "step_cpu_us": step_seconds * 1e6,
        "delta_mismatches": mismatches,
        "neighbourhood_mismatches": neighbourhood_mismatches,
        "num_moves": len(moves),
    }


def bench_calls(model, draws) -> dict:
    """Microseconds per ``evaluate_draws`` call at each of :data:`CALL_SIZES` candidates."""
    costs = {}
    for size in CALL_SIZES:
        subset = MappingDraws(
            layer=draws.layer,
            num_levels=draws.num_levels,
            temporal=draws.temporal[:size],
            spatial=draws.spatial[:size],
        )
        best = float("inf")
        for _ in range(DRAW_REPEATS):
            start = time.perf_counter()
            for _ in range(CALLS_PER_REPEAT):
                model.evaluate_draws(subset)
            best = min(best, (time.perf_counter() - start) / CALLS_PER_REPEAT)
        costs[f"call_us_{size}"] = best * 1e6
    return costs


def bench_layer(arch, layer, samples: int, seed: int, num_moves: int) -> dict:
    """Time the evaluation pipelines over identical candidates of one layer."""
    space = MapSpace(layer, arch)
    draw_seconds = float("inf")
    for _ in range(DRAW_REPEATS):  # the same draws each time; keep the fastest
        start = time.perf_counter()
        draws = space.sample_batch(samples, random.Random(seed))
        draw_seconds = min(draw_seconds, time.perf_counter() - start)
    mappings = [draws.materialize(i) for i in range(samples)]

    scalar_model = CostModel(arch)
    start = time.perf_counter()
    scalar_results = [scalar_model.evaluate(m) for m in mappings]
    scalar_seconds = time.perf_counter() - start

    model = BatchCostModel(arch)
    via_mappings = model.evaluate_mappings(mappings)  # also warms the constants
    start = time.perf_counter()
    result = model.evaluate_draws(draws)
    vectorized_seconds = time.perf_counter() - start

    # Parity audits alongside the timings: the speedups are meaningless if a
    # fast path disagrees with the oracle.
    max_rel = 0.0
    mismatches = 0
    for i, cost in enumerate(scalar_results):
        if cost.valid != bool(result.valid[i]):
            mismatches += 1
            continue
        if cost.valid:
            for s, b in ((cost.latency, result.latency[i]),
                         (cost.energy, result.energy[i])):
                rel = abs(s - b) / abs(s) if s else 0.0
                max_rel = max(max_rel, rel)
    packing_exact = all(
        np.array_equal(getattr(result, name), getattr(via_mappings, name))
        for name in ("valid", "latency", "energy", "utilization")
    )

    row = {
        "layer": layer.name or layer.canonical_name,
        "problem": layer.problem.name,
        "samples": samples,
        "num_valid": int(result.num_valid),
        "draws_per_sec": samples / draw_seconds,
        "scalar_mappings_per_sec": samples / scalar_seconds,
        "vectorized_mappings_per_sec": samples / vectorized_seconds,
        "speedup": scalar_seconds / vectorized_seconds,
        "validity_mismatches": mismatches,
        "max_rel_diff": max_rel,
        "packing_exact": packing_exact,
    }
    row.update(bench_calls(model, draws))
    row.update(bench_moves(arch, layer, space, draws, result.valid, seed, num_moves))
    return row


def bench_report(layers, samples: int, seed: int, num_moves: int, quick: bool) -> dict:
    """Benchmark every layer (printing each row) and aggregate the summary."""
    arch = simba_like()
    rows = []
    for layer in layers:
        row = bench_layer(arch, layer, samples, seed, num_moves)
        print(render_row(row))
        rows.append(row)

    speedups = [row["speedup"] for row in rows]
    draw_rates = [row["draws_per_sec"] for row in rows]
    delta = [row["delta_speedup"] for row in rows]
    neighbourhood = [row["neighbourhood_speedup"] for row in rows]
    return {
        "benchmark": "vectorized-mapping-evaluation",
        "network": "resnet50+transformer",
        "arch": arch.name,
        "quick": quick,
        "samples_per_layer": samples,
        "seed": seed,
        "layers": rows,
        "geomean_draws_per_sec": geometric_mean(draw_rates),
        "geomean_speedup": geometric_mean(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "geomean_delta_speedup": geometric_mean(delta),
        "min_delta_speedup": min(delta),
        "geomean_neighbourhood_speedup": geometric_mean(neighbourhood),
        "min_neighbourhood_speedup": min(neighbourhood),
        "geomean_step_cpu_us": geometric_mean([row["step_cpu_us"] for row in rows]),
        **{
            f"geomean_call_us_{size}": geometric_mean([r[f"call_us_{size}"] for r in rows])
            for size in CALL_SIZES
        },
        "total_validity_mismatches": sum(r["validity_mismatches"] for r in rows),
        "total_delta_mismatches": sum(r["delta_mismatches"] for r in rows),
        "total_neighbourhood_mismatches": sum(r["neighbourhood_mismatches"] for r in rows),
        "packing_exact": all(r["packing_exact"] for r in rows),
        "max_rel_diff": max(r["max_rel_diff"] for r in rows),
    }


def render_row(row: dict) -> str:
    """One fixed-width table line per benchmarked layer."""
    return (
        f"{row['layer']:<20} draws {row['draws_per_sec']:>7.0f}/s   "
        f"scalar {row['scalar_mappings_per_sec']:>9.0f}/s   "
        f"vectorized {row['vectorized_mappings_per_sec']:>10.0f}/s ({row['speedup']:5.1f}x)   "
        f"call {row['call_us_1']:4.0f}/{row['call_us_8']:4.0f}/{row['call_us_64']:5.0f} us   "
        f"neighbourhood {row['neighbourhood_speedup']:5.1f}x   "
        f"step {row['step_cpu_us']:4.0f} us   "
        f"delta {row['delta_speedup']:5.1f}x   "
        f"valid {row['num_valid']}/{row['samples']}"
    )


def check_report(report: dict, check=None, check_neighbourhood=None) -> list[str]:
    """Validate a finished report; returns human-readable failure strings.

    Parity failures are always fatal; the two optional floors gate the
    vectorized and neighbourhood geomean speedups respectively.
    """
    failures = []
    if report["total_validity_mismatches"]:
        failures.append("PARITY FAILURE: vectorized validity disagrees with the scalar oracle")
    if report["max_rel_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"PARITY FAILURE: max relative difference {report['max_rel_diff']:.2e} "
            f"exceeds the {PARITY_TOLERANCE:.0e} tolerance"
        )
    if not report["packing_exact"]:
        failures.append(
            "PARITY FAILURE: evaluating packed draws differs from evaluating the mappings"
        )
    if report["total_delta_mismatches"]:
        failures.append("PARITY FAILURE: delta evaluation disagrees with full re-evaluation")
    if report["total_neighbourhood_mismatches"]:
        failures.append(
            "PARITY FAILURE: a neighbourhood priced in one call disagrees with full re-evaluation"
        )
    if check is not None and report["geomean_speedup"] < check:
        failures.append(
            f"speedup check failed: geomean {report['geomean_speedup']:.1f}x < {check}x"
        )
    if (
        check_neighbourhood is not None
        and report["geomean_neighbourhood_speedup"] < check_neighbourhood
    ):
        failures.append(
            "neighbourhood speedup check failed: geomean "
            f"{report['geomean_neighbourhood_speedup']:.1f}x < {check_neighbourhood}x"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="6-layer subset, fewer samples")
    parser.add_argument("--samples", type=positive_int, default=None, help="candidates per layer")
    parser.add_argument(
        "--moves", type=positive_int, default=96, help="moves timed per layer (neighbourhood and delta)"
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON report path")
    parser.add_argument(
        "--check", type=float, default=None, metavar="MIN",
        help="exit 1 when the vectorized geomean speedup falls below MIN",
    )
    parser.add_argument(
        "--check-neighbourhood", type=float, default=None, metavar="MIN",
        help="exit 1 when the neighbourhood-vs-batch-of-one geomean speedup falls below MIN",
    )
    args = parser.parse_args(argv)

    samples = args.samples or (256 if args.quick else 512)
    report = bench_report(
        benchmark_layers(args.quick), samples, args.seed, args.moves, args.quick
    )

    atomic_write_json(args.out, report)
    print(
        f"\ngeomean draws {report['geomean_draws_per_sec']:.0f}/s; "
        f"speedup over scalar: vectorized {report['geomean_speedup']:.1f}x; "
        f"per call {report['geomean_call_us_1']:.0f}/{report['geomean_call_us_8']:.0f}/"
        f"{report['geomean_call_us_64']:.0f} us at {'/'.join(map(str, CALL_SIZES))} candidates; "
        f"local-search step {report['geomean_step_cpu_us']:.0f} us CPU; "
        f"vs batch-of-one moves: neighbourhood {report['geomean_neighbourhood_speedup']:.1f}x, "
        f"delta {report['geomean_delta_speedup']:.1f}x "
        f"over {len(report['layers'])} layers -> {args.out}"
    )

    failures = check_report(
        report, check=args.check, check_neighbourhood=args.check_neighbourhood
    )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
