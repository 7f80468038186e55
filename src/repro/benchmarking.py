"""Shared core of the evaluation-throughput benchmark.

One measurement recipe serves both entry points — ``repro bench`` (the CLI
subcommand) and ``benchmarks/bench_eval.py`` (the CI-gated script): for every
layer of a workload preset, draw one fixed set of random candidates and time
three evaluation pipelines over identical inputs:

* **scalar** — one :class:`repro.model.cost.CostModel` call per mapping (the
  bit-exact reference oracle),
* **vectorized** — one :meth:`repro.model.batch.BatchCostModel.evaluate_draws`
  pass (packing included in the timing; the evaluator's per-layer constants
  are warm, as they are for every batch after a search's first),
* **delta** — single-move re-evaluation through the
  :class:`~repro.model.delta.DeltaEvaluator`, compared against the honest
  full path for the same move (apply, pack a one-draw batch, run the
  vectorized evaluator, undo).

Every timing doubles as a parity audit: vectorized results must match the
scalar oracle, the draws packing must match the mappings packing
bit-for-bit, and each delta preview must equal the full re-evaluation of the
moved state exactly — a speedup claim is meaningless if the fast path
disagrees with the oracle.
"""

from __future__ import annotations

import math
import random
import time

from repro.arch import simba_like
from repro.mapping.moves import MappingState, propose_move
from repro.mapping.space import MapSpace, MappingDraws
from repro.model import BatchCostModel, CostModel
from repro.model.delta import DeltaEvaluator

#: Quick subset: the 3x3 conv layers plus the stem (covers small and large shapes).
QUICK_LAYERS = (
    "7_112_3_64_2",
    "3_56_64_64_1",
    "3_28_128_128_2",
    "3_14_256_256_1",
    "3_7_512_512_1",
    "1_7_2048_512_1",
)

#: Workload presets accepted by ``repro bench`` / ``preset_layers``.
PRESETS = ("quick", "resnet50", "transformer")

#: The fused-group throughput preset (``repro bench fusion``) — benchmarks
#: group-tiling evaluation rather than per-layer mapping evaluation, so it
#: lives beside :data:`PRESETS` instead of inside ``preset_layers``.
FUSION_PRESET = "fusion"

#: Every preset name the bench CLI accepts.
ALL_PRESETS = PRESETS + (FUSION_PRESET,)

#: Tolerance of the scalar-vs-vectorized parity audit (packing and delta are
#: compared exactly, not against this).
PARITY_TOLERANCE = 1e-9


def _transformer_layers():
    """Non-conv tensor problems tracked alongside the ResNet-50 conv layers:
    a BERT-style projection / FFN matmul and the two attention contractions."""
    from repro.workloads.problem import attention_av, attention_qk, matmul

    return [
        matmul(m=128, n=768, k=768, name="matmul_128x768x768"),
        matmul(m=128, n=3072, k=768, name="matmul_128x768x3072"),
        attention_qk(seq=128, heads=12, head_dim=64, name="attn_qk_128_h12d64"),
        attention_av(seq=128, heads=12, head_dim=64, name="attn_av_128_h12d64"),
    ]


def preset_layers(preset: str) -> list:
    """Resolve a named workload preset into its benchmark layers."""
    from repro.workloads import layer_from_name
    from repro.workloads.networks import RESNET50_LAYER_STRINGS

    if preset == "quick":
        return [layer_from_name(name) for name in QUICK_LAYERS] + _transformer_layers()
    if preset == "resnet50":
        layers = [layer_from_name(name) for name in RESNET50_LAYER_STRINGS]
        return layers + _transformer_layers()
    if preset == "transformer":
        return _transformer_layers()
    raise ValueError(f"unknown bench preset {preset!r}; expected one of {PRESETS}")


def _delta_matches_full(delta, full, index: int) -> bool:
    """Exact (bitwise) agreement of one delta preview with the full evaluation."""
    if delta.valid != bool(full.valid[index]):
        return False
    return (
        delta.latency == float(full.latency[index])
        and delta.energy == float(full.energy[index])
        and delta.utilization == float(full.utilization[index])
    )


def _single_draw(state: MappingState) -> MappingDraws:
    """Pack the current state as a one-draw batch (the full path's input)."""
    return MappingDraws(
        layer=state.layer,
        num_levels=state.num_levels,
        temporal=[[[(d, b) for d, b in level] for level in state.temporal]],
        spatial=[[[(d, b) for d, b in level] for level in state.spatial]],
    )


def bench_delta(arch, layer, space: MapSpace, draws, valid, seed: int, num_moves: int) -> dict:
    """Time delta vs full re-evaluation over identical single-factor moves.

    The state is seeded from the first valid draw (else draw 0); every move
    is proposed against that fixed state, so the two timed pipelines see the
    exact same move sequence.  Each preview is audited bitwise against the
    full path before the timing runs.
    """
    seed_index = next((i for i in range(len(draws)) if valid[i]), 0)
    state = MappingState.from_draws(draws, seed_index)
    evaluator = DeltaEvaluator(state, arch)
    model = BatchCostModel(arch)
    fanouts = space.spatial_fanouts

    rng = random.Random(seed + 1)
    moves = []
    for _ in range(4 * num_moves):
        if len(moves) >= num_moves:
            break
        move = propose_move(state, fanouts, rng)
        if move is None:
            break
        moves.append(move)
    if not moves:
        return {"delta_moves_per_sec": 0.0, "full_moves_per_sec": 0.0,
                "delta_speedup": 1.0, "delta_mismatches": 0, "num_moves": 0}

    mismatches = 0
    for move in moves:
        preview = evaluator.preview(move)
        record = state.apply(move)
        full = model.evaluate_draws(_single_draw(state))
        state.undo(record)
        if not _delta_matches_full(preview, full, 0):
            mismatches += 1

    start = time.perf_counter()
    for move in moves:
        evaluator.preview(move)
    delta_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for move in moves:
        record = state.apply(move)
        model.evaluate_draws(_single_draw(state))
        state.undo(record)
    full_seconds = time.perf_counter() - start

    return {
        "delta_moves_per_sec": len(moves) / delta_seconds,
        "full_moves_per_sec": len(moves) / full_seconds,
        "delta_speedup": full_seconds / delta_seconds,
        "delta_mismatches": mismatches,
        "num_moves": len(moves),
    }


def bench_layer(arch, layer, samples: int, seed: int, num_moves: int = 96) -> dict:
    """Time the evaluation pipelines over identical candidates of one layer."""
    import numpy as np

    space = MapSpace(layer, arch)
    draws = space.sample_batch(samples, random.Random(seed))
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
        "scalar_mappings_per_sec": samples / scalar_seconds,
        "vectorized_mappings_per_sec": samples / vectorized_seconds,
        "speedup": scalar_seconds / vectorized_seconds,
        "validity_mismatches": mismatches,
        "max_rel_diff": max_rel,
        "packing_exact": packing_exact,
    }
    row.update(bench_delta(arch, layer, space, draws, result.valid, seed, num_moves))
    return row


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_report(
    layers,
    samples: int,
    seed: int,
    arch=None,
    num_moves: int = 96,
    label: str = "resnet50+transformer",
    quick: bool = False,
    progress=None,
) -> dict:
    """Benchmark every layer and aggregate the cross-layer summary.

    ``progress``, when given, is called with each finished row (the CLI and
    the script use it to print the per-layer table live).
    """
    arch = arch or simba_like()
    rows = []
    for layer in layers:
        row = bench_layer(arch, layer, samples, seed, num_moves=num_moves)
        rows.append(row)
        if progress is not None:
            progress(row)

    speedups = [row["speedup"] for row in rows]
    delta = [row["delta_speedup"] for row in rows]
    return {
        "benchmark": "vectorized-mapping-evaluation",
        "network": label,
        "arch": arch.name,
        "quick": quick,
        "samples_per_layer": samples,
        "seed": seed,
        "layers": rows,
        "geomean_speedup": _geomean(speedups),
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "geomean_delta_speedup": _geomean(delta),
        "min_delta_speedup": min(delta),
        "total_validity_mismatches": sum(r["validity_mismatches"] for r in rows),
        "total_delta_mismatches": sum(r["delta_mismatches"] for r in rows),
        "packing_exact": all(r["packing_exact"] for r in rows),
        "max_rel_diff": max(r["max_rel_diff"] for r in rows),
    }


def render_row(row: dict) -> str:
    """One fixed-width table line per benchmarked layer."""
    return (
        f"{row['layer']:<20} scalar {row['scalar_mappings_per_sec']:>9.0f}/s   "
        f"vectorized {row['vectorized_mappings_per_sec']:>10.0f}/s ({row['speedup']:5.1f}x)   "
        f"delta {row['delta_speedup']:5.1f}x   "
        f"valid {row['num_valid']}/{row['samples']}"
    )


def render_summary(report: dict) -> str:
    """The cross-layer summary block printed after the table."""
    return (
        f"geomean speedup over scalar: vectorized {report['geomean_speedup']:.1f}x; "
        f"delta vs full re-eval {report['geomean_delta_speedup']:.1f}x "
        f"over {len(report['layers'])} layers"
    )


def check_report(report: dict, check=None, check_delta=None) -> list[str]:
    """Validate a finished report; returns human-readable failure strings.

    Parity failures are always fatal; the two optional floors gate the
    vectorized and delta geomean speedups respectively.
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
    if check is not None and report["geomean_speedup"] < check:
        failures.append(
            f"speedup check failed: geomean {report['geomean_speedup']:.1f}x < {check}x"
        )
    if check_delta is not None and report["geomean_delta_speedup"] < check_delta:
        failures.append(
            "delta speedup check failed: geomean "
            f"{report['geomean_delta_speedup']:.1f}x < {check_delta}x"
        )
    return failures


# ---------------------------------------------------------------------------
# Fused-group evaluation throughput (``repro bench fusion``)
# ---------------------------------------------------------------------------

def fusion_bench_groups(quick: bool = False) -> list:
    """The fused groups benchmarked by the ``fusion`` preset.

    Both canonical chains plus the multi-operator attention group of each
    transformer-block preset (at a reduced sequence length so the scalar
    reference pass stays CI-sized).  ``quick`` keeps only the two canonical
    chains.
    """
    from repro.fusion.presets import (
        attention_block,
        bert_base_block_plan,
        conv_bn_relu,
        gpt2_small_block_plan,
    )

    groups = [
        attention_block(seq=64, heads=4, head_dim=32, prefix="bench_attn"),
        conv_bn_relu(r=3, p=14, c=32, k=32, prefix="bench_conv_bn"),
    ]
    if not quick:
        for plan in (bert_base_block_plan(seq=64), gpt2_small_block_plan(seq=64)):
            groups.extend(g for g in plan.groups if len(g.layers) > 1)
    return groups


def bench_fused_group(arch, group, samples: int, seed: int) -> dict:
    """Time scalar vs batched fused evaluation over identical candidates.

    Per group: draw ``samples`` random tilings of every operator (candidate
    ``b`` is row ``b`` of each operator's draws), then price all candidates
    through the scalar :class:`~repro.model.fused.FusedCostModel` loop (the
    oracle) and one :class:`~repro.model.fused_batch.BatchFusedCostModel`
    pass.  Packing (``FusedMappingBatch.from_candidates``) is timed
    separately as ``pack_seconds``.  Scalar-vs-batched parity is audited per
    candidate.
    """
    import numpy as np

    from repro.model.fused import FusedCostModel
    from repro.model.fused_batch import BatchFusedCostModel, FusedMappingBatch

    rng = random.Random(seed)
    per_op_draws = [
        MapSpace(layer, arch).sample_batch(samples, rng) for layer in group.layers
    ]
    candidates = [
        [draws.materialize(i) for draws in per_op_draws] for i in range(samples)
    ]

    scalar_model = FusedCostModel(arch)
    start = time.perf_counter()
    scalar_results = [scalar_model.evaluate_group(group, c) for c in candidates]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fused_batch = FusedMappingBatch.from_candidates(group, candidates)
    pack_seconds = time.perf_counter() - start

    batch_model = BatchFusedCostModel(arch)
    start = time.perf_counter()
    batch_result = batch_model.evaluate_group(fused_batch)
    batched_seconds = time.perf_counter() - start

    max_rel = 0.0
    mismatches = 0
    for i, cost in enumerate(scalar_results):
        if cost.valid != bool(batch_result.valid[i]):
            mismatches += 1
            continue
        if cost.valid:
            for s, b in (
                (cost.latency, batch_result.latency[i]),
                (cost.energy, batch_result.energy[i]),
                (cost.dram_words, batch_result.dram_words[i]),
                (cost.dram_bytes, batch_result.dram_bytes[i]),
            ):
                rel = abs(s - b) / abs(s) if s else 0.0
                max_rel = max(max_rel, rel)

    return {
        "group": group.name,
        "num_ops": len(group.layers),
        "num_edges": len(group.edges),
        "samples": samples,
        "num_valid": int(np.count_nonzero(batch_result.valid)),
        "scalar_groups_per_sec": samples / scalar_seconds,
        "batched_groups_per_sec": samples / batched_seconds,
        "fused_speedup": scalar_seconds / batched_seconds,
        "pack_seconds": pack_seconds,
        "validity_mismatches": mismatches,
        "max_rel_diff": max_rel,
    }


def fused_bench_report(
    groups,
    samples: int,
    seed: int,
    arch=None,
    label: str = "fusion-presets",
    quick: bool = False,
    progress=None,
) -> dict:
    """Benchmark every fused group and aggregate the cross-group summary."""
    arch = arch or simba_like()
    rows = []
    for group in groups:
        row = bench_fused_group(arch, group, samples, seed)
        rows.append(row)
        if progress is not None:
            progress(row)

    speedups = [row["fused_speedup"] for row in rows]
    return {
        "benchmark": "batched-fused-group-evaluation",
        "network": label,
        "arch": arch.name,
        "quick": quick,
        "samples_per_group": samples,
        "seed": seed,
        "groups": rows,
        "geomean_fused_speedup": _geomean(speedups),
        "min_fused_speedup": min(speedups),
        "max_fused_speedup": max(speedups),
        "total_validity_mismatches": sum(r["validity_mismatches"] for r in rows),
        "max_rel_diff": max(r["max_rel_diff"] for r in rows),
    }


def render_fused_row(row: dict) -> str:
    """One fixed-width table line per benchmarked fused group."""
    return (
        f"{row['group']:<32} scalar {row['scalar_groups_per_sec']:>8.0f}/s   "
        f"batched {row['batched_groups_per_sec']:>9.0f}/s ({row['fused_speedup']:5.1f}x)   "
        f"valid {row['num_valid']}/{row['samples']}"
    )


def render_fused_summary(report: dict) -> str:
    """The cross-group summary block printed after the fusion table."""
    return (
        f"geomean fused-eval speedup over scalar: batched "
        f"{report['geomean_fused_speedup']:.1f}x "
        f"over {len(report['groups'])} groups"
    )


def check_fused_report(report: dict, check=None) -> list[str]:
    """Validate a fused-eval report; returns human-readable failure strings.

    Parity failures are always fatal; the optional floor gates the batched
    fused-eval geomean speedup.
    """
    failures = []
    if report["total_validity_mismatches"]:
        failures.append(
            "PARITY FAILURE: batched fused validity disagrees with the scalar oracle"
        )
    if report["max_rel_diff"] > PARITY_TOLERANCE:
        failures.append(
            f"PARITY FAILURE: max relative difference {report['max_rel_diff']:.2e} "
            f"exceeds the {PARITY_TOLERANCE:.0e} tolerance"
        )
    if check is not None and report["geomean_fused_speedup"] < check:
        failures.append(
            "fused speedup check failed: geomean "
            f"{report['geomean_fused_speedup']:.1f}x < {check}x"
        )
    return failures
