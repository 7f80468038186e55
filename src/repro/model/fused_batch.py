"""Vectorized (batched) fused-group evaluation.

PR 9's :class:`~repro.model.fused.FusedCostModel` prices a fusion group one
candidate tiling at a time through the scalar pipeline.  This module gives
fusion groups the same scalar→batched treatment the per-layer model got in
:mod:`repro.model.batch`: evaluate **N candidate group tilings at once** —
per-operator costs, DRAM boundary traffic, pinned-bytes capacity checks,
edge rounds, and pipelined latency all as array arithmetic.

* :class:`FusedMappingBatch` — one :class:`~repro.model.batch.MappingBatch`
  per operator of the group, row ``b`` of every batch forming candidate
  group tiling ``b``.
* :class:`BatchFusedCostModel` — evaluates a fused batch through
  :meth:`BatchCostModel.evaluate_detail` plus the fused combiner.
* :func:`combine_group_details` — the fused combiner itself.

Equivalence with the scalar model
---------------------------------
The scalar :class:`FusedCostModel` stays the **parity oracle**.  The
combiner restates ``FusedCostModel.evaluate_group`` over a batch axis with
the scalar code's exact floating-point expression structure: the same
left-to-right accumulation over operators and edges, the same association
order inside every sum, and ``np.where(accepted, x, 0.0)`` accumulations
(bitwise identical to the scalar's conditional ``+=`` because ``v + 0.0``
is exact for the non-negative quantities involved).  The structural gates
(pin level exists, the intermediate borders DRAM, the pin level is the
DRAM-adjacent storage level) depend only on the architecture, never on the
mapping, so they are batch constants.  ``tests/test_fused_batch.py`` locks the
batched evaluator against the scalar oracle on every preset group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.model.batch import (
    BatchCostModel,
    BatchEvalDetail,
    MappingBatch,
)
from repro.model.fused import default_pin_level
from repro.workloads.layer import TensorKind


class FusedMappingBatch:
    """N candidate tilings of one fusion group, as per-operator batches.

    ``batches[i]`` holds the candidate mappings of operator ``i`` (one
    :class:`MappingBatch` per operator, all of equal size ``B``): candidate
    group tiling ``b`` is row ``b`` of every per-operator batch.
    """

    def __init__(self, group, batches: Sequence[MappingBatch]):
        batches = list(batches)
        if len(batches) != len(group.layers):
            raise ValueError(
                f"group {group.name!r} has {len(group.layers)} operators but "
                f"{len(batches)} batches were given"
            )
        sizes = {batch.size for batch in batches}
        if len(sizes) > 1:
            raise ValueError(f"per-operator batches disagree on size: {sorted(sizes)}")
        for i, batch in enumerate(batches):
            if batch.layer != group.layers[i]:
                raise ValueError(f"batch {i} does not map operator {i} of the group")
        self.group = group
        self.batches = batches
        self.size = batches[0].size if batches else 0

    def __len__(self) -> int:
        return self.size

    @classmethod
    def from_candidates(cls, group, candidates) -> "FusedMappingBatch":
        """Pack candidate group tilings (each a per-operator mapping sequence)."""
        candidates = [list(candidate) for candidate in candidates]
        if not candidates:
            raise ValueError("cannot build a fused batch from zero candidates")
        per_op = list(zip(*candidates))
        if len(per_op) != len(group.layers):
            raise ValueError(
                f"candidates carry {len(per_op)} mappings each but group "
                f"{group.name!r} has {len(group.layers)} operators"
            )
        return cls(group, [MappingBatch.from_mappings(list(ms)) for ms in per_op])


@dataclass
class BatchFusedResult:
    """Per-candidate fused-group results (arrays of length ``B``).

    The batched twin of :class:`~repro.model.fused.FusedGroupCost`: headline
    arrays are ``[B]``, per-edge arrays ``[B, E]`` in ``group.edges`` order
    (``E = 0`` for the unfused / singleton view, mirroring the scalar's
    empty ``edges`` list).  Candidates with an invalid operator carry the
    scalar sentinels: ``inf`` latency/energy, zero traffic, zeroed edges.
    """

    valid: "np.ndarray"
    latency: "np.ndarray"
    energy: "np.ndarray"
    dram_words: "np.ndarray"
    dram_bytes: "np.ndarray"
    unfused_latency: "np.ndarray"
    unfused_energy: "np.ndarray"
    unfused_dram_words: "np.ndarray"
    unfused_dram_bytes: "np.ndarray"
    pipeline_rounds: "np.ndarray"
    num_pinned_edges: "np.ndarray"
    edge_pinned: "np.ndarray"
    edge_rounds: "np.ndarray"
    edge_aligned: "np.ndarray"
    edge_pinned_bytes: "np.ndarray"
    edge_saved_dram_words: "np.ndarray"
    edge_saved_dram_bytes: "np.ndarray"
    edge_saved_energy_pj: "np.ndarray"
    per_op: list

    def __len__(self) -> int:
        return int(self.valid.shape[0])

    @property
    def edp(self) -> "np.ndarray":
        return self.energy * self.latency

    @property
    def num_edges(self) -> int:
        return int(self.edge_pinned.shape[1])

    @property
    def all_pinned(self) -> "np.ndarray":
        """Candidates whose every edge was pinned (``False`` when ``E = 0``)."""
        if self.num_edges == 0:
            return np.zeros(len(self), dtype=bool)
        return self.edge_pinned.all(axis=1)


def _unfused_traffic(accelerator: Accelerator, details: Sequence[BatchEvalDetail]):
    """Left-fold DRAM boundary traffic over operators (scalar sum order)."""
    precision = accelerator.precision
    B = len(details[0].result)
    unfused_words = np.zeros(B, dtype=np.float64)
    unfused_bytes = np.zeros(B, dtype=np.float64)
    for detail in details:
        words = np.zeros(B, dtype=np.float64)
        nbytes = np.zeros(B, dtype=np.float64)
        for tensor in TensorKind:
            flow = detail.dram_flows.get(tensor)
            if flow is None:
                continue
            moved = flow.words_read_from_parent + flow.words_written_to_parent
            words = words + moved
            nbytes = nbytes + moved * precision.bytes_for(flow.tensor)
        unfused_words = unfused_words + words
        unfused_bytes = unfused_bytes + nbytes
    return unfused_words, unfused_bytes


def combine_group_details(
    accelerator: Accelerator,
    group,
    batches: Sequence[MappingBatch],
    details: Sequence[BatchEvalDetail],
    pin: int | None = None,
) -> BatchFusedResult:
    """Fuse per-operator :class:`BatchEvalDetail` views into group results.

    ``pin`` is the already-resolved pin-level index (``None`` when the
    architecture has no handover level).
    """
    hierarchy = accelerator.hierarchy
    dram = hierarchy.dram_index
    precision = accelerator.precision
    energy_table = accelerator.energy
    results = [detail.result for detail in details]
    B = len(results[0])
    n_ops = len(details)
    inf = float("inf")

    group_valid = results[0].valid.copy()
    for result in results[1:]:
        group_valid &= result.valid

    unfused_latency = np.zeros(B, dtype=np.float64)
    unfused_energy = np.zeros(B, dtype=np.float64)
    for result in results:
        unfused_latency = unfused_latency + result.latency
        unfused_energy = unfused_energy + result.energy
    unfused_words, unfused_bytes = _unfused_traffic(accelerator, details)

    def finish(latency, energy, words, nbytes, pipeline, edges=None):
        if edges is None:
            edges = {
                name: np.zeros((B, 0), dtype=dtype)
                for name, dtype in (
                    ("pinned", bool),
                    ("rounds", np.float64),
                    ("aligned", bool),
                    ("pinned_bytes", np.float64),
                    ("saved_words", np.float64),
                    ("saved_bytes", np.float64),
                    ("saved_energy", np.float64),
                )
            }
            edges["rounds"] = np.ones((B, 0), dtype=np.float64)
        # Invalid candidates: the scalar early-return sentinels (inf costs,
        # zero traffic, no edges).
        bad = ~group_valid
        edge_pinned = edges["pinned"] & group_valid[:, None]
        edge_rounds = np.where(group_valid[:, None], edges["rounds"], 1.0)
        edge_aligned = edges["aligned"] & group_valid[:, None]
        zero_edges = group_valid[:, None].astype(np.float64)
        return BatchFusedResult(
            valid=group_valid.copy(),
            latency=np.where(bad, inf, latency),
            energy=np.where(bad, inf, energy),
            dram_words=np.where(bad, 0.0, words),
            dram_bytes=np.where(bad, 0.0, nbytes),
            unfused_latency=np.where(bad, inf, unfused_latency),
            unfused_energy=np.where(bad, inf, unfused_energy),
            unfused_dram_words=np.where(bad, 0.0, unfused_words),
            unfused_dram_bytes=np.where(bad, 0.0, unfused_bytes),
            pipeline_rounds=np.where(group_valid, pipeline, 1).astype(np.int64),
            num_pinned_edges=edge_pinned.sum(axis=1).astype(np.int64),
            edge_pinned=edge_pinned,
            edge_rounds=edge_rounds,
            edge_aligned=edge_aligned,
            edge_pinned_bytes=edges["pinned_bytes"] * zero_edges,
            edge_saved_dram_words=edges["saved_words"] * zero_edges,
            edge_saved_dram_bytes=edges["saved_bytes"] * zero_edges,
            edge_saved_energy_pj=edges["saved_energy"] * zero_edges,
            per_op=results,
        )

    if group.is_singleton or not group.edges:
        return finish(
            unfused_latency, unfused_energy, unfused_words, unfused_bytes,
            np.ones(B, dtype=np.int64),
        )

    E = len(group.edges)
    edges = {
        "pinned": np.zeros((B, E), dtype=bool),
        "rounds": np.ones((B, E), dtype=np.float64),
        "aligned": np.zeros((B, E), dtype=bool),
        "pinned_bytes": np.zeros((B, E), dtype=np.float64),
        "saved_words": np.zeros((B, E), dtype=np.float64),
        "saved_bytes": np.zeros((B, E), dtype=np.float64),
        "saved_energy": np.zeros((B, E), dtype=np.float64),
    }

    if pin is not None:
        max_util = details[0].used_bytes[:, pin].copy()
        for detail in details[1:]:
            max_util = np.maximum(max_util, detail.used_bytes[:, pin])
        capacity = (
            float(hierarchy[pin].capacity_bytes)
            if not hierarchy[pin].is_unbounded
            else inf
        )
        e_dram = energy_table.access_energy(hierarchy[dram].name)
        e_pin = energy_table.access_energy(hierarchy[pin].name)

    pinned_total = np.zeros(B, dtype=np.float64)
    removed = [np.zeros(B, dtype=np.float64) for _ in range(n_ops)]
    saved_energy_total = np.zeros(B, dtype=np.float64)
    dim_indices = [
        {dim: i for i, dim in enumerate(batch.layer.problem.dims)}
        for batch in batches
    ]
    out_bytes = float(precision.bytes_for(TensorKind.OUTPUT))

    for e, edge in enumerate(group.edges):
        # The structural gates mirror the scalar reasons and are pure
        # functions of the architecture — batch constants.
        if pin is None:
            continue
        producer_flow = details[edge.producer].dram_flows.get(TensorKind.OUTPUT)
        consumer_flow = details[edge.consumer].dram_flows.get(TensorKind.INPUT)
        if producer_flow is None or consumer_flow is None:
            continue
        if producer_flow.child_level != pin or consumer_flow.child_level != pin:
            continue

        # edge_rounds: shared DRAM-level temporal factors of the dim map.
        p_batch, c_batch = batches[edge.producer], batches[edge.consumer]
        p_dram, c_dram = p_batch.num_levels - 1, c_batch.num_levels - 1
        aligned = np.ones(B, dtype=bool)
        rounds = np.ones(B, dtype=np.float64)
        for p_dim, c_dim in edge.dim_map:
            fp = p_batch.temporal[:, p_dram, dim_indices[edge.producer][p_dim]]
            fc = c_batch.temporal[:, c_dram, dim_indices[edge.consumer][c_dim]]
            aligned &= fp == fc
            rounds = rounds * fp
        rounds = np.where(aligned, rounds, 1.0)

        volume = float(group.intermediate_volume(edge))
        tile_elements = np.where(aligned, volume / rounds, volume)
        buffers = np.where(aligned & (rounds > 1.0), 2.0, 1.0)
        pinned_bytes = np.minimum(tile_elements * buffers, volume) * out_bytes

        edges["rounds"][:, e] = rounds
        edges["aligned"][:, e] = aligned
        accepted = ~((pinned_total + pinned_bytes) + max_util > capacity)
        edges["pinned_bytes"][:, e] = np.where(accepted, pinned_bytes, 0.0)

        # Pin accepted: remove both DRAM-bordering flows of the edge, in the
        # scalar's producer-then-consumer accumulation order.
        p_dram_acc = producer_flow.words_read_from_parent + producer_flow.words_written_to_parent
        p_child_acc = producer_flow.words_into_child + producer_flow.words_written_to_parent
        c_dram_acc = consumer_flow.words_read_from_parent + consumer_flow.words_written_to_parent
        c_child_acc = consumer_flow.words_into_child + consumer_flow.words_written_to_parent
        saved_energy = np.zeros(B, dtype=np.float64)
        saved_energy = saved_energy + p_dram_acc * e_dram
        saved_energy = saved_energy + p_child_acc * e_pin
        saved_energy = saved_energy + c_dram_acc * e_dram
        saved_energy = saved_energy + c_child_acc * e_pin
        saved_words = np.zeros(B, dtype=np.float64)
        saved_words = saved_words + p_dram_acc
        saved_words = saved_words + c_dram_acc
        saved_bytes = np.zeros(B, dtype=np.float64)
        saved_bytes = saved_bytes + p_dram_acc * precision.bytes_for(TensorKind.OUTPUT)
        saved_bytes = saved_bytes + c_dram_acc * precision.bytes_for(TensorKind.INPUT)

        removed[edge.producer] = removed[edge.producer] + np.where(accepted, p_dram_acc, 0.0)
        removed[edge.consumer] = removed[edge.consumer] + np.where(accepted, c_dram_acc, 0.0)
        pinned_total = pinned_total + np.where(accepted, pinned_bytes, 0.0)
        saved_energy_total = saved_energy_total + np.where(accepted, saved_energy, 0.0)
        edges["pinned"][:, e] = accepted
        edges["saved_words"][:, e] = np.where(accepted, saved_words, 0.0)
        edges["saved_bytes"][:, e] = np.where(accepted, saved_bytes, 0.0)
        edges["saved_energy"][:, e] = np.where(accepted, saved_energy, 0.0)

    has_pinned = edges["pinned"].any(axis=1)

    # Per-operator latency with the removed words taken off the DRAM term,
    # re-maximised over compute and every memory level (the zero-served
    # levels contribute 0 cycles, which never beats compute >= 1).
    num_levels = len(hierarchy)
    bandwidth = [level.bandwidth_words_per_cycle for level in hierarchy]
    adjusted = []
    for i, detail in enumerate(details):
        served = np.zeros(B, dtype=np.float64)
        for tensor in TensorKind:
            flow = detail.dram_flows.get(tensor)
            if flow is None:
                continue
            served = served + (flow.words_read_from_parent + flow.words_written_to_parent)
        remaining = np.maximum(served - removed[i], 0.0)
        instances = np.maximum(detail.instances[:, dram], 1.0)
        latency = detail.compute_cycles
        for level in range(num_levels):
            if level == dram:
                cycles = remaining / (bandwidth[dram] * instances)
            else:
                cycles = detail.words_served[:, level] / (
                    bandwidth[level] * detail.instances[:, level]
                )
            latency = np.maximum(latency, cycles)
        value = np.where(removed[i] > 0.0, latency, results[i].latency)
        # Invalid candidates carry inf per-op latencies; zero them here so
        # the pipeline arithmetic below stays NaN-free (finish() restores
        # the inf sentinels).
        adjusted.append(np.where(group_valid, value, 0.0))

    total = np.zeros(B, dtype=np.float64)
    for value in adjusted:
        total = total + value
    bottleneck = adjusted[0]
    for value in adjusted[1:]:
        bottleneck = np.maximum(bottleneck, value)

    pipeline_ok = (
        has_pinned
        & edges["pinned"].all(axis=1)
        & edges["aligned"].all(axis=1)
        & (edges["rounds"] > 1.0).all(axis=1)
    )
    min_rounds = edges["rounds"][:, 0]
    for e in range(1, E):
        min_rounds = np.minimum(min_rounds, edges["rounds"][:, e])
    pipeline = np.where(pipeline_ok, min_rounds, 1.0)

    fused_latency = (total + (pipeline - 1.0) * bottleneck) / pipeline
    fused_energy = unfused_energy - saved_energy_total
    saved_words_total = np.zeros(B, dtype=np.float64)
    saved_bytes_total = np.zeros(B, dtype=np.float64)
    for e in range(E):
        saved_words_total = saved_words_total + edges["saved_words"][:, e]
        saved_bytes_total = saved_bytes_total + edges["saved_bytes"][:, e]
    fused_words = unfused_words - saved_words_total
    fused_bytes = unfused_bytes - saved_bytes_total

    # Candidates with no pinned edge keep the exact per-operator sums.
    latency = np.where(has_pinned, fused_latency, unfused_latency)
    energy = np.where(has_pinned, fused_energy, unfused_energy)
    words = np.where(has_pinned, fused_words, unfused_words)
    nbytes = np.where(has_pinned, fused_bytes, unfused_bytes)
    pipeline = np.where(has_pinned, pipeline, 1.0)
    return finish(latency, energy, words, nbytes, pipeline, edges=edges)


class BatchFusedCostModel:
    """Evaluate batches of fusion-group tilings with numpy.

    The per-operator work runs through :class:`BatchCostModel` (one
    ``evaluate_detail`` per operator); the fused view is the shared
    :func:`combine_group_details` combiner.
    """

    def __init__(self, accelerator: Accelerator):
        self.accelerator = accelerator
        self.batch_model = BatchCostModel(accelerator)

    def evaluate_group(self, fused_batch: FusedMappingBatch) -> BatchFusedResult:
        """Evaluate every candidate group tiling of ``fused_batch`` at once."""
        pin = default_pin_level(self.accelerator)
        details = [
            self.batch_model.evaluate_detail(batch) for batch in fused_batch.batches
        ]
        return combine_group_details(
            self.accelerator,
            fused_batch.group,
            fused_batch.batches,
            details,
            pin=pin,
        )
