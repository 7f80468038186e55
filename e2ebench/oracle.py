"""Correctness checks: re-price every returned schedule with the scalar oracle.

A ``schedule`` envelope carries, per layer, a one-line loop summary
(``"L0: s[R7 P7] t[Q4 P2] | L1: ..."``) and the metrics the scheduler
reported.  :func:`check_envelope` rebuilds each mapping from that summary,
prices it with the scalar :class:`repro.model.cost.CostModel` and requires a
valid mapping whose latency and energy equal the envelope's exactly.  Fused
groups must also report a consistent NoC cross-check, and their group cost
is re-priced with the scalar :class:`repro.model.fused.FusedCostModel`.

The per-layer latency, energy and DRAM words behind the ``sched_*``
geomeans come from this re-pricing, never from the envelope.
"""

from __future__ import annotations

import re

from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.model.cost import CostModel
from repro.model.fused import FusedCostModel, dram_boundary_traffic
from repro.model.nest import NestAnalysis

_LEVEL = re.compile(r"L(\d+): s\[(.*?)\] t\[(.*?)\]")
_LOOP = re.compile(r"(\D+)(\d+)")


class OracleMismatch(AssertionError):
    """A returned schedule disagrees with the scalar oracle."""


def _loops(text: str, spatial: bool) -> list[Loop]:
    if text == "-":
        return []
    loops = []
    for token in text.split():
        match = _LOOP.fullmatch(token)
        if match is None:
            raise OracleMismatch(f"unparsable loop {token!r}")
        loops.append(Loop(match.group(1), int(match.group(2)), spatial))
    return loops


def rebuild_mapping(layer, summary: str) -> Mapping:
    """The :class:`Mapping` of ``layer`` described by a loop summary."""
    levels = []
    for index, part in enumerate(summary.split(" | ")):
        match = _LEVEL.fullmatch(part)
        if match is None or int(match.group(1)) != index:
            raise OracleMismatch(f"unparsable level {part!r}")
        levels.append(
            LevelMapping(
                temporal=_loops(match.group(3), spatial=False),
                spatial=_loops(match.group(2), spatial=True),
            )
        )
    return Mapping(layer, levels)


def check_envelope(data: dict, layers, accelerator, plan=None) -> list[tuple[float, float, float]]:
    """Verify one ``schedule`` payload; return ``(latency, energy, dram_words)``
    per layer from the oracle.  Raises :class:`OracleMismatch` on any
    disagreement.

    ``layers`` are the job's input layers in order; ``plan`` is the job's
    :class:`~repro.fusion.plan.FusionPlan` for fused jobs.  A fused group's
    DRAM words (after the pinned-intermediate savings) are split evenly over
    its layers.
    """
    outcomes = data["outcomes"]
    if not data.get("succeeded") or len(outcomes) != len(layers):
        raise OracleMismatch(
            f"{len(outcomes)} outcomes for {len(layers)} layers, succeeded={data.get('succeeded')}"
        )
    model = CostModel(accelerator)
    mappings = []
    values = []
    for layer, outcome in zip(layers, outcomes):
        name = layer.name or layer.canonical_name
        if outcome["layer"] != name or not outcome["succeeded"]:
            raise OracleMismatch(f"outcome {outcome['layer']!r} does not answer layer {name!r}")
        mapping = rebuild_mapping(layer, outcome["mapping"])
        cost = model.evaluate(mapping)
        if not cost.valid:
            raise OracleMismatch(f"{name}: invalid mapping: {'; '.join(cost.violations)}")
        reported = outcome["metrics"]
        if cost.latency != reported["latency"] or cost.energy != reported["energy"]:
            raise OracleMismatch(
                f"{name}: oracle ({cost.latency}, {cost.energy}) != envelope "
                f"({reported['latency']}, {reported['energy']})"
            )
        words, _ = dram_boundary_traffic(NestAnalysis(mapping, accelerator))
        mappings.append(mapping)
        values.append([cost.latency, cost.energy, words])

    if plan is not None:
        groups = [group for group in plan.groups if not group.is_singleton]
        payloads = data["fusion"]["groups"]
        if len(payloads) != len(groups):
            raise OracleMismatch(f"{len(payloads)} fused groups reported, plan has {len(groups)}")
        fused_model = FusedCostModel(accelerator)
        for group, payload in zip(groups, payloads):
            if not payload["traffic"].get("consistent"):
                raise OracleMismatch(f"group {group.name}: NoC cross-check not consistent")
            indices = payload["indices"]
            cost = fused_model.evaluate_group(group, [mappings[i] for i in indices])
            reported = payload["cost"]
            if (
                not cost.valid
                or cost.dram_words != reported["dram_words"]
                or cost.latency != reported["latency"]
                or cost.energy != reported["energy"]
            ):
                raise OracleMismatch(f"group {group.name}: fused oracle disagrees with envelope")
            for i in indices:
                values[i][2] = cost.dram_words / len(indices)
    return [tuple(value) for value in values]
