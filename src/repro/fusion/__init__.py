"""Fusion-group scheduling: whole-model IR over tensor problems.

The package makes fusion groups first-class schedulable units:

* :mod:`repro.fusion.group` — the group IR (:class:`FusionGroup`,
  :class:`FusionEdge`) and its legality rules.
* :mod:`repro.fusion.plan` — network partitions (:class:`FusionPlan`) and
  the greedy :func:`auto_group` auto-grouper.
* :mod:`repro.fusion.presets` — built-in groups (:func:`attention_block`,
  :func:`conv_bn_relu`) and the fused transformer-block plans.
* :mod:`repro.fusion.schedule` — the pipelined group scheduler driven by
  :meth:`repro.engine.engine.SchedulingEngine.schedule_network`.

The buffer-sharing cost model lives with the other models in
:mod:`repro.model.fused`.
"""

from repro.fusion.group import FusionEdge, FusionError, FusionGroup, infer_edge
from repro.fusion.plan import FusionPlan, auto_group, plan_for
from repro.fusion.presets import (
    attention_block,
    bert_base_block_plan,
    conv_bn_relu,
    gpt2_small_block_plan,
)
from repro.fusion.schedule import GroupOutcome, schedule_fused_network

__all__ = [
    "FusionEdge",
    "FusionError",
    "FusionGroup",
    "FusionPlan",
    "GroupOutcome",
    "attention_block",
    "auto_group",
    "bert_base_block_plan",
    "conv_bn_relu",
    "gpt2_small_block_plan",
    "infer_edge",
    "plan_for",
    "schedule_fused_network",
]
