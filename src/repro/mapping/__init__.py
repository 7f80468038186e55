"""Mapping (schedule) intermediate representation.

A *mapping* describes how one DNN layer executes on one accelerator:

* **loop tiling** — each layer dimension is split into per-memory-level
  factors,
* **loop permutation** — the relative order of the temporal loops within each
  level,
* **spatial mapping** — which factors are bound to parallel hardware
  (``spatial_for`` loops) instead of time.

The classes here are produced by the CoSA scheduler and the baseline mappers
and consumed by the analytical cost model (:mod:`repro.model`) and the NoC
simulator (:mod:`repro.noc`).
"""

from repro.mapping.mapping import Loop, LevelMapping, Mapping
from repro.mapping.loopnest import render_loop_nest
from repro.mapping.moves import FactorMove, MappingState, PermutationSwap, propose_move
from repro.mapping.space import MapSpace, MappingDraws, random_mapping
from repro.mapping.serialize import load_mapping, mapping_from_dict, mapping_to_dict, save_mapping

__all__ = [
    "Loop",
    "LevelMapping",
    "Mapping",
    "render_loop_nest",
    "MapSpace",
    "MappingDraws",
    "random_mapping",
    "FactorMove",
    "PermutationSwap",
    "MappingState",
    "propose_move",
    "mapping_to_dict",
    "mapping_from_dict",
    "save_mapping",
    "load_mapping",
]
