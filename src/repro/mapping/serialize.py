"""Mapping (de)serialisation.

Schedules need to leave the Python process: they are cached between runs,
checked into experiment logs, and handed to code generators.  This module
converts a :class:`~repro.mapping.mapping.Mapping` to and from a plain
dictionary (JSON-compatible) and provides file helpers.

Two layer encodings exist:

* conv layers (:data:`~repro.workloads.problem.CONV7` layers) keep the
  historic version-1 ``{r, s, p, q, c, k, n, stride}`` dict, so every pre-IR
  mapping file (and layer-tier entry) still loads;
* layers of any other registered :class:`~repro.workloads.problem.TensorProblem`
  are written as version 2 with an explicit ``{"problem": name, "bounds":
  {...}}`` description and resolved through the problem registry on load.
  A version-2 ``conv7`` record loads to the same layer as its version-1
  twin.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.workloads.layer import conv_layer
from repro.workloads.problem import CONV7, ProblemLayer, get_problem

#: Schema version written into serialised conv mappings (legacy layout).
FORMAT_VERSION = 1

#: Schema version used for non-conv tensor-problem layers.
PROBLEM_FORMAT_VERSION = 2

#: Versions :func:`mapping_from_dict` can read.
SUPPORTED_FORMAT_VERSIONS = (FORMAT_VERSION, PROBLEM_FORMAT_VERSION)


def mapping_to_dict(mapping: Mapping) -> dict:
    """Convert a mapping (including its layer) to a JSON-compatible dictionary."""
    layer = mapping.layer
    version = FORMAT_VERSION if layer.problem is CONV7 else PROBLEM_FORMAT_VERSION
    return {
        "version": version,
        "layer": {"name": layer.name, **layer.key_dict()},
        "levels": [
            {
                "temporal": [[loop.dim, loop.bound] for loop in level.temporal],
                "spatial": [[loop.dim, loop.bound] for loop in level.spatial],
            }
            for level in mapping.levels
        ],
    }


def _layer_from_dict(version: int, layer_data: dict):
    if version == FORMAT_VERSION:
        return conv_layer(
            r=layer_data["r"],
            s=layer_data["s"],
            p=layer_data["p"],
            q=layer_data["q"],
            c=layer_data["c"],
            k=layer_data["k"],
            n=layer_data["n"],
            stride=layer_data["stride"],
            name=layer_data.get("name", ""),
        )
    problem = get_problem(layer_data["problem"])
    return ProblemLayer(
        problem=problem,
        dim_bounds=tuple(int(layer_data["bounds"][dim]) for dim in problem.dims),
        stride=layer_data.get("stride", 1),
        name=layer_data.get("name", ""),
    )


def mapping_from_dict(data: dict) -> Mapping:
    """Rebuild a mapping from :func:`mapping_to_dict` output."""
    version = data.get("version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(f"unsupported mapping format version {version!r}")
    layer = _layer_from_dict(version, data["layer"])
    levels = []
    for level_data in data["levels"]:
        levels.append(
            LevelMapping(
                temporal=[Loop(dim=dim, bound=bound) for dim, bound in level_data["temporal"]],
                spatial=[
                    Loop(dim=dim, bound=bound, spatial=True)
                    for dim, bound in level_data["spatial"]
                ],
            )
        )
    # Mapping() validates every loop dim against the layer's problem, so a
    # corrupted / hand-edited file fails at load instead of being silently
    # costed as irrelevant-to-every-tensor loops.
    return Mapping(layer, levels)


def save_mapping(mapping: Mapping, path: str | Path) -> Path:
    """Write a mapping to a JSON file and return the path."""
    path = Path(path)
    path.write_text(json.dumps(mapping_to_dict(mapping), indent=2) + "\n")
    return path


def load_mapping(path: str | Path) -> Mapping:
    """Read a mapping previously written by :func:`save_mapping`."""
    return mapping_from_dict(json.loads(Path(path).read_text()))
