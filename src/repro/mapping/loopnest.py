"""Loop-nest rendering (Listing 1 style).

Produces a textual loop nest for a :class:`~repro.mapping.mapping.Mapping`,
matching the representation used by the paper:

.. code-block:: text

    // DRAM level
    for q2 = [0 : 2):
      // Global Buffer level
      for p2 = [0 : 7):
        spatial_for k1 = [0 : 2):
          ...

Outer levels (DRAM) appear first; within a level the outermost loop appears
first (the temporal lists in :class:`LevelMapping` are innermost-first, so
they are reversed for printing).
"""

from __future__ import annotations

from collections import Counter

from repro.mapping.mapping import Mapping

_INDENT = "  "


def render_loop_nest(mapping: Mapping, level_names: list[str] | None = None) -> str:
    """Render ``mapping`` as an indented loop-nest listing.

    Parameters
    ----------
    mapping:
        The schedule to render.
    level_names:
        Optional memory level names (innermost first).  Defaults to
        ``Level 0 .. Level N-1``.
    """
    if level_names is None:
        level_names = [f"Level {i}" for i in range(mapping.num_levels)]
    if len(level_names) != mapping.num_levels:
        raise ValueError(
            f"expected {mapping.num_levels} level names, got {len(level_names)}"
        )

    # Tile-index suffixes: the outermost tile of a dimension gets the highest
    # index, matching the paper's q2 / q1 / q0 notation.
    per_dim_total = Counter()
    for level in mapping.levels:
        for loop in level.all_loops:
            if loop.bound > 1:
                per_dim_total[loop.dim] += 1
    next_index = {dim: count - 1 for dim, count in per_dim_total.items()}

    lines: list[str] = []
    depth = 0
    for level_index in reversed(range(mapping.num_levels)):
        level = mapping.levels[level_index]
        loops = [l for l in level.all_loops if l.bound > 1]
        lines.append(f"{_INDENT * depth}// {level_names[level_index]}")
        # Print outermost first: temporal loops reversed (they are stored
        # innermost-first), spatial loops last so they sit closest to the
        # next inner level, mirroring Listing 1.
        ordered = list(reversed(level.temporal)) + list(level.spatial)
        ordered = [l for l in ordered if l.bound > 1]
        for loop in ordered:
            suffix = next_index[loop.dim]
            next_index[loop.dim] -= 1
            keyword = "spatial_for" if loop.spatial else "for"
            lines.append(
                f"{_INDENT * depth}{keyword} {loop.dim.lower()}{suffix} = [0 : {loop.bound}):"
            )
            depth += 1
    return "\n".join(lines)
