"""Software-managed memory hierarchy model.

The accelerator owns an ordered list of memory levels from the innermost
(registers next to the MACs) to the outermost (off-chip DRAM).  Every level
declares

* which data tensors it may hold (the constant matrix ``B`` of the paper),
* its capacity in bytes (``None`` marks an effectively unbounded backing
  store such as DRAM),
* its *spatial fanout* — how many copies of the inner subtree it feeds.  A
  fanout larger than one marks a level at which loops may be mapped
  spatially (e.g. the global buffer feeding a 4x4 PE array, or the per-PE
  buffers feeding 64 MAC lanes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.workloads.layer import TensorKind


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the memory hierarchy.

    Parameters
    ----------
    name:
        Human readable identifier, e.g. ``"GlobalBuffer"``.
    capacity_bytes:
        Usable capacity of a single instance of the level.  ``None`` means
        unbounded (used for DRAM).
    tensors:
        The data tensors this level is allowed to hold (matrix ``B``).
    spatial_fanout:
        Number of child-subtree instances fed by this level.  Loops may only
        be mapped spatially at levels whose fanout is greater than one, and
        the product of the spatial factors at the level may not exceed it.
    bandwidth_words_per_cycle:
        Peak words per cycle this level can exchange with the level below it
        (its children).  Used by the performance model for the memory-bound
        latency term.
    """

    name: str
    capacity_bytes: int | None
    tensors: frozenset[TensorKind]
    spatial_fanout: int = 1
    bandwidth_words_per_cycle: float = float("inf")

    def __post_init__(self) -> None:
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive or None, got {self.capacity_bytes}")
        if self.spatial_fanout < 1:
            raise ValueError(f"{self.name}: spatial_fanout must be >= 1, got {self.spatial_fanout}")
        if self.bandwidth_words_per_cycle <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive, got {self.bandwidth_words_per_cycle}")
        if not isinstance(self.tensors, frozenset):
            object.__setattr__(self, "tensors", frozenset(self.tensors))

    def holds(self, tensor: TensorKind) -> bool:
        """True when this level may store ``tensor``."""
        return tensor in self.tensors

    @property
    def is_unbounded(self) -> bool:
        """True for backing-store levels without a capacity limit."""
        return self.capacity_bytes is None


class MemoryHierarchy:
    """Ordered collection of :class:`MemoryLevel` from innermost to outermost.

    The hierarchy is immutable after construction.  It provides index lookup
    by name, iteration, and the helper queries used when building the CoSA
    constraint matrices.
    """

    def __init__(self, levels: Iterable[MemoryLevel]):
        self._levels: tuple[MemoryLevel, ...] = tuple(levels)
        if len(self._levels) < 2:
            raise ValueError("a memory hierarchy needs at least two levels (on-chip + backing store)")
        names = [level.name for level in self._levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate memory level names: {names}")
        if not self._levels[-1].is_unbounded:
            raise ValueError("the outermost level is expected to be an unbounded backing store (DRAM)")
        self._index = {level.name: i for i, level in enumerate(self._levels)}

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self) -> Iterator[MemoryLevel]:
        return iter(self._levels)

    def __getitem__(self, key: int | str) -> MemoryLevel:
        if isinstance(key, str):
            return self._levels[self.index_of(key)]
        return self._levels[key]

    @property
    def levels(self) -> tuple[MemoryLevel, ...]:
        """All levels, innermost first."""
        return self._levels

    @property
    def names(self) -> tuple[str, ...]:
        """Level names, innermost first."""
        return tuple(level.name for level in self._levels)

    def index_of(self, name: str) -> int:
        """Index of the level called ``name`` (0 = innermost)."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no memory level named {name!r}; available: {list(self._index)}") from None

    # ------------------------------------------------------------------ queries
    @property
    def innermost(self) -> MemoryLevel:
        """The innermost (register) level."""
        return self._levels[0]

    @property
    def outermost(self) -> MemoryLevel:
        """The outermost (DRAM) level."""
        return self._levels[-1]

    @property
    def dram_index(self) -> int:
        """Index of the outermost level."""
        return len(self._levels) - 1

    def levels_holding(self, tensor: TensorKind) -> list[int]:
        """Indices of levels that may store ``tensor``, innermost first."""
        return [i for i, level in enumerate(self._levels) if level.holds(tensor)]

    def spatial_levels(self) -> list[int]:
        """Indices of levels with a spatial fanout greater than one."""
        return [i for i, level in enumerate(self._levels) if level.spatial_fanout > 1]

    def innermost_level_for(self, tensor: TensorKind) -> int:
        """Index of the innermost level that may hold ``tensor``."""
        holding = self.levels_holding(tensor)
        if not holding:
            raise ValueError(f"no memory level stores tensor {tensor!r}")
        return holding[0]

    def describe(self) -> str:
        """Human-readable multi-line summary of the hierarchy."""
        lines = []
        for i, level in enumerate(self._levels):
            cap = "inf" if level.is_unbounded else f"{level.capacity_bytes}B"
            tensors = ",".join(sorted(t.short_name for t in level.tensors))
            fanout = f" fanout={level.spatial_fanout}" if level.spatial_fanout > 1 else ""
            lines.append(f"[{i}] {level.name:<18} cap={cap:<10} tensors={tensors}{fanout}")
        return "\n".join(lines)
