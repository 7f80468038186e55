"""Schedule representation: loops, per-level mappings and the full Mapping.

Conventions
-----------
* Memory levels are indexed innermost (0, registers) to outermost (DRAM).
* A loop assigned to level ``i`` sits "at" level ``i`` in the loop nest
  (Listing 1 of the paper): it iterates tiles whose footprint is given by the
  loops at levels below ``i``.
* Within a level, temporal loops are ordered **innermost first** — index 0 of
  :attr:`LevelMapping.temporal` is the innermost loop of that level.
* Spatial loops of a level are unordered; their product must not exceed the
  level's spatial fanout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Iterator, Sequence

from repro.workloads.layer import TensorKind
from repro.workloads.problem import ProblemLayer


@dataclass(frozen=True)
class Loop:
    """A single loop of the schedule.

    Parameters
    ----------
    dim:
        Problem dimension name (for conv layers one of ``R, S, P, Q, C, K,
        N``; other tensor problems bring their own dimension names).  The
        name is validated against the layer's problem when the loop joins a
        :class:`Mapping`.
    bound:
        Loop trip count (a factor of the layer's bound for ``dim``).
    spatial:
        ``True`` for ``spatial_for`` loops (mapped to parallel hardware).
    """

    dim: str
    bound: int
    spatial: bool = False

    def __post_init__(self) -> None:
        if not self.dim or not isinstance(self.dim, str):
            raise ValueError(f"loop dimension must be a non-empty string, got {self.dim!r}")
        if self.bound < 1:
            raise ValueError(f"loop bound must be >= 1, got {self.bound}")

    def relevant_to(self, tensor: TensorKind, problem) -> bool:
        """True when the loop's dimension indexes ``tensor`` of ``problem``.

        ``problem`` is the owning layer's
        :class:`~repro.workloads.problem.TensorProblem`.
        """
        return problem.relevance(self.dim, tensor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "spatial_for" if self.spatial else "for"
        return f"{kind} {self.dim.lower()} in [0:{self.bound})"


@dataclass
class LevelMapping:
    """Loops assigned to one memory level.

    Attributes
    ----------
    temporal:
        Temporal loops at this level, innermost first.
    spatial:
        Spatial loops at this level (order irrelevant).
    """

    temporal: list[Loop] = field(default_factory=list)
    spatial: list[Loop] = field(default_factory=list)

    def __post_init__(self) -> None:
        for loop in self.temporal:
            if loop.spatial:
                raise ValueError(f"spatial loop {loop} placed in the temporal list")
        for loop in self.spatial:
            if not loop.spatial:
                raise ValueError(f"temporal loop {loop} placed in the spatial list")

    @property
    def all_loops(self) -> list[Loop]:
        """Spatial loops followed by temporal loops (inner to outer)."""
        return list(self.spatial) + list(self.temporal)

    def temporal_product(self) -> int:
        """Product of the temporal loop bounds at this level."""
        return prod((loop.bound for loop in self.temporal), start=1)

    def spatial_product(self) -> int:
        """Product of the spatial loop bounds at this level."""
        return prod((loop.bound for loop in self.spatial), start=1)

    def factor(self, dim: str, include_spatial: bool = True, include_temporal: bool = True) -> int:
        """Product of the bounds of this level's loops over dimension ``dim``."""
        total = 1
        if include_temporal:
            for loop in self.temporal:
                if loop.dim == dim:
                    total *= loop.bound
        if include_spatial:
            for loop in self.spatial:
                if loop.dim == dim:
                    total *= loop.bound
        return total

    def nontrivial(self) -> "LevelMapping":
        """Copy of this level with bound-1 loops removed (permutation preserved)."""
        return LevelMapping(
            temporal=[l for l in self.temporal if l.bound > 1],
            spatial=[l for l in self.spatial if l.bound > 1],
        )


class Mapping:
    """A complete schedule of one layer onto one accelerator.

    Parameters
    ----------
    layer:
        The layer being scheduled.
    level_mappings:
        One :class:`LevelMapping` per memory level, innermost first.  The
        length must equal the number of memory levels of the target
        architecture.
    """

    def __init__(self, layer: ProblemLayer, level_mappings: Sequence[LevelMapping]):
        self.layer = layer
        self.levels: tuple[LevelMapping, ...] = tuple(level_mappings)
        if not self.levels:
            raise ValueError("a mapping needs at least one level")
        problem = layer.problem
        known = set(problem.dims)
        for level in self.levels:
            for loop in level.all_loops:
                # A loop over a foreign dimension would be silently costed as
                # irrelevant-to-every-tensor; fail at construction instead.
                if loop.dim not in known:
                    raise ValueError(
                        f"loop dimension {loop.dim!r} is not a {problem.name} "
                        f"dimension (known: {', '.join(problem.dims)})"
                    )

    # ------------------------------------------------------------- construction
    @classmethod
    def from_factors(
        cls,
        layer: ProblemLayer,
        temporal_factors: Sequence[dict[str, int]],
        spatial_factors: Sequence[dict[str, int]] | None = None,
        permutations: Sequence[Sequence[str]] | None = None,
    ) -> "Mapping":
        """Build a mapping from per-level factor dictionaries.

        ``temporal_factors[i][dim]`` is the temporal tile factor of ``dim`` at
        level ``i`` (missing dims default to 1); ``spatial_factors`` works the
        same for spatial loops.  ``permutations[i]`` optionally orders the
        temporal loops of level ``i`` innermost-first (dims not listed keep
        insertion order after the listed ones).

        Every dimension key is validated against the layer's problem
        dimensions — a typo or a dim from a different problem raises
        ``KeyError`` instead of being silently dropped.
        """
        problem = layer.problem
        dims = problem.dims
        num_levels = len(temporal_factors)
        spatial_factors = spatial_factors or [{} for _ in range(num_levels)]
        if len(spatial_factors) != num_levels:
            raise ValueError("temporal_factors and spatial_factors must have the same length")
        for i in range(num_levels):
            problem.check_dims(temporal_factors[i], where=f"temporal_factors[{i}]")
            problem.check_dims(spatial_factors[i], where=f"spatial_factors[{i}]")
        if permutations is not None:
            for i, permutation in enumerate(permutations):
                problem.check_dims(
                    (d.upper() for d in permutation), where=f"permutations[{i}]"
                )
        level_mappings: list[LevelMapping] = []
        for i in range(num_levels):
            order: Iterable[str]
            if permutations is not None and i < len(permutations) and permutations[i]:
                listed = [d.upper() for d in permutations[i]]
                rest = [d for d in dims if d not in listed]
                order = listed + rest
            else:
                order = dims
            temporal = [
                Loop(dim=dim, bound=temporal_factors[i].get(dim, 1), spatial=False)
                for dim in order
                if temporal_factors[i].get(dim, 1) > 1
            ]
            spatial = [
                Loop(dim=dim, bound=bound, spatial=True)
                for dim, bound in spatial_factors[i].items()
                if bound > 1
            ]
            level_mappings.append(LevelMapping(temporal=temporal, spatial=spatial))
        return cls(layer, level_mappings)

    # ------------------------------------------------------------------ queries
    @property
    def num_levels(self) -> int:
        """Number of memory levels covered by the mapping."""
        return len(self.levels)

    def __getitem__(self, index: int) -> LevelMapping:
        return self.levels[index]

    def __iter__(self) -> Iterator[LevelMapping]:
        return iter(self.levels)

    def factor(self, dim: str, level: int, include_spatial: bool = True) -> int:
        """Tile factor of ``dim`` contributed by loops at ``level``."""
        return self.levels[level].factor(dim, include_spatial=include_spatial)

    def dim_product(self, dim: str, max_level: int | None = None, include_spatial: bool = True) -> int:
        """Product of the factors of ``dim`` over levels ``0..max_level`` (inclusive)."""
        end = self.num_levels if max_level is None else max_level + 1
        total = 1
        for level in self.levels[:end]:
            total *= level.factor(dim, include_spatial=include_spatial)
        return total

    def total_temporal_product(self) -> int:
        """Product of every temporal loop bound (per-lane compute iterations)."""
        return prod((level.temporal_product() for level in self.levels), start=1)

    def total_spatial_product(self) -> int:
        """Product of every spatial loop bound (active parallel lanes)."""
        return prod((level.spatial_product() for level in self.levels), start=1)

    def spatial_product_at(self, level: int) -> int:
        """Product of the spatial loop bounds at ``level``."""
        return self.levels[level].spatial_product()

    def loops_above(self, level: int) -> list[tuple[int, Loop]]:
        """Temporal loops at levels >= ``level``, ordered innermost to outermost.

        Returns ``(level_index, loop)`` pairs.  Within a level the loops keep
        their permutation order (innermost first); inner levels come before
        outer levels.
        """
        ordered: list[tuple[int, Loop]] = []
        for i in range(level, self.num_levels):
            for loop in self.levels[i].temporal:
                ordered.append((i, loop))
        return ordered

    # --------------------------------------------------------------- validation
    def validate_against_layer(self) -> None:
        """Check that per-dimension factors multiply back to the layer bounds.

        Raises :class:`ValueError` on the first mismatch.
        """
        for dim, bound in self.layer.bounds.items():
            total = self.dim_product(dim)
            if total != bound:
                raise ValueError(
                    f"factors of dimension {dim} multiply to {total}, expected {bound}"
                )

    def is_consistent(self) -> bool:
        """True when the per-dimension factors reproduce the layer bounds."""
        try:
            self.validate_against_layer()
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------- output
    def compact(self) -> "Mapping":
        """Return an equivalent mapping with all bound-1 loops dropped."""
        return Mapping(self.layer, [level.nontrivial() for level in self.levels])

    def summary(self) -> str:
        """One-line-per-level summary used in logs and reports."""
        lines = []
        for i, level in enumerate(self.levels):
            spatial = " ".join(f"{l.dim}{l.bound}" for l in level.spatial) or "-"
            temporal = " ".join(f"{l.dim}{l.bound}" for l in level.temporal) or "-"
            lines.append(f"L{i}: s[{spatial}] t[{temporal}]")
        return " | ".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mapping({self.layer.name or self.layer.canonical_name}: {self.summary()})"
