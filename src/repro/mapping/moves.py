"""Mutable mapping state and local-search moves.

Local search walks the map space one *move* at a time instead of redrawing
whole mappings.  This module provides the pieces:

* :class:`MappingState` — a mutable factor placement (per-level temporal and
  spatial ``[dim, bound]`` lists, permutation order significant) that moves
  edit in place and that materializes to the same
  :class:`~repro.mapping.mapping.Mapping` a :class:`~repro.mapping.space.MappingDraws`
  would produce.
* :class:`FactorMove` — relocate one prime factor of a dimension between
  (level, temporal/spatial) slots.  A move with ``src_level == dst_level``
  and flipped spatial flags is a *spatial flip*.
* :class:`PermutationSwap` — exchange two temporal loops of one level.
* :class:`ProposalTable` — draws random moves of one state from tables
  built once per state; :func:`propose_move` is its one-move case.

Moves conserve the per-dimension factor product by construction, so a state
seeded from a consistent draw stays consistent forever; only fanout and
buffer-capacity validity can change, which is exactly what the DDFW-style
constraint weights of the local-search scheduler track.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.workloads.prime import factorize

__all__ = [
    "FactorMove",
    "PermutationSwap",
    "MappingState",
    "ProposalTable",
    "propose_move",
]


@dataclass(frozen=True)
class FactorMove:
    """Move ``factor`` of dimension ``dim`` between two placement slots.

    The factor is divided out of the entry at ``(src_level, src_spatial)``
    (removing the entry when its bound reaches 1) and multiplied into the
    ``dim`` entry at ``(dst_level, dst_spatial)``, creating it at position
    ``dst_pos`` (``-1`` appends) when absent.  ``factor`` must divide the
    source entry's bound, which :class:`ProposalTable` guarantees by drawing
    it from the bound's prime factorization.
    """

    dim: str
    factor: int
    src_level: int
    src_spatial: bool
    dst_level: int
    dst_spatial: bool
    dst_pos: int = -1

    @property
    def touches_temporal(self) -> bool:
        return not (self.src_spatial and self.dst_spatial)

    @property
    def touches_spatial(self) -> bool:
        return self.src_spatial or self.dst_spatial


@dataclass(frozen=True)
class PermutationSwap:
    """Exchange the temporal loops at positions ``i`` and ``j`` of ``level``."""

    level: int
    i: int
    j: int


@dataclass
class MappingState:
    """A mutable factor placement edited by moves.

    ``temporal[level]`` / ``spatial[level]`` are lists of mutable
    ``[dim, bound]`` pairs, innermost loop first, at most one entry per
    dimension per list and every bound > 1 — the same invariants
    :meth:`~repro.mapping.space.MapSpace.sample_batch` draws have.
    """

    layer: object
    num_levels: int
    temporal: list = field(default_factory=list)
    spatial: list = field(default_factory=list)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_draws(cls, draws, index: int) -> "MappingState":
        """Seed a state from draw ``index`` of a sampled batch."""
        return cls(
            layer=draws.layer,
            num_levels=draws.num_levels,
            temporal=[[[d, b] for d, b in level] for level in draws.temporal[index]],
            spatial=[[[d, b] for d, b in level] for level in draws.spatial[index]],
        )

    def clone(self) -> "MappingState":
        """Deep copy (used to keep the best-so-far state of a search)."""
        return MappingState(
            layer=self.layer,
            num_levels=self.num_levels,
            temporal=[[[d, b] for d, b in level] for level in self.temporal],
            spatial=[[[d, b] for d, b in level] for level in self.spatial],
        )

    # ---------------------------------------------------------------- queries
    def spatial_product_at(self, level: int) -> int:
        product = 1
        for _, bound in self.spatial[level]:
            product *= bound
        return product

    def to_mapping(self) -> Mapping:
        """Materialize the full :class:`Mapping` (winners only, like draws)."""
        levels = []
        for level in range(self.num_levels):
            levels.append(
                LevelMapping(
                    temporal=[
                        Loop(dim=dim, bound=bound, spatial=False)
                        for dim, bound in self.temporal[level]
                    ],
                    spatial=[
                        Loop(dim=dim, bound=bound, spatial=True)
                        for dim, bound in self.spatial[level]
                    ],
                )
            )
        return Mapping(self.layer, levels)

    # ------------------------------------------------------------------ moves
    def _list(self, level: int, spatial: bool) -> list:
        return (self.spatial if spatial else self.temporal)[level]

    def apply(self, move) -> tuple:
        """Apply ``move`` in place; returns an undo record for :meth:`undo`.

        The record names only the entries the move changed: the swapped
        positions, or where the factor left the source list (divided out of
        an entry, or the entry removed) and where it joined the destination
        (multiplied in, or a new entry inserted), so undo restores the exact
        permutation positions without copying either list.
        """
        if isinstance(move, PermutationSwap):
            loops = self.temporal[move.level]
            loops[move.i], loops[move.j] = loops[move.j], loops[move.i]
            return (loops, move.i, move.j)

        src = self._list(move.src_level, move.src_spatial)
        dst = self._list(move.dst_level, move.dst_spatial)
        for src_index, entry in enumerate(src):
            if entry[0] == move.dim:
                if entry[1] % move.factor != 0:
                    raise ValueError(
                        f"factor {move.factor} does not divide the {move.dim} "
                        f"bound {entry[1]} at level {move.src_level}"
                    )
                entry[1] //= move.factor
                removed = entry if entry[1] == 1 else None
                if removed is not None:
                    del src[src_index]
                break
        else:
            raise ValueError(
                f"no {move.dim} entry at level {move.src_level} "
                f"({'spatial' if move.src_spatial else 'temporal'})"
            )

        for dst_index, entry in enumerate(dst):
            if entry[0] == move.dim:
                entry[1] *= move.factor
                inserted = False
                break
        else:
            dst_index = move.dst_pos
            if dst_index < 0 or dst_index > len(dst):
                dst_index = len(dst)
            dst.insert(dst_index, [move.dim, move.factor])
            inserted = True
        return (move.factor, src, src_index, removed, dst, dst_index, inserted)

    def undo(self, record: tuple) -> None:
        """Revert the move :meth:`apply` returned ``record`` for."""
        if len(record) == 3:
            loops, i, j = record
            loops[i], loops[j] = loops[j], loops[i]
            return
        factor, src, src_index, removed, dst, dst_index, inserted = record
        if inserted:
            del dst[dst_index]
        else:
            dst[dst_index][1] //= factor
        if removed is not None:
            removed[1] = factor
            src.insert(src_index, removed)
        else:
            src[src_index][1] *= factor


#: Probability of proposing a :class:`PermutationSwap` when some level has
#: two or more temporal loops.
SWAP_PROBABILITY = 0.25

#: Probability that a spatial destination without fanout budget for the
#: factor is taken anyway, so the search can cross infeasible regions — the
#: DDFW weights on the spatial constraint group then steer it back out.
OVERFLOW_PROBABILITY = 0.1

#: Draws of (source, factor, destination) before a :class:`FactorMove`
#: proposal gives up.
MAX_ATTEMPTS = 16


@lru_cache(maxsize=4096)
def _prime_factors(bound: int) -> tuple[int, ...]:
    """:func:`factorize`, cached: proposals factorize the same few bounds over and over."""
    return tuple(factorize(bound))


class ProposalTable:
    """What move proposals read of one state, built once.

    The swappable levels, the movable entries with their prime factors, the
    destination slots of each source slot and the remaining fanout budgets
    are functions of the state alone, so every proposal of a neighbourhood
    draws from one table.  The state must not change while the table is in
    use.
    """

    def __init__(self, state: MappingState, fanouts: dict[int, int]):
        self.state = state
        num_levels = state.num_levels
        self.swappable = [level for level in range(num_levels) if len(state.temporal[level]) >= 2]
        self.sources = []
        for level in range(num_levels):
            for dim, bound in state.temporal[level]:
                self.sources.append((level, False, dim, _prime_factors(bound)))
            for dim, bound in state.spatial[level]:
                self.sources.append((level, True, dim, _prime_factors(bound)))
        self.slots = [(level, False) for level in range(num_levels)]
        self.slots += [(level, True) for level in fanouts]
        self.budgets = {
            level: fanout // state.spatial_product_at(level) for level, fanout in fanouts.items()
        }
        self._destinations: dict[tuple[int, bool], list] = {}

    def propose(self, rng: random.Random):
        """Draw one random move, or ``None`` when the state is frozen.

        With probability :data:`SWAP_PROBABILITY` (when some level has two
        or more temporal loops) a :class:`PermutationSwap` is proposed;
        otherwise a :class:`FactorMove` relocating one prime factor of a
        random movable entry to a random other slot.  A spatial destination
        must have fanout budget for the factor, except with probability
        :data:`OVERFLOW_PROBABILITY`.  ``None`` also comes back when
        :data:`MAX_ATTEMPTS` draws all fail that check.
        """
        state = self.state
        swappable = self.swappable
        if swappable and rng.random() < SWAP_PROBABILITY:
            level = swappable[rng.randrange(len(swappable))]
            num_loops = len(state.temporal[level])
            i = rng.randrange(num_loops)
            j = rng.randrange(num_loops - 1)
            if j >= i:
                j += 1
            return PermutationSwap(level=level, i=i, j=j)

        sources = self.sources
        if not sources:
            return None
        for _ in range(MAX_ATTEMPTS):
            level, spatial, dim, primes = sources[rng.randrange(len(sources))]
            factor = primes[rng.randrange(len(primes))]
            slots = self._destinations.get((level, spatial))
            if slots is None:
                slots = [slot for slot in self.slots if slot != (level, spatial)]
                self._destinations[(level, spatial)] = slots
            dst_level, dst_spatial = slots[rng.randrange(len(slots))]
            if (
                dst_spatial
                and self.budgets[dst_level] < factor
                and rng.random() >= OVERFLOW_PROBABILITY
            ):
                continue
            dst_pos = rng.randrange(len(state._list(dst_level, dst_spatial)) + 1)
            return FactorMove(
                dim=dim,
                factor=factor,
                src_level=level,
                src_spatial=spatial,
                dst_level=dst_level,
                dst_spatial=dst_spatial,
                dst_pos=dst_pos,
            )
        return None


def propose_move(state: MappingState, fanouts: dict[int, int], rng: random.Random):
    """Draw one random move for ``state``, or ``None`` when the state is frozen.

    The one-move case of a :class:`ProposalTable`; see
    :meth:`ProposalTable.propose`.
    """
    return ProposalTable(state, fanouts).propose(rng)
