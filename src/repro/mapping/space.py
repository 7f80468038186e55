"""Map-space sampling.

The scheduling space of a layer is the set of all valid assignments of its
prime factors to (memory level, spatial/temporal) slots together with a loop
permutation per level.  This module provides uniform random sampling of that
space (used by the Random baseline and by the Fig. 1 histogram experiment)
plus size estimates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.arch.accelerator import Accelerator
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.moves import MappingState, ProposalTable
from repro.workloads.problem import ProblemLayer
from repro.workloads.prime import factorize

#: A drawn loop before materialization: ``(dimension name, bound)``.
DrawnLoop = tuple[str, int]

#: One drawn candidate before materialization: its per-level temporal and
#: spatial loop lists.
DrawnMapping = tuple[list[list[DrawnLoop]], list[list[DrawnLoop]]]


@dataclass
class MappingDraws:
    """A batch of sampled factor placements, kept as plain tuples.

    The batched evaluation path (:mod:`repro.model.batch`) consumes the
    per-level ``(dim, bound)`` lists directly as factor matrices; a full
    :class:`~repro.mapping.mapping.Mapping` object is only built for the few
    candidates that win a search (:meth:`materialize`).

    Attributes
    ----------
    layer:
        The layer every draw maps.
    num_levels:
        Memory levels per draw.
    temporal / spatial:
        ``temporal[i][level]`` is the list of temporal ``(dim, bound)`` loops
        of draw ``i`` at ``level`` (innermost loop first, permutation order);
        ``spatial`` likewise for spatial loops.
    """

    layer: ProblemLayer
    num_levels: int
    temporal: list[list[list[DrawnLoop]]] = field(default_factory=list)
    spatial: list[list[list[DrawnLoop]]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.temporal)

    def materialize(self, index: int) -> Mapping:
        """Build the full :class:`Mapping` for draw ``index``.

        Produces exactly the object :meth:`MapSpace.random_mapping` would
        have returned for the same draw.
        """
        levels = []
        for level in range(self.num_levels):
            levels.append(
                LevelMapping(
                    temporal=[
                        Loop(dim=dim, bound=bound, spatial=False)
                        for dim, bound in self.temporal[index][level]
                    ],
                    spatial=[
                        Loop(dim=dim, bound=bound, spatial=True)
                        for dim, bound in self.spatial[index][level]
                    ],
                )
            )
        return Mapping(self.layer, levels)

    def iter_mappings(self):
        """Materialize every draw in order (scalar reference path)."""
        for index in range(len(self)):
            yield self.materialize(index)


class MapSpace:
    """Random sampler over the scheduling space of ``layer`` on ``accelerator``."""

    def __init__(self, layer: ProblemLayer, accelerator: Accelerator):
        self.layer = layer
        self.accelerator = accelerator
        self.num_levels = accelerator.num_memory_levels
        self._spatial_levels = {
            i: accelerator.hierarchy[i].spatial_fanout
            for i in accelerator.hierarchy.spatial_levels()
        }
        self._dims = layer.problem.dims
        self._prime_factors = {dim: factorize(bound) for dim, bound in layer.bounds.items()}
        # The draw loop's tables: every (level, spatial) slot a factor can
        # land in, and the (dim, prime) factors in placement order.
        self._slots = tuple(
            [(i, False) for i in range(self.num_levels)]
            + [(i, True) for i in self._spatial_levels]
        )
        self._factors = tuple(
            (dim, prime) for dim in self._dims for prime in self._prime_factors[dim]
        )

    # ------------------------------------------------------------------- sizes
    def num_prime_factors(self) -> int:
        """Total number of prime factors to place."""
        return sum(len(f) for f in self._prime_factors.values())

    # --------------------------------------------------------------- sampling
    def _draw_loops(self, rng: random.Random) -> tuple[list[list[DrawnLoop]], list[list[DrawnLoop]]]:
        """Draw one random factor placement as per-level ``(dim, bound)`` lists.

        This is the sampling core shared by :meth:`random_mapping` (which
        wraps the result in a :class:`Mapping`) and :meth:`sample_batch`
        (which keeps the tuples for vectorized evaluation).  Each prime
        factor tries up to eight uniformly drawn slots (a spatial slot only
        takes it while the level's fanout budget allows) and otherwise falls
        back to the temporal slot of a random level; factors of one
        dimension that share a slot merge into one loop.  The temporal loops
        of each level then get a random permutation.

        Every draw below ``n`` is ``getrandbits(n.bit_length())`` repeated
        until it falls below ``n``, and the permutation is a Fisher-Yates
        pass from the back — the algorithms of CPython's ``randrange(n)``
        and ``shuffle``, inlined, so the RNG stream equals a draw through
        those calls (``tests/test_sampler_reference.py`` checks this).
        """
        getrandbits = rng.getrandbits
        slots = self._slots
        num_slots = len(slots)
        slot_bits = num_slots.bit_length()
        num_levels = self.num_levels
        temporal: list[dict[str, int]] = [{} for _ in range(num_levels)]
        spatial: list[dict[str, int]] = [{} for _ in range(num_levels)]
        fanout_budget = dict(self._spatial_levels)

        for dim, prime in self._factors:
            for _ in range(8):
                index = getrandbits(slot_bits)
                while index >= num_slots:
                    index = getrandbits(slot_bits)
                level, is_spatial = slots[index]
                if not is_spatial:
                    loops = temporal[level]
                    break
                if fanout_budget[level] >= prime:
                    fanout_budget[level] //= prime
                    loops = spatial[level]
                    break
            else:
                # Fall back to a temporal slot at a random level.
                level_bits = num_levels.bit_length()
                level = getrandbits(level_bits)
                while level >= num_levels:
                    level = getrandbits(level_bits)
                loops = temporal[level]
            loops[dim] = loops.get(dim, 1) * prime

        drawn_temporal: list[list[DrawnLoop]] = []
        for loops in temporal:
            drawn = list(loops.items())
            for i in range(len(drawn) - 1, 0, -1):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                drawn[i], drawn[j] = drawn[j], drawn[i]
            drawn_temporal.append(drawn)
        return drawn_temporal, [list(loops.items()) for loops in spatial]

    def random_mapping(self, rng: random.Random) -> Mapping:
        """Draw one random (not necessarily valid) mapping.

        Every prime factor is placed into a uniformly random slot; spatial
        placement is only attempted at spatial levels and respects the
        remaining fanout budget of the level.  Temporal loops of each level
        get a random permutation.
        """
        temporal, spatial = self._draw_loops(rng)
        draws = MappingDraws(
            layer=self.layer, num_levels=self.num_levels, temporal=[temporal], spatial=[spatial]
        )
        return draws.materialize(0)

    def sample_batch(self, count: int, rng: random.Random | None = None) -> MappingDraws:
        """Draw ``count`` random candidates as factor placements, not objects.

        The returned :class:`MappingDraws` feeds
        :meth:`repro.model.batch.MappingBatch.from_draws` for vectorized
        evaluation; individual winners are materialized on demand.  Drawing a
        batch of ``n`` then a batch of ``m`` from one RNG yields exactly the
        candidates of a batch of ``n + m`` (and of ``n + m`` scalar
        :meth:`random_mapping` calls), so search outcomes do not depend on
        the batch size.
        """
        rng = rng or random.Random(0)
        draws = MappingDraws(layer=self.layer, num_levels=self.num_levels)
        for _ in range(count):
            temporal, spatial = self._draw_loops(rng)
            draws.temporal.append(temporal)
            draws.spatial.append(spatial)
        return draws

    # ------------------------------------------------------------ local search
    @property
    def spatial_fanouts(self) -> dict[int, int]:
        """Per-level spatial fanout budgets ``{level index: fanout}`` (copy)."""
        return dict(self._spatial_levels)

    def initial_state(self, draws: MappingDraws, index: int) -> MappingState:
        """Seed a mutable :class:`~repro.mapping.moves.MappingState` from a draw."""
        return MappingState.from_draws(draws, index)

    def neighborhood(self, state: MappingState, rng: random.Random, count: int) -> list:
        """Up to ``count`` distinct random moves applicable to ``state``.

        Every move is drawn from one :class:`~repro.mapping.moves.ProposalTable`
        of ``state`` and deduplicated (moves are frozen dataclasses, hence
        hashable); fewer than ``count`` moves are returned when the state is
        frozen or proposals keep colliding.
        """
        propose = ProposalTable(state, self._spatial_levels).propose
        moves: list = []
        seen: set = set()
        for _ in range(4 * count):
            if len(moves) >= count:
                break
            move = propose(rng)
            if move is None:
                break
            if move in seen:
                continue
            seen.add(move)
            moves.append(move)
        return moves


def random_mapping(layer: ProblemLayer, accelerator: Accelerator, seed: int = 0) -> Mapping:
    """Convenience wrapper: one random mapping of ``layer`` on ``accelerator``."""
    return MapSpace(layer, accelerator).random_mapping(random.Random(seed))

