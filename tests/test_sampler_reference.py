"""The map-space sampler against its reference draw loop.

:meth:`~repro.mapping.space.MapSpace._draw_loops` draws slot indices and
permutation swaps straight from ``rng.getrandbits``.  It must consume the
RNG exactly as the plain loop below, written with ``rng.randrange`` and
``rng.shuffle``, does: search outcomes, counters and committed figures all
rest on that stream.  The reference loop is kept here as the oracle.  For
every registered problem on three architectures and several seeds, the
sampler must return the same draws and leave the RNG in the same state.
"""

import random
from dataclasses import replace

import pytest

from repro.api.registry import architectures
from repro.arch.memory import MemoryHierarchy
from repro.mapping import MapSpace
from repro.mapping.mapping import LevelMapping, Loop
from repro.workloads.prime import factorize
from repro.workloads.problem import available_problems, get_problem, matmul

ARCHITECTURES = ("baseline-4x4", "pe-8x8", "gpu-k80")
SEEDS = (0, 1, 2)
DRAWS = 30

#: Dimension bounds cycled over a problem's dims: primes, prime powers and
#: mixed composites, so slots, fanout budgets and merges all get exercised.
BOUNDS = (12, 7, 16, 30, 9, 2, 64, 5, 1, 28)


def reference_draw(space, rng, fallbacks=None):
    """One draw through ``randrange``/``shuffle``: the sampler's oracle.

    Built from the layer and the accelerator alone, not from the
    sampler's precomputed tables.  ``fallbacks`` (a one-element list)
    counts factors that took the temporal fallback.
    """
    accelerator, layer = space.accelerator, space.layer
    num_levels = accelerator.num_memory_levels
    fanouts = {
        i: accelerator.hierarchy[i].spatial_fanout for i in accelerator.hierarchy.spatial_levels()
    }
    temporal_loops = [[] for _ in range(num_levels)]
    spatial_loops = [[] for _ in range(num_levels)]
    fanout_budget = dict(fanouts)
    slots = [(i, False) for i in range(num_levels)] + [(i, True) for i in fanouts]
    for dim in layer.problem.dims:
        for prime in factorize(layer.bounds[dim]):
            placed = False
            for _ in range(8):
                level, spatial = slots[rng.randrange(len(slots))]
                if spatial:
                    if fanout_budget.get(level, 1) < prime:
                        continue
                    fanout_budget[level] //= prime
                    spatial_loops[level].append((dim, prime))
                else:
                    temporal_loops[level].append((dim, prime))
                placed = True
                break
            if not placed:
                if fallbacks is not None:
                    fallbacks[0] += 1
                temporal_loops[rng.randrange(num_levels)].append((dim, prime))

    def merge(loops):
        merged, order = {}, []
        for dim, bound in loops:
            if dim not in merged:
                merged[dim] = 1
                order.append(dim)
            merged[dim] *= bound
        return [(dim, merged[dim]) for dim in order if merged[dim] > 1]

    temporal, spatial = [], []
    for level in range(num_levels):
        loops = merge(temporal_loops[level])
        rng.shuffle(loops)
        temporal.append(loops)
        spatial.append(merge(spatial_loops[level]))
    return temporal, spatial


def reference_levels(temporal, spatial):
    return [
        LevelMapping(
            temporal=[Loop(dim=d, bound=b, spatial=False) for d, b in t],
            spatial=[Loop(dim=d, bound=b, spatial=True) for d, b in s],
        )
        for t, s in zip(temporal, spatial)
    ]


def problem_layer(name, seed):
    problem = get_problem(name)
    bounds = {dim: BOUNDS[(i + seed) % len(BOUNDS)] for i, dim in enumerate(problem.dims)}
    return problem.layer(bounds, name=f"{name}-{seed}")


def assert_matches_reference(space, seed, draws=DRAWS):
    reference_rng = random.Random(seed)
    expected = [reference_draw(space, reference_rng) for _ in range(draws)]

    batch_rng = random.Random(seed)
    batch = space.sample_batch(draws, batch_rng)
    assert batch.temporal == [temporal for temporal, _ in expected]
    assert batch.spatial == [spatial for _, spatial in expected]
    assert batch_rng.getstate() == reference_rng.getstate()

    scalar_rng = random.Random(seed)
    for temporal, spatial in expected:
        assert list(space.random_mapping(scalar_rng).levels) == reference_levels(temporal, spatial)
    assert scalar_rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("arch_name", ARCHITECTURES)
@pytest.mark.parametrize("problem_name", available_problems())
def test_sampler_matches_reference_loop(problem_name, arch_name):
    accelerator = architectures.create(arch_name)
    for seed in SEEDS:
        assert_matches_reference(MapSpace(problem_layer(problem_name, seed), accelerator), seed)


def test_sampler_matches_reference_through_the_temporal_fallback():
    """Eight failed spatial tries send a factor to a random level's
    temporal slot.  With every level spatial at the 16-PE fanout, half the
    slots are spatial and no prime above 16 fits one, so many factors get
    there."""
    baseline = architectures.create("baseline-4x4")
    hierarchy = MemoryHierarchy(
        [replace(level, spatial_fanout=16) for level in baseline.hierarchy]
    )
    space = MapSpace(
        matmul(17**3, 19**3, 23**3, batch=29**2), replace(baseline, hierarchy=hierarchy)
    )
    seed, draws = 0, 200
    fallbacks = [0]
    rng = random.Random(seed)
    for _ in range(draws):
        reference_draw(space, rng, fallbacks)
    assert fallbacks[0] >= 5
    assert_matches_reference(space, seed, draws)
