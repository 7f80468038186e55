"""Property-based tests for map-space sampling and mapping serialisation.

Hand-rolled generators (seeded ``random.Random``, no external property
testing dependency) drive randomized invariants:

* every sampled mapping is **consistent** (factors multiply back to the
  layer bounds) and respects per-level spatial fanouts,
* :meth:`~repro.mapping.space.MapSpace.sample_batch` proposes exactly the
  candidates of sequential :meth:`~repro.mapping.space.MapSpace.random_mapping`
  calls from the same seed, independent of chunking,
* ``mapping.serialize`` round-trips every mapping bit-for-bit (dict
  equality, idempotence, cost-model equivalence).
"""

import random

import pytest

from repro.arch import architecture_presets, simba_like
from repro.mapping import MapSpace, mapping_from_dict, mapping_to_dict
from repro.mapping.serialize import load_mapping, save_mapping
from repro.model import CostModel
from repro.workloads import ProblemLayer, conv_layer
from repro.workloads.prime import factorize

ARCH = simba_like()

#: Dimension values drawn by the layer generator (kept small so factor
#: placement and evaluation stay fast while covering primes and composites).
DIM_CHOICES = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16)


def random_layer(rng: random.Random) -> ProblemLayer:
    """Draw a random (possibly degenerate) convolution layer."""
    r = rng.choice((1, 3, 5))
    return conv_layer(
        r=r,
        s=r,
        p=rng.choice(DIM_CHOICES),
        q=rng.choice(DIM_CHOICES),
        c=rng.choice(DIM_CHOICES),
        k=rng.choice(DIM_CHOICES),
        n=rng.choice((1, 2, 4)),
        stride=rng.choice((1, 2)),
    )


class TestSamplingProperties:
    def test_sampled_mappings_are_consistent_and_respect_fanouts(self):
        rng = random.Random(0)
        for trial in range(40):
            layer = random_layer(rng)
            arch = ARCH
            space = MapSpace(layer, arch)
            mapping = space.random_mapping(rng)
            assert mapping.is_consistent(), f"trial {trial}: {mapping.summary()}"
            for index, level in enumerate(arch.hierarchy):
                assert mapping.spatial_product_at(index) <= level.spatial_fanout, (
                    f"trial {trial}: level {level.name} fanout exceeded"
                )

    def test_spatial_loops_only_at_spatial_levels(self):
        rng = random.Random(1)
        for _ in range(25):
            layer = random_layer(rng)
            space = MapSpace(layer, ARCH)
            mapping = space.random_mapping(rng)
            spatial_levels = set(ARCH.hierarchy.spatial_levels())
            for index in range(mapping.num_levels):
                if index not in spatial_levels:
                    assert mapping.spatial_product_at(index) == 1

    def test_sample_batch_equals_sequential_draws(self):
        """The candidate stream is chunking-invariant (search-parity bedrock)."""
        rng = random.Random(2)
        for _ in range(10):
            layer = random_layer(rng)
            space = MapSpace(layer, ARCH)
            seed = rng.randrange(2**31)
            seq_rng = random.Random(seed)
            sequential = [space.random_mapping(seq_rng) for _ in range(12)]

            batch_rng = random.Random(seed)
            first = space.sample_batch(5, batch_rng)
            second = space.sample_batch(7, batch_rng)
            chunked = [first.materialize(i) for i in range(5)]
            chunked += [second.materialize(i) for i in range(7)]
            for a, b in zip(sequential, chunked):
                assert mapping_to_dict(a) == mapping_to_dict(b)

    def test_factorize_products_reconstruct(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randrange(1, 4000)
            primes = factorize(n)
            product = 1
            for p in primes:
                product *= p
                assert p >= 2
                assert all(p % d for d in range(2, int(p**0.5) + 1))
            assert product == n


class TestSerializeRoundTrip:
    def test_random_mappings_round_trip(self):
        rng = random.Random(5)
        presets = sorted(architecture_presets().items())
        for trial in range(30):
            layer = random_layer(rng)
            _, arch = presets[trial % len(presets)]
            space = MapSpace(layer, arch)
            mapping = space.random_mapping(rng)

            data = mapping_to_dict(mapping)
            rebuilt = mapping_from_dict(data)
            # Dict equality is the strongest round-trip statement: loops,
            # bounds, permutation order and the layer all survive.
            assert mapping_to_dict(rebuilt) == data
            assert rebuilt.summary() == mapping.summary()
            assert rebuilt.layer == mapping.layer

    def test_round_trip_preserves_cost(self):
        rng = random.Random(6)
        model = CostModel(ARCH)
        for _ in range(10):
            layer = random_layer(rng)
            mapping = MapSpace(layer, ARCH).random_mapping(rng)
            rebuilt = mapping_from_dict(mapping_to_dict(mapping))
            original = model.evaluate(mapping)
            restored = model.evaluate(rebuilt)
            assert original.valid == restored.valid
            if original.valid:
                assert restored.latency == original.latency
                assert restored.energy == original.energy

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(7)
        layer = random_layer(rng)
        mapping = MapSpace(layer, ARCH).random_mapping(rng)
        path = save_mapping(mapping, tmp_path / "mapping.json")
        loaded = load_mapping(path)
        assert mapping_to_dict(loaded) == mapping_to_dict(mapping)

    def test_unknown_version_rejected(self):
        rng = random.Random(8)
        mapping = MapSpace(random_layer(rng), ARCH).random_mapping(rng)
        data = mapping_to_dict(mapping)
        data["version"] = 99
        with pytest.raises(ValueError):
            mapping_from_dict(data)
