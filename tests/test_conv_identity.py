"""Pinned identity of one conv layer.

Layer-tier keys, search RNG seeds, fusion group keys and version-1 mapping
files are all derived from a conv layer's ``key_dict()`` and
``canonical_name``.  These literals pin them for one strided ResNet-50 conv
so a change to how conv layers are represented cannot move any of them.
"""

from __future__ import annotations

from repro.arch.presets import simba_like
from repro.baselines.random_search import RandomScheduler
from repro.core.scheduler import CoSAScheduler
from repro.engine.cache import cache_key
from repro.mapping.serialize import mapping_from_dict, mapping_to_dict
from repro.workloads.networks import layer_from_name

LAYER_NAME = "7_112_3_64_2"

KEY_DICT = {"r": 7, "s": 7, "p": 112, "q": 112, "c": 3, "k": 64, "n": 1, "stride": 2}

COSA_CACHE_KEY = "2f15221212ea1dfe1d27dd8c68c0a59f9799a8f9409e78f6aa74d90658691069"

#: ``RandomScheduler(simba_like(), seed=0)``'s mapping; its RNG is seeded
#: from the canonical name, so this also pins the name-derived seed.
RANDOM_MAPPING = {
    "version": 1,
    "layer": {"name": LAYER_NAME, **KEY_DICT},
    "levels": [
        {"temporal": [["Q", 4], ["K", 4], ["P", 7]], "spatial": [["S", 7], ["P", 4]]},
        {"temporal": [["K", 2], ["P", 2]], "spatial": []},
        {"temporal": [["K", 2]], "spatial": []},
        {"temporal": [["C", 3], ["K", 2]], "spatial": []},
        {"temporal": [], "spatial": [["R", 7], ["P", 2]]},
        {"temporal": [["Q", 28], ["K", 2]], "spatial": []},
    ],
}


def test_key_dict_and_canonical_name():
    layer = layer_from_name(LAYER_NAME)
    assert layer.key_dict() == KEY_DICT
    assert list(layer.key_dict()) == list(KEY_DICT)
    assert layer.canonical_name == LAYER_NAME


def test_cosa_layer_tier_key():
    arch = simba_like()
    assert cache_key(layer_from_name(LAYER_NAME), arch, CoSAScheduler(arch)) == COSA_CACHE_KEY


def test_random_mapping_serializes_as_version_1():
    layer = layer_from_name(LAYER_NAME)
    result = RandomScheduler(simba_like(), seed=0).schedule(layer)
    assert mapping_to_dict(result.mapping) == RANDOM_MAPPING
    assert result.cost.latency == 362649.0
    assert mapping_from_dict(RANDOM_MAPPING).layer == layer
