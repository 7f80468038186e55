"""Canonical content digests shared across the code base.

Fingerprints (:meth:`repro.arch.accelerator.Accelerator.fingerprint`,
``config_fingerprint`` on every scheduler), layer-tier keys
(:mod:`repro.engine.cache`) and per-layer RNG seeds
(:func:`repro.baselines.base.stable_layer_seed`) all rely on the same
recipe: serialize deterministically, then hash.  Keeping the recipe here —
one canonical JSON form, one hash — guarantees that every writer and reader
of a persisted key agrees on it; a divergent copy would silently split
cache keys between producers and consumers.
"""

from __future__ import annotations

import hashlib
import json

#: Version of the results this code produces.  Both store keys carry it, so
#: a store filled by code that produced other results refills.  A change that
#: moves any mapping, envelope, golden or figure file bumps it.
RESULTS_VERSION = 3


def canonical_json(payload) -> str:
    """Deterministic JSON serialisation (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_digest(payload) -> str:
    """Hex sha256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def stable_seed32(*parts) -> int:
    """Deterministic 32-bit integer derived from arbitrary key parts.

    Unlike ``hash()``, the result does not change between processes under
    string-hash randomisation, so seeds derived from it are reproducible
    across runs and processes.
    """
    blob = "\x1f".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")
