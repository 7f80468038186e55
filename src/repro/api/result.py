"""The versioned result envelope every :func:`repro.api.run` call returns.

A :class:`RunResult` stamps three things onto every run: the
``schema_version`` of the payload layout (so downstream consumers can detect
drift mechanically), the fully *resolved* :class:`~repro.api.specs.RunSpec`
(defaults filled in — the exact experiment that ran, reproducible by feeding
the echo back into ``run``), and the ``data`` payload itself, a plain
JSON-compatible dict whose shape depends on the run kind.

``to_dict``/``from_dict``/``to_json``/``from_json`` round-trip losslessly.
Live Python objects produced along the way (schedule outcomes, accelerators,
summaries) ride in :attr:`RunResult.artifacts`, which is deliberately
excluded from serialisation — the JSON form is the stable contract, the
artifacts are a convenience for in-process consumers such as the CLI's text
renderers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.specs import RunSpec

#: Version of the serialized result layout.  Bump on any change to the
#: ``data`` payload shapes or the envelope itself, and extend
#: :meth:`RunResult.from_dict` to read the versions you still support.
#:
#: v2 added the tensor-problem workload axis: the spec echo may carry
#: ``workload.problem`` / ``workload.problem_options`` and layers may belong
#: to non-conv problems.  Runs whose resolved layers are all conv are still
#: stamped (and emitted byte-identical to) v1 — see the carve-out notes in
#: :func:`repro.api.runner._schema_version` (empty-workload suites now
#: resolve the registered transformer presets and therefore stamp v2) — so
#: v1 consumers keep working and the golden v1 envelopes stay frozen.
#:
#: Dropping the layer-reuse provenance from ``data`` (``from_cache`` on
#: outcomes and groups; ``cache_hits``, ``cache_misses`` and ``solves`` in
#: engine stats) only removed keys and kept both versions: ``from_dict``
#: never validated ``data`` keys, so envelopes stored with them still load.
SCHEMA_VERSION = 2

#: The legacy conv-only envelope version.
LEGACY_SCHEMA_VERSION = 1

#: Envelope versions :meth:`RunResult.from_dict` accepts.
SUPPORTED_SCHEMA_VERSIONS = (LEGACY_SCHEMA_VERSION, SCHEMA_VERSION)


@dataclass
class RunResult:
    """Structured outcome of one :func:`repro.api.run` call."""

    kind: str
    spec: RunSpec
    data: dict
    schema_version: int = SCHEMA_VERSION
    #: In-process extras (live outcomes, accelerator, summary objects);
    #: never serialized and excluded from equality.
    artifacts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def succeeded(self) -> bool:
        """True when every scheduled layer produced a valid mapping."""
        return bool(self.data.get("succeeded", True))

    def to_dict(self) -> dict:
        """JSON-compatible envelope (``schema_version`` first, by contract)."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "data": self.data,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        if not isinstance(data, dict):
            raise ValueError(f"RunResult must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("schema_version", "kind", "spec", "data") if key not in data]
        if missing:
            raise ValueError(f"RunResult is missing key(s): {', '.join(missing)}")
        unknown = sorted(set(data) - {"schema_version", "kind", "spec", "data"})
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))} in RunResult")
        version = data["schema_version"]
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported schema_version {version!r}; this build reads "
                f"{', '.join(map(str, SUPPORTED_SCHEMA_VERSIONS))}"
            )
        payload = data["data"]
        if not isinstance(payload, dict):
            raise ValueError(f"RunResult.data must be an object, got {type(payload).__name__}")
        return cls(
            kind=data["kind"],
            spec=RunSpec.from_dict(data["spec"]),
            data=payload,
            schema_version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
