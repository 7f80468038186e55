"""Crash-safe file writes shared by every on-disk artifact.

The result store (:mod:`repro.api.store`: envelopes, per-layer solves, job
records) and the fabric's task files persist JSON snapshots that other
processes may be reading or replacing at the same time.  The safe recipe is
the same everywhere: write the full payload to a uniquely named temp file in
the *target's own directory* (so the final step never crosses a filesystem
boundary), then ``os.replace`` it over the destination.  Readers observe either the old snapshot or the new
one, never a torn half-write, even if the writer dies mid-write or two
writers race on the same path.

This module is that recipe, audited once:

* the temp name embeds pid and thread id, so concurrent writers (processes
  *and* threads) never collide on the scratch file;
* the temp file is unlinked on any failure, so aborted writes leave no
  debris behind;
* parent directories are created on demand.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path``'s content with ``text``.

    The write goes to a sibling temp file first and is published with
    ``os.replace``, which is atomic on POSIX and Windows alike.  Returns the
    target path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.parent / f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        temp.write_text(text)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return target


def atomic_write_json(path: str | Path, payload, indent: int | None = 2) -> Path:
    """Serialize ``payload`` as JSON and atomically write it to ``path``.

    The serialization happens *before* the file is touched, so a payload
    that is not JSON-serializable can never corrupt an existing snapshot.
    A trailing newline keeps the files friendly to line-based tools.
    """
    text = json.dumps(payload, indent=indent)
    return atomic_write_text(path, text + "\n")


def append_bytes(path: str | Path, data: bytes) -> Path:
    """Append ``data`` to ``path`` with a single ``os.write``.

    The descriptor is opened ``O_APPEND``, so concurrent appenders — worker
    *processes* sharing one fabric journal, not just threads — interleave at
    write granularity on POSIX instead of tearing each other's records.  A
    writer killed mid-call can leave at most one torn trailing line, which
    :func:`read_ndjson` tolerates by design.  The parent directory is
    created on the first append that needs it.
    """
    target = Path(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(target, flags, 0o644)
    except FileNotFoundError:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(target, flags, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)
    return target


def append_ndjson(path: str | Path, payload) -> Path:
    """Append one JSON object as a single NDJSON line to ``path``.

    The line is serialized first and written by :func:`append_bytes`.
    """
    return append_bytes(path, (json.dumps(payload) + "\n").encode())


def read_ndjson(path: str | Path) -> list:
    """Parse an NDJSON file, skipping a torn (crash-truncated) final line.

    Only the *last* line may be unparsable — that is the append-crash
    signature.  A bad line anywhere else is real corruption and raises.
    """
    target = Path(path)
    if not target.exists():
        return []
    lines = target.read_text().splitlines()
    records = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn tail from a writer killed mid-append
            raise
    return records
