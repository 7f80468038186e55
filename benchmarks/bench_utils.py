"""Shared helpers of the paper-figure checks and the benchmark scripts.

Every ``test_fig*``/``test_table*`` module regenerates one table or figure of
the paper and hands its text to :func:`check_figure`, which compares the
deterministic part (latencies, speedups, objective terms, sample and
evaluation counts) exactly against the committed
``benchmarks/results/<name>.txt``.  Wall-clock columns are kept out of that
text: the tests print them and nothing writes them.  After an intended
change, regenerate the files with ``REGEN_GOLDEN=1`` and explain the new
numbers in ``CHANGES.md``.

Set ``REPRO_FULL_EVAL=1`` to run the full paper-sized sweeps (all layers of
all four networks, larger baseline search budgets); the committed files hold
the default quick sizes, so a full run prints its reports without checking
them.
"""

from __future__ import annotations

import argparse
import difflib
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Tolerance of the scalar-vs-batched parity audits of the throughput
#: benchmarks (packing and delta previews are compared exactly instead).
PARITY_TOLERANCE = 1e-9


def full_evaluation() -> bool:
    """True when the user requested the full paper-sized sweep."""
    return os.environ.get("REPRO_FULL_EVAL", "0") == "1"


def layers_per_network(quick_default: int) -> int | None:
    """Layer-count limit per network (None = every layer, used in full mode)."""
    return None if full_evaluation() else quick_default


def check_figure(name: str, text: str) -> None:
    """Print a figure's report and check it against ``results/<name>.txt``.

    ``text`` is the deterministic report and must equal the committed file
    exactly.  With ``REGEN_GOLDEN`` set the file is rewritten instead; in
    full-evaluation mode nothing is compared or written.
    """
    print()
    print(text)
    if full_evaluation():
        return
    path = RESULTS_DIR / f"{name}.txt"
    observed = text + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(observed)
        return
    committed = path.read_text() if path.exists() else ""
    if observed != committed:
        diff = "".join(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                observed.splitlines(keepends=True),
                fromfile=f"{path} (committed)",
                tofile="observed",
            )
        )
        raise AssertionError(
            f"{path} no longer matches the regenerated figure; if the change is "
            f"intended, rerun with REGEN_GOLDEN=1 and explain it in CHANGES.md\n{diff}"
        )


def positive_int(value: str) -> int:
    """argparse type for count options: reject zero and negatives."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number
