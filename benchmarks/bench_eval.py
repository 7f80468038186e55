#!/usr/bin/env python
"""Benchmark: scalar vs vectorized vs delta mapping evaluation.

For each ResNet-50 conv layer (plus transformer-style tensor problems), draw
a fixed set of random candidates and time three evaluation pipelines over
the identical candidates — see :mod:`repro.benchmarking` for the measurement
recipe and the built-in parity audits.  The per-layer throughput, speedups
and cross-layer geomeans are printed as a table and written (atomically) to
``BENCH_eval.json`` (default under ``benchmarks/results/``) so the speedups
are tracked across PRs::

    python benchmarks/bench_eval.py                  # full sweep (23 layers)
    python benchmarks/bench_eval.py --quick          # 6-layer subset
    python benchmarks/bench_eval.py --check 16       # exit 1 below 16x vectorized geomean
    python benchmarks/bench_eval.py --check 16 --check-delta 3
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):  # running as a script: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchmarking import (
    bench_report,
    check_report,
    preset_layers,
    render_row,
    render_summary,
)
from repro.io_utils import atomic_write_json

DEFAULT_OUT = Path(__file__).resolve().parent / "results" / "BENCH_eval.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="6-layer subset, fewer samples")
    parser.add_argument("--samples", type=int, default=None, help="candidates per layer")
    parser.add_argument("--moves", type=int, default=96, help="delta moves timed per layer")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON report path")
    parser.add_argument(
        "--check", type=float, default=None, metavar="MIN",
        help="exit 1 when the vectorized geomean speedup falls below MIN",
    )
    parser.add_argument(
        "--check-delta", type=float, default=None, metavar="MIN",
        help="exit 1 when the delta-vs-full geomean speedup falls below MIN",
    )
    args = parser.parse_args(argv)

    layers = preset_layers("quick" if args.quick else "resnet50")
    samples = args.samples or (256 if args.quick else 512)

    report = bench_report(
        layers,
        samples,
        args.seed,
        num_moves=args.moves,
        quick=args.quick,
        progress=lambda row: print(render_row(row)),
    )

    atomic_write_json(args.out, report)
    print(f"\n{render_summary(report)} -> {args.out}")

    failures = check_report(
        report,
        check=args.check,
        check_delta=args.check_delta,
    )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
