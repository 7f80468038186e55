"""End-to-end benchmark of the CoSA reproduction.

    python3 e2ebench/run.py --workload cosa-mip --seed 1 --seconds 24 --trace 0

Runs one workload (``cosa-mip``, ``search-eval`` or ``serve-store``, see
``e2ebench/README.md``) from the root of a checkout.  Set-up is measured in
several fresh processes (``--setup-only``) plus the measuring one, and
reported as their median.  Every job's answer is checked against the scalar
cost model.  Gated times are CPU seconds; wall-clock figures are printed
beside them.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exits non-zero without a result when the program under test is missing or a
process fails.  All scratch files live under ``.e2ebench_tmp/`` in the
checkout and are removed on exit; traced runs keep their spans under
``.e2ebench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only processes started before the measuring one.
SETUP_PROBES = 4
#: Hard limit on one child process.
CHILD_TIMEOUT_S = 150.0

def load_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, workdir: Path, setup_only: bool) -> tuple[float, float, dict | None]:
    """Start one child; return its set-up CPU and wall seconds and (unless
    set-up only) its result."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    setup = setup_wall = None
    result = None
    try:
        for line in process.stdout:
            if line.startswith("READY ") and setup is None:
                setup_wall = time.perf_counter() - started
                setup = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        code = process.wait()
    if code != 0 or setup is None or (not setup_only and result is None):
        raise ChildError(f"child process failed (exit code {code})")
    return setup, setup_wall, result


def summarize(args, setups: list[tuple], report: dict, units: dict, layer_units: dict) -> None:
    """Human-readable lines before the JSON result."""
    main = report["untraced"] if args.trace else report
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  composition: {json.dumps(main['composition'])}")
    if main["notes"]:
        print(f"  notes: {json.dumps(main['notes'])}")
    print(f"  setup samples, cpu s: {', '.join(f'{cpu:.3f}' for cpu, _ in setups)}; "
          f"wall s: {', '.join(f'{wall:.3f}' for _, wall in setups)}")
    for name, unit in units.items():
        print(f"  {name} = {main['metrics'][name]:.6g} {unit}")
    wall = main["wall"]
    print(f"  wall clock: layers_per_s = {wall['layers_per_s']:.6g} 1/s, "
          f"jobs_per_s = {wall['jobs_per_s']:.6g} 1/s, "
          f"job_p50_s = {wall['job_p50_s']:.6g} s over n={main['samples']} jobs")
    if wall["job_tail_s"]:
        value, pct, n = wall["job_tail_s"]
        print(f"  wall clock: job_tail_s = {value:.6g} s (p{pct:g}, n={n})")
    else:
        print(f"  wall clock: job_tail_s not reported "
              f"(n={main['samples']} supports no percentile above the median)")
    print(f"  process cpu_s {main['cpu_s']:.3f} over wall_s {main['wall_s']:.3f}")
    if args.trace:
        for name, unit in layer_units.items():
            print(f"  {name} = {report['per_layer'][name]:.6g} {unit}")
    for error, count in main["errors"].items():
        print(f"  FAILED x{count}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cosa-mip", "search-eval", "serve-store"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({ROOT / 'src' / 'repro'}) is missing", file=sys.stderr)
        return 2
    units, layer_units = load_metrics()
    scratch = ROOT / ".e2ebench_tmp"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for probe in range(SETUP_PROBES):
            (workdir / f"probe-{probe}").mkdir(parents=True)
            setups.append(run_child(args, workdir / f"probe-{probe}", setup_only=True)[:2])
        (workdir / "main").mkdir(parents=True)
        *setup, report = run_child(args, workdir / "main", setup_only=False)
        setups.append(tuple(setup))
    except ChildError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    setup_median = statistics.median(cpu for cpu, _ in setups)
    (report["untraced"] if args.trace else report)["metrics"]["setup_s"] = setup_median
    summarize(args, setups, report, units, layer_units)
    if args.trace:
        attempted = report["untraced"]["attempted"] + report["traced"]["attempted"]
        failed = report["untraced"]["failed"] + report["traced"]["failed"]
        values, units = report["per_layer"], layer_units
    else:
        attempted, failed, values = report["attempted"], report["failed"], report["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
