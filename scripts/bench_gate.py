#!/usr/bin/env python3
"""CI perf-regression gate: run the benchmarks, record and assert speedups.

Runs the seven performance benchmarks (batch sweep, fleet campaign,
allocation service, planning scan, kernel backends + wire format, store
journaling overhead, cluster-observability overhead)
on a reduced grid sized for CI runners, collects the wall times and
speedups they emit under ``benchmarks/output/``, re-asserts the speedup
floors, and writes everything to one JSON trajectory file
(``BENCH_PR10.json`` by default) that the workflow uploads as an
artifact.

When a previous PR's trajectory artifact is available (``--baseline
PATH``, or auto-discovered as the highest-numbered other ``BENCH_PR*.json``
in the repo root), each gate's speedup is additionally compared against
the baseline's and the gate fails on a >20% regression -- the absolute
floors catch catastrophic slowdowns, the baseline comparison catches
gradual erosion.

Usage::

    PYTHONPATH=src python scripts/bench_gate.py [--output BENCH_PR10.json]
        [--baseline BENCH_PR5.json]  # previous artifact to compare against
        [--full]   # full-size grids instead of the reduced CI grid
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT_DIR = REPO / "benchmarks" / "output"

BENCH_FILES = [
    "benchmarks/bench_batch_sweep.py",
    "benchmarks/bench_fleet_campaign.py",
    "benchmarks/bench_service.py",
    "benchmarks/bench_planning.py",
    "benchmarks/bench_kernels.py",
    "benchmarks/bench_store.py",
    "benchmarks/bench_obs.py",
]

#: Reduced-grid knobs for CI runners; every floor below still holds at
#: these sizes (checked in-repo on a single-core container).
REDUCED_GRID = {
    "REPRO_BENCH_BUDGETS": "60",
    "REPRO_BENCH_FLEET_HOURS": "336",
    "REPRO_BENCH_SERVICE_REQUESTS": "192",
    "REPRO_BENCH_SHARD_HOURS": "168",
    "REPRO_BENCH_PLANNING_HOURS": "336",
    "REPRO_BENCH_PLANNING_HORIZON": "12",
    "REPRO_BENCH_KERNEL_BUDGETS": "50000",
    "REPRO_BENCH_KERNEL_PERIODS": "4380",
    "REPRO_BENCH_COLUMNS_HOURS": "336",
    "REPRO_BENCH_STORE_HOURS": "336",
    "REPRO_BENCH_OBS_BURST": "256",
}

#: (csv file, row label, speedup column, floor).  The floors mirror the
#: asserts inside the benchmarks; re-checking here keeps the gate honest
#: even if a benchmark's own assert is edited away.
GATES = [
    ("batch_sweep.csv", "batch engine", "speedup_x", 10.0),
    ("fleet_campaign.csv", "fleet engine", "speedup_x", 10.0),
    ("service_throughput.csv", "coalesced service", "speedup_vs_scalar", 10.0),
    ("planning.csv", "plan scan", "speedup_x", 10.0),
    ("kernels_solve.csv", "compiled solve", "speedup_x", 1.5),
    ("kernels_battery.csv", "compiled settle", "speedup_x", 3.0),
    ("columns_wire.csv", "binary f8", "size_ratio_x", 5.0),
    ("store_overhead.csv", "journaled campaign", "speedup_vs_plain", 0.9),
    ("obs_overhead.csv", "with observability", "speedup_vs_plain", 0.95),
]

#: A gate regresses when its speedup drops more than this fraction below
#: the previous artifact's recorded speedup.
REGRESSION_FRACTION = 0.20


def read_csv(path: Path):
    """One CSV as (headers, row dicts keyed by the first column)."""
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    return reader.fieldnames or [], rows


def find_baseline(output: Path):
    """The previous trajectory artifact to compare against, if any.

    Picks the highest-numbered ``BENCH_PR*.json`` in the repo root other
    than this run's output file (artifacts are named per PR, so the
    highest number is the most recent trajectory point).
    """

    def pr_number(path: Path) -> int:
        digits = "".join(ch for ch in path.stem if ch.isdigit())
        return int(digits) if digits else -1

    candidates = [
        path
        for path in REPO.glob("BENCH_PR*.json")
        if path.resolve() != output.resolve()
    ]
    return max(candidates, key=pr_number) if candidates else None


def compare_with_baseline(gated: dict, baseline_path: Path, grid: dict):
    """Per-gate comparison against a previous artifact's speedups.

    Returns (comparison payload, failure strings); a gate fails when its
    speedup fell more than :data:`REGRESSION_FRACTION` below the baseline.
    Gates absent from the baseline (new benchmarks) are recorded but never
    fail -- there is nothing to regress from.  A baseline measured on a
    different grid (``--full`` vs reduced, or different ``REPRO_BENCH_*``
    knobs) is not comparable: speedups scale with the workload, so the
    comparison is skipped rather than reporting phantom regressions.
    """
    baseline = json.loads(baseline_path.read_text())
    baseline_grid = baseline.get("grid", {})
    # Knobs added for benchmarks the baseline predates don't invalidate
    # the comparison -- its gates were measured under the shared knobs,
    # which must be unchanged.
    shared_match = all(
        grid.get(key) == value for key, value in baseline_grid.items()
    ) and bool(baseline_grid) == bool(grid)
    if not shared_match:
        print(
            f"[bench-gate] baseline {baseline_path.name} was measured on a "
            f"different grid ({baseline_grid or 'full'} vs "
            f"{grid or 'full'}); skipping the regression comparison"
        )
        return {
            "path": str(baseline_path),
            "skipped": "grid mismatch",
            "baseline_grid": baseline_grid,
        }, []
    previous_gates = baseline.get("gates", {})
    comparisons = {}
    failures = []
    for name, entry in gated.items():
        previous = previous_gates.get(name)
        if previous is None:
            comparisons[name] = {"baseline": None, "ratio": None,
                                 "regressed": False}
            continue
        before = float(previous["speedup"])
        ratio = entry["speedup"] / before if before > 0 else float("inf")
        regressed = ratio < (1.0 - REGRESSION_FRACTION)
        comparisons[name] = {"baseline": before, "ratio": ratio,
                             "regressed": regressed}
        status = "FAIL" if regressed else "ok"
        print(
            f"[bench-gate] {name}: {entry['speedup']:.2f}x vs baseline "
            f"{before:.2f}x ({ratio:.2f}x ratio) {status}"
        )
        if regressed:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x regressed >"
                f"{REGRESSION_FRACTION:.0%} from baseline {before:.2f}x "
                f"({baseline_path.name})"
            )
    return {"path": str(baseline_path), "comparisons": comparisons}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_PR10.json",
                        help="where to write the JSON trajectory file")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_PR*.json to compare speedups "
                             "against (default: auto-discover in the repo "
                             "root; comparison is skipped when none exists)")
    parser.add_argument("--full", action="store_true",
                        help="run full-size grids (no REPRO_BENCH_* knobs)")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    if not args.full:
        for key, value in REDUCED_GRID.items():
            env.setdefault(key, value)
    python_path = str(REPO / "src")
    if env.get("PYTHONPATH"):
        python_path = python_path + os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = python_path

    # Stale CSVs from earlier (possibly full-grid) runs would be gated on
    # and recorded as this run's numbers; start from a clean slate so the
    # "missing" check below is meaningful.
    if OUTPUT_DIR.exists():
        for stale in OUTPUT_DIR.glob("*.csv"):
            stale.unlink()

    started = time.time()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *BENCH_FILES],
        cwd=REPO,
        env=env,
    )
    wall_s = time.time() - started
    if run.returncode != 0:
        print(f"benchmark run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode

    benchmarks = {}
    for filename in sorted(OUTPUT_DIR.glob("*.csv")):
        headers, rows = read_csv(filename)
        benchmarks[filename.stem] = {"headers": headers, "rows": rows}

    failures = []
    gated = {}
    for filename, label, column, floor in GATES:
        path = OUTPUT_DIR / filename
        if not path.exists():
            failures.append(f"{filename}: missing (benchmark did not emit it)")
            continue
        _, rows = read_csv(path)
        matches = [row for row in rows if label in row[next(iter(row))]]
        if not matches:
            failures.append(f"{filename}: no row matching {label!r}")
            continue
        speedup = float(matches[0][column])
        name = Path(filename).stem
        gated[name] = {"speedup": speedup, "floor": floor,
                       "passed": speedup >= floor}
        status = "ok" if speedup >= floor else "FAIL"
        print(f"[bench-gate] {name}: {speedup:.2f}x (floor {floor:g}x) {status}")
        if speedup < floor:
            failures.append(
                f"{filename}: {label} speedup {speedup:.2f}x < floor {floor:g}x"
            )

    current_grid = {k: env[k] for k in REDUCED_GRID} if not args.full else {}
    baseline_path = (
        Path(args.baseline) if args.baseline else find_baseline(Path(args.output))
    )
    baseline_payload = None
    if baseline_path is not None:
        if not baseline_path.exists():
            failures.append(f"baseline {baseline_path} does not exist")
        else:
            baseline_payload, regressions = compare_with_baseline(
                gated, baseline_path, current_grid
            )
            failures.extend(regressions)
    else:
        print("[bench-gate] no baseline artifact found; floors only")

    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "baseline": baseline_payload,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "reduced_grid": not args.full,
        "grid": current_grid,
        "wall_s": wall_s,
        "gates": gated,
        "benchmarks": benchmarks,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench-gate] trajectory written to {output}")

    if failures:
        for failure in failures:
            print(f"[bench-gate] {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
