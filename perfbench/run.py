"""End-to-end benchmark of a live ``repro serve``, one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload allocate-single --seed 1 --seconds 20 --trace 0

Each run starts fresh ``python -m repro serve`` processes (``src`` on
``PYTHONPATH``), drives one of them closed-loop through the public
``AllocationClient`` from this process, checks every answer afterwards,
and prints every metric by name and unit; the last line of its output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

``--trace 0`` reports the end-to-end metrics (``report.END_TO_END``) with
no probes anywhere, over three fresh servers in turn.  ``--trace 1`` runs
the workload twice, for half of ``--seconds`` each: once on a plain server,
for the untraced median, then on the probed server of ``launcher.py`` with
probes in this process too, and reports the per-layer table
(``report.PER_LAYER``) of that second phase, its op count and the tracing
overhead.

Workloads (see ``workloads.py``): ``allocate-single``, ``allocate-batch``
and ``campaign``.  Scratch files (server logs, stores, port files) live in
``.perfbench-tmp/`` under the checkout and are deleted after the run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import tempfile
from typing import List, Optional

#: Scratch directory, under the checkout.
SCRATCH = ".perfbench-tmp"

WORKLOAD_NAMES = ("allocate-single", "allocate-batch", "campaign")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    checkout = os.getcwd()
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(
            "perfbench: run from the root of a checkout of the program "
            f"(no src/repro in {checkout})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    import measure
    import report
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(
        f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s timed, "
        f"closed loop with {workload.clients} client(s), trace {args.trace}"
    )
    scratch = os.path.join(checkout, SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    segments_before = set(glob.glob("/dev/shm/reap*"))
    run = measure.measure_layers if args.trace else measure.measure_end_to_end
    try:
        metrics, phases, timed = run(workload, checkout, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    errors = [op.error for phase in phases for op in phase.ops if op.error]
    for error in errors[:5]:
        print(f"failed op: {error}")
    attempted = sum(len(phase.ops) for phase in timed)
    failed = sum(phase.failed for phase in timed)
    warmup_failed = sum(phase.failed for phase in phases) - failed
    print(f"ops: {attempted} timed, {failed} failed; warm-up failures: {warmup_failed}")
    leftover = sorted(set(glob.glob("/dev/shm/reap*")) - segments_before)
    print(f"shared-memory segments left behind: {len(leftover)} {' '.join(leftover)}".rstrip())
    definitions = report.PER_LAYER if args.trace else report.END_TO_END
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in definitions
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
