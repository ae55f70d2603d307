"""Benchmarks of the production kernels (repro.core.kernels).

Three micro-benchmarks cover the kernels every engine runs:

* the value-hull ``BatchAllocator.solve_arrays`` against the candidate
  enumeration it replaced, ``BatchAllocator._solve_arrays_reference``
  (must be >= 1.5x at 1e-9 agreement on objectives),
* the ``BatteryScan`` grant/settle recurrence on a narrow fleet against
  the per-period loop it replaced, ``BatteryScan._run_reference`` (the
  median over alternating timed pairs must be >= 3x, while staying
  bit-exact), and
* the binary columnar stream of ``GET /campaign/<id>/columns`` against
  the same columns as JSON lines (what ``repro.service.client campaign
  columns`` prints) -- the float64 frames must be >= 5x smaller on a
  multi-week campaign and round-trip byte-exactly.

The ``compiled solve`` and ``compiled settle`` rows name the production
path (jitted when Numba is installed); the ``reference`` rows are the
oracles.  Like the other benchmarks, each test prints and persists an
``ExperimentResult`` CSV under ``benchmarks/output/`` so the CI bench
gate (scripts/bench_gate.py) can re-assert the floors.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pytest

from _bench_utils import emit
from repro.analysis.experiments import ExperimentResult
from repro.core import kernels
from repro.core.batch import BatchAllocator, StackedConsumptionCurves
from repro.energy.fleet import BatteryScan
from repro.service.requests import CampaignRequest
from repro.simulation.fleet import FleetCampaign, FleetResult
from repro.simulation.metrics import CampaignColumns

ALPHA = 1.0
SEED = 2019

#: Budget-grid width of the hull-solve benchmark; the hull kernel's edge
#: over candidate enumeration grows with the grid, so keep >= ~20k points.
BENCH_BUDGETS = int(os.environ.get("REPRO_BENCH_KERNEL_BUDGETS", "200000"))
#: Trace length of the battery-scan benchmark (a year of hourly periods
#: by default; the compiled recurrence amortises its setup over periods).
BENCH_PERIODS = int(os.environ.get("REPRO_BENCH_KERNEL_PERIODS", "8760"))
#: Fleet width of the battery-scan benchmark; <= 24 devices stays on the
#: scalar recurrence path that replaces the per-period Python loop.
BENCH_DEVICES = int(os.environ.get("REPRO_BENCH_KERNEL_DEVICES", "8"))
#: Campaign length (hours) of the wire-format benchmark.  The binary
#: advantage grows with the trace (the JSON framing overhead is
#: per-number); keep >= ~2 weeks for a clean >= 5x.
BENCH_COLUMNS_HOURS = int(os.environ.get("REPRO_BENCH_COLUMNS_HOURS", "504"))

REQUIRED_SOLVE_SPEEDUP = 1.5
REQUIRED_SCAN_SPEEDUP = 3.0
#: Alternating (reference, compiled) timed pairs of the battery-scan
#: benchmark; it gates on the median pair ratio, so one noisy run cannot
#: decide it.
SCAN_PAIRS = 10
REQUIRED_SIZE_RATIO = 5.0


@pytest.mark.benchmark(group="kernels")
def test_hull_solve_speedup_over_reference(output_dir, published_points):
    """Production solve_arrays vs the candidate enumeration: >= 1.5x."""
    points = tuple(published_points)
    engine = BatchAllocator(points)
    floor = engine.off_power_w * engine.period_s
    ceiling = max(dp.power_w for dp in points) * engine.period_s * 1.2
    budgets = np.linspace(floor * 0.5, ceiling, BENCH_BUDGETS)
    solves = {
        "reference solve": lambda: engine._solve_arrays_reference(budgets, ALPHA),
        "compiled solve": lambda: engine.solve_arrays(budgets, alpha=ALPHA),
    }

    results, timings = {}, {}
    for label, solve in solves.items():
        results[label] = solve()  # warm-up
        timings[label] = min(_timed(solve)[0] for _ in range(3))

    # Agreement before speed: the hull tracks the enumeration to 1e-9 on
    # the objective (relative to the objective scale).
    base, fast = results["reference solve"], results["compiled solve"]
    scale = float(np.max(np.abs(base.objective)))
    np.testing.assert_array_equal(fast.feasible, base.feasible)
    np.testing.assert_allclose(
        fast.objective, base.objective, rtol=0, atol=1e-9 * max(scale, 1.0)
    )

    reference_s = timings["reference solve"]
    rows = [
        [label, BENCH_BUDGETS, seconds * 1e3, seconds / BENCH_BUDGETS * 1e6,
         reference_s / seconds]
        for label, seconds in timings.items()
    ]
    solve_speedup = reference_s / timings["compiled solve"]

    result = ExperimentResult(
        name=(
            f"Value-hull solve vs candidate enumeration: {BENCH_BUDGETS} "
            f"budgets x {len(points)} design points (alpha={ALPHA:g}, "
            f"numba={'yes' if kernels.numba_ready() else 'no'})"
        ),
        headers=["path", "budgets", "total_ms", "per_solve_us", "speedup_x"],
        rows=rows,
        extras={"speedup": solve_speedup},
    )
    emit(result, output_dir, "kernels_solve.csv")

    assert solve_speedup >= REQUIRED_SOLVE_SPEEDUP, (
        f"hull solve is only {solve_speedup:.2f}x faster than the "
        f"reference (required {REQUIRED_SOLVE_SPEEDUP:g}x)"
    )


@pytest.mark.benchmark(group="kernels")
def test_battery_scan_speedup_over_python_loop(output_dir, published_points):
    """Narrow-fleet settle recurrence: the kernel >= 3x over the period loop."""
    points = tuple(published_points)
    curve = BatchAllocator(points).consumption_curve(alpha=ALPHA)
    curves = StackedConsumptionCurves([curve] * BENCH_DEVICES)
    rng = np.random.default_rng(SEED)
    harvest = rng.uniform(0.0, 4.0, size=(BENCH_PERIODS, BENCH_DEVICES))
    scan = BatteryScan(BENCH_DEVICES, capacity_j=80.0)
    scans = {
        "reference settle": lambda: scan._run_reference(harvest, curves),
        "compiled settle": lambda: scan.run(harvest, curves),
    }

    results = {label: run() for label, run in scans.items()}  # warm-up
    # Alternating pairs (the order flips every pair), so drift on a shared
    # host hits both paths alike.
    runs = {label: [] for label in scans}
    for pair in range(SCAN_PAIRS):
        order = list(scans) if pair % 2 == 0 else list(reversed(scans))
        for label in order:
            runs[label].append(_timed(scans[label])[0])

    # The scalar recurrence replays the reference arithmetic in the same
    # order, so the trajectories must match bit for bit.
    base, fast = results["reference settle"], results["compiled settle"]
    np.testing.assert_array_equal(fast.charge_j, base.charge_j)
    np.testing.assert_array_equal(fast.budgets_j, base.budgets_j)
    np.testing.assert_array_equal(fast.consumed_j, base.consumed_j)
    ratios = [
        reference / compiled
        for reference, compiled in zip(
            runs["reference settle"], runs["compiled settle"]
        )
    ]
    scan_speedup = statistics.median(ratios)
    cells = BENCH_PERIODS * BENCH_DEVICES

    result = ExperimentResult(
        name=(
            f"Battery scan recurrence: {BENCH_PERIODS} periods x "
            f"{BENCH_DEVICES} devices "
            f"(numba={'yes' if kernels.numba_ready() else 'no'}); median "
            f"of {SCAN_PAIRS} alternating pairs (pair ratios "
            f"{min(ratios):.2f}-{max(ratios):.2f})"
        ),
        headers=["path", "device_periods", "total_ms", "per_period_us",
                 "speedup_x"],
        rows=[
            [label, cells, median_s * 1e3, median_s / cells * 1e6, speedup]
            for label, median_s, speedup in (
                ("reference settle",
                 statistics.median(runs["reference settle"]), 1.0),
                ("compiled settle",
                 statistics.median(runs["compiled settle"]), scan_speedup),
            )
        ],
        extras={"speedup": scan_speedup},
    )
    emit(result, output_dir, "kernels_battery.csv")

    assert scan_speedup >= REQUIRED_SCAN_SPEEDUP, (
        f"battery scan kernel is only {scan_speedup:.2f}x faster than the "
        f"per-period loop (median of {SCAN_PAIRS} pairs; required "
        f"{REQUIRED_SCAN_SPEEDUP:g}x)"
    )


@pytest.mark.benchmark(group="kernels")
def test_binary_columns_wire_size(output_dir):
    """Columns wire format: binary f8 frames >= 5x smaller than JSON lines."""
    # The paper's comparison set: REAP at alpha=1 against three static
    # baselines (the mix the service ships in practice).
    request = CampaignRequest(
        hours=BENCH_COLUMNS_HOURS, alphas=(1.0,), baselines=("DP1", "DP3", "DP5")
    )
    scenarios, labels, policies, trace, config = request.build()
    fleet_result = FleetCampaign(scenarios, config, scenario_labels=labels).run(
        policies, trace
    )

    payloads = [fleet_result.meta_payload(), *fleet_result.cell_payloads()]
    # The lines `repro.service.client campaign columns` prints, one JSON
    # line per cell: the bytes the retired NDJSON stream sent.
    json_bytes = sum(
        len((json.dumps(payload) + "\n").encode("utf-8"))
        for payload in payloads
    )
    stream = b"".join(fleet_result.to_binary_frames())

    # The stream and the per-cell codec must both round-trip before the
    # size comparison means anything: byte-exact re-encode.
    decoded = FleetResult.from_binary(stream)
    np.testing.assert_array_equal(
        decoded.result(0).columns.objective_value,
        fleet_result.result(0).columns.objective_value,
    )
    blob = fleet_result.result(0).columns.to_bytes()
    assert CampaignColumns.from_bytes(blob).to_bytes() == blob

    ratio_f8 = json_bytes / len(stream)

    result = ExperimentResult(
        name=(
            f"Campaign columns wire formats: {BENCH_COLUMNS_HOURS}h x "
            f"{len(policies)} policies x {len(scenarios)} scenarios"
        ),
        headers=["wire format", "bytes", "kib", "size_ratio_x"],
        rows=[
            ["json lines", json_bytes, json_bytes / 1024, 1.0],
            ["binary f8 frames", len(stream), len(stream) / 1024, ratio_f8],
        ],
        extras={"speedup": ratio_f8},
    )
    emit(result, output_dir, "columns_wire.csv")

    assert ratio_f8 >= REQUIRED_SIZE_RATIO, (
        f"binary f8 columns are only {ratio_f8:.2f}x smaller than JSON lines "
        f"(required {REQUIRED_SIZE_RATIO:g}x)"
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
