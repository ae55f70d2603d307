"""Benchmark of the allocation service subsystem (repro.service).

Two measurements back the service's design claims:

1. **Coalesced concurrent solving.**  256 concurrent allocation requests
   (distinct budgets, one alpha) are served through the full service path --
   canonical-key cache lookup, micro-batching coalescer, one vectorized
   :meth:`BatchAllocator.solve_arrays` dispatch -- and timed against the
   sequential baseline of 256 scalar :class:`ReapAllocator` solves.  The
   two paths are timed in ``COALESCED_PAIRS`` alternating pairs (the order
   flips every pair, so drift on a shared host hits both alike); the
   median pair ratio must be at least 10x, and the coalesced path must
   agree with every scalar objective to 1e-9.

2. **Sharded fleet campaigns.**  A multi-week (scenario x policy) closed-
   loop campaign grid is run in one ``FleetCampaign.run`` and on a
   :class:`~repro.service.pool.WorkerPool` of 4 campaign workers (one
   block of scenarios x policies per worker); the merged results must
   agree to 1e-9 on every per-period objective and on the battery
   trajectories (wall times for both are reported -- process start-up
   dominates at this problem size, the guarantee of interest is
   exactness).

The CI bench-gate job shrinks the workloads through the ``REPRO_BENCH_*``
environment knobs (see ``scripts/bench_gate.py``); the asserted floors are
unchanged.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

import numpy as np
import pytest

from _bench_utils import emit
from repro.analysis.experiments import ExperimentResult
from repro.core.allocator import ReapAllocator
from repro.core.problem import ReapProblem
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace
from repro.service import AllocationRequest, AllocationService, WorkerPool
from repro.simulation.fleet import CampaignConfig, FleetCampaign
from repro.simulation.policies import ReapPolicy, StaticPolicy

NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "256"))
ALPHA = 1.0
REQUIRED_SPEEDUP = 10.0
#: Alternating (scalar, coalesced) timed pairs; the gate reads their
#: median ratio, so one noisy run cannot decide it.
COALESCED_PAIRS = 10
SHARD_WORKERS = 4
SHARD_HOURS = int(os.environ.get("REPRO_BENCH_SHARD_HOURS", "336"))


def _serve_concurrently(service: AllocationService, requests):
    """Run the burst through the service on a fresh event loop."""
    return asyncio.run(service.allocate_many(requests))


@pytest.mark.benchmark(group="service")
def test_coalesced_service_speedup_over_sequential_scalar(
    output_dir, published_points
):
    """256 concurrent requests: micro-batched service vs scalar loop, >= 10x."""
    points = tuple(published_points)
    budgets = np.linspace(0.2, 10.4, NUM_REQUESTS)
    requests = [
        AllocationRequest(energy_budget_j=float(budget), alpha=ALPHA)
        for budget in budgets
    ]

    allocator = ReapAllocator()
    base = ReapProblem(points, energy_budget_j=1.0, alpha=ALPHA)

    # Each path's set-up returns the run to time.
    def sequential_scalar():
        # Sequential baseline: one scalar simplex solve per request.
        return lambda: [
            allocator.solve(base.with_budget(float(b))) for b in budgets
        ]

    def coalesced_service():
        # Service path on a fresh service, cold cache: every request is a
        # miss and the burst coalesces inside the batcher window.
        service = AllocationService(
            default_points=points, cache_size=0, window_s=0.001
        )
        return lambda: _serve_concurrently(service, requests)

    paths = {"scalar": sequential_scalar, "service": coalesced_service}
    runs = {label: [] for label in paths}
    answers = {}
    for pair in range(COALESCED_PAIRS):
        order = list(paths) if pair % 2 == 0 else list(reversed(paths))
        for label in order:
            run = paths[label]()
            started = time.perf_counter()
            answers[label] = run()
            runs[label].append(time.perf_counter() - started)
    ratios = [
        scalar_run / service_run
        for scalar_run, service_run in zip(runs["scalar"], runs["service"])
    ]
    speedup = statistics.median(ratios)
    scalar_s = statistics.median(runs["scalar"])
    service_s = statistics.median(runs["service"])

    for response, reference in zip(answers["service"], answers["scalar"]):
        assert abs(response.objective - reference.objective) <= 1e-9

    # Warm cache: the same burst again must be answered without solving.
    warm_service = AllocationService(default_points=points, window_s=0.001)
    _serve_concurrently(warm_service, requests)
    started = time.perf_counter()
    cached = _serve_concurrently(warm_service, requests)
    cached_s = time.perf_counter() - started
    assert all(response.cache_hit for response in cached)

    result = ExperimentResult(
        name=(
            f"Allocation service throughput: {NUM_REQUESTS} concurrent "
            "requests, coalesced vs sequential scalar; median of "
            f"{COALESCED_PAIRS} alternating pairs (pair ratios "
            f"{min(ratios):.2f}-{max(ratios):.2f})"
        ),
        headers=["path", "wall_ms", "requests_per_s", "speedup_vs_scalar"],
        rows=[
            ["sequential scalar", scalar_s * 1e3, NUM_REQUESTS / scalar_s, 1.0],
            ["coalesced service", service_s * 1e3, NUM_REQUESTS / service_s,
             speedup],
            ["warm cache repeat", cached_s * 1e3, NUM_REQUESTS / cached_s,
             scalar_s / cached_s],
        ],
    )
    emit(result, output_dir, "service_throughput.csv")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"coalesced service is only {speedup:.1f}x faster than the "
        f"sequential scalar loop (median of {COALESCED_PAIRS} pairs; need "
        f">= {REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="service")
def test_sharded_campaign_matches_single_process(output_dir, published_points):
    """Fleet campaign on 4 pool workers: exact agreement, wall times reported."""
    points = tuple(published_points)
    trace = SyntheticSolarModel(seed=2015).generate_month(9)
    trace = SolarTrace(trace.hours[:SHARD_HOURS], name=trace.name)
    scenarios = [
        HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
        for factor in (0.032, 0.05)
    ]
    policies = [ReapPolicy(points, alpha=alpha) for alpha in (1.0, 2.0)]
    policies += [StaticPolicy(points, name) for name in ("DP1", "DP3", "DP5")]
    config = CampaignConfig(use_battery=True)

    started = time.perf_counter()
    single = FleetCampaign(scenarios, config).run(policies, trace)
    single_s = time.perf_counter() - started

    started = time.perf_counter()
    with WorkerPool(campaign_workers=SHARD_WORKERS) as pool:
        sharded = pool.run_campaign(scenarios, policies, trace, config)
    sharded_s = time.perf_counter() - started

    for scenario_index, policy_index, cell in sharded:
        reference = single.result(policy_index, scenario_index)
        np.testing.assert_allclose(
            cell.objective_values(), reference.objective_values(), atol=1e-9
        )
        np.testing.assert_allclose(
            cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
        )
        assert abs(
            cell.total_energy_consumed_j - reference.total_energy_consumed_j
        ) <= 1e-9

    result = ExperimentResult(
        name=(
            f"Sharded fleet campaign: {len(scenarios)}x{len(policies)} grid "
            f"over {len(trace)} hours, {SHARD_WORKERS} workers vs 1"
        ),
        headers=["path", "wall_ms", "cells"],
        rows=[
            ["single process", single_s * 1e3, single.num_cells],
            [f"{SHARD_WORKERS} worker processes", sharded_s * 1e3,
             sharded.num_cells],
        ],
    )
    emit(result, output_dir, "service_shard.csv")
