"""Benchmark of the cluster-observability overhead on the serving path.

The cluster scope (``GET /v1/metrics?scope=cluster``) is fed by a
per-process publisher: every beat builds a full registry/SLO/stats
snapshot, upserts it into the shared SQLite store, and drains finished
spans; a cluster scrape then builds this process's snapshot in memory,
reads the other live snapshots back and renders the merged exposition.
The design claim is that none of this touches the request hot path --
publication and merging cost **less than ~5% of allocate-burst
throughput** even when hammered far above the production cadence.

The measurement runs identical allocate bursts (cache-missing requests
through the micro-batcher) against fresh store-backed services in
``OBS_PAIRS`` alternating pairs (the order flips every pair, so drift
hits both variants alike):

- **plain**: no observability activity beyond the always-on counters;
- **with observability**: a background thread publishing a snapshot and
  rendering a full cluster scrape every ~50 ms -- about 40x the
  production publish cadence (one beat per ~2 s).

Every timed run lasts about ``MIN_RUN_S`` (30 hammer periods, room for
20 beats of period plus publish and scrape; the number of burst rounds
is calibrated once, then fixed for every run), so each observed run
spans many beats instead of recording whether one happened to land.
Asserted floor: the **median** of the per-pair ``plain / observed``
wall-time ratios ``>= 0.95``.  Every observed run
must actually have published (snapshot counter > 0) -- the overhead being
measured is the overhead of something demonstrably running.

The CI bench-gate job shrinks the bursts through the
``REPRO_BENCH_OBS_BURST`` knob (see ``scripts/bench_gate.py``); the run
length and the asserted floor are unchanged.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import threading
import time

import pytest

from _bench_utils import emit
from repro.analysis.experiments import ExperimentResult
from repro.service.requests import AllocationRequest
from repro.service.server import AllocationService

#: Requests per burst round.
OBS_BURST = int(os.environ.get("REPRO_BENCH_OBS_BURST", "512"))
#: Alternating plain/observed pairs; the gate reads their median ratio.
OBS_PAIRS = 10
#: Observability-loaded wall time over plain wall time: >= 0.95 keeps
#: snapshot publication + cluster scrapes under ~5% of burst throughput.
REQUIRED_SPEEDUP = 0.95
#: Background publish+scrape period while the burst runs -- far above
#: the production cadence (PUBLISH_INTERVAL_S = 2.0) to measure a bound.
HAMMER_PERIOD_S = 0.05
#: Shortest timed run: 30 hammer periods, room for at least 20 beats.
MIN_RUN_S = 30 * HAMMER_PERIOD_S


def _run_bursts(service: AllocationService, rounds: int) -> float:
    """Time ``rounds`` coalesced bursts of unique (uncached) requests."""
    async def _go() -> None:
        for round_index in range(rounds):
            requests = [
                AllocationRequest(
                    energy_budget_j=0.5
                    + 0.001 * (round_index * OBS_BURST + index),
                    alpha=1.0,
                )
                for index in range(OBS_BURST)
            ]
            await service.allocate_many(requests)

    started = time.perf_counter()
    asyncio.run(_go())
    return time.perf_counter() - started


def _timed_run(tmp_path, label: str, rounds: int, with_obs: bool):
    """One fresh store-backed service, one timed run.

    Returns (seconds, snapshots published): each beat publishes once; its
    cluster scrape builds this process's snapshot in memory and writes
    nothing.
    """
    service = AllocationService(
        store=str(tmp_path / f"obs-{label}.db"), slo_ms={"allocate": 25.0}
    )
    stop = threading.Event()
    hammer = None
    try:
        if with_obs:
            def _publish_and_scrape() -> None:
                while not stop.is_set():
                    service.publish_observability()
                    service.cluster_metrics_text()
                    stop.wait(HAMMER_PERIOD_S)

            hammer = threading.Thread(
                target=_publish_and_scrape, name="obs-hammer", daemon=True
            )
            hammer.start()
        # Every request misses the fresh service's cache, so both
        # variants do the same batcher/solve work.
        elapsed = _run_bursts(service, rounds)
        stop.set()
        if hammer is not None:
            hammer.join(timeout=10.0)
        return elapsed, int(service.store.snapshots_published.value())
    finally:
        stop.set()
        if hammer is not None and hammer.is_alive():
            hammer.join(timeout=10.0)
        service.close()


@pytest.mark.benchmark(group="obs")
def test_observability_overhead_within_bound(output_dir, tmp_path):
    """Allocate-burst throughput: publication + scrapes must cost < ~5%."""
    _timed_run(tmp_path, "warmup", 4, with_obs=False)
    probe_rounds = 16
    probe_s, _ = _timed_run(tmp_path, "calibrate", probe_rounds, with_obs=False)
    rounds = max(probe_rounds, math.ceil(
        MIN_RUN_S * probe_rounds / max(probe_s, 1e-9)
    ))

    plain_runs, obs_runs, published_counts = [], [], []
    for pair in range(OBS_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_obs in order:
            label = f"{'on' if with_obs else 'off'}-{pair}"
            elapsed, published = _timed_run(tmp_path, label, rounds, with_obs)
            if with_obs:
                assert published > 0, "observability hammer never published"
                obs_runs.append(elapsed)
                published_counts.append(published)
            else:
                plain_runs.append(elapsed)

    ratios = [plain / obs for plain, obs in zip(plain_runs, obs_runs)]
    speedup = statistics.median(ratios)
    plain_s = statistics.median(plain_runs)
    obs_s = statistics.median(obs_runs)
    total_requests = OBS_BURST * rounds
    result = ExperimentResult(
        name=(
            f"Cluster observability overhead: {total_requests} uncached "
            f"allocations per run, publish+scrape every "
            f"{HAMMER_PERIOD_S * 1000:.0f} ms; median of {OBS_PAIRS} "
            f"alternating pairs (shortest plain run {min(plain_runs):.2f} s, "
            f"fewest snapshots published {min(published_counts)}, "
            f"pair ratios {min(ratios):.3f}-{max(ratios):.3f})"
        ),
        headers=["path", "wall_s", "requests_per_s", "speedup_vs_plain"],
        rows=[
            [
                "plain burst", round(plain_s, 4),
                round(total_requests / plain_s, 1), 1.0,
            ],
            [
                "with observability", round(obs_s, 4),
                round(total_requests / obs_s, 1), round(speedup, 4),
            ],
        ],
    )
    emit(result, output_dir, "obs_overhead.csv")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"observability slows allocate bursts to {speedup:.3f}x of plain "
        f"(median of {OBS_PAIRS} pairs; need >= {REQUIRED_SPEEDUP}x, i.e. "
        "< ~5% overhead)"
    )
