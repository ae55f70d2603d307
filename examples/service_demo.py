"""Allocation service demo: concurrent REAP solving over HTTP.

Serving allocations
-------------------
The paper frames REAP as a runtime service devices consult for their next
energy-optimal hour; :mod:`repro.service` is that service.  This demo boots
the stdlib JSON-over-HTTP server on an ephemeral port (the same thing
``python -m repro serve`` runs; batched solves run inline on its event
loop), then plays a device fleet against it:

1. a **burst** of concurrent allocation requests with distinct budgets --
   the micro-batcher coalesces them into a handful of vectorized
   :class:`~repro.core.batch.BatchAllocator` solves instead of one scalar
   LP per request;
2. a **repeat wave** re-asking the same questions -- every answer now comes
   straight from the LRU result cache (the canonical problem encoding is
   permutation-invariant, so equivalent requests share entries);
3. a ``GET /v1/stats`` call showing the cache hit rate, how many batches the
   coalescer dispatched and how long the event loop spent solving them,
   and the solve latency profile.

Remote campaigns
----------------
With ``--campaign``, the demo also submits a whole fleet study over HTTP
(``POST /v1/campaign``), polls ``GET /v1/campaign/<id>`` until the service's
process workers finish it, streams the full per-period columns back as
chunked NDJSON (``GET /v1/campaign/<id>/columns``), and rebuilds the
:class:`~repro.simulation.fleet.FleetResult` client-side -- equal to a
local :class:`~repro.simulation.fleet.FleetCampaign` run to 1e-9.  The
same flow from the shell::

    python -m repro serve --campaign-workers 2 --port 8734 &
    python -m repro fleet --remote 127.0.0.1:8734 --hours 48
    python -m repro.service.client --port 8734 campaign run --hours 48

With ``--binary`` the columns come back as the length-prefixed binary
columnar frames instead (``GET /v1/campaign/<id>/columns?format=binary``,
~5x smaller at float64, ~8x at float32) -- same decoded result.  Add
``codec=raw`` to the query (``--codec raw`` on the client CLI) and the
server streams the frames uncompressed, as zero-copy ``memoryview``
slices over the result arrays -- more bytes on the wire, no deflate pass.

All of this speaks the versioned **/v1 API** (``docs/service_api.md``):
every error is a uniform envelope ``{"error": {"code", "message",
"detail"}}`` with stable codes (``bad_request``, ``job_running``,
``not_found``, ``store_unavailable``, ...), campaign jobs move through an
explicit ``queued -> running -> done | failed | cancelled`` lifecycle,
and ``POST /v1/campaign`` honours an ``Idempotency-Key`` header so a
retried submission returns the original job instead of a duplicate run.
Every route lives under ``/v1``; any other path answers 404.

Kill-and-recover: the durable store
-----------------------------------
With ``--durable``, the demo stops being polite.  It boots a real
``python -m repro serve --store jobs.db`` subprocess, submits a campaign
(with an idempotency key), waits until the write-ahead journal holds at
least one finished shard, and **SIGKILLs the server mid-campaign** -- no
shutdown hooks, no flush.  Then it restarts a server on the same store
path and watches recovery: the campaign id still answers (the submit ack
was persist-then-ack), the job re-runs only the shards the journal is
missing, replaying the idempotency key returns the same job id, and the
finished columns stream back bit-exact.  The same walkthrough from the
shell::

    python -m repro serve --port 8734 --store jobs.db &
    python -m repro.service.client campaign submit --hours 336 \
        --idempotency-key nightly-1          # -> {"campaign_id": "c1", ...}
    kill -9 %1                               # mid-campaign, no mercy
    python -m repro serve --port 8734 --store jobs.db &
    python -m repro.service.client campaign status c1   # recovering -> done
    python -m repro.service.client campaign columns c1  # full columns

``--procs N`` scales the same recipe horizontally: N server processes
share one port via ``SO_REUSEPORT``, coordinate *only* through the store
(advisory job leases -- two front-ends never run the same shard), and
any process answers ``GET /v1/campaign/<id>`` for any job.

Sharded campaigns
-----------------
A campaign on ``--campaign-workers N`` process workers runs as one shard
per worker: a block of contiguous scenarios x policies that one lockstep
scan simulates.  The shards move their data over the executor pipe by
pickle and reproduce the single-process run to 1e-9 -- including
sampled-mode RNG streams, bit for bit.  The campaign context (trace,
config, policies) is pickled once per campaign and unpickled once per
worker, not once per task.  ``python -m repro fleet`` always runs the
grid in one process, as one scan.

Observing the service
---------------------
Everything the service does is observable without third-party tooling
(:mod:`repro.obs`):

* **Metrics.**  ``GET /v1/metrics`` renders the Prometheus text exposition:
  request counters by endpoint and status, cache/batcher/pool counters,
  log2-bucketed latency histograms per endpoint, per-phase campaign
  timings (``repro_campaign_phase_seconds``), and SLO burn rates.  The
  demo scrapes it and prints a few headline series; in production, point
  a Prometheus scraper at it.  ``python -m repro.service.client metrics``
  does the same from the shell, and plain ``... client stats`` prints a
  human summary (hit rate, coalescing ratio, p50/p95/p99 per endpoint).
* **Traces.**  Every request carries a W3C ``traceparent`` (the client
  generates one per call, or pins one via ``traceparent=`` /
  ``--traceparent``).  The server opens an ``http.request`` span, the
  micro-batcher records one ``batcher.solve`` span per coalesced burst,
  and campaign process workers ship ``campaign.shard`` spans back over
  the executor pipe -- one trace id follows the request across threads
  *and* processes.  ``GET
  /v1/trace/<id>`` returns the recorded spans; the demo follows one below.
  ``python -m repro serve --log-format json`` additionally emits every
  span and request log as one JSON object per line, trace ids included.
* **SLOs.**  ``--slo-ms allocate=5,campaign=500`` (on ``repro serve`` or
  ``AllocationService(slo_ms=...)``) sets per-endpoint latency
  objectives; ``/metrics`` and ``/stats`` then carry good/bad counts and
  5m/1h error-budget burn rates (burn 1.0 = spending budget exactly at
  the sustainable rate).
* **Campaign profiles.**  Finished campaigns report per-phase wall-clock
  timings (harvest, scan settle, cell solves, merge) on the
  status payload; ``python -m repro fleet --profile`` writes the same
  breakdown for local runs.

Kernels
-------
Every solve and every campaign scan runs the one production kernel path
of :mod:`repro.core.kernels`: the LP optimum read off its value hull, and
the closed-loop battery recurrence stepped per device.  The kernels jit
with Numba when it is installed and fall back to NumPy and plain Python
when it is not; each picks its variant from the fleet width or grid size,
so there is nothing to configure.  The candidate-vertex enumeration and
the per-period settle loop remain as the oracles the kernels are tested
against, to 1e-9.

Run with:  python examples/service_demo.py [--requests N] [--window-ms W]
           [--campaign] [--binary] [--campaign-workers N] [--durable]
"""

from __future__ import annotations

import argparse
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.analysis import format_table
from repro.service import AllocationRequest, AllocationService, CampaignRequest
from repro.service.client import AllocationClient
from repro.service.server import start_in_thread


def run_remote_campaign(client: AllocationClient, binary: bool = False) -> None:
    """Submit a 48-hour fleet study over HTTP and stream the columns back."""
    request = CampaignRequest(hours=48, alphas=(1.0,), baselines=("DP1",))
    submitted = client.submit_campaign(request)
    print(f"\nCampaign {submitted.campaign_id} submitted "
          f"({submitted.cells} cells); polling...")
    status = client.wait_for_campaign(submitted.campaign_id)
    fleet = client.campaign_result(submitted.campaign_id, binary=binary)
    wire = "binary columnar frames" if binary else "chunked NDJSON"
    rows = [
        [cell["policy"], cell["alpha"], cell["mean_objective"],
         cell["active_hours"], cell["recognition_rate"] * 100.0]
        for cell in fleet.cell_summaries()
    ]
    print(format_table(
        ["policy", "alpha", "mean_objective", "active_hours", "recognition_%"],
        rows,
        title=(
            f"Remote campaign {status.campaign_id}: {fleet.num_cells} cells "
            f"over {fleet.trace_hours} hours, streamed back as {wire}"
        ),
    ))
    if status.profile:
        breakdown = ", ".join(
            f"{phase} {seconds * 1000.0:.1f}ms"
            for phase, seconds in status.profile.items()
        )
        print(f"phase profile: {breakdown}")


def _start_server(state_dir: str, store: str) -> tuple:
    """One real ``repro serve --store`` subprocess; returns (proc, port)."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__
    )))
    port_file = os.path.join(state_dir, f"port-{time.monotonic_ns()}")
    log_path = os.path.join(state_dir, f"serve-{time.monotonic_ns()}.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", port_file, "--store", store,
             "--campaign-workers", "2"],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return proc, int(text)
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"server died; see {log_path}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server never wrote its port file")


def _journaled_shards(store: str) -> int:
    try:
        connection = sqlite3.connect(store, timeout=1.0)
        try:
            return connection.execute(
                "SELECT COUNT(*) FROM journal WHERE kind = 'shard_done'"
            ).fetchone()[0]
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def run_durable_walkthrough() -> None:
    """SIGKILL a serving process mid-campaign and watch it recover."""
    request = CampaignRequest(
        hours=200, alphas=(0.5, 1.0), baselines=("DP1", "DP3")
    )
    with tempfile.TemporaryDirectory(prefix="service-demo-") as state_dir:
        store = os.path.join(state_dir, "jobs.db")

        print("\n--- kill-and-recover walkthrough "
              f"({request.num_cells} cells, {request.hours} hours) ---")
        proc, port = _start_server(state_dir, store)
        client = AllocationClient(port=port, timeout_s=120.0)
        submitted = client.submit_campaign(
            request, idempotency_key="demo-durable-1"
        )
        print(f"submitted {submitted.campaign_id} "
              f"(status {submitted.status}, journaled before the ack)")

        # Let the journal accumulate at least one finished shard, then
        # SIGKILL: no shutdown hooks, no flush, nothing graceful.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and _journaled_shards(store) < 1:
            time.sleep(0.02)
        shards = _journaled_shards(store)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=15)
        print(f"SIGKILLed the server with {shards} shard record(s) "
              "in the write-ahead journal")

        proc, port = _start_server(state_dir, store)
        try:
            client = AllocationClient(port=port, timeout_s=120.0)
            # Persist-then-ack means the id survives; replaying the
            # idempotency key finds the original job, not a duplicate.
            replay = client.submit_campaign(
                request, idempotency_key="demo-durable-1"
            )
            assert replay.campaign_id == submitted.campaign_id
            print(f"restarted on the same --store: {replay.campaign_id} "
                  f"is {replay.status} (idempotent replay, no duplicate run)")
            status = client.wait_for_campaign(replay.campaign_id)
            fleet = client.campaign_result(replay.campaign_id)
            total = _journaled_shards(store)
            print(f"recovered to {status.status}: re-ran only the missing "
                  f"shards ({total} journal records total), "
                  f"{fleet.num_cells} cells stream back bit-exact")
        finally:
            proc.terminate()
            proc.wait(timeout=15)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=64,
                        help="size of the concurrent request burst")
    parser.add_argument("--window-ms", type=float, default=2.0,
                        help="micro-batching window in milliseconds")
    parser.add_argument("--alphas", type=float, nargs="+", default=[1.0, 2.0],
                        help="alpha values mixed into the burst")
    parser.add_argument("--campaign", action="store_true",
                        help="also run a fleet campaign over HTTP and "
                             "stream its columns back")
    parser.add_argument("--binary", action="store_true",
                        help="stream the campaign columns as binary "
                             "columnar frames instead of NDJSON")
    parser.add_argument("--campaign-workers", type=int, default=1,
                        help="process workers for --campaign fleet studies "
                             "(N > 1 runs one block of the grid per worker)")
    parser.add_argument("--durable", action="store_true",
                        help="also run the kill-and-recover walkthrough: "
                             "SIGKILL a --store server mid-campaign and "
                             "watch the restart finish the job")
    args = parser.parse_args()

    service = AllocationService(
        window_s=args.window_ms / 1000.0,
        campaign_workers=args.campaign_workers,
    )
    with start_in_thread(service) as server:
        print(f"Allocation service listening on {server.base_url}")
        client = AllocationClient(port=server.port)

        budgets = np.linspace(0.2, 9.9, args.requests)
        burst = [
            AllocationRequest(energy_budget_j=float(budget), alpha=alpha)
            for index, budget in enumerate(budgets)
            for alpha in (args.alphas[index % len(args.alphas)],)
        ]

        # Wave 1: all cache misses; the server coalesces the burst.
        first = client.allocate_batch(burst)
        # Wave 2: identical questions; all answers come from the cache.
        second = client.allocate_batch(burst)

        rows = []
        for request, early, late in zip(burst[:8], first[:8], second[:8]):
            rows.append([
                request.energy_budget_j,
                request.alpha,
                early.objective,
                early.batch_size,
                "yes" if late.cache_hit else "no",
            ])
        print()
        print(format_table(
            ["budget_J", "alpha", "objective", "batch_size", "repeat_cached"],
            rows,
            title=f"First {len(rows)} of {len(burst)} served allocations",
        ))

        stats = client.stats()
        cache, batcher, latency = (
            stats["cache"], stats["batcher"], stats["latency"],
        )
        print()
        print(
            f"cache: {cache['hits']} hits / {cache['lookups']} lookups "
            f"(hit rate {cache['hit_rate']:.0%}), "
            f"{cache['entries']} entries"
        )
        print(
            f"batcher: {batcher['requests']} solves in {batcher['batches']} "
            f"batches (largest {batcher['largest_batch']}, "
            f"mean {batcher['mean_batch_size']:.1f} per dispatch), "
            f"{batcher['busy_ms']:.2f} ms busy on the event loop "
            f"(worst batch {batcher['max_solve_ms']:.2f} ms)"
        )
        print(
            f"latency: mean {latency['mean_ms']:.2f} ms, "
            f"max {latency['max_ms']:.2f} ms per served solve"
        )

        endpoints = stats["endpoints"]
        print("per-endpoint latency (log-bucketed histograms):")
        for endpoint, histogram in endpoints.items():
            print(
                f"  {endpoint}: {histogram['count']} requests, "
                f"p50 {histogram['p50_ms']:.2f} ms / "
                f"p95 {histogram['p95_ms']:.2f} ms / "
                f"p99 {histogram['p99_ms']:.2f} ms"
            )

        cached = sum(1 for response in second if response.cache_hit)
        print(
            f"\nRepeat wave: {cached}/{len(second)} answers served from the "
            "LRU cache without touching the engine"
        )

        # --- Observing the service: follow one trace, scrape /metrics ---
        traced = AllocationClient(port=server.port)
        traced.allocate(
            AllocationRequest(energy_budget_j=11.313, alpha=1.0)
        )
        spans = traced.trace(traced.last_trace_id)["spans"]
        print(f"\nTrace {traced.last_trace_id} ({len(spans)} spans):")
        for span in spans:
            parent = span.get("parent_span_id") or "-"
            print(
                f"  {span['name']:<16} span={span['span_id']} "
                f"parent={parent} {span['duration_ms']:.2f} ms"
            )

        metrics_lines = [
            line
            for line in client.metrics_text().splitlines()
            if line.startswith(
                ("repro_requests_total", "repro_slo_burn_rate",
                 "repro_cache_lookups_total")
            )
        ]
        print("\nGET /metrics (headline series):")
        for line in metrics_lines:
            print(f"  {line}")

        slo = client.stats()["slo"]
        for key, objective in sorted(slo["objectives"].items()):
            if not objective["total"]:
                continue
            print(
                f"SLO {key}: {objective['good']}/{objective['total']} under "
                f"{objective['threshold_ms']:g} ms, burn 5m "
                f"{objective['burn_rate_5m']:.2f} / 1h "
                f"{objective['burn_rate_1h']:.2f}"
            )

        if args.campaign:
            run_remote_campaign(client, binary=args.binary)

    if args.durable:
        run_durable_walkthrough()


if __name__ == "__main__":
    main()
