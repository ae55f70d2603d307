"""Metric definitions, percentiles, and the per-layer table of a traced run.

Nothing here imports ``repro``: these functions work on plain numbers, so
the tests feed them synthetic traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from probes import sum_calls, sum_seconds

#: Percentiles the tail metric may use, highest first.
TAIL_CANDIDATES = (99, 95, 90)

#: Samples a tail percentile needs beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End to end: the share of the parent's median a change may lose.
    bound: Optional[float] = None
    #: Per layer: module, what is measured, and the end-to-end metric it
    #: should move (on which workload).
    layer: str = ""
    measured_as: str = ""
    moves: str = ""


#: The timing bounds are wide because the host is: on a shared 2-vCPU VM the
#: speed of a pure-Python loop switches between levels up to ~1.5x apart for
#: seconds to minutes at a time, with no steal time reported, so CPU-bound
#: figures (setup_s most of all) drift by 10-25% between runs minutes apart,
#: while RSS repeats to 0.5%.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           measured_as="spawn of repro serve to its first 200 on GET /v1/healthz, "
                       "median of several cold starts"),
    Metric("peak_rss_mb", "MB", "lower", 0.05,
           measured_as="summed VmHWM of the server and its descendants after the timed phase"),
    Metric("p50_ms", "ms", "lower", 0.25, measured_as="median op latency"),
    Metric("tail_ms", "ms", "lower", 0.25,
           measured_as="the workload's fixed tail percentile of op latency"),
    Metric("work_per_s", "1/s", "higher", 0.25,
           measured_as="allocations (campaign: cells) answered per second"),
)


def _layer(name, unit, better, layer, measured_as, moves):
    return Metric(name, unit, better, layer=layer, measured_as=measured_as, moves=moves)


PER_LAYER = (
    _layer("client.codec_ms", "ms", "lower", "service.client",
           "AllocationRequest.to_json_dict + AllocationResponse.from_json_dict, per op",
           "allocate-batch p50_ms; ~0 on allocate-single"),
    _layer("client.outside_ms", "ms", "lower", "service.client",
           "op latency - server.request_ms (connect, kernel, client HTTP), per op",
           "allocate-single p50_ms; small on allocate-batch"),
    _layer("client.polls", "count", "lower", "service.client",
           "AllocationClient.campaign_status calls per op", "campaign p50_ms"),
    _layer("server.import_ms", "ms", "lower", "service.server",
           "import repro.cli in the launcher", "setup_s on every workload"),
    _layer("server.request_ms", "ms", "lower", "service.server",
           "seconds passed to AllocationService.observe_request, summed over an op's requests",
           "base of the residuals"),
    _layer("server.allocate_ms", "ms", "lower", "service.server",
           "AllocationService.allocate / allocate_many, per op", "allocate-* p50_ms"),
    _layer("server.http_ms", "ms", "lower", "service.server",
           "server.request_ms - the AllocationService call - requests.* codecs, per op",
           "allocate-batch work_per_s; allocate-single p50_ms"),
    _layer("requests.decode_us", "us", "lower", "service.requests",
           "AllocationRequest.from_json_dict, per item", "allocate-batch work_per_s"),
    _layer("requests.encode_us", "us", "lower", "service.requests",
           "AllocationResponse.to_json_dict, per item", "allocate-batch work_per_s"),
    _layer("cache.lookups", "count", "lower", "service.cache",
           "AllocationCache.get calls per op", "allocate-batch p50_ms"),
    _layer("cache.hit_ratio", "ratio", "higher", "service.cache",
           "share of AllocationCache.get calls that return an entry",
           "allocate-batch p50_ms; stays 0 on allocate-single"),
    _layer("batcher.wait_ms", "ms", "lower", "service.batcher",
           "MicroBatcher.solve/solve_bulk time outside the solve_batch that served it, per op",
           "allocate-single p50_ms; allocate-batch p50_ms"),
    _layer("batcher.solve_ms", "ms", "lower", "service.batcher",
           "solve_batch time per call", "allocate-single work_per_s"),
    _layer("batcher.batch_size", "count", "higher", "service.batcher",
           "requests per solve_batch call", "allocate-single work_per_s"),
    _layer("core.batch.solve_us", "us", "lower", "core.batch",
           "BatchAllocator.solve_arrays / solve_grid time per call",
           "allocate-single p50_ms; allocate-batch p50_ms"),
    _layer("core.batch.calls", "count", "lower", "core.batch",
           "BatchAllocator.solve_arrays / solve_grid calls per op (server process)",
           "allocate-single p50_ms"),
    _layer("pool.campaign_ms", "ms", "lower", "service.pool",
           "WorkerPool.run_campaign wall time per op", "campaign p50_ms"),
    _layer("fleet.harvest_ms", "ms", "lower", "simulation.fleet",
           "CampaignResponse.profile harvest, summed across workers, per op",
           "campaign work_per_s"),
    _layer("fleet.scan_settle_ms", "ms", "lower", "simulation.fleet",
           "CampaignResponse.profile scan_settle, summed across workers, per op",
           "campaign work_per_s"),
    _layer("fleet.cell_solve_ms", "ms", "lower", "simulation.fleet",
           "CampaignResponse.profile cell_solve, summed across workers, per op",
           "campaign work_per_s"),
    _layer("fleet.columns_encode_ms", "ms", "lower", "simulation.fleet",
           "producing the FleetResult.to_binary_frames stream in the server, per op",
           "campaign p50_ms"),
    _layer("fleet.columns_decode_ms", "ms", "lower", "simulation.fleet",
           "FleetResult.from_binary in the load generator, per op", "campaign p50_ms"),
    _layer("arena.publish_ms", "ms", "lower", "service.arena",
           "CampaignResponse.profile context_publish, per op",
           "campaign p50_ms and peak_rss_mb"),
    _layer("arena.pack_ms", "ms", "lower", "service.arena",
           "CampaignResponse.profile arena_pack, summed across workers, per op",
           "campaign p50_ms and peak_rss_mb"),
    _layer("arena.attach_ms", "ms", "lower", "service.arena",
           "CampaignResponse.profile arena_attach, per op",
           "campaign p50_ms and peak_rss_mb"),
    _layer("shard.merge_ms", "ms", "lower", "service.shard",
           "CampaignResponse.profile merge, per op", "campaign p50_ms and peak_rss_mb"),
    _layer("store.journal_ms", "ms", "lower", "service.store",
           "CampaignStore.submit/start/shard_done/finish time per op", "campaign p50_ms"),
    _layer("store.records", "count", "lower", "service.store",
           "CampaignStore.submit/start/shard_done/finish calls per op", "campaign p50_ms"),
    _layer("store.lease_ms", "ms", "lower", "service.store",
           "acquire_lease/renew_lease/release_lease/is_cancelled time per op",
           "campaign p50_ms"),
    _layer("obs.spans", "count", "lower", "obs",
           "tracing.span + tracing.record_span calls per op", "allocate-single p50_ms"),
    _layer("obs.publish_ms", "ms", "lower", "obs",
           "AllocationService.publish_observability time per beat", "campaign tail_ms"),
    _layer("trace.ops", "count", "higher", "benchmark",
           "timed ops of the traced phase", "(sample size of this table)"),
    _layer("trace.overhead_ms", "ms", "lower", "benchmark",
           "traced minus untraced p50_ms", "(cost of the probes)"),
)

#: Campaign profile phase -> per-layer metric.
PROFILE_METRICS = {
    "harvest": "fleet.harvest_ms",
    "scan_settle": "fleet.scan_settle_ms",
    "cell_solve": "fleet.cell_solve_ms",
    "context_publish": "arena.publish_ms",
    "arena_pack": "arena.pack_ms",
    "arena_attach": "arena.attach_ms",
    "merge": "shard.merge_ms",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q`` percentile of ``count``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(count: int) -> Optional[int]:
    """Highest candidate percentile with enough samples beyond it, or None."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def layer_values(
    ops: int,
    op_seconds: float,
    endpoints: Sequence[str],
    server: Mapping[str, Sequence[float]],
    server_totals: Mapping[str, Sequence[float]],
    client: Mapping[str, Sequence[float]],
    profiles: Sequence[Mapping[str, float]],
    overhead_ms: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``ops`` timed ops took ``op_seconds`` in all.  ``server`` and
    ``client`` are probe totals accumulated over the timed phase (name ->
    [calls, seconds]); ``server_totals`` are the server's totals since it
    started (for the one-off import time).  ``profiles`` holds each timed
    campaign's ``CampaignResponse.profile``.
    """

    def per_op(value: float) -> float:
        return value / ops

    def per_call(name: str, scale: float) -> float:
        calls, seconds = server.get(name, (0, 0.0))
        return seconds / calls * scale if calls else 0.0

    request_ms = per_op(sum_seconds(server, [f"server.request:{e}" for e in endpoints])) * 1e3
    lookups = sum_calls(server, ["cache.get"])
    batches = sum_calls(server, ["batcher.solve_batch"])
    values = {
        "client.codec_ms": per_op(sum_seconds(client, ["client.codec"])) * 1e3,
        "client.outside_ms": per_op(op_seconds) * 1e3 - request_ms,
        "client.polls": per_op(sum_calls(client, ["client.polls"])),
        "server.import_ms": sum_seconds(server_totals, ["server.import"]) * 1e3,
        "server.request_ms": request_ms,
        "server.allocate_ms": per_op(sum_seconds(server, ["server.allocate"])) * 1e3,
        "server.http_ms": per_op(
            sum_seconds(server, [f"server.http:{e}" for e in endpoints])
        ) * 1e3,
        "requests.decode_us": per_call("requests.decode", 1e6),
        "requests.encode_us": per_call("requests.encode", 1e6),
        "cache.lookups": per_op(lookups),
        "cache.hit_ratio": sum_calls(server, ["cache.hit"]) / lookups if lookups else 0.0,
        "batcher.wait_ms": per_op(sum_seconds(server, ["batcher.wait"])) * 1e3,
        "batcher.solve_ms": per_call("batcher.solve_batch", 1e3),
        "batcher.batch_size": sum_calls(server, ["batcher.items"]) / batches if batches else 0.0,
        "core.batch.solve_us": per_call("core.batch.solve", 1e6),
        "core.batch.calls": per_op(sum_calls(server, ["core.batch.solve"])),
        "pool.campaign_ms": per_op(sum_seconds(server, ["pool.run_campaign"])) * 1e3,
        "fleet.columns_encode_ms": per_op(sum_seconds(server, ["fleet.columns_encode"])) * 1e3,
        "fleet.columns_decode_ms": per_op(sum_seconds(client, ["fleet.columns_decode"])) * 1e3,
        "store.journal_ms": per_op(sum_seconds(server, ["store.journal"])) * 1e3,
        "store.records": per_op(sum_calls(server, ["store.journal"])),
        "store.lease_ms": per_op(sum_seconds(server, ["store.lease"])) * 1e3,
        "obs.spans": per_op(sum_calls(server, ["obs.spans"])),
        "obs.publish_ms": per_call("obs.publish", 1e3),
        "trace.ops": float(ops),
        "trace.overhead_ms": overhead_ms,
    }
    for phase, name in PROFILE_METRICS.items():
        values[name] = sum(profile.get(phase, 0.0) for profile in profiles) / ops * 1e3
    return values


def format_value(value: float) -> str:
    """A number with its significant digits, for the human-readable table."""
    return f"{value:.6g}"


def table(rows: List[Sequence[str]]) -> str:
    """Left-aligned columns."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    )
