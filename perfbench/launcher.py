"""Traced server: ``repro serve`` with probes around each layer's public calls.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py [repro serve options...]

It times ``import repro.cli``, wraps the functions below in this process,
then hands over to ``repro.cli.main(["serve", ...])``.  Each line written
to its standard input names a file; the launcher writes the probe totals
there as JSON (see :func:`probes.serve_snapshots`).

Probe names, by layer:

- ``server.import``: ``import repro.cli``.
- ``server.request:<endpoint>``: the seconds the HTTP layer passes to
  ``AllocationService.observe_request``; ``server.http:<endpoint>`` is
  what is left of them after the ``AllocationService`` call and the
  ``requests`` codecs of the same request.
- ``server.allocate``: ``AllocationService.allocate`` and
  ``allocate_many``.
- ``requests.decode`` / ``requests.encode``: ``AllocationRequest.from_json_dict``
  and ``AllocationResponse.to_json_dict``.
- ``cache.get`` / ``cache.hit``: ``AllocationCache.get`` calls, and those
  returning an entry.
- ``batcher.call`` / ``batcher.wait``: ``MicroBatcher.solve`` and
  ``solve_bulk``, and their time outside the ``solve_batch`` that served
  them; ``batcher.solve_batch`` / ``batcher.items``: ``solve_batch`` calls
  and the requests they carried.
- ``core.batch.solve``: ``BatchAllocator.solve_arrays`` and ``solve_grid``.
- ``pool.run_campaign``: ``WorkerPool.run_campaign``.
- ``fleet.columns_encode``: producing the ``FleetResult.to_binary_frames``
  stream.
- ``store.journal``: ``CampaignStore.submit/start/shard_done/finish``;
  ``store.lease``: ``acquire_lease/renew_lease/release_lease/is_cancelled``.
- ``obs.spans``: ``tracing.span`` and ``tracing.record_span`` calls;
  ``obs.publish``: ``AllocationService.publish_observability``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List

import probes


def install(recorder: probes.Recorder) -> None:
    """Wrap the server-side layer functions with probes."""
    from repro.core.batch import BatchAllocator
    from repro.obs import tracing
    from repro.service import batcher as batcher_module
    from repro.service.batcher import MicroBatcher
    from repro.service.cache import AllocationCache
    from repro.service.pool import WorkerPool
    from repro.service.requests import AllocationRequest, AllocationResponse
    from repro.service.server import AllocationService
    from repro.service.store import CampaignStore
    from repro.simulation.fleet import FleetResult

    timed = probes.timed

    def observe_request(fn):
        def wrapper(self, endpoint, seconds, status):
            end = time.perf_counter()
            parts = probes.request_parts()
            recorder.add(f"server.request:{endpoint}", seconds)
            recorder.add(
                f"server.http:{endpoint}",
                probes.self_time(end - seconds, end, parts),
            )
            parts.clear()
            return fn(self, endpoint, seconds, status)

        return wrapper

    probes.patch(AllocationService, "observe_request", observe_request)
    for name in ("allocate", "allocate_many"):
        probes.patch(
            AllocationService, name, timed(recorder, "server.allocate", in_request=True)
        )
    probes.patch(
        AllocationRequest, "from_json_dict",
        timed(recorder, "requests.decode", in_request=True),
    )
    probes.patch(
        AllocationResponse, "to_json_dict",
        timed(recorder, "requests.encode", in_request=True),
    )

    def cache_get(fn):
        def wrapper(self, key):
            value = fn(self, key)
            recorder.add("cache.get")
            if value is not None:
                recorder.add("cache.hit")
            return value

        return wrapper

    probes.patch(AllocationCache, "get", cache_get)

    # solve_batch runs on the batcher's flush task, whose context is copied
    # from whichever request armed the timer, so it must not touch the
    # per-request parts.  It leaves its interval under each request it
    # served; MicroBatcher.solve/solve_bulk pick theirs up when they return.
    served: Dict[int, probes.Interval] = {}

    def record_served(start, end, args, _result):
        recorder.add("batcher.items", calls=len(args[0]))
        for request in args[0]:
            served[id(request)] = (start, end)

    probes.patch(
        batcher_module, "solve_batch",
        timed(recorder, "batcher.solve_batch", on_done=record_served),
    )

    def record_wait(start, end, args, _result):
        burst = args[1] if isinstance(args[1], (list, tuple)) else [args[1]]
        intervals = {served.pop(id(request), None) for request in burst}
        intervals.discard(None)
        recorder.add("batcher.wait", probes.self_time(start, end, intervals))

    for name in ("solve", "solve_bulk"):
        probes.patch(
            MicroBatcher, name, timed(recorder, "batcher.call", on_done=record_wait)
        )
    for name in ("solve_arrays", "solve_grid"):
        probes.patch(BatchAllocator, name, timed(recorder, "core.batch.solve"))
    probes.patch(WorkerPool, "run_campaign", timed(recorder, "pool.run_campaign"))
    probes.patch(
        FleetResult, "to_binary_frames",
        probes.timed_iteration(recorder, "fleet.columns_encode"),
    )
    for name in ("submit", "start", "shard_done", "finish"):
        probes.patch(CampaignStore, name, timed(recorder, "store.journal"))
    for name in ("acquire_lease", "renew_lease", "release_lease", "is_cancelled"):
        probes.patch(CampaignStore, name, timed(recorder, "store.lease"))
    for name in ("span", "record_span"):
        probes.patch(tracing, name, probes.counted(recorder, "obs.spans"))
    probes.patch(
        AllocationService, "publish_observability", timed(recorder, "obs.publish")
    )


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    recorder = probes.Recorder()
    recorder.add("server.import", import_s)
    install(recorder)
    threading.Thread(
        target=probes.serve_snapshots,
        args=(recorder, probes.read_lines(sys.stdin.fileno())),
        name="perfbench-snapshots",
        daemon=True,
    ).start()
    return repro.cli.main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
