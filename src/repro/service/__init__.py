"""Allocation service: the engines of PR 1/2 behind a concurrent API.

The ROADMAP's north star frames the REAP allocator as a decision *service*
devices consult at production scale.  This package is that layer:

* :mod:`repro.service.requests` -- typed request/response messages with a
  canonical, hashable problem encoding (permutation-invariant over design
  points, collision-free over budgets/alphas);
* :mod:`repro.service.batcher` -- a micro-batching coalescer that turns
  bursts of concurrent requests into single
  :class:`~repro.core.batch.BatchAllocator` dispatches, solved inline on
  the event loop;
* :mod:`repro.service.cache` -- an LRU result cache keyed by the canonical
  encoding, counting hits, misses and evictions;
* :mod:`repro.service.pool` -- a worker pool running campaign cells on a
  persistent :class:`~concurrent.futures.ProcessPoolExecutor`
  (``repro serve --campaign-workers N``);
* :mod:`repro.service.shard` -- fleet campaign grids split across worker
  processes (cell-wise, or time-wise for open-loop studies) and merged
  exactly;
* :mod:`repro.service.server` / :mod:`repro.service.client` -- a
  stdlib-only asyncio JSON-over-HTTP front-end (``python -m repro serve``)
  with campaign submission/polling/streaming endpoints, and the matching
  blocking client / CLI.
"""

from repro.service.batcher import (
    EngineRegistry,
    MicroBatcher,
    group_requests,
    solve_batch,
    solve_group,
)
from repro.service.cache import AllocationCache
from repro.service.pool import WorkerPool
from repro.service.requests import (
    AllocationRequest,
    AllocationResponse,
    CampaignRequest,
    CampaignResponse,
)
from repro.service.server import (
    AllocationServer,
    AllocationService,
    CampaignJob,
    ServerHandle,
    run_server,
    serve,
    start_in_thread,
)
from repro.service.shard import run_sharded_campaign, shard_cells


def __getattr__(name: str):
    # The client is imported lazily so `python -m repro.service.client` does
    # not see the module pre-imported by this package (runpy warns on that).
    if name in ("AllocationClient", "ServiceError"):
        from repro.service import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AllocationCache",
    "AllocationClient",
    "AllocationRequest",
    "AllocationResponse",
    "AllocationServer",
    "AllocationService",
    "CampaignJob",
    "CampaignRequest",
    "CampaignResponse",
    "EngineRegistry",
    "MicroBatcher",
    "ServerHandle",
    "ServiceError",
    "WorkerPool",
    "group_requests",
    "run_server",
    "run_sharded_campaign",
    "serve",
    "shard_cells",
    "solve_batch",
    "solve_group",
    "start_in_thread",
]
