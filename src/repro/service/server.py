"""Stdlib-only JSON-over-HTTP front-end of the allocation service.

Architecture (one process, one event loop)::

    HTTP clients ──> asyncio.start_server ──> AllocationService
                                                ├── AllocationCache   (LRU on canonical keys)
                                                ├── MicroBatcher      (coalesces concurrent misses)
                                                └── EngineRegistry    (one BatchAllocator per DP set)

Every connection handler awaits :meth:`AllocationService.allocate`; cache
misses park on the micro-batcher, so *concurrent* requests -- whether they
arrive on separate connections or inside one ``POST /allocate/batch``
payload -- coalesce into a handful of vectorized solves.  Every solve, and
every campaign scan, runs the one kernel path of :mod:`repro.core.kernels`
(jitted when Numba imports); requests do not pick kernels.  The HTTP layer is
a deliberately small HTTP/1.1 subset (one request per connection,
``Content-Length`` bodies, 408 for a request not received within
:data:`REQUEST_READ_TIMEOUT_S`) built on :func:`asyncio.start_server`; no
third-party framework is required, mirroring how long-running energy
services keep their protocol surface auditable.

The service API is versioned: every endpoint lives under ``/v1/...``, any
other path answers 404, and every error body is the uniform envelope
``{"error": {"code", "message", "detail"}}`` with stable machine-readable
codes (``bad_request``, ``job_running``, ``not_found``,
``store_unavailable``, ...).  See ``docs/service_api.md``.

Campaign jobs follow an explicit lifecycle -- ``queued -> running -> done
| failed | cancelled`` -- and, when the service is built with a
:class:`~repro.service.store.CampaignStore` (``repro serve --store
PATH``), every transition is journaled *before* it is acknowledged: a
submitted campaign id survives ``SIGKILL``, a restarted server re-adopts
unfinished jobs (re-running only the shards with no journaled result),
and evicted finished jobs are re-served from disk.  Multiple server
processes can share one port (``--procs N``, ``SO_REUSEPORT``) and
coordinate through the store alone -- see :mod:`repro.service.frontend`.

Endpoints (shown without their ``/v1`` prefix)
----------------------------------------------
``GET /healthz``
    Liveness probe plus deployment facts: status, package version,
    uptime, pid, worker/store configuration.
``GET /stats``
    Cache, batcher, campaign-pool, latency, and SLO counters as JSON.
``GET /metrics``
    The same counters in Prometheus text exposition format (scrapeable),
    including per-endpoint latency histograms, per-phase campaign timing
    histograms, and SLO burn rates -- see :mod:`repro.obs`.
``GET /trace/<trace_id>``
    Recorded spans of one trace (requests carry W3C ``traceparent``
    headers; the server opens a span per request and child spans through
    the batcher and the campaign workers).
``POST /allocate``
    One :class:`~repro.service.requests.AllocationRequest` JSON body ->
    one :class:`~repro.service.requests.AllocationResponse`.
``POST /allocate/batch``
    ``{"requests": [...]}`` -> ``{"responses": [...]}``; the requests are
    submitted concurrently so they share batched solves.
``POST /campaign``
    One :class:`~repro.service.requests.CampaignRequest` JSON body submits
    a fleet study to the pool's campaign workers; replies immediately with
    the campaign id and ``queued``/``running`` status.  With a store the
    id is journaled before the reply (persist-then-ack); an
    ``Idempotency-Key`` header makes retries exactly-once (same key ->
    same job id, replayed from the store).
``GET /campaign/<id>``
    Poll one campaign: status, grid shape, and per-cell summaries once
    ``done``.  With a store, ids this process has never seen (another
    front-end's jobs, pre-restart jobs, evicted results) are answered
    from the journal.
``POST /campaign/<id>/cancel``
    Request cancellation of a queued/running campaign; the job stops at
    the next shard boundary and reports ``cancelled``.  Terminal jobs
    answer 409.
``GET /campaign/<id>/columns``
    Stream the finished campaign's full per-period columns back as the
    binary columnar wire format, chunked: a meta frame, then one
    float64/zlib cell record per (scenario, policy) cell (see
    :meth:`repro.simulation.fleet.FleetResult.to_binary_frames`).  Each
    cell is deflated at most once: with a store the stream splices the
    frames the campaign workers deflated and the journal holds; without
    one, the first fetch deflates and the job keeps the frames.  There is
    one encoding: the ``format``, ``dtype`` and ``codec`` query values
    that name it (``binary``, ``f8``, ``zlib``) are accepted, any other
    value answers 400.
``DELETE /campaign/<id>``
    Drop a finished campaign and free its retained columns; the id 404s
    afterwards.  Pending/running jobs answer 409.

``/stats`` additionally reports per-endpoint latency histograms
(p50/p95/p99) under ``"endpoints"``, labelled by route pattern.

Use ``python -m repro serve [--campaign-workers N]`` to run a server from
the shell and :mod:`repro.service.client` to talk to it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import os
import platform
import re
import threading
import time
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import parse_qsl

from repro import __version__
from repro.core.design_point import DesignPoint
from repro.obs import cluster as obs_cluster
from repro.obs import tracing
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import SloTracker
from repro.service.batcher import EngineRegistry, MicroBatcher
from repro.service.cache import AllocationCache
from repro.service.pool import WorkerPool
from repro.service.requests import (
    AllocationRequest,
    AllocationResponse,
    CampaignRequest,
    CampaignResponse,
)
from repro.service.store import (
    LEASE_EVENTS,
    RESUMABLE_STATUSES,
    CampaignStore,
    StoreError,
)

#: Largest request body the server will read, in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a client has to send one whole request, head and body; a
#: slower one is answered 408 (``request_timeout``) and disconnected.
REQUEST_READ_TIMEOUT_S = 30.0

#: ``GET /campaign/<id>/columns`` query values naming the one encoding
#: (older clients send them); any other value answers 400.
_COLUMNS_QUERY = {"format": "binary", "dtype": "f8", "codec": "zlib"}

#: Campaign ids are ``c1``, ``c2``, ... (per process, or store-wide when a
#: durable store allocates them).
_CAMPAIGN_PATH = re.compile(
    r"^/campaign/([A-Za-z0-9_-]+)(/columns|/cancel|/events)?$"
)

#: Version prefix of the API; every route lives under it.
_API_PREFIX = "/v1"

#: ``GET /trace/<trace_id>``: 32 lowercase hex chars, as in traceparent.
_TRACE_PATH = re.compile(r"^/trace/([0-9a-f]{32})$")

#: Request log (one INFO line per served request, trace id attached).
_REQUEST_LOGGER = logging.getLogger("repro.service.http")


class CampaignCancelled(Exception):
    """A campaign stopped at a shard boundary because it was cancelled."""


class _LeaseLost(Exception):
    """Another front-end holds the job's run lease; stand down quietly."""


class CampaignJob:
    """One submitted fleet study: request, lifecycle state, result."""

    def __init__(self, campaign_id: str, request: CampaignRequest) -> None:
        self.campaign_id = campaign_id
        self.request = request
        self.status = "queued"
        self.result = None  # FleetResult once done
        self.error: Optional[str] = None
        self.task: Optional["asyncio.Task"] = None
        #: Set by ``POST /campaign/<id>/cancel``; the executor checks it
        #: (and the store's journal) at every shard boundary.
        self.cancel_requested = False
        #: Whether this job object was rebuilt from the journal rather
        #: than submitted to this process.
        self.recovered = False
        #: Actual trace length, known once the request has been built
        #: (requests with ``hours=None`` default to the whole month, so the
        #: submitted hours alone don't determine it).
        self.trace_hours: int = request.hours or 0
        #: Span context of the submitting request; the campaign's worker
        #: spans parent onto it so one trace id follows the job across the
        #: executor threads and shard processes.
        self.trace_ctx: Optional[tracing.SpanContext] = None

    def status_response(self) -> CampaignResponse:
        """Snapshot the job as a :class:`CampaignResponse`."""
        result = self.result
        if result is not None:
            return CampaignResponse(
                campaign_id=self.campaign_id,
                status=self.status,
                cells=result.num_cells,
                trace_hours=result.trace_hours,
                scenario_labels=tuple(result.scenario_labels),
                policy_names=tuple(result.policy_names),
                alphas=tuple(result.alphas),
                summary=tuple(result.cell_summaries()),
                profile=dict(getattr(result, "phase_timings", {}) or {}) or None,
            )
        return CampaignResponse(
            campaign_id=self.campaign_id,
            status=self.status,
            cells=self.request.num_cells,
            trace_hours=self.trace_hours,
            error=self.error,
        )


class AllocationService:
    """Cache-fronted, micro-batched allocation solving (transport-agnostic).

    The HTTP server wraps this class, but it is equally usable in-process:
    run an event loop and await :meth:`allocate` from many tasks to get the
    same coalescing behaviour without any socket.

    Allocation solves run inline on the event loop, in the micro-batcher's
    flush.  Campaign submissions run on the
    :class:`~repro.service.pool.WorkerPool` (``campaign_workers``
    processes; ``1`` runs each campaign in this process).
    """

    def __init__(
        self,
        default_points: Optional[Sequence[DesignPoint]] = None,
        cache_size: int = 4096,
        window_s: float = 0.002,
        max_batch: int = 1024,
        campaign_workers: int = 1,
        max_campaigns: int = 64,
        slo_ms: Optional[Mapping[str, float]] = None,
        store: Optional[Any] = None,
    ) -> None:
        if max_campaigns < 1:
            raise ValueError(
                f"max_campaigns must be at least 1, got {max_campaigns}"
            )
        #: Durable campaign job store (:mod:`repro.service.store`), or
        #: ``None`` for the in-memory-only service.  A string is treated
        #: as a store path and opened with default durability settings.
        self.store: Optional[CampaignStore] = (
            CampaignStore(store) if isinstance(store, str) else store
        )
        self.registry = EngineRegistry(default_points)
        self.pool = WorkerPool(campaign_workers=campaign_workers)
        self.cache: AllocationCache[AllocationResponse] = AllocationCache(cache_size)
        self.batcher = MicroBatcher(
            registry=self.registry, window_s=window_s, max_batch=max_batch
        )
        #: Per-endpoint latency objectives (``--slo-ms``); burn rates feed
        #: both ``/stats`` and ``/metrics``.
        self.slo = SloTracker(slo_ms)
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        #: Cluster-wide identity of this process (``host:pid``) -- the
        #: ``proc`` label on published snapshots and liveness gauges.
        self.proc = obs_cluster.proc_identity()
        #: High-water mark into the trace recorder's drain buffer; spans
        #: filed after it are persisted on the next snapshot publication.
        self._span_seq = 0
        #: Retained campaign jobs; finished ones beyond ``max_campaigns``
        #: are evicted oldest-first (a month-long grid's columns are big --
        #: unbounded retention would leak a long-running service to death).
        self.max_campaigns = int(max_campaigns)
        self._campaigns: Dict[str, CampaignJob] = {}
        self._campaign_ids = itertools.count(1)
        #: Best-effort in-process idempotency map (key -> campaign id)
        #: for services without a store; with a store the mapping is
        #: durable and lives in its ``idempotency`` table.
        self._idempotency: Dict[str, str] = {}
        #: The one stats source: ``/metrics``, ``/stats`` and the cluster
        #: snapshot all read these families (see :meth:`stats`).
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Create the service's own families and register every component's.

        Each component records into families it owns; callbacks here are
        only for values read rather than counted (build info, uptime,
        engines, campaigns by status) and for ``repro_allocations_total``,
        which is the count of ``repro_allocation_seconds``.
        """
        metrics = self.metrics
        self._requests_total = metrics.counter(
            "repro_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self._campaign_phase = metrics.histogram(
            "repro_campaign_phase_seconds",
            "Wall-clock seconds spent per campaign pipeline phase.",
            ("phase",),
        )
        metrics.callback(
            "repro_build_info",
            "Constant 1, labelled with the package version and Python "
            "version.",
            "gauge",
            lambda: [(
                "",
                {
                    "version": __version__,
                    "python": platform.python_version(),
                },
                1,
            )],
        )
        metrics.callback(
            "repro_frontend_up",
            "Liveness of this front-end process (1 while serving), "
            "labelled with its host:pid identity.",
            "gauge",
            lambda: [("", {"proc": self.proc}, 1)],
        )
        metrics.callback(
            "repro_uptime_seconds",
            "Seconds since the service started.",
            "gauge",
            lambda: [("", {}, time.monotonic() - self._started_monotonic)],
        )
        self.cache.register_metrics(metrics)
        self.batcher.register_metrics(metrics)
        #: Allocate-path latency by outcome (``solve`` / ``cache_hit`` /
        #: ``error``), one observation per request.
        self.allocation_seconds = metrics.register(Histogram(
            "repro_allocation_seconds",
            "Allocate-path latency per request, by outcome.",
            ("outcome",),
            bounds=(),
        ))
        metrics.callback(
            "repro_allocations_total",
            "Allocation calls, by outcome (solve, cache_hit, error).",
            "counter",
            lambda: [
                ("", {"outcome": outcome},
                 self.allocation_seconds.count(outcome=outcome))
                for (outcome,) in self.allocation_seconds.label_values()
            ],
        )
        self.pool.register_metrics(metrics)
        metrics.callback(
            "repro_engines",
            "Allocation engines the registry holds (a bounded LRU).",
            "gauge",
            lambda: [("", {}, len(self.registry))],
        )
        metrics.callback(
            "repro_campaigns",
            "Retained campaign jobs, by status.",
            "gauge",
            lambda: [
                ("", {"status": status}, count)
                for status, count in sorted(self._campaign_counts().items())
            ],
        )
        self.request_seconds = metrics.histogram(
            "repro_request_duration_seconds",
            "HTTP request latency, by endpoint route pattern.",
            ("endpoint",),
        )
        if self.store is not None:
            self.store.register_metrics(metrics)
        self.slo.register_metrics(metrics)

    def close(self) -> None:
        """Shut the campaign pool and the store down (idempotent)."""
        self.pool.shutdown()
        if self.store is not None:
            self.store.close()

    async def allocate(self, request: AllocationRequest) -> AllocationResponse:
        """Serve one request: cache lookup, else coalesced batch solve.

        Every path records into :attr:`allocation_seconds` with an outcome
        label (``solve`` / ``cache_hit`` / ``error``) so the aggregate
        block reconciles with the per-endpoint histograms.
        """
        started = time.perf_counter()
        key = self.registry.cache_key_of(request)
        cached = self.cache.get(key)
        if cached is not None:
            self.allocation_seconds.observe(
                time.perf_counter() - started, outcome="cache_hit"
            )
            return cached.marked_cache_hit()
        try:
            response = await self.batcher.solve(request)
        except Exception:
            self.allocation_seconds.observe(
                time.perf_counter() - started, outcome="error"
            )
            raise
        self.allocation_seconds.observe(
            time.perf_counter() - started, outcome="solve"
        )
        self.cache.put(key, response)
        return response

    async def allocate_many(
        self, requests: Sequence[AllocationRequest]
    ) -> Tuple[AllocationResponse, ...]:
        """Serve a burst: cache hits answer immediately, misses go through
        the batcher as one bulk unit (one future, one scatter).

        Every request is one allocation: a hit records its own lookup
        time, each miss the burst's solve time.
        """
        keys = [self.registry.cache_key_of(request) for request in requests]
        served: List[Optional[AllocationResponse]] = [None] * len(requests)
        misses: List[AllocationRequest] = []
        miss_indices: List[int] = []
        for index, (request, key) in enumerate(zip(requests, keys)):
            started = time.perf_counter()
            cached = self.cache.get(key)
            if cached is not None:
                served[index] = cached.marked_cache_hit()
                self.allocation_seconds.observe(
                    time.perf_counter() - started, outcome="cache_hit"
                )
            else:
                misses.append(request)
                miss_indices.append(index)
        if misses:
            started = time.perf_counter()
            try:
                responses = await self.batcher.solve_bulk(misses)
            except Exception:
                self.allocation_seconds.observe(
                    time.perf_counter() - started,
                    times=len(misses),
                    outcome="error",
                )
                raise
            self.allocation_seconds.observe(
                time.perf_counter() - started,
                times=len(misses),
                outcome="solve",
            )
            for index, response in zip(miss_indices, responses):
                self.cache.put(keys[index], response)
                served[index] = response
        # Hits and misses must cover every slot; a hole would misalign the
        # response list with the request list clients zip against.
        assert all(response is not None for response in served)
        return tuple(served)  # type: ignore[arg-type]

    # --- campaigns --------------------------------------------------------------
    async def submit_campaign(
        self,
        request: CampaignRequest,
        idempotency_key: Optional[str] = None,
    ) -> CampaignResponse:
        """Accept a fleet study; it runs in the background on the pool.

        With a store the submission is journaled -- and committed -- before
        this returns (persist-then-ack): the id in the response survives
        ``SIGKILL``.  ``idempotency_key`` makes retries exactly-once: a
        key seen before returns the existing job's current status instead
        of starting a second run (durable across restarts with a store;
        best-effort within this process without one -- a replay whose job
        was already evicted starts a fresh run, since the evicted result
        is gone).
        """
        loop = asyncio.get_running_loop()
        if self.store is not None:
            campaign_id, created = await loop.run_in_executor(
                None, self.store.submit, request, idempotency_key
            )
            if not created:
                return (await self.campaign_lookup(campaign_id)).status_response()
            job = CampaignJob(campaign_id, request)
        else:
            if idempotency_key is not None:
                existing = self._idempotency.get(idempotency_key)
                if existing is not None and existing in self._campaigns:
                    return self._campaigns[existing].status_response()
            job = CampaignJob(f"c{next(self._campaign_ids)}", request)
            if idempotency_key is not None:
                self._idempotency[idempotency_key] = job.campaign_id
        # Captured here, on the event loop, because the campaign body runs
        # on executor threads where contextvars don't follow.
        job.trace_ctx = tracing.current_context()
        self._campaigns[job.campaign_id] = job
        job.task = loop.create_task(self._run_campaign(job))
        return job.status_response()

    async def _run_campaign(self, job: CampaignJob) -> None:
        """Drive one campaign to a terminal state off the event loop."""
        job.status = "running"
        loop = asyncio.get_running_loop()
        try:
            # The blocking run (request build + process-pool map) happens on
            # the loop's default thread executor, so the server keeps
            # answering allocations while a month-long grid simulates.
            job.result = await loop.run_in_executor(
                None, self._execute_campaign, job
            )
            job.status = "done"
        except CampaignCancelled:
            job.status = "cancelled"
        except _LeaseLost:
            # Another front-end is driving this job.  Forget our local
            # copy so later lookups re-read the journal instead of a
            # stale in-memory snapshot.
            self._campaigns.pop(job.campaign_id, None)
            job.status = "running"
        except Exception as error:
            job.error = f"{type(error).__name__}: {error}"
            job.status = "failed"
            if self.store is not None:
                try:
                    self.store.fail(job.campaign_id, job.error)
                except StoreError:
                    pass  # the failure may *be* a broken store
        finally:
            self._evict_finished_campaigns()

    def _evict_finished_campaigns(self) -> None:
        """Drop the oldest *finished* jobs beyond ``max_campaigns``.

        Queued/running jobs are never evicted; ids are monotonic, so dict
        insertion order is submission order.  With a store an evicted id
        is a cache miss, not a 404 -- lookups re-serve it from the journal.
        """
        overflow = len(self._campaigns) - self.max_campaigns
        if overflow <= 0:
            return
        for campaign_id in [
            job.campaign_id
            for job in self._campaigns.values()
            if job.status in CampaignResponse.TERMINAL_STATUSES
        ][:overflow]:
            del self._campaigns[campaign_id]

    def _execute_campaign(self, job: CampaignJob):
        # Campaigns simulate the hardware this service is configured for,
        # the same design points its /allocate answers describe.  The span
        # parents onto the submitting request's context so the client's
        # trace id follows the job into the shard workers.
        with tracing.span(
            "campaign.run", parent=job.trace_ctx, campaign_id=job.campaign_id
        ):
            scenarios, labels, policies, trace, config = job.request.build(
                self.registry.default_points
            )
            job.trace_hours = len(trace)
            store = self.store
            completed = None
            on_shard_done = None
            if store is not None:
                campaign_id = job.campaign_id
                if not store.acquire_lease(campaign_id):
                    raise _LeaseLost(campaign_id)
                if job.cancel_requested or store.is_cancelled(campaign_id):
                    raise CampaignCancelled(campaign_id)
                store.start(campaign_id, len(trace))
                # Cells journaled by a previous (killed) run are final;
                # only the rest are simulated.
                completed = store.done_cells(campaign_id)

                def journal_shard(cells) -> None:
                    store.shard_done(campaign_id, cells)
                    store.renew_lease(campaign_id)
                    if job.cancel_requested or store.is_cancelled(campaign_id):
                        raise CampaignCancelled(campaign_id)

                on_shard_done = journal_shard
            elif job.cancel_requested:
                raise CampaignCancelled(job.campaign_id)
            try:
                result = self.pool.run_campaign(
                    scenarios,
                    policies,
                    trace,
                    config,
                    scenario_labels=labels,
                    completed=completed,
                    on_shard_done=on_shard_done,
                )
                if store is not None:
                    store.finish(job.campaign_id, result)
            finally:
                if store is not None:
                    store.release_lease(job.campaign_id)
        for phase, seconds in (getattr(result, "phase_timings", {}) or {}).items():
            self._campaign_phase.observe(seconds, phase=phase)
        return result

    def campaign(self, campaign_id: str) -> CampaignJob:
        """Look one campaign up in memory (``KeyError`` on unknown ids).

        The synchronous, memory-only lookup; the HTTP layer uses
        :meth:`campaign_lookup`, which falls back to the store.
        """
        return self._campaigns[campaign_id]

    async def campaign_lookup(self, campaign_id: str) -> CampaignJob:
        """Look one campaign up, falling back to the durable store.

        Memory answers directly.  With a store, unknown ids are replayed
        from the journal: finished jobs get their result reassembled from
        the journaled shard frames (and re-cached -- eviction is a cache
        miss, not data loss), terminal failures/cancellations are
        reported as such, and an interrupted job nobody is driving (its
        lease is absent, expired, or owned by a dead process) is adopted
        and resumed by this process.  Raises ``KeyError`` for ids in
        neither memory nor journal.
        """
        job = self._campaigns.get(campaign_id)
        if job is not None:
            return job
        if self.store is None:
            raise KeyError(campaign_id)
        loop = asyncio.get_running_loop()
        record = await loop.run_in_executor(None, self.store.job, campaign_id)
        if record is None or record.request is None:
            raise KeyError(campaign_id)
        job = CampaignJob(campaign_id, record.request)
        job.recovered = True
        job.trace_hours = record.trace_hours or (record.request.hours or 0)
        if record.status == "done":
            job.result = await loop.run_in_executor(
                None, self.store.load_result, campaign_id
            )
            job.status = "done"
            self._campaigns[campaign_id] = job
            self._evict_finished_campaigns()
            return job
        if record.status in ("failed", "cancelled"):
            # Ephemeral snapshot: terminal, no columns to retain.
            job.status = record.status
            job.error = record.error
            return job
        if self.store.lease_abandoned(campaign_id):
            # Journaled as queued/running but nobody is driving it (the
            # owner was killed): adopt and resume the unfinished shards.
            return self._adopt_job(job)
        # Another live front-end owns the lease; report its progress.
        job.status = record.status
        return job

    def _adopt_job(self, job: CampaignJob) -> CampaignJob:
        """Resume an interrupted job in this process (store mode only)."""
        with tracing.span("job.recover", campaign_id=job.campaign_id) as span:
            job.trace_ctx = span.context
            job.status = "queued"
            self._campaigns[job.campaign_id] = job
            job.task = asyncio.get_running_loop().create_task(
                self._run_campaign(job)
            )
        try:
            self.store.recover(job.campaign_id)
        except StoreError:
            pass  # the adoption stands; the timeline event is best-effort
        self.store.jobs_recovered.inc()
        return job

    async def recover_campaigns(self) -> List[str]:
        """Re-adopt unfinished journaled jobs at startup.

        Called after the listening socket binds (so ``GET`` works during
        recovery) and before readiness is announced.  Jobs whose lease a
        live process still holds are left alone -- in a ``--procs N``
        fleet only orphaned jobs get a new owner.  Returns the adopted
        ids.
        """
        if self.store is None:
            return []
        loop = asyncio.get_running_loop()
        records = await loop.run_in_executor(None, self.store.jobs)
        adopted: List[str] = []
        for campaign_id, record in sorted(records.items()):
            if record.status not in RESUMABLE_STATUSES:
                continue
            if record.request is None or campaign_id in self._campaigns:
                continue
            if not self.store.lease_abandoned(campaign_id):
                continue
            job = CampaignJob(campaign_id, record.request)
            job.recovered = True
            job.trace_hours = record.trace_hours or (record.request.hours or 0)
            self._adopt_job(job)
            adopted.append(campaign_id)
        return adopted

    def cancel_campaign(self, campaign_id: str) -> CampaignJob:
        """Request cancellation of a queued/running campaign.

        The running executor notices at its next shard boundary (already
        journaled shards are kept -- a later un-cancel... does not exist,
        but the frames would still be valid for debugging).  Raises
        ``KeyError`` for unknown ids, ``RuntimeError`` for jobs already
        in a terminal state.
        """
        job = self._campaigns.get(campaign_id)
        if job is None:
            if self.store is None:
                raise KeyError(campaign_id)
            record = self.store.job(campaign_id)
            if record is None or record.request is None:
                raise KeyError(campaign_id)
            if record.finished:
                raise RuntimeError(
                    f"campaign {campaign_id!r} is {record.status}; only "
                    "queued/running campaigns can be cancelled"
                )
            # Another front-end runs it; the journal is the coordination
            # channel -- its executor polls for the cancel record at every
            # shard boundary.
            self.store.cancel(campaign_id)
            job = CampaignJob(campaign_id, record.request)
            job.status = record.status
            job.cancel_requested = True
            return job
        if job.status in CampaignResponse.TERMINAL_STATUSES:
            raise RuntimeError(
                f"campaign {campaign_id!r} is {job.status}; only "
                "queued/running campaigns can be cancelled"
            )
        job.cancel_requested = True
        if self.store is not None and not self.store.is_cancelled(campaign_id):
            self.store.cancel(campaign_id)
        return job

    def delete_campaign(self, campaign_id: str) -> CampaignJob:
        """Drop one finished campaign and free its retained result.

        Raises ``KeyError`` for unknown ids and ``RuntimeError`` while the
        job is still queued/running (deleting a job out from under its
        worker would leave the executor computing into the void); callers
        poll to a terminal state first.  Subsequent lookups of a deleted
        id raise ``KeyError`` -- the HTTP layer turns that into a 404.
        With a store the deletion is journaled, so the id stays deleted
        across restarts and front-ends.
        """
        job = self._campaigns.get(campaign_id)
        if job is None:
            if self.store is None:
                raise KeyError(campaign_id)
            record = self.store.job(campaign_id)
            if record is None or record.request is None:
                raise KeyError(campaign_id)
            if not record.finished:
                raise RuntimeError(
                    f"campaign {campaign_id!r} is {record.status}; only "
                    "finished campaigns can be deleted"
                )
            self.store.delete(campaign_id)
            deleted = CampaignJob(campaign_id, record.request)
            deleted.status = record.status
            return deleted
        if job.status not in CampaignResponse.TERMINAL_STATUSES:
            raise RuntimeError(
                f"campaign {campaign_id!r} is {job.status}; only finished "
                "campaigns can be deleted"
            )
        del self._campaigns[campaign_id]
        if self.store is not None:
            self.store.delete(campaign_id)
        return job

    def _campaign_counts(self) -> Dict[str, int]:
        """Retained campaign jobs by status.

        Runs on executor threads (the publisher beat, cluster reads)
        while the event loop inserts and evicts jobs, so it counts over a
        copy: ``list()`` of the view is one step the loop cannot
        interleave with.
        """
        by_status: Dict[str, int] = {}
        for job in list(self._campaigns.values()):
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return by_status

    def observe_request(self, endpoint: str, seconds: float, status: int) -> None:
        """Account one served HTTP request against every surface.

        Feeds the per-endpoint latency histograms, the matching SLO
        objective (if any), and the request counter -- called by the HTTP
        layer once per connection, after the response is written.
        """
        self.request_seconds.observe(seconds, endpoint=endpoint)
        self.slo.observe(endpoint, seconds)
        self._requests_total.inc(endpoint=endpoint, status=str(status))

    def health(self) -> Dict[str, Any]:
        """Payload of ``GET /healthz``: liveness plus deployment facts."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "pid": os.getpid(),
            "campaign_workers": self.pool.campaign_workers,
            "store": None if self.store is None else self.store.path,
            "engines": len(self.registry),
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document: one read over the metric families.

        Counts are JSON integers (the families hold floats); latencies
        and busy times are milliseconds.
        """
        cache, store = self.cache, self.store
        hits = int(cache.lookups.value(result="hit"))
        misses = int(cache.lookups.value(result="miss"))

        def outcome_doc(outcome: str) -> Dict[str, Any]:
            count, total_s, max_s = self.allocation_seconds.totals(
                outcome=outcome
            )
            return {
                "count": count,
                "mean_ms": total_s / count * 1000.0 if count else 0.0,
                "max_ms": max_s * 1000.0,
            }

        by_outcome = {
            outcome: outcome_doc(outcome)
            for (outcome,) in self.allocation_seconds.label_values()
        }
        solve = by_outcome.get("solve") or outcome_doc("solve")
        return {
            "cache": {
                "entries": len(cache),
                "max_entries": cache.max_entries,
                "hits": hits,
                "misses": misses,
                "lookups": hits + misses,
                "evictions": int(cache.evictions.value()),
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
            "batcher": self.batcher.totals(),
            "latency": {
                "solves": solve["count"],
                "mean_ms": solve["mean_ms"],
                "max_ms": solve["max_ms"],
                "by_outcome": by_outcome,
            },
            "endpoints": {
                endpoint: self.request_seconds.summary(endpoint=endpoint)
                for (endpoint,) in self.request_seconds.label_values()
            },
            "engines": len(self.registry),
            "pool": {
                "campaign_workers": self.pool.campaign_workers,
                "campaigns": int(self.pool.campaigns_run.value()),
            },
            "campaigns": self._campaign_counts(),
            "slo": self.slo.to_json_dict(),
            "store": None if store is None else {
                "path": store.path,
                "sync": store.sync,
                "owner": store.owner,
                "appends": {
                    kind: int(store.appends.value(kind=kind))
                    for (kind,) in store.appends.label_values()
                },
                "append_bytes": int(store.append_bytes.value()),
                "records_dropped": int(store.records_dropped.value()),
                "jobs_recovered": int(store.jobs_recovered.value()),
                "results_reloaded": int(store.results_reloaded.value()),
                "leases": {
                    event: int(store.leases.value(event=event))
                    for event in LEASE_EVENTS
                },
                "snapshots_published": int(store.snapshots_published.value()),
                "spans_persisted": int(store.spans_persisted.value()),
            },
            "uptime_s": time.monotonic() - self._started_monotonic,
        }

    # --- cluster scope ----------------------------------------------------------
    def publish_observability(self) -> None:
        """Publish this process's snapshot and drain finished spans.

        One beat of the cluster-scope pipeline (blocking; callers on the
        event loop run it in an executor): the current metric families,
        SLO epochs, and ``/stats`` document go into the store's
        ``snapshots`` table keyed by ``host:pid``, and spans completed
        since the last beat go into its bounded ``spans`` ring.  No-op
        without a store; a store hiccup leaves the span high-water mark
        unchanged so the next beat retries the same records.
        """
        if self.store is None:
            return
        payload = obs_cluster.build_snapshot(
            self.metrics, self.slo, stats=self.stats(), proc=self.proc
        )
        try:
            self.store.publish_snapshot(
                obs_cluster.encode_snapshot(payload), proc=self.proc
            )
            seq, records = tracing.recorder().records_since(self._span_seq)
            if records:
                self.store.persist_spans(records)
            self._span_seq = seq
        except StoreError:
            pass  # observability must never take the service down

    def _peer_snapshots(self) -> List[Dict[str, Any]]:
        """Decoded live snapshots of every *other* process in the store.

        Cluster reads put this process's own snapshot beside them, built
        in memory: its data is current (no waiting on the 2 s publisher
        beat) and a read writes nothing to the store.  The peers' are at
        most one beat stale; dead ones age out at the TTL.
        """
        payloads: List[Dict[str, Any]] = []
        for proc, raw, _published_at in self.store.live_snapshots():
            if proc == self.proc:
                continue  # stale: the caller holds the live one
            try:
                payloads.append(obs_cluster.decode_snapshot(raw))
            except (ValueError, UnicodeDecodeError):
                continue  # a torn/corrupt snapshot hides one proc, not all
        return payloads

    def cluster_metrics_text(self) -> str:
        """``GET /metrics?scope=cluster``: merged Prometheus exposition."""
        if self.store is None:
            raise ValueError(
                "scope=cluster requires a durable store (repro serve --store)"
            )
        own = obs_cluster.build_snapshot(self.metrics, self.slo, proc=self.proc)
        return obs_cluster.render_cluster([own, *self._peer_snapshots()])

    def cluster_stats_doc(self) -> Dict[str, Any]:
        """``GET /stats?scope=cluster``: per-proc stats, merged SLOs, jobs.

        Adds the store-derived sections ``repro top`` renders alongside
        the per-process rows: active jobs (with shard progress and lease
        owner) and the most recent lease steals.
        """
        if self.store is None:
            raise ValueError(
                "scope=cluster requires a durable store (repro serve --store)"
            )
        own = obs_cluster.build_snapshot(
            self.metrics, self.slo, stats=self.stats(), proc=self.proc
        )
        doc = obs_cluster.cluster_stats([own, *self._peer_snapshots()])
        jobs: List[Dict[str, Any]] = []
        for campaign_id, record in sorted(self.store.jobs().items()):
            if record.status not in ("queued", "running"):
                continue
            holder = self.store.lease_holder(campaign_id)
            jobs.append({
                "campaign_id": campaign_id,
                "status": record.status,
                "cells_done": len(set(record.done_cells)),
                "cells_total": (
                    record.request.num_cells
                    if record.request is not None else None
                ),
                "owner": None if holder is None else holder[0],
            })
        doc["jobs"] = jobs
        doc["recent_steals"] = self.store.recent_lease_steals()
        return doc

    def trace_lookup(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """Spans of one trace: local recorder merged with the store ring.

        The store fallback is what makes ``GET /trace/<id>`` answerable
        from a front-end that never handled the request (and after a
        restart).  Spans present in both places dedupe by ``span_id``;
        returns ``None`` when neither side knows the trace.
        """
        spans = list(tracing.recorder().spans(trace_id) or ())
        if self.store is not None:
            try:
                stored = self.store.trace_spans(trace_id)
            except StoreError:
                stored = []
            seen = {record.get("span_id") for record in spans}
            spans.extend(
                record for record in stored
                if record.get("span_id") not in seen
            )
        if not spans:
            return None
        spans.sort(key=lambda record: record.get("start_s", 0.0))
        return spans


#: Default machine-readable error code per status; individual raise sites
#: override (e.g. ``job_running`` for 409s caused by a non-terminal job).
_DEFAULT_ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    409: "conflict",
    413: "payload_too_large",
    500: "internal",
    503: "store_unavailable",
}


class _HttpError(Exception):
    """An error that maps to a specific HTTP status code.

    ``code`` is the stable machine-readable identifier of the error
    envelope; ``detail`` carries optional structured context (``None``
    stays in the envelope so its shape is constant).
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: Optional[str] = None,
        detail: Any = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_ERROR_CODES.get(status, "error")
        self.detail = detail

    def envelope(self) -> Dict[str, Any]:
        """The error body."""
        return {
            "error": {
                "code": self.code,
                "message": str(self),
                "detail": self.detail,
            }
        }


class _StreamingFrames:
    """Dispatch result asking for chunked binary frames (octet-stream)."""

    def __init__(self, frames: Iterable[bytes]) -> None:
        self.frames = frames


class _PlainText:
    """Dispatch result carrying a non-JSON text body (``/metrics``)."""

    def __init__(
        self,
        text: str,
        status: int = 200,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        self.text = text
        self.status = status
        self.content_type = content_type


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode_response(
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Sequence[str] = (),
) -> bytes:
    """One complete HTTP response: status line, headers, ``body``."""
    extras = "".join(f"{header}\r\n" for header in extra_headers)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], Optional[Dict[str, Any]]]:
    """Parse one HTTP request: (method, path, headers, JSON body or None).

    Header names are lower-cased; a repeated header keeps its last value
    (the subset the service reads -- ``content-length``, ``traceparent``
    -- has no list semantics).  A request not received within
    :data:`REQUEST_READ_TIMEOUT_S` raises a 408.
    """
    try:
        return await asyncio.wait_for(
            _parse_request(reader), REQUEST_READ_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        raise _HttpError(
            408,
            f"request not received within {REQUEST_READ_TIMEOUT_S:g} s",
        )


async def _parse_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], Optional[Dict[str, Any]]]:
    """The body of :func:`_read_request`, without its deadline."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        raise _HttpError(400, "malformed HTTP request head")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    content_length = 0
    if "content-length" in headers:
        try:
            content_length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "invalid Content-Length")
    if content_length < 0:
        raise _HttpError(400, "negative Content-Length")
    if content_length > MAX_BODY_BYTES:
        raise _HttpError(413, "request body too large")
    body: Optional[Dict[str, Any]] = None
    if content_length:
        try:
            raw = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            # A client that promised more bytes than it sent gets a clean
            # 400, not a traceback-bearing 500.
            raise _HttpError(400, "request body shorter than Content-Length")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"invalid JSON body: {error}")
        if not isinstance(body, dict):
            raise _HttpError(400, "JSON body must be an object")
    return method, path, headers, body


class AllocationServer:
    """Binds an :class:`AllocationService` to a TCP host/port."""

    def __init__(
        self,
        service: Optional[AllocationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> None:
        self.service = service if service is not None else AllocationService()
        self.host = host
        self.port = port
        #: ``SO_REUSEPORT``: lets N independent server processes bind the
        #: same port and have the kernel spread connections across them
        #: (see :mod:`repro.service.frontend`).
        self.reuse_port = reuse_port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def bound_port(self) -> int:
        """The actual port after binding (resolves ``port=0`` ephemera)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            reuse_port=self.reuse_port or None,
        )

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        """Route-pattern label for the per-endpoint latency histograms.

        Campaign ids are collapsed to ``*`` and unknown paths to one
        shared bucket, so histogram cardinality is bounded by the route
        table, not by traffic.  Labels leave out the ``/v1`` prefix
        (dashboards and SLOs key on ``POST /allocate``); a path outside
        it is unknown.
        """
        path = path.partition("?")[0]
        if not path.startswith(_API_PREFIX + "/"):
            return f"{method} (other)"
        path = path[len(_API_PREFIX):]
        match = _CAMPAIGN_PATH.match(path)
        if match:
            suffix = match.group(2) or ""
            return f"{method} /campaign/*{suffix}"
        if _TRACE_PATH.match(path):
            return f"{method} /trace/*"
        if path in ("/healthz", "/stats", "/metrics", "/allocate",
                    "/allocate/batch", "/campaign"):
            return f"{method} {path}"
        return f"{method} (other)"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        label: Optional[str] = None
        trace_ctx: Optional[tracing.SpanContext] = None
        started = time.perf_counter()
        try:
            try:
                method, path, headers, body = await _read_request(reader)
                label = self._endpoint_label(method, path)
                # Every request runs inside an ``http.request`` span: a
                # client-sent traceparent continues that trace, otherwise a
                # fresh one starts here.  Awaiting the dispatch keeps the
                # span's contextvar visible to everything downstream on
                # this task (batcher enqueue, campaign submission).
                parent = tracing.parse_traceparent(headers.get("traceparent"))
                with tracing.span(
                    "http.request", parent=parent, endpoint=label
                ) as http_span:
                    trace_ctx = http_span.context
                    result = await self._dispatch(method, path, headers, body)
            except StoreError as error:
                result = 503, _HttpError(503, str(error)).envelope()
            except _HttpError as error:
                result = error.status, error.envelope()
            except Exception as error:  # never kill the accept loop
                message = f"{type(error).__name__}: {error}"
                result = 500, _HttpError(500, message).envelope()
            extra_headers = (
                (f"traceparent: {trace_ctx.traceparent()}",) if trace_ctx else ()
            )
            if isinstance(result, _StreamingFrames):
                status = 200
                await self._write_frames(writer, result, extra_headers)
            else:
                if isinstance(result, _PlainText):
                    status, content_type = result.status, result.content_type
                    body = result.text.encode("utf-8")
                else:
                    status, payload = result
                    content_type = "application/json"
                    body = json.dumps(payload).encode("utf-8")
                writer.write(
                    _encode_response(status, body, content_type, extra_headers)
                )
                await writer.drain()
            if label is not None:
                elapsed = time.perf_counter() - started
                self.service.observe_request(label, elapsed, status)
                _REQUEST_LOGGER.info(
                    "%s %d %.3fms",
                    label,
                    status,
                    elapsed * 1000.0,
                    extra={
                        "endpoint": label,
                        "status": status,
                        "duration_ms": elapsed * 1000.0,
                        "trace_id": trace_ctx.trace_id if trace_ctx else None,
                    },
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _write_frames(
        writer: asyncio.StreamWriter,
        stream: "_StreamingFrames",
        extra_headers: Sequence[str] = (),
    ) -> None:
        """Write binary wire frames with chunked transfer encoding.

        One HTTP chunk per frame, drained as produced, so a client can
        decode cell by cell while later cells are still being encoded.
        """
        extras = "".join(f"{header}\r\n" for header in extra_headers)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/octet-stream\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"{extras}"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        writer.write(head)
        await writer.drain()
        for frame in stream.frames:
            if not frame:
                continue  # zero-length HTTP chunk would terminate the stream
            writer.write(f"{len(frame):x}\r\n".encode("ascii"))
            writer.write(frame)
            writer.write(b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _scope_of(query: Mapping[str, str]) -> str:
        """Validated ``?scope=`` of /stats and /metrics (default self)."""
        scope = query.get("scope", "self")
        if scope not in ("self", "cluster"):
            raise _HttpError(
                400, f"unknown scope {scope!r}; expected 'self' or 'cluster'"
            )
        return scope

    async def _run_cluster_read(self, fn):
        """Run one blocking cluster read off-loop; map its errors to HTTP."""
        try:
            return await asyncio.get_running_loop().run_in_executor(None, fn)
        except ValueError as error:
            raise _HttpError(400, str(error))
        except StoreError as error:
            raise _HttpError(503, f"store unavailable: {error}")

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: Optional[Dict[str, Any]],
    ):
        path, _, raw_query = path.partition("?")
        query = dict(parse_qsl(raw_query, keep_blank_values=True))
        if not path.startswith(_API_PREFIX + "/"):
            raise _HttpError(
                404, f"unknown path {path!r}; the API lives under {_API_PREFIX}/"
            )
        path = path[len(_API_PREFIX):]
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return 200, self.service.health()
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "stats is GET-only")
            scope = self._scope_of(query)
            if scope == "cluster":
                doc = await self._run_cluster_read(
                    self.service.cluster_stats_doc
                )
                return 200, doc
            return 200, self.service.stats()
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            scope = self._scope_of(query)
            if scope == "cluster":
                text = await self._run_cluster_read(
                    self.service.cluster_metrics_text
                )
                return _PlainText(text)
            return _PlainText(self.service.metrics.render())
        trace_match = _TRACE_PATH.match(path)
        if trace_match:
            if method != "GET":
                raise _HttpError(405, "trace lookup is GET-only")
            trace_id = trace_match.group(1)
            # The service merges the local recorder with the store's span
            # ring, so any front-end resolves traces handled by another
            # process (and traces that predate a restart).
            spans = await asyncio.get_running_loop().run_in_executor(
                None, self.service.trace_lookup, trace_id
            )
            if spans is None:
                raise _HttpError(404, f"unknown trace {trace_id!r}")
            return 200, {"trace_id": trace_id, "spans": spans}
        if path == "/allocate":
            if method != "POST":
                raise _HttpError(405, "allocate is POST-only")
            if body is None:
                raise _HttpError(400, "allocate needs a JSON body")
            request = self._decode_request(body)
            response = await self.service.allocate(request)
            return 200, response.to_json_dict()
        if path == "/allocate/batch":
            if method != "POST":
                raise _HttpError(405, "allocate/batch is POST-only")
            if body is None or not isinstance(body.get("requests"), list):
                raise _HttpError(
                    400, "allocate/batch needs {'requests': [...]} in the body"
                )
            requests = [self._decode_request(entry) for entry in body["requests"]]
            responses = await self.service.allocate_many(requests)
            return 200, {
                "responses": [response.to_json_dict() for response in responses]
            }
        if path == "/campaign":
            if method != "POST":
                raise _HttpError(405, "campaign submission is POST-only")
            if body is None:
                raise _HttpError(400, "campaign needs a JSON body")
            try:
                request = CampaignRequest.from_json_dict(body)
            except (ValueError, KeyError, TypeError) as error:
                raise _HttpError(400, f"invalid campaign request: {error}")
            response = await self.service.submit_campaign(
                request, idempotency_key=headers.get("idempotency-key")
            )
            return 200, response.to_json_dict()
        match = _CAMPAIGN_PATH.match(path)
        if match:
            campaign_id, suffix = match.group(1), match.group(2) or ""
            wants_columns = suffix == "/columns"
            if suffix == "/events":
                if method != "GET":
                    raise _HttpError(405, "campaign events are GET-only")
                store = self.service.store
                if store is None:
                    raise _HttpError(
                        400,
                        "campaign events need a durable store "
                        "(repro serve --store)",
                    )
                events = await asyncio.get_running_loop().run_in_executor(
                    None, store.events, campaign_id
                )
                if not events:
                    raise _HttpError(404, f"unknown campaign {campaign_id!r}")
                return 200, {"campaign_id": campaign_id, "events": events}
            if suffix == "/cancel":
                if method != "POST":
                    raise _HttpError(405, "campaign cancel is POST-only")
                try:
                    job = self.service.cancel_campaign(campaign_id)
                except KeyError:
                    raise _HttpError(404, f"unknown campaign {campaign_id!r}")
                except RuntimeError as error:
                    raise _HttpError(
                        409, str(error), code="conflict",
                        detail={"campaign_id": campaign_id},
                    )
                return 200, job.status_response().to_json_dict()
            if method == "DELETE" and not wants_columns:
                try:
                    self.service.delete_campaign(campaign_id)
                except KeyError:
                    raise _HttpError(404, f"unknown campaign {campaign_id!r}")
                except RuntimeError as error:
                    raise _HttpError(
                        409, str(error), code="job_running",
                        detail={"campaign_id": campaign_id},
                    )
                return 200, {"campaign_id": campaign_id, "deleted": True}
            if method != "GET":
                raise _HttpError(405, "campaign polling is GET-only")
            try:
                job = await self.service.campaign_lookup(campaign_id)
            except KeyError:
                raise _HttpError(404, f"unknown campaign {campaign_id!r}")
            if not wants_columns:
                return 200, job.status_response().to_json_dict()
            if job.status != "done":
                raise _HttpError(
                    409,
                    f"campaign {campaign_id!r} is {job.status}; columns "
                    "stream only once done",
                    code="job_running",
                    detail={
                        "campaign_id": campaign_id, "status": job.status,
                    },
                )
            for key, value in _COLUMNS_QUERY.items():
                if query.get(key, value) != value:
                    raise _HttpError(
                        400,
                        f"columns have one encoding; {key}={query[key]!r} "
                        f"is not it (expected {key}={value!r})",
                    )
            assert job.result is not None
            return _StreamingFrames(job.result.to_binary_frames())
        raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _decode_request(payload: Dict[str, Any]) -> AllocationRequest:
        try:
            return AllocationRequest.from_json_dict(payload)
        except (ValueError, KeyError, TypeError) as error:
            raise _HttpError(400, f"invalid allocation request: {error}")


async def _publish_observability_loop(service: AllocationService) -> None:
    """Periodic snapshot/span publication behind the cluster scope.

    Runs for the lifetime of the server (cancelled on shutdown).  Each
    beat is blocking SQLite work, so it runs in an executor; any failure
    is swallowed -- the next beat retries, and a front-end that cannot
    publish merely goes stale in cluster scrapes until it recovers.
    """
    loop = asyncio.get_running_loop()
    while True:
        try:
            await loop.run_in_executor(None, service.publish_observability)
        except asyncio.CancelledError:
            raise
        except Exception:
            _REQUEST_LOGGER.debug(
                "observability publish beat failed", exc_info=True
            )
        await asyncio.sleep(obs_cluster.PUBLISH_INTERVAL_S)


def _start_publisher(service: AllocationService) -> Optional["asyncio.Task"]:
    """The publisher task for a store-backed service (else ``None``)."""
    if service.store is None:
        return None
    return asyncio.get_running_loop().create_task(
        _publish_observability_loop(service)
    )


async def serve(
    service: Optional[AllocationService] = None,
    host: str = "127.0.0.1",
    port: int = 8734,
    port_file: Optional[str] = None,
    ready: Optional["asyncio.Event"] = None,
    announce: bool = True,
    reuse_port: bool = False,
) -> None:
    """Run the server until cancelled.

    ``port=0`` binds an ephemeral port; ``port_file`` (written after the
    bind) lets shell callers discover it -- the CI smoke test starts the
    server with ``--port 0 --port-file`` and reads the file.  ``ready`` is
    an optional event set once the socket is listening (for in-process
    supervisors like :func:`start_in_thread`).  ``reuse_port`` opts into
    ``SO_REUSEPORT`` for multi-process front-ends.

    When the service carries a durable store, unfinished journaled jobs
    are re-adopted right after the bind -- before readiness is announced,
    so "the port answers" implies "recovery has been kicked off".
    """
    server = AllocationServer(service, host=host, port=port, reuse_port=reuse_port)
    await server.start()
    bound = server.bound_port
    adopted = await server.service.recover_campaigns()
    if adopted and announce:
        print(
            f"recovered {len(adopted)} campaign(s) from the store: "
            f"{', '.join(adopted)}",
            flush=True,
        )
    if port_file:
        with open(port_file, "w", encoding="ascii") as handle:
            handle.write(f"{bound}\n")
    if announce:
        print(f"allocation service listening on http://{host}:{bound}", flush=True)
    if ready is not None:
        ready.set()
    publisher = _start_publisher(server.service)
    try:
        await asyncio.Event().wait()  # park until cancelled
    finally:
        if publisher is not None:
            publisher.cancel()
        await server.stop()


def run_server(
    service: Optional[AllocationService] = None,
    host: str = "127.0.0.1",
    port: int = 8734,
    port_file: Optional[str] = None,
    reuse_port: bool = False,
) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    try:
        asyncio.run(
            serve(
                service=service,
                host=host,
                port=port,
                port_file=port_file,
                reuse_port=reuse_port,
            )
        )
    except KeyboardInterrupt:
        print("allocation service stopped", flush=True)
    finally:
        if service is not None:
            service.close()
    return 0


class ServerHandle:
    """A running background server: address plus a ``stop()`` switch."""

    def __init__(
        self,
        host: str,
        port: int,
        service: AllocationService,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        task: "asyncio.Task",
    ) -> None:
        self.host = host
        self.port = port
        self.service = service
        self._thread = thread
        self._loop = loop
        self._task = task

    @property
    def base_url(self) -> str:
        """Root URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout_s: float = 5.0) -> None:
        """Cancel the server task and join its thread."""
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def start_in_thread(
    service: Optional[AllocationService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout_s: float = 10.0,
) -> ServerHandle:
    """Start a server on a daemon thread and wait until it is listening.

    This is the test/demo harness: callers get a :class:`ServerHandle` with
    the bound ephemeral port and a ``stop()`` method (also usable as a
    context manager).
    """
    service = service if service is not None else AllocationService()
    started = threading.Event()
    holder: Dict[str, Any] = {}

    def _runner() -> None:
        async def _main() -> None:
            ready: "asyncio.Event" = asyncio.Event()
            server = AllocationServer(service, host=host, port=port)
            await server.start()
            await service.recover_campaigns()
            holder["port"] = server.bound_port
            holder["loop"] = asyncio.get_running_loop()
            holder["task"] = asyncio.current_task()
            started.set()
            publisher = _start_publisher(service)
            try:
                await ready.wait()  # parked until the task is cancelled
            except asyncio.CancelledError:
                pass
            finally:
                if publisher is not None:
                    publisher.cancel()
                await server.stop()

        asyncio.run(_main())

    thread = threading.Thread(target=_runner, name="allocation-server", daemon=True)
    thread.start()
    if not started.wait(timeout=timeout_s):
        raise RuntimeError("allocation server failed to start in time")
    return ServerHandle(
        host=host,
        port=holder["port"],
        service=service,
        thread=thread,
        loop=holder["loop"],
        task=holder["task"],
    )


__all__ = [
    "AllocationServer",
    "AllocationService",
    "CampaignJob",
    "ServerHandle",
    "run_server",
    "serve",
    "start_in_thread",
]
