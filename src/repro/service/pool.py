"""Worker pool: fan batched solves and campaign cells across N workers.

One allocation service process has two kinds of heavy work:

* **Engine dispatch groups.**  The micro-batcher coalesces concurrent
  requests into per-engine groups, each solved by one vectorized NumPy
  pass.  Those passes release the GIL for their array work, so a
  :class:`~concurrent.futures.ThreadPoolExecutor` of *engine workers* can
  run several groups -- or slices of one large group -- in parallel while
  the asyncio event loop keeps accepting connections.

* **Campaign cells.**  A fleet study submitted over HTTP is a grid of
  (scenario x policy) campaign cells.  Cells are whole simulations (LP
  solves plus Python accounting), so they scale across a
  :class:`~concurrent.futures.ProcessPoolExecutor` instead, reusing the
  sharded runner of :mod:`repro.service.shard`.

:class:`WorkerPool` owns both executors (the process pool is created
lazily, on the first campaign) plus per-worker counters that the server
merges into its ``/stats`` payload.  ``workers=1`` keeps every solve
inline on the calling thread -- that is the single-worker baseline the
pooled benchmark in ``benchmarks/bench_service.py`` must beat.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import tracing
from repro.service.batcher import EngineRegistry, group_requests, solve_group
from repro.service.requests import AllocationRequest, AllocationResponse

#: Smallest per-worker slice of one dispatch group.  Splitting below this
#: size trades more executor overhead than the parallel solve wins back.
MIN_SLICE = 16


class WorkerStats:
    """Counters of one engine worker (identified by its thread name)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tasks = 0
        self.requests = 0
        self.busy_s = 0.0

    def record(self, num_requests: int, busy_s: float) -> None:
        """Account one completed solve task."""
        self.tasks += 1
        self.requests += num_requests
        self.busy_s += busy_s

    def to_json_dict(self) -> Dict[str, Any]:
        """Encode for the ``/stats`` endpoint."""
        return {
            "tasks": self.tasks,
            "requests": self.requests,
            "busy_ms": self.busy_s * 1000.0,
        }


class WorkerPool:
    """N engine workers for solve groups, process workers for campaigns.

    Parameters
    ----------
    workers:
        Engine (thread) workers.  ``1`` keeps solves inline on the calling
        thread; ``N > 1`` fans dispatch groups -- and slices of large
        groups -- across a thread pool.
    registry:
        Shared :class:`EngineRegistry`; one is created when omitted.
        Engines are built lazily under the registry's lock, so all workers
        share one engine per key.
    campaign_workers:
        Process workers for campaign grids (defaults to ``workers``).  The
        :class:`ProcessPoolExecutor` is created on the first campaign and
        reused across campaigns until :meth:`shutdown`.
    min_slice:
        Smallest per-worker slice when splitting one dispatch group.
    """

    def __init__(
        self,
        workers: int = 1,
        registry: Optional[EngineRegistry] = None,
        campaign_workers: Optional[int] = None,
        min_slice: int = MIN_SLICE,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if campaign_workers is not None and campaign_workers < 1:
            raise ValueError(
                f"campaign_workers must be at least 1, got {campaign_workers}"
            )
        if min_slice < 1:
            raise ValueError(f"min_slice must be at least 1, got {min_slice}")
        self.workers = int(workers)
        self.registry = registry if registry is not None else EngineRegistry()
        self.campaign_workers = int(
            campaign_workers if campaign_workers is not None else workers
        )
        self.min_slice = int(min_slice)
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="engine-worker"
            )
            if self.workers > 1
            else None
        )
        self._campaign_executor: Optional[ProcessPoolExecutor] = None
        self._campaign_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._worker_stats: Dict[str, WorkerStats] = {}
        self._campaigns = 0
        self._closed = False

    # --- lifecycle --------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    def shutdown(self, wait: bool = True, cancel_pending: bool = True) -> None:
        """Stop both executors; idempotent.

        ``cancel_pending`` cancels queued-but-unstarted solve tasks (their
        futures report cancelled); running tasks always finish.  With
        ``wait`` the call returns only after every worker thread/process
        has joined.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_pending)
        with self._campaign_lock:
            if self._campaign_executor is not None:
                self._campaign_executor.shutdown(
                    wait=wait, cancel_futures=cancel_pending
                )
                self._campaign_executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is shut down")

    # --- engine-worker side -----------------------------------------------------
    def _slices(self, indices: List[int]) -> List[List[int]]:
        """Split one group's indices into at most ``workers`` even slices.

        Slices never go below ``min_slice`` requests (except the natural
        remainder), so small groups stay whole and large groups fan out.
        """
        if self.workers == 1 or len(indices) < 2 * self.min_slice:
            return [indices]
        num_slices = min(self.workers, len(indices) // self.min_slice)
        base, extra = divmod(len(indices), num_slices)
        slices: List[List[int]] = []
        start = 0
        for slice_index in range(num_slices):
            size = base + (1 if slice_index < extra else 0)
            slices.append(indices[start : start + size])
            start += size
        return slices

    def _plan(
        self, requests: Sequence[AllocationRequest]
    ) -> List[tuple]:
        """(indices, sub-requests, group size) per executor task."""
        tasks = []
        for indices in group_requests(requests, self.registry).values():
            for chunk in self._slices(indices):
                tasks.append(
                    (chunk, [requests[i] for i in chunk], len(indices))
                )
        return tasks

    def _solve_task(
        self,
        requests: List[AllocationRequest],
        group_size: int,
        parent: Optional[tracing.SpanContext] = None,
    ) -> List[AllocationResponse]:
        """Worker body: one vectorized solve over one group slice.

        ``parent`` is the caller's span context, passed explicitly because
        contextvars don't follow work into executor threads; when set, the
        slice emits a ``pool.slice`` span under it.
        """
        wall_start = time.time()
        started = time.perf_counter()
        engine = self.registry.engine_for(requests[0])
        responses = solve_group(engine, requests, batch_size=group_size)
        elapsed = time.perf_counter() - started
        name = threading.current_thread().name
        with self._stats_lock:
            stats = self._worker_stats.get(name)
            if stats is None:
                stats = self._worker_stats[name] = WorkerStats(name)
            stats.record(len(requests), elapsed)
        if parent is not None:
            tracing.record_span(
                "pool.slice",
                parent,
                wall_start,
                elapsed,
                worker=name,
                requests=len(requests),
                group_size=group_size,
            )
        return responses

    @staticmethod
    def _scatter(
        plan: List[tuple],
        shares: Sequence[List[AllocationResponse]],
        num_requests: int,
    ) -> List[AllocationResponse]:
        """Reassemble per-slice shares into input order."""
        responses: List[Optional[AllocationResponse]] = [None] * num_requests
        for (indices, _, _), share in zip(plan, shares):
            for index, response in zip(indices, share):
                responses[index] = response
        # The plan's slices partition every index; a hole would misalign
        # responses with requests for callers that zip by position.
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    def solve_batch(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResponse]:
        """Solve a bag of requests, fanned across the engine workers.

        Blocking variant (benchmarks, scripts).  Responses come back in
        input order and report the *logical* group size as ``batch_size``
        even when a group was sliced across several workers.
        """
        self._check_open()
        requests = list(requests)
        if not requests:
            return []
        plan = self._plan(requests)
        parent = tracing.current_context()
        if self._executor is None:
            shares = [
                self._solve_task(chunk, size, parent)
                for _, chunk, size in plan
            ]
        else:
            futures = [
                self._executor.submit(self._solve_task, chunk, size, parent)
                for _, chunk, size in plan
            ]
            shares = [future.result() for future in futures]
        return self._scatter(plan, shares, len(requests))

    async def solve_batch_async(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResponse]:
        """Async variant of :meth:`solve_batch` for the micro-batcher.

        With one worker the solve runs inline on the event loop (identical
        to the pre-pool service); with more, every slice becomes a
        ``run_in_executor`` task so the loop stays responsive while the
        workers crunch.
        """
        self._check_open()
        requests = list(requests)
        if not requests:
            return []
        if self._executor is None:
            return self.solve_batch(requests)
        loop = asyncio.get_running_loop()
        plan = self._plan(requests)
        parent = tracing.current_context()
        shares = await asyncio.gather(
            *(
                loop.run_in_executor(
                    self._executor, self._solve_task, chunk, size, parent
                )
                for _, chunk, size in plan
            )
        )
        return self._scatter(plan, shares, len(requests))

    # --- campaign side ----------------------------------------------------------
    def _ensure_campaign_executor(self) -> Optional[ProcessPoolExecutor]:
        if self.campaign_workers == 1:
            return None
        with self._campaign_lock:
            # Re-checked under the lock: a concurrent shutdown() may have
            # closed the pool after our caller's _check_open -- recreating
            # the executor here would leak worker processes nobody stops.
            self._check_open()
            if self._campaign_executor is None:
                # The initializer replays the parent's logging config in
                # spawn-started workers (the default inside a spawn-context
                # front-end child), so shard span lines reach the shared
                # log stream no matter the worker start method.
                self._campaign_executor = ProcessPoolExecutor(
                    max_workers=self.campaign_workers,
                    initializer=tracing.init_worker_logging,
                    initargs=(tracing.active_log_format(),),
                )
            return self._campaign_executor

    def run_campaign(
        self,
        scenarios,
        policies,
        trace,
        config=None,
        scenario_labels=None,
        completed=None,
        on_shard_done=None,
        shards=None,
    ):
        """Run a fleet campaign grid on the pool's process workers.

        Delegates to :func:`repro.service.shard.run_sharded_campaign` with
        this pool's persistent executor (``campaign_workers=1`` runs the
        plain in-process fleet engine); results are identical to the
        single-process run to floating-point round-off.  The persistent
        pool's workers keep their engine and campaign-context caches warm
        across campaigns.

        ``completed``/``on_shard_done`` are the durable-store hooks (skip
        journaled cells, journal each shard as it lands -- see the shard
        runner); ``shards`` overrides the chunk count so durable campaigns
        can journal at a finer grain than one chunk per worker while the
        executor stays sized at ``campaign_workers``.
        """
        self._check_open()
        # Imported here: the campaign stack (simulation + shard) is only
        # pulled in by services that actually run campaigns.
        from repro.service.shard import run_sharded_campaign

        result = run_sharded_campaign(
            scenarios,
            policies,
            trace,
            config,
            scenario_labels=scenario_labels,
            jobs=shards if shards is not None else self.campaign_workers,
            executor=self._ensure_campaign_executor(),
            completed=completed,
            on_shard_done=on_shard_done,
        )
        with self._stats_lock:
            self._campaigns += 1
        return result

    # --- stats ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Pool counters for the ``/stats`` endpoint (per-worker merge)."""
        with self._stats_lock:
            per_worker = {
                name: stats.to_json_dict()
                for name, stats in sorted(self._worker_stats.items())
            }
            campaigns = self._campaigns
        return {
            "workers": self.workers,
            "campaign_workers": self.campaign_workers,
            "tasks": sum(entry["tasks"] for entry in per_worker.values()),
            "requests": sum(entry["requests"] for entry in per_worker.values()),
            "busy_ms": sum(entry["busy_ms"] for entry in per_worker.values()),
            "campaigns": campaigns,
            "per_worker": per_worker,
        }


__all__ = ["MIN_SLICE", "WorkerPool", "WorkerStats"]
