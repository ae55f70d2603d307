"""Micro-batching coalescer: many concurrent requests, one batched solve.

The batch engine of :mod:`repro.core.batch` is dramatically faster *per
problem* when it solves many problems at once, but service traffic arrives
one request at a time.  This module closes that gap in two layers:

* :func:`solve_batch` is the synchronous core: it takes any bag of resolved
  :class:`~repro.service.requests.AllocationRequest` objects, groups them by
  engine key (design-point set, period, off power), and dispatches each
  group as **one** vectorized solve -- ``solve_arrays`` over the budget
  vector when the group shares a single alpha, ``solve_grid`` over
  (budgets x distinct alphas) otherwise -- then scatters the per-request
  responses back in input order.

* :class:`MicroBatcher` is the asyncio front: concurrent ``solve`` calls
  within a configurable time window (or up to a maximum batch size) are
  parked on futures and flushed together through :func:`solve_batch`,
  inline on the event loop, so a burst of 256 independent HTTP requests
  costs a couple of NumPy passes instead of 256 scalar LP solves.

Engines are built once per distinct engine key and reused across batches
via :class:`EngineRegistry`, mirroring how policies share their lazily
built :class:`~repro.core.batch.BatchAllocator`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracing
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.core.batch import BatchAllocator, BoundedLru
from repro.core.design_point import DesignPoint, canonical_design_key
from repro.data.table2 import table2_design_points
from repro.service.requests import AllocationRequest, AllocationResponse

#: Engines a registry keeps: the least recently used one beyond this is
#: dropped (and rebuilt if its design-point set comes back), so clients
#: cycling through design-point sets cannot grow the service without limit.
_MAX_ENGINES = 64


class EngineRegistry:
    """Builds and reuses one :class:`BatchAllocator` per engine key.

    The registry also owns the service's *default* design-point set, used to
    resolve requests that leave ``design_points`` unset (the common case:
    devices ask about budgets, not about alternative hardware).  The engine
    map is a thread-safe bounded LRU.
    """

    def __init__(
        self, default_points: Optional[Sequence[DesignPoint]] = None
    ) -> None:
        self.default_points: Tuple[DesignPoint, ...] = tuple(
            default_points if default_points is not None else table2_design_points()
        )
        # Precomputed once: requests that leave design_points unset (the hot
        # path of a production workload) get their keys without materialising
        # a resolved request copy per call.
        self._default_dp_key = canonical_design_key(self.default_points)
        self._engines = BoundedLru(_MAX_ENGINES)

    def __len__(self) -> int:
        return len(self._engines)

    def resolve(self, request: AllocationRequest) -> AllocationRequest:
        """Fill a request's unset design points with the registry default."""
        return request.resolve(self.default_points)

    def engine_key_of(self, request: AllocationRequest) -> tuple:
        """``request.engine_key`` with the default set resolved lazily.

        Equals :meth:`BatchAllocator.engine_key` of the serving engine.
        """
        if request.design_points is None:
            design_key = self._default_dp_key
        else:
            design_key = canonical_design_key(request.design_points)
        return (
            design_key,
            float(request.period_s),
            float(request.off_power_w),
        )

    def cache_key_of(self, request: AllocationRequest) -> tuple:
        """``request.cache_key`` with the default set resolved lazily."""
        return self.engine_key_of(request) + (
            float(request.energy_budget_j),
            float(request.alpha),
        )

    def engine_for(self, request: AllocationRequest) -> BatchAllocator:
        """The shared engine serving ``request`` (built on first use)."""

        def build() -> BatchAllocator:
            resolved = self.resolve(request)
            return BatchAllocator(
                resolved.design_points,
                period_s=resolved.period_s,
                off_power_w=resolved.off_power_w,
            )

        return self._engines.get(self.engine_key_of(request), build)


def group_requests(
    requests: Sequence[AllocationRequest], registry: EngineRegistry
) -> Dict[tuple, List[int]]:
    """Partition request indices by engine key (insertion-ordered)."""
    groups: Dict[tuple, List[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(registry.engine_key_of(request), []).append(index)
    return groups


def solve_group(
    engine: BatchAllocator, requests: Sequence[AllocationRequest]
) -> List[AllocationResponse]:
    """Solve requests that all share ``engine`` as one vectorized dispatch.

    ``solve_arrays`` over the budget vector when the group shares a single
    alpha, ``solve_grid`` over (budgets x distinct alphas) otherwise.  Each
    response reports the group's size as its coalesced ``batch_size``.
    """
    budgets = np.array([request.energy_budget_j for request in requests])
    alphas = [request.alpha for request in requests]
    distinct_alphas = sorted(set(alphas))
    if len(distinct_alphas) == 1:
        solved = engine.solve_arrays(budgets, alpha=distinct_alphas[0])
        feasible = solved.feasible
        cells = slice(None)  # row i is request i
    else:
        # Mixed alphas still dispatch as one call: solve the full
        # (alpha x budget) grid and gather each request's cell.
        solved = engine.solve_grid(budgets, alphas=distinct_alphas)
        feasible = solved.budget_feasible
        alpha_row = {alpha: row for row, alpha in enumerate(distinct_alphas)}
        cells = ([alpha_row[alpha] for alpha in alphas], np.arange(len(alphas)))
    return AllocationResponse.from_columns(
        [dp.name for dp in engine.design_points],
        solved.period_s,
        solved.times_s[cells],
        solved.active_time_s[cells],
        solved.objective[cells],
        solved.expected_accuracy[cells],
        solved.energy_j[cells],
        feasible,
        solved.budgets_j,
        alphas,
        batch_size=len(requests),
    )


def solve_batch(
    requests: Sequence[AllocationRequest],
    registry: Optional[EngineRegistry] = None,
) -> List[AllocationResponse]:
    """Solve a bag of requests with one vectorized dispatch per engine group.

    Responses come back in input order; each carries ``batch_size`` -- how
    many requests shared its group's solve -- so callers can observe the
    coalescing.  An empty bag returns an empty list without touching any
    engine.
    """
    if registry is None:
        registry = EngineRegistry()
    responses: List[Optional[AllocationResponse]] = [None] * len(requests)
    for indices in group_requests(requests, registry).values():
        engine = registry.engine_for(requests[indices[0]])
        group = solve_group(engine, [requests[i] for i in indices])
        for index, response in zip(indices, group):
            responses[index] = response
    # The groups partition every index; a hole would misalign responses
    # with requests for callers that zip by position.
    assert all(response is not None for response in responses)
    return responses  # type: ignore[return-value]


class MicroBatcher:
    """Coalesces concurrent asyncio solve calls into batched dispatches.

    Two entry points share one pending queue and one flush: :meth:`solve`
    parks a single request on its own future (one HTTP connection), while
    :meth:`solve_bulk` parks a whole burst on a single future (one
    ``POST /allocate/batch`` payload) -- bursts therefore pay one future
    and one scatter, not one per request, and singles arriving inside the
    same window still merge into the burst's dispatch.  A flush solves its
    chunks inline on the event loop and resolves the futures in the same
    call.

    A batcher is bound to a single event loop: the pending queue is
    unlocked and futures resolve on the loop that created them.  Do not
    share one instance (or the :class:`AllocationService` wrapping it)
    across threads running separate loops -- run one service per loop, or
    talk to a shared server over HTTP.

    Parameters
    ----------
    registry:
        Shared engine registry (one is created when omitted).
    window_s:
        How long the first request of a batch may wait for company.  Zero
        still coalesces whatever lands in the same event-loop turn.
    max_batch:
        Flush immediately once this many requests are pending, and split
        oversize bursts into solve chunks of at most this size.  It bounds
        one chunk's solve, not the loop stall of one flush: a flush solves
        its chunks back to back.
    """

    def __init__(
        self,
        registry: Optional[EngineRegistry] = None,
        window_s: float = 0.002,
        max_batch: int = 1024,
    ) -> None:
        if window_s < 0:
            raise ValueError(f"window must be non-negative, got {window_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        self.registry = registry if registry is not None else EngineRegistry()
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        #: Requests per flushed solve chunk: its count is the batches, its
        #: sum the requests and its max the largest batch.
        self.batch_size = Histogram(
            "repro_batcher_batch_size",
            "Requests per vectorized solve batch flushed by the "
            "micro-batcher.",
            bounds=(),
        )
        #: Seconds per flushed solve chunk, spent on the event loop: its
        #: count is the batches, its sum the busy time and its max the
        #: worst chunk.
        self.solve_seconds = Histogram(
            "repro_batcher_solve_seconds",
            "Event-loop seconds per vectorized solve batch flushed by the "
            "micro-batcher.",
            bounds=(),
        )
        # Entries are (burst, future, trace_ctx): a single request is a
        # burst of one whose future resolves to one response; solve_bulk
        # futures resolve to the whole burst's response list.  trace_ctx is
        # the span context active when the burst was enqueued -- a flush
        # serves many bursts at once (often from the window timer), so each
        # burst's span parent is carried explicitly rather than through
        # contextvars.
        self._pending: List[
            Tuple[
                List[AllocationRequest],
                "asyncio.Future",
                Optional[tracing.SpanContext],
            ]
        ] = []
        self._pending_requests = 0
        self._timer: Optional[asyncio.TimerHandle] = None

    def totals(self) -> Dict[str, Any]:
        """Batch counts and event-loop busy time so far.

        ``{requests, batches, largest_batch, mean_batch_size, busy_ms,
        max_solve_ms}``: ``/stats`` and the
        ``repro_batcher_{requests,batches}_total`` families both read this
        one derivation.
        """
        batches, requests, largest = self.batch_size.totals()
        _, busy_s, max_solve_s = self.solve_seconds.totals()
        return {
            "requests": int(requests),
            "batches": batches,
            "largest_batch": int(largest),
            "mean_batch_size": requests / batches if batches else 0.0,
            "busy_ms": busy_s * 1000.0,
            "max_solve_ms": max_solve_s * 1000.0,
        }

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose the batcher's families on a metrics registry."""
        registry.register(self.batch_size)
        registry.register(self.solve_seconds)
        registry.callback(
            "repro_batcher_requests_total",
            "Allocation requests that reached the micro-batcher.",
            "counter",
            lambda: [("", {}, self.totals()["requests"])],
        )
        registry.callback(
            "repro_batcher_batches_total",
            "Vectorized solve batches flushed by the micro-batcher.",
            "counter",
            lambda: [("", {}, self.totals()["batches"])],
        )

    @property
    def num_pending(self) -> int:
        """Requests currently parked waiting for a flush."""
        return self._pending_requests

    def _enqueue(self, burst: List[AllocationRequest]) -> "asyncio.Future":
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._pending.append((burst, future, tracing.current_context()))
        self._pending_requests += len(burst)
        if self._pending_requests >= self.max_batch:
            self.flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.window_s, self.flush)
        return future

    async def solve(self, request: AllocationRequest) -> AllocationResponse:
        """Park one request; resolves when its batch is dispatched."""
        return (await self._enqueue([request]))[0]

    async def solve_bulk(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResponse]:
        """Park a burst as one unit; one future, one scatter for all of it."""
        if not requests:
            return []
        return list(await self._enqueue(list(requests)))

    async def solve_many(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResponse]:
        """Submit a burst as independent concurrent singles (test harness).

        Unlike :meth:`solve_bulk` this exercises the per-request future
        path, mimicking many simultaneous connections.
        """
        return list(
            await asyncio.gather(*(self.solve(request) for request in requests))
        )

    def flush(self) -> None:
        """Solve everything pending now and resolve its futures.

        Chunks of at most ``max_batch`` are solved back to back; a burst
        spanning chunks is reassembled before its future resolves (the
        scatter walks the pending list, not the chunks).  No-op on an
        empty batch.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_requests = 0
        flat: List[AllocationRequest] = []
        for burst, _, _ in pending:
            flat.extend(burst)
        wall_start = time.time()
        dispatch_start = time.perf_counter()
        responses: List[AllocationResponse] = []
        error: Optional[Exception] = None
        for start in range(0, len(flat), self.max_batch):
            chunk = flat[start : start + self.max_batch]
            chunk_start = time.perf_counter()
            try:
                responses.extend(solve_batch(chunk, self.registry))
            except Exception as failure:  # propagate to every waiter
                error = failure
                break
            finally:
                # A failing chunk held the loop too: it counts as a batch.
                self.solve_seconds.observe(time.perf_counter() - chunk_start)
                self.batch_size.observe(len(chunk))
        elapsed = time.perf_counter() - dispatch_start
        # One batcher.solve span per *traced* burst: the dispatch served
        # every pending burst at once, so each traced requester sees the
        # same duration attributed under its own trace.
        for burst, _, ctx in pending:
            if ctx is not None:
                tracing.record_span(
                    "batcher.solve",
                    ctx,
                    wall_start,
                    elapsed,
                    requests=len(burst),
                    batch_size=len(flat),
                    **({"error": type(error).__name__} if error else {}),
                )
        self._scatter(pending, responses, error)

    @staticmethod
    def _scatter(
        pending: List[
            Tuple[
                List[AllocationRequest],
                "asyncio.Future",
                Optional[tracing.SpanContext],
            ]
        ],
        responses: List[AllocationResponse],
        error: Optional[Exception],
    ) -> None:
        """Resolve every parked future with its burst's share of responses."""
        cursor = 0
        for burst, future, _ in pending:
            share = responses[cursor : cursor + len(burst)]
            cursor += len(burst)
            if future.done():
                continue
            if len(share) < len(burst):
                future.set_exception(
                    error
                    if error is not None
                    else RuntimeError("batch dispatch lost responses")
                )
            else:
                future.set_result(share)


__all__ = [
    "EngineRegistry",
    "MicroBatcher",
    "group_requests",
    "solve_batch",
    "solve_group",
]
