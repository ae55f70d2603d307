"""Sharded fleet campaigns: split a (scenario x policy) grid across processes.

The fleet engine (:class:`~repro.simulation.fleet.FleetCampaign`) already
vectorizes a whole grid inside one process; this module scales it across
cores.  Every (scenario, policy) cell of a campaign grid is independent --
the lockstep battery scan couples nothing across cells and each cell's
device simulator owns its own seeded RNG -- so the grid can be partitioned
into contiguous scenario-major runs, executed in a
:class:`~concurrent.futures.ProcessPoolExecutor`, and reassembled into one
:class:`~repro.simulation.fleet.FleetResult` that matches the
single-process run to floating-point round-off.

When the grid itself is too small to fill the requested workers (e.g. one
scenario, one policy, a year-long trace) and the campaign is open-loop in
"expected" recognition mode, the runner shards along the *time* axis
instead: each worker simulates a contiguous trace slice and the per-cell
:class:`~repro.simulation.metrics.CampaignColumns` are merged back with
:meth:`~repro.simulation.metrics.CampaignColumns.concat`.  Closed-loop and
sampled-mode campaigns are excluded from time sharding because the battery
recurrence and the Bernoulli stream are sequential in time.

Parent and workers talk over the executor pipe by pickle.  The campaign
context (scenarios, labels, config, policies, trace) is pickled *once*
per campaign in the parent and travels with every task as bytes; each
worker unpickles it once per context digest and keeps it in a small
cache (:func:`_load_context`), so a persistent pool serving repeated
campaigns pays the unpickle once per worker rather than once per task.
Results come back pickled through the executor's result pipe.

The sharded run reproduces the single-process run exactly: cell identity
is preserved (each cell's device simulator re-seeds from the same
``DeviceConfig``), so even sampled-mode RNG streams match bit for bit.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harvesting.solar_cell import HarvestScenario
from repro.harvesting.traces import SolarTrace
from repro.obs import tracing
from repro.obs.profiling import PhaseProfiler
from repro.simulation.fleet import CampaignConfig, FleetCampaign, FleetResult
from repro.simulation.metrics import CampaignColumns, CampaignResult
from repro.simulation.policies import Policy


def shard_cells(
    num_scenarios: int, num_policies: int, jobs: int
) -> List[List[Tuple[int, int]]]:
    """Partition the scenario-major cell list into at most ``jobs`` chunks.

    Returns contiguous runs of (scenario_index, policy_index) pairs of
    near-equal size; fewer than ``jobs`` chunks when there are fewer cells.
    """
    if num_scenarios < 1 or num_policies < 1:
        raise ValueError("grid must have at least one scenario and one policy")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [
        (scenario, policy)
        for scenario in range(num_scenarios)
        for policy in range(num_policies)
    ]
    num_chunks = min(jobs, len(cells))
    base, extra = divmod(len(cells), num_chunks)
    chunks: List[List[Tuple[int, int]]] = []
    start = 0
    for chunk_index in range(num_chunks):
        size = base + (1 if chunk_index < extra else 0)
        chunks.append(cells[start : start + size])
        start += size
    return chunks


def _cell_groups(
    chunk: Sequence[Tuple[int, int]],
) -> List[Tuple[int, int, int]]:
    """Collapse a contiguous scenario-major chunk into per-scenario runs.

    Returns (scenario_index, first_policy, last_policy_exclusive) triples;
    within a contiguous chunk each scenario's policy indices form one run.
    """
    groups: List[Tuple[int, int, int]] = []
    for scenario, policy in chunk:
        if groups and groups[-1][0] == scenario and groups[-1][2] == policy:
            groups[-1] = (scenario, groups[-1][1], policy + 1)
        else:
            groups.append((scenario, policy, policy + 1))
    return groups


#: A campaign context pickled once in the parent: (digest, blob).
PackedContext = Tuple[str, bytes]

#: Worker-side cache of unpickled campaign contexts, keyed by blob digest.
#: Module-level because a pool worker keeps nothing else between tasks.
#: Bounded so a long-lived pool serving many distinct campaigns cannot grow
#: it without limit.
_CONTEXT_CACHE: Dict[str, tuple] = {}
_MAX_CACHED_CONTEXTS = 4


def _pack_context(context: tuple) -> PackedContext:
    """Pickle a campaign context once and key it by its digest (parent side).

    The blob travels with every task; the digest lets each worker skip
    the unpickle for a context it already holds (see
    :func:`_load_context`).
    """
    blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


def _load_context(packed: PackedContext) -> tuple:
    """Unpickle and cache one packed context (worker side).

    The first task of a campaign in each worker pays one unpickle;
    later tasks -- and later campaigns with identical inputs -- hit the
    cache.
    """
    digest, blob = packed
    cached = _CONTEXT_CACHE.get(digest)
    if cached is not None:
        return cached
    context = pickle.loads(blob)
    while len(_CONTEXT_CACHE) >= _MAX_CACHED_CONTEXTS:
        _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
    _CONTEXT_CACHE[digest] = context
    return context


def _simulate_cell_chunk(
    scenarios: Sequence[HarvestScenario],
    labels: Sequence[str],
    config: CampaignConfig,
    policies: Sequence[Policy],
    trace: SolarTrace,
    chunk: Sequence[Tuple[int, int]],
    profiler: Optional[PhaseProfiler] = None,
) -> List[Tuple[int, int, CampaignResult]]:
    """Simulate one chunk of (scenario, policy) cells.

    ``profiler`` accumulates the fleet pipeline's per-phase timings
    across the chunk's scenario groups.
    """
    results: List[Tuple[int, int, CampaignResult]] = []
    for scenario, first, last in _cell_groups(chunk):
        fleet = FleetCampaign(
            scenarios[scenario], config, scenario_labels=[labels[scenario]]
        )
        shard = fleet.run(list(policies[first:last]), trace, profiler=profiler)
        for offset in range(last - first):
            results.append((scenario, first + offset, shard.result(offset)))
    return results


def _shard_span(
    trace_ctx: Optional[tracing.SpanContext],
    work: Callable[[PhaseProfiler], Any],
) -> Tuple[Any, Dict[str, float], List[Dict[str, Any]]]:
    """Worker-side harness: run ``work`` under a ``campaign.shard`` span.

    Returns (work result, per-phase timings, captured span records).  The
    span context arrives pickled from the parent process -- contextvars
    cannot cross the executor -- and the emitted spans are *returned*
    rather than only logged, because the worker's in-process trace
    recorder dies with the worker: the parent ingests them.  With no
    ``trace_ctx`` the phases are still profiled but no span is emitted.
    """
    profiler = PhaseProfiler()
    if trace_ctx is None:
        return work(profiler), profiler.as_dict(), []
    with tracing.capture_spans() as captured:
        with tracing.span("campaign.shard", parent=trace_ctx):
            result = work(profiler)
    return result, profiler.as_dict(), captured


def _run_cell_shard(
    packed: PackedContext,
    chunk: Sequence[Tuple[int, int]],
    trace_ctx: Optional[tracing.SpanContext] = None,
) -> Tuple[List[Tuple[int, int, CampaignResult]], Dict[str, float], List[Dict[str, Any]]]:
    """Worker: simulate a chunk of cells, return their full results.

    The trace context travels as a per-task argument, *not* inside the
    packed context -- the context is digest-cached across campaigns, and
    a trace id baked into it would defeat the cache.
    """
    scenarios, labels, config, policies, trace = _load_context(packed)
    return _shard_span(
        trace_ctx,
        lambda profiler: _simulate_cell_chunk(
            scenarios, labels, config, policies, trace, chunk, profiler
        ),
    )


def _simulate_time_slice(
    scenarios: Sequence[HarvestScenario],
    labels: Sequence[str],
    config: CampaignConfig,
    policies: Sequence[Policy],
    trace: SolarTrace,
    first_hour: int,
    last_hour: int,
) -> List[List[CampaignColumns]]:
    """Simulate every cell over one contiguous trace slice.

    Returns the per-cell columns with ``period_index`` shifted to global
    trace coordinates so :meth:`CampaignColumns.concat` yields the exact
    single-process indexing.
    """
    slice_trace = SolarTrace(trace.hours[first_hour:last_hour], name=trace.name)
    fleet = FleetCampaign(scenarios, config, scenario_labels=labels)
    shard = fleet.run(list(policies), trace=slice_trace)
    grid: List[List[CampaignColumns]] = []
    for scenario_index in range(len(scenarios)):
        row = []
        for policy_index in range(len(policies)):
            columns = shard.result(policy_index, scenario_index).columns
            assert columns is not None  # fleet results are always columnar
            row.append(
                replace(columns, period_index=columns.period_index + first_hour)
            )
        grid.append(row)
    return grid


def _run_time_shard(
    packed: PackedContext,
    first_hour: int,
    last_hour: int,
    trace_ctx: Optional[tracing.SpanContext] = None,
) -> Tuple[List[List[CampaignColumns]], Dict[str, float], List[Dict[str, Any]]]:
    """Worker: simulate one trace slice for every cell."""
    scenarios, labels, config, policies, trace = _load_context(packed)

    def work(profiler: PhaseProfiler) -> List[List[CampaignColumns]]:
        with profiler.phase("cell_solve"):
            return _simulate_time_slice(
                scenarios, labels, config, policies, trace, first_hour, last_hour
            )

    return _shard_span(trace_ctx, work)


def _time_shardable(
    config: CampaignConfig, policies: Sequence[Policy]
) -> bool:
    """Whether per-period outcomes are independent along the time axis.

    Requires an open loop (the battery recurrence is sequential),
    "expected" recognition (the sampled Bernoulli stream is sequential)
    and stateless policies.  A policy carrying cross-period state must
    override :meth:`Policy.reset` for campaigns to be correct at all, so an
    overridden ``reset`` is the signal to refuse time slicing (each worker
    would restart the state at its slice boundary).
    """
    return (
        not config.use_battery
        and config.device.recognition_mode == "expected"
        and all(type(policy).reset is Policy.reset for policy in policies)
    )


def _run_all_on_workers(
    fn: Callable,
    argument_tuples: Sequence[tuple],
    jobs: int,
    executor: Optional[Executor],
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Run every task and let *all* of them settle before raising.

    Uses the caller's ``executor`` when one is provided (a persistent
    service pool); otherwise spins up -- and tears down -- a private
    :class:`ProcessPoolExecutor` sized to the work.  ``executor.map``
    raises at the first failed result with later tasks possibly still
    running; here the first exception is re-raised only after every
    future is done (not-yet-started tasks are cancelled, running ones
    finish), so a failed campaign leaves no work of its own behind on a
    shared pool.

    ``on_result(task_index, result)`` is invoked on the caller's thread
    for each task result *as it completes* (completion order, hence the
    explicit submission index) -- the hook durable campaigns use to
    journal a shard the moment it finishes rather than after the whole
    grid.  A callback exception aborts the run under the same
    settle-first contract.
    """

    def collect(futures) -> List[Any]:
        index_of = {id(future): index for index, future in enumerate(futures)}
        results: List[Any] = [None] * len(futures)
        first_error: Optional[BaseException] = None
        for future in as_completed(futures):
            if future.cancelled():
                continue
            error = future.exception()
            if error is not None:
                if first_error is None:
                    first_error = error
                    for other in futures:
                        other.cancel()
                continue
            index = index_of[id(future)]
            results[index] = future.result()
            if on_result is not None and first_error is None:
                try:
                    on_result(index, results[index])
                except BaseException as callback_error:
                    first_error = callback_error
                    for other in futures:
                        other.cancel()
        if first_error is not None:
            raise first_error
        return results

    if executor is not None:
        return collect([executor.submit(fn, *args) for args in argument_tuples])
    workers = max(1, min(jobs, len(argument_tuples)))
    with ProcessPoolExecutor(max_workers=workers) as own:
        return collect([own.submit(fn, *args) for args in argument_tuples])


def run_sharded_campaign(
    scenarios: Sequence[HarvestScenario],
    policies: Sequence[Policy],
    trace: SolarTrace,
    config: Optional[CampaignConfig] = None,
    scenario_labels: Optional[Sequence[str]] = None,
    jobs: int = 1,
    executor: Optional[Executor] = None,
    completed: Optional[Dict[Tuple[int, int], CampaignResult]] = None,
    on_shard_done: Optional[
        Callable[[List[Tuple[int, int, CampaignResult]]], None]
    ] = None,
) -> FleetResult:
    """Run a fleet campaign grid, optionally sharded across processes.

    ``jobs=1`` (the default) runs the plain in-process
    :class:`FleetCampaign` -- the sharded paths reproduce it to
    floating-point round-off, never approximately.  With more jobs the grid
    is split cell-wise; grids smaller than the worker count fall back to
    time sharding when the campaign allows it (open loop, expected-mode
    recognition).  The merged result's :attr:`FleetResult.scan` is ``None``
    for sharded runs (each worker owns a private scan); per-cell battery
    trajectories remain available on the cell results.

    ``executor`` lets long-running services reuse one persistent process
    pool (e.g. :class:`repro.service.pool.WorkerPool`) across campaigns
    instead of paying process start-up per run; it is never shut down here.

    ``completed`` and ``on_shard_done`` are the durable-campaign hooks
    (:mod:`repro.service.store`): cells present in ``completed`` -- e.g.
    journaled by a previous run that was killed mid-campaign -- are **not**
    re-simulated (their results are merged into the grid as-is), and
    ``on_shard_done(cells)`` fires on the caller's thread the moment each
    shard's cells are in hand, before the campaign finishes.  Either hook
    makes the run *durable*: the grid is always sharded cell-wise (time
    slices have no stable per-cell identity to journal), the jobs==1 path
    runs the chunks inline instead of taking the single-process shortcut,
    and a callback exception aborts the campaign after in-flight workers
    settle.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    scenarios = list(scenarios)
    policies = list(policies)
    config = config or CampaignConfig()
    if scenario_labels is None:
        scenario_labels = [f"S{index}" for index in range(len(scenarios))]
    labels = list(scenario_labels)

    num_cells = len(scenarios) * len(policies)
    time_shardable = _time_shardable(config, policies)
    # Captured once, here on the caller's thread: worker processes receive
    # it pickled per task so their spans join the caller's trace.
    trace_ctx = tracing.current_context()
    durable = completed is not None or on_shard_done is not None
    if durable:
        return _run_cell_sharded(
            scenarios, labels, config, policies, trace, jobs, executor,
            trace_ctx, completed=completed, on_shard_done=on_shard_done,
        )
    if jobs == 1 or (num_cells == 1 and not time_shardable):
        return FleetCampaign(
            scenarios, config, scenario_labels=labels
        ).run(policies, trace)

    if num_cells < jobs and time_shardable and len(trace) >= 2 * jobs:
        return _run_time_sharded(
            scenarios, labels, config, policies, trace, jobs, executor,
            trace_ctx,
        )
    return _run_cell_sharded(
        scenarios, labels, config, policies, trace, jobs, executor, trace_ctx,
    )


def _run_cell_sharded(
    scenarios: Sequence[HarvestScenario],
    labels: Sequence[str],
    config: CampaignConfig,
    policies: Sequence[Policy],
    trace: SolarTrace,
    jobs: int,
    executor: Optional[Executor] = None,
    trace_ctx: Optional[tracing.SpanContext] = None,
    completed: Optional[Dict[Tuple[int, int], CampaignResult]] = None,
    on_shard_done: Optional[
        Callable[[List[Tuple[int, int, CampaignResult]]], None]
    ] = None,
) -> FleetResult:
    """Split the grid cell-wise across a process pool and merge the rows.

    Cells in ``completed`` are excluded from the worker chunks and merged
    into the grid directly; ``on_shard_done`` fires per finished shard
    (see :func:`run_sharded_campaign`).
    """
    profiler = PhaseProfiler()
    chunks = shard_cells(len(scenarios), len(policies), jobs)
    grid: List[List[Optional[CampaignResult]]] = [
        [None] * len(policies) for _ in scenarios
    ]
    if completed:
        for (scenario_index, policy_index), result in completed.items():
            grid[scenario_index][policy_index] = result
        chunks = [
            [cell for cell in chunk if cell not in completed]
            for chunk in chunks
        ]
        chunks = [chunk for chunk in chunks if chunk]

    def merge_cells(cells: List[Tuple[int, int, CampaignResult]]) -> None:
        with profiler.phase("merge"):
            for scenario_index, policy_index, result in cells:
                grid[scenario_index][policy_index] = result
        # Outside the merge phase: journaling is the store's time, not ours.
        if on_shard_done is not None:
            on_shard_done(cells)

    if not chunks:
        pass  # every cell journaled already; nothing left to simulate
    elif jobs == 1 and executor is None:
        # Durable single-worker path: no pool, but still chunked so each
        # chunk's cells hit the journal as they finish.
        for chunk in chunks:
            merge_cells(
                _simulate_cell_chunk(
                    scenarios, labels, config, policies, trace, chunk, profiler
                )
            )
    else:
        with profiler.phase("context_publish"):
            packed = _pack_context((scenarios, labels, config, policies, trace))

        def merge_shard(_index: int, shard_result) -> None:
            cells, phases, spans = shard_result
            profiler.merge(phases)
            tracing.ingest(spans)
            merge_cells(cells)

        _run_all_on_workers(
            _run_cell_shard,
            [(packed, chunk, trace_ctx) for chunk in chunks],
            jobs,
            executor,
            on_result=merge_shard,
        )
    missing = [
        (scenario_index, policy_index)
        for scenario_index, row in enumerate(grid)
        for policy_index, cell in enumerate(row)
        if cell is None
    ]
    if missing:  # a partial grid would silently shift policy indices
        raise RuntimeError(f"shard workers left cells unfilled: {missing}")
    result = FleetResult(
        scenario_labels=labels,
        policies=policies,
        grid=grid,
        scan=None,
        trace_hours=len(trace),
    )
    result.phase_timings = profiler.as_dict()
    return result


def _run_time_sharded(
    scenarios: Sequence[HarvestScenario],
    labels: Sequence[str],
    config: CampaignConfig,
    policies: Sequence[Policy],
    trace: SolarTrace,
    jobs: int,
    executor: Optional[Executor] = None,
    trace_ctx: Optional[tracing.SpanContext] = None,
) -> FleetResult:
    """Split the trace into contiguous slices and concat the merged columns."""
    profiler = PhaseProfiler()
    hours = len(trace)
    base, extra = divmod(hours, jobs)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for shard_index in range(jobs):
        size = base + (1 if shard_index < extra else 0)
        if size == 0:
            continue
        bounds.append((start, start + size))
        start += size
    with profiler.phase("context_publish"):
        packed = _pack_context((scenarios, labels, config, policies, trace))
    pieces: List[List[List[CampaignColumns]]] = []
    for grid_part, phases, spans in _run_all_on_workers(
        _run_time_shard,
        [(packed, first, last, trace_ctx) for first, last in bounds],
        jobs,
        executor,
    ):
        profiler.merge(phases)
        tracing.ingest(spans)
        pieces.append(grid_part)
    grid: List[List[CampaignResult]] = []
    with profiler.phase("merge"):
        for scenario_index in range(len(scenarios)):
            row = []
            for policy_index, policy in enumerate(policies):
                columns = CampaignColumns.concat(
                    [piece[scenario_index][policy_index] for piece in pieces]
                )
                row.append(
                    CampaignResult.from_columns(policy.name, policy.alpha, columns)
                )
            grid.append(row)
    result = FleetResult(
        scenario_labels=labels,
        policies=policies,
        grid=grid,
        scan=None,
        trace_hours=hours,
    )
    result.phase_timings = profiler.as_dict()
    return result


__all__ = ["run_sharded_campaign", "shard_cells"]
