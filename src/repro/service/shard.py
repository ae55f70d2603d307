"""Campaign blocks: run a (scenario x policy) grid as one scan per worker.

The fleet engine (:class:`~repro.simulation.fleet.FleetCampaign`) already
vectorizes a whole grid inside one process: one lockstep battery scan
steps every cell.  This module runs a grid on a persistent process pool
the same way.  :func:`block_layout` cuts the grid into at most one
rectangular block of contiguous scenarios x policies per worker, and each
block is a single ``FleetCampaign.run`` -- one scan, never one per
scenario.  With one worker there is no pool: the block is the whole grid,
run in the calling process.  Every cell is independent (the lockstep scan
couples nothing across cells and each cell's device simulator owns its
own seeded RNG), so the merged
:class:`~repro.simulation.fleet.FleetResult` matches ``FleetCampaign.run``
on the whole grid to floating-point round-off.

Parent and workers talk over the executor pipe by pickle.  The campaign
context (scenarios, labels, config, policies, trace) is pickled *once*
per campaign in the parent and travels with every task as bytes; each
worker unpickles it once per context digest and keeps it in a small
cache (:func:`_load_context`), so a persistent pool serving repeated
campaigns pays the unpickle once per worker rather than once per task.
Results come back pickled through the executor's result pipe.  A durable
campaign's workers return their cells as one
:func:`repro.service.store.encode_cells` payload instead: each cell is
deflated once, in the worker, and the journal record and the binary
columns stream reuse those bytes.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import Executor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harvesting.solar_cell import HarvestScenario
from repro.harvesting.traces import SolarTrace
from repro.obs import tracing
from repro.obs.profiling import PhaseProfiler
from repro.simulation.fleet import CampaignConfig, FleetCampaign, FleetResult
from repro.simulation.metrics import CampaignResult
from repro.simulation.policies import Policy

#: A rectangle of a campaign grid: (scenario indices, policy indices).
Block = Tuple[range, range]

#: One simulated cell in grid coordinates: (scenario, policy, result).
Cell = Tuple[int, int, CampaignResult]


def _runs(count: int, parts: int) -> List[range]:
    """Split ``range(count)`` into ``parts`` contiguous runs of near-equal size."""
    base, extra = divmod(count, parts)
    runs: List[range] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        runs.append(range(start, stop))
        start = stop
    return runs


def block_layout(
    num_scenarios: int, num_policies: int, workers: int
) -> List[Block]:
    """Cut an S x P grid into at most ``workers`` rectangular blocks.

    The scenarios split into ``a = min(S, W)`` contiguous runs and each
    run's policies into ``b = min(P, W // a)`` contiguous runs; blocks are
    listed scenario-major.  A block's cells share one scan, and the scan
    costs per period rather than per cell, so one block per worker is the
    finest split worth paying for.
    """
    if num_scenarios < 1 or num_policies < 1:
        raise ValueError("grid must have at least one scenario and one policy")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    scenario_runs = min(num_scenarios, workers)
    policy_runs = min(num_policies, workers // scenario_runs)
    return [
        (scenarios, policies)
        for scenarios in _runs(num_scenarios, scenario_runs)
        for policies in _runs(num_policies, policy_runs)
    ]


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


def _run_block(
    context: tuple, block: Block, profiler: PhaseProfiler
) -> List[Cell]:
    """Simulate one block in one ``FleetCampaign.run``; cells in grid order.

    ``profiler`` accumulates the fleet pipeline's per-phase timings.
    """
    scenarios, labels, config, policies, trace = context
    rows, columns = block
    fleet = FleetCampaign(
        scenarios[rows.start : rows.stop],
        config,
        scenario_labels=labels[rows.start : rows.stop],
    )
    result = fleet.run(
        policies[columns.start : columns.stop], trace, profiler=profiler
    )
    return [(rows[row], columns[column], cell) for row, column, cell in result]


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


def _run_shard(
    packed: PackedContext,
    block: Block,
    trace_ctx: Optional[tracing.SpanContext] = None,
    encode: bool = False,
) -> Tuple[Any, Dict[str, float], List[Dict[str, Any]]]:
    """Worker: simulate one block, return its cells.

    With ``encode`` (durable campaigns) the cells come back as one
    :func:`repro.service.store.encode_cells` payload, timed as the
    ``encode`` phase, instead of as :class:`CampaignResult` objects.

    The trace context travels as a per-task argument, *not* inside the
    packed context -- the context is digest-cached across campaigns, and
    a trace id baked into it would defeat the cache.
    """
    context = _load_context(packed)

    def work(profiler: PhaseProfiler) -> Any:
        cells = _run_block(context, block, profiler)
        if not encode:
            return cells
        from repro.service.store import encode_cells

        with profiler.phase("encode"):
            return encode_cells(cells)

    return _shard_span(trace_ctx, work)


def _run_all_on_workers(
    fn: Callable,
    argument_tuples: Sequence[tuple],
    executor: Executor,
    on_result: Callable[[Any], None],
) -> None:
    """Run every task on ``executor`` and let *all* of them settle before raising.

    ``executor.map`` raises at the first failed result with later tasks
    possibly still running; here the first exception is re-raised only
    after every future is done (not-yet-started tasks are cancelled,
    running ones finish), so a failed campaign leaves no work of its own
    behind on a shared pool.

    ``on_result(result)`` is invoked on the caller's thread for each task
    result *as it completes* (completion order) -- the hook durable
    campaigns use to journal a shard the moment it finishes rather than
    after the whole grid.  A callback exception aborts the run under the
    same settle-first contract.
    """
    futures = [executor.submit(fn, *args) for args in argument_tuples]
    first_error: Optional[BaseException] = None
    for future in as_completed(futures):
        if future.cancelled():
            continue
        error = future.exception()
        if error is None and first_error is None:
            try:
                on_result(future.result())
            except BaseException as callback_error:
                error = callback_error
        if error is not None and first_error is None:
            first_error = error
            for other in futures:
                other.cancel()
    if first_error is not None:
        raise first_error


def run_sharded_campaign(
    scenarios: Sequence[HarvestScenario],
    policies: Sequence[Policy],
    trace: SolarTrace,
    config: Optional[CampaignConfig] = None,
    scenario_labels: Optional[Sequence[str]] = None,
    workers: int = 1,
    executor: Optional[Executor] = None,
    completed: Optional[Dict[Tuple[int, int], CampaignResult]] = None,
    on_shard_done: Optional[Callable[[List[Cell]], None]] = None,
) -> FleetResult:
    """Run a fleet campaign grid as :func:`block_layout` blocks.

    Each block is one :meth:`FleetCampaign.run` over its scenarios and
    policies.  Without an ``executor`` (``workers`` must then be 1) the
    one block is the whole grid, run in this process.  With one, the
    ``workers`` blocks run on its processes; it is a persistent pool
    (:class:`repro.service.pool.WorkerPool`'s) and is never shut down
    here.  Either way the merged result matches ``FleetCampaign.run`` on
    the whole grid to floating-point round-off; its
    :attr:`FleetResult.scan` is ``None`` (each block owns its scan), and
    per-cell battery trajectories stay on the cell results.

    ``completed`` and ``on_shard_done`` are the durable-campaign hooks
    (:mod:`repro.service.store`).  Cells in ``completed`` -- journaled by
    an earlier run that was killed mid-campaign -- are merged as they
    are, and a block whose cells are all there does not run.  A block
    with only some of its cells journaled (the journal was written under
    another layout) re-runs whole, but only its missing cells reach
    ``on_shard_done``, so each cell is journaled exactly once.
    ``on_shard_done(cells)`` fires on the caller's thread the moment a
    block's cells are in hand, before the campaign finishes; an
    exception from it aborts the campaign once in-flight blocks settle.
    With either hook set the workers return their cells encoded, timed
    as the ``encode`` phase, and this process decodes them (``decode``);
    the decoded cells keep their frames.
    """
    if executor is None and workers != 1:
        raise ValueError(
            f"{workers} workers need an executor; without one the grid "
            "runs in this process as one block"
        )
    scenarios = list(scenarios)
    policies = list(policies)
    config = config or CampaignConfig()
    if scenario_labels is None:
        scenario_labels = [f"S{index}" for index in range(len(scenarios))]
    labels = list(scenario_labels)
    context = (scenarios, labels, config, policies, trace)
    durable = completed is not None or on_shard_done is not None
    completed = completed or {}
    profiler = PhaseProfiler()
    grid: List[List[Optional[CampaignResult]]] = [
        [None] * len(policies) for _ in scenarios
    ]
    for (scenario_index, policy_index), result in completed.items():
        grid[scenario_index][policy_index] = result
    blocks = [
        (rows, columns)
        for rows, columns in block_layout(len(scenarios), len(policies), workers)
        if any((row, column) not in completed for row in rows for column in columns)
    ]

    def merge_cells(cells: List[Cell]) -> None:
        cells = [cell for cell in cells if cell[:2] not in completed]
        with profiler.phase("merge"):
            for scenario_index, policy_index, result in cells:
                grid[scenario_index][policy_index] = result
        # Outside the merge phase: journaling is the store's time, not ours.
        if on_shard_done is not None:
            on_shard_done(cells)

    if executor is None:
        for block in blocks:  # at most one: the whole grid
            merge_cells(_run_block(context, block, profiler))
    elif blocks:
        # Captured here, on the caller's thread: the workers receive it
        # pickled per task so their spans join the caller's trace.
        trace_ctx = tracing.current_context()
        with profiler.phase("context_publish"):
            packed = _pack_context(context)

        def merge_shard(shard_result) -> None:
            cells, phases, spans = shard_result
            profiler.merge(phases)
            tracing.ingest(spans)
            if durable:
                from repro.service.store import decode_cells

                with profiler.phase("decode"):
                    cells = decode_cells(cells)
            merge_cells(cells)

        _run_all_on_workers(
            _run_shard,
            [(packed, block, trace_ctx, durable) for block in blocks],
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
        raise RuntimeError(f"campaign blocks left cells unfilled: {missing}")
    result = FleetResult(
        scenario_labels=labels,
        policies=policies,
        grid=grid,
        scan=None,
        trace_hours=len(trace),
    )
    result.phase_timings = profiler.as_dict()
    return result


__all__ = ["block_layout", "run_sharded_campaign"]
