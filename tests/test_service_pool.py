"""Tests for the service worker pool (repro.service.pool).

Covers correctness of fanned solves (group slicing, batch_size reporting,
scalar agreement), async dispatch through the micro-batcher, per-worker
counters, shutdown semantics (pending futures cancelled, workers
joined, counters consistent after the drain) and campaign execution on the
pool's persistent process executor.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.core.allocator import ReapAllocator
from repro.data.table2 import table2_design_points
from repro.service.batcher import EngineRegistry, MicroBatcher
from repro.service.pool import WorkerPool
from repro.service.requests import AllocationRequest, CampaignRequest
from repro.service.server import AllocationService
from repro.simulation.fleet import FleetCampaign


@pytest.fixture(scope="module")
def points():
    return tuple(table2_design_points())


def scalar_solve(request: AllocationRequest, points):
    return ReapAllocator().solve(request.resolve(points).to_problem())


def pool_totals(pool: WorkerPool):
    """(tasks, requests) the pool's families hold, summed over workers."""
    workers = [worker for (worker,) in pool.task_seconds.label_values()]
    tasks = sum(pool.task_seconds.count(worker=worker) for worker in workers)
    requests = sum(pool.task_requests.value(worker=worker) for worker in workers)
    return tasks, requests


class TestWorkerPoolSolving:
    def test_matches_scalar_allocator_across_slices(self, points):
        with WorkerPool(workers=2, registry=EngineRegistry(points)) as pool:
            requests = [
                AllocationRequest(float(budget), alpha=alpha)
                for budget in np.linspace(0.2, 10.4, 40)
                for alpha in (1.0, 2.0)
            ]
            responses = pool.solve_batch(requests)
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            reference = scalar_solve(request, points)
            assert response.objective == pytest.approx(
                reference.objective, abs=1e-9
            )

    def test_sliced_group_reports_logical_batch_size(self, points):
        # 64 same-engine requests on 2 workers slice into 2 x 32, but every
        # response must still report the logical group of 64.
        with WorkerPool(workers=2, registry=EngineRegistry(points)) as pool:
            requests = [
                AllocationRequest(float(b)) for b in np.linspace(0.2, 9.9, 64)
            ]
            responses = pool.solve_batch(requests)
            totals = pool_totals(pool)
        assert all(response.batch_size == 64 for response in responses)
        assert totals == (2, 64)

    def test_small_groups_stay_whole(self, points):
        with WorkerPool(workers=4, registry=EngineRegistry(points)) as pool:
            requests = [AllocationRequest(float(b)) for b in (1.0, 2.0, 3.0)]
            pool.solve_batch(requests)
            assert pool_totals(pool)[0] == 1

    def test_single_worker_solves_inline(self, points):
        pool = WorkerPool(workers=1, registry=EngineRegistry(points))
        requests = [AllocationRequest(float(b)) for b in np.linspace(1, 9, 40)]
        responses = pool.solve_batch(requests)
        assert [r.batch_size for r in responses] == [40] * 40
        # Inline solves are recorded against the calling thread.
        assert pool.task_seconds.label_values() == [
            (threading.current_thread().name,)
        ]
        pool.shutdown()

    def test_async_variant_matches_sync(self, points):
        with WorkerPool(workers=2, registry=EngineRegistry(points)) as pool:
            requests = [
                AllocationRequest(float(b)) for b in np.linspace(0.5, 9.5, 48)
            ]
            sync_responses = pool.solve_batch(requests)
            async_responses = asyncio.run(pool.solve_batch_async(requests))
        assert [r.objective for r in async_responses] == [
            r.objective for r in sync_responses
        ]

    def test_empty_batch(self, points):
        with WorkerPool(workers=2, registry=EngineRegistry(points)) as pool:
            assert pool.solve_batch([]) == []
            assert asyncio.run(pool.solve_batch_async([])) == []

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(ValueError, match="campaign_workers"):
            WorkerPool(workers=1, campaign_workers=0)
        with pytest.raises(ValueError, match="min_slice"):
            WorkerPool(workers=1, min_slice=0)


class TestWorkerPoolShutdown:
    def test_shutdown_cancels_pending_joins_workers_and_keeps_stats(
        self, points, monkeypatch
    ):
        import repro.service.pool as pool_module

        registry = EngineRegistry(points)
        # Two workers; one solve_batch over four engine groups (distinct
        # periods) submits four tasks atomically -- two start and block on
        # the gate, two stay queued and are eligible for cancellation.
        pool = WorkerPool(workers=2, registry=registry)
        real_solve_group = pool_module.solve_group
        running = threading.Semaphore(0)
        release = threading.Event()

        def slow_solve_group(engine, requests, batch_size=None):
            running.release()
            assert release.wait(timeout=10.0)
            return real_solve_group(engine, requests, batch_size)

        monkeypatch.setattr(pool_module, "solve_group", slow_solve_group)
        # The caller submits the four tasks one by one: shut down only
        # after the last submit, or a late one raises instead of leaving
        # a task to cancel.
        submitted = threading.Semaphore(0)
        real_submit = pool._executor.submit

        def counting_submit(*args, **kwargs):
            future = real_submit(*args, **kwargs)
            submitted.release()
            return future

        monkeypatch.setattr(pool._executor, "submit", counting_submit)
        requests = [
            AllocationRequest(5.0, period_s=period)
            for period in (3600.0, 1800.0, 900.0, 450.0)
        ]
        outcome = {}

        def call():
            try:
                outcome["responses"] = pool.solve_batch(requests)
            except CancelledError:
                outcome["cancelled"] = True

        caller = threading.Thread(target=call)
        caller.start()
        # Both workers busy; the remaining two tasks are queued.
        assert running.acquire(timeout=10.0)
        assert running.acquire(timeout=10.0)
        for _ in requests:
            assert submitted.acquire(timeout=10.0)
        pool.shutdown(wait=False, cancel_pending=True)
        release.set()
        caller.join(timeout=10.0)
        assert not caller.is_alive()
        pool.shutdown(wait=True)  # idempotent; joins the workers

        # The burst observed its queued tasks being cancelled.
        assert outcome == {"cancelled": True}
        # Workers joined: no engine-worker thread is still alive.
        assert not any(
            thread.name.startswith("engine-worker") and thread.is_alive()
            for thread in threading.enumerate()
        )
        # Stats consistent after the drain: exactly the two completed
        # tasks were recorded, nothing for the cancelled pair.
        assert pool_totals(pool) == (2, 2)
        assert pool.closed

    def test_submitting_after_shutdown_raises(self, points):
        pool = WorkerPool(workers=2, registry=EngineRegistry(points))
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.solve_batch([AllocationRequest(1.0)])
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_campaign([], [], None)

    def test_shutdown_is_idempotent(self, points):
        pool = WorkerPool(workers=2, registry=EngineRegistry(points))
        pool.shutdown()
        pool.shutdown()


class TestWorkerPoolCampaigns:
    def test_campaign_on_persistent_executor_matches_local(self):
        request = CampaignRequest(hours=48, alphas=(1.0,), baselines=("DP1",))
        scenarios, labels, policies, trace, config = request.build()
        local = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        with WorkerPool(workers=1, campaign_workers=2) as pool:
            first = pool.run_campaign(
                scenarios, policies, trace, config, scenario_labels=labels
            )
            # Second run reuses the same process executor (no respawn).
            second = pool.run_campaign(
                scenarios, policies, trace, config, scenario_labels=labels
            )
            assert pool.campaigns_run.value() == 2
        for result in (first, second):
            for scenario_index, policy_index, cell in result:
                reference = local.result(policy_index, scenario_index)
                np.testing.assert_allclose(
                    cell.objective_values(),
                    reference.objective_values(),
                    atol=1e-9,
                )
                np.testing.assert_allclose(
                    cell.battery_charge_j,
                    reference.battery_charge_j,
                    atol=1e-9,
                )


class TestServiceWithPool:
    def test_pooled_service_matches_scalar_and_merges_stats(self, points):
        async def scenario():
            service = AllocationService(
                default_points=points, window_s=0.001, workers=2
            )
            burst = [
                AllocationRequest(float(b)) for b in np.linspace(0.2, 9.9, 48)
            ]
            responses = await service.allocate_many(burst)
            repeat = await service.allocate(burst[0])
            stats = service.stats()
            service.close()
            return responses, repeat, stats

        responses, repeat, stats = asyncio.run(scenario())
        for response in responses[:5]:
            reference = scalar_solve(
                AllocationRequest(response.energy_budget_j), points
            )
            assert response.objective == pytest.approx(
                reference.objective, abs=1e-9
            )
        assert repeat.cache_hit
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["requests"] == 48
        assert stats["pool"]["tasks"] >= 1
        assert stats["batcher"]["requests"] == 48

    def test_pooled_micro_batcher_coalesces_singles(self, points):
        async def scenario():
            registry = EngineRegistry(points)
            with WorkerPool(workers=2, registry=registry) as pool:
                batcher = MicroBatcher(registry, window_s=0.005, pool=pool)
                requests = [
                    AllocationRequest(float(b))
                    for b in np.linspace(0.2, 9.9, 32)
                ]
                responses = await batcher.solve_many(requests)
                return responses, batcher.batch_size.count()

        responses, batches = asyncio.run(scenario())
        assert batches == 1
        assert all(response.batch_size == 32 for response in responses)

    def test_pooled_batcher_propagates_errors(self, points):
        async def scenario():
            registry = EngineRegistry(points)
            with WorkerPool(workers=2, registry=registry) as pool:
                batcher = MicroBatcher(registry, window_s=0.001, pool=pool)
                bad = AllocationRequest(5.0)
                # Corrupt post-validation so only the solve path can object.
                object.__setattr__(bad, "energy_budget_j", -1.0)
                with pytest.raises(ValueError):
                    await batcher.solve(bad)

        asyncio.run(scenario())


class TestLatencyUnderLoad:
    def test_loop_stays_responsive_while_workers_solve(self, points):
        """With workers, a tiny request is not stuck behind a big burst."""

        async def scenario():
            service = AllocationService(
                default_points=points, window_s=0.0, workers=2, cache_size=0
            )
            big = [
                AllocationRequest(float(b))
                for b in np.linspace(0.2, 10.0, 200)
            ]
            burst_task = asyncio.ensure_future(service.allocate_many(big))
            await asyncio.sleep(0)  # let the burst flush onto the pool
            started = time.perf_counter()
            await service.allocate(AllocationRequest(5.0))
            single_latency = time.perf_counter() - started
            await burst_task
            service.close()
            return single_latency

        # Generous bound: the point is "did not deadlock behind the burst".
        assert asyncio.run(scenario()) < 5.0
