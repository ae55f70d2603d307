"""Tests for the service worker pool (repro.service.pool).

Covers size validation, shutdown semantics and campaign execution on the
pool's persistent process executor.  Allocation solves never reach the
pool; ``test_service.py::TestMicroBatcher`` covers them.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.obs import tracing
from repro.service.pool import WorkerPool, _init_campaign_worker
from repro.service.requests import CampaignRequest
from repro.service.shard import run_sharded_campaign
from repro.simulation.fleet import FleetCampaign


class TestWorkerPoolShutdown:
    def test_submitting_after_shutdown_raises(self):
        pool = WorkerPool(campaign_workers=2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_campaign([], [], None)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(campaign_workers=2)
        pool.shutdown()
        pool.shutdown()
        assert pool.closed


def _grid():
    request = CampaignRequest(hours=48, alphas=(1.0,), baselines=("DP1",))
    scenarios, labels, policies, trace, config = request.build()
    local = FleetCampaign(scenarios, config, scenario_labels=labels).run(
        policies, trace
    )
    return (scenarios, policies, trace, config, labels), local


def _assert_matches_local(result, local):
    for scenario_index, policy_index, cell in result:
        reference = local.result(policy_index, scenario_index)
        np.testing.assert_allclose(
            cell.objective_values(), reference.objective_values(), atol=1e-9
        )
        np.testing.assert_allclose(
            cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
        )


class TestWorkerPoolCampaigns:
    def test_campaign_on_persistent_executor_matches_local(self):
        (scenarios, policies, trace, config, labels), local = _grid()
        with WorkerPool(campaign_workers=2) as pool:
            first = pool.run_campaign(
                scenarios, policies, trace, config, scenario_labels=labels
            )
            # Second run reuses the same process executor (no respawn).
            second = pool.run_campaign(
                scenarios, policies, trace, config, scenario_labels=labels
            )
            assert pool.campaigns_run.value() == 2
        for result in (first, second):
            _assert_matches_local(result, local)

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="forkserver start method not available",
    )
    def test_campaign_workers_survive_a_fork_server(self):
        # Under forkserver (Linux's default from Python 3.14) a worker's
        # parent is the fork server, not the process that owns the pool;
        # the parent watchdog must not mistake that for a dead owner.
        (scenarios, policies, trace, config, labels), local = _grid()
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("forkserver"),
            initializer=_init_campaign_worker,
            initargs=(tracing.active_log_format(), os.getpid()),
        ) as executor:
            for _ in range(2):
                result = run_sharded_campaign(
                    scenarios, policies, trace, config,
                    scenario_labels=labels, jobs=2, executor=executor,
                )
                _assert_matches_local(result, local)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="campaign_workers"):
            WorkerPool(campaign_workers=0)
