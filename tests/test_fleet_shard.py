"""Tests for campaign blocks on the worker pool, and per-scenario batteries.

A campaign grid runs as one block of scenarios x policies per campaign
worker, each block one ``FleetCampaign.run``; the merged result must be
*exactly* equivalent to ``FleetCampaign.run`` on the whole grid -- the
blocks run the same vectorized code on rectangles of the same grid -- so
every comparison here is to 1e-9 or tighter, on per-period series, not
just aggregates.  The block layout, the worker-side context cache, worker
failures, the merge phase's timing and the durable resume contract (re-run
only the blocks the journal is missing, journal each cell once) are
covered too.
"""

from __future__ import annotations

import pickle
import time
import types

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data.table2 import table2_design_points
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace
from repro.service import shard
from repro.service.pool import WorkerPool
from repro.service.shard import block_layout, run_sharded_campaign
from repro.simulation.fleet import CampaignConfig, FleetCampaign
from repro.simulation.policies import ReapPolicy, StaticPolicy
from repro.simulation.simulator import HarvestingCampaign


@pytest.fixture(scope="module")
def points():
    return tuple(table2_design_points())


@pytest.fixture(scope="module")
def trace():
    month = SyntheticSolarModel(seed=2015).generate_month(9)
    return SolarTrace(month.hours[:72], name=month.name)


def _policies(points):
    return [
        ReapPolicy(points, alpha=1.0),
        ReapPolicy(points, alpha=2.0),
        StaticPolicy(points, "DP1"),
        StaticPolicy(points, "DP5"),
    ]


class CrashingPolicy(ReapPolicy):
    """A policy that dies mid-cell (module-level so workers can unpickle it)."""

    def allocate_arrays(self, budgets_j):
        raise RuntimeError("boom: simulated worker crash")


def _scenarios(*factors):
    return [
        HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
        for factor in factors
    ]


def _whole_grid(scenarios, policies, trace, config):
    """The reference: one ``FleetCampaign.run`` over the whole grid."""
    return FleetCampaign(scenarios, config).run(policies, trace)


def _assert_cells_match(sharded, single):
    assert sharded.scenario_labels == single.scenario_labels
    assert sharded.policy_names == single.policy_names
    for scenario_index, policy_index, cell in sharded:
        reference = single.result(policy_index, scenario_index)
        np.testing.assert_allclose(
            cell.objective_values(), reference.objective_values(), atol=1e-9
        )
        np.testing.assert_allclose(
            cell.active_times_s(), reference.active_times_s(), atol=1e-9
        )
        assert cell.total_energy_consumed_j == pytest.approx(
            reference.total_energy_consumed_j, abs=1e-9
        )
        assert cell.total_windows == reference.total_windows
        if reference.battery_charge_j is not None:
            np.testing.assert_allclose(
                cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
            )


class TestShardCells:
    """:func:`block_layout` cuts a grid into at most one rectangle per worker."""

    def test_partitions_every_cell_once(self):
        for num_scenarios, num_policies, workers in [
            (1, 1, 4), (1, 6, 2), (2, 8, 2), (3, 4, 2), (3, 4, 5), (6, 1, 4),
            (5, 7, 3), (4, 4, 16), (2, 3, 1),
        ]:
            blocks = block_layout(num_scenarios, num_policies, workers)
            assert 1 <= len(blocks) <= workers
            # Each block is a non-empty rectangle of contiguous runs...
            for rows, columns in blocks:
                assert len(rows) >= 1 and len(columns) >= 1
                assert rows.step == 1 and columns.step == 1
            # ...and every cell lands in exactly one of them.
            cells = [
                (row, column) for rows, columns in blocks
                for row in rows for column in columns
            ]
            assert sorted(cells) == [
                (s, p) for s in range(num_scenarios) for p in range(num_policies)
            ]

    def test_never_more_chunks_than_cells(self):
        assert len(block_layout(1, 2, 8)) == 2
        # perfbench's campaign (2 scenarios x 8 policies, 2 workers): one
        # scenario per block, as the cell-wise chunks it replaced.
        assert block_layout(2, 8, 2) == [
            (range(0, 1), range(0, 8)), (range(1, 2), range(0, 8)),
        ]
        # One scenario on two workers: a 3 + 3 policy split.
        assert block_layout(1, 6, 2) == [
            (range(0, 1), range(0, 3)), (range(0, 1), range(3, 6)),
        ]
        # More scenarios than workers: whole-policy rows, scenarios split.
        assert block_layout(3, 4, 2) == [
            (range(0, 2), range(0, 4)), (range(2, 3), range(0, 4)),
        ]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            block_layout(0, 1, 1)
        with pytest.raises(ValueError):
            block_layout(1, 1, 0)


class TestShardedCampaign:
    def test_cell_sharded_closed_loop_matches_single_process(self, points, trace):
        scenarios = _scenarios(0.032, 0.05)
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        single = _whole_grid(scenarios, policies, trace, config)
        with WorkerPool(campaign_workers=4) as pool:
            sharded = pool.run_campaign(scenarios, policies, trace, config)
        assert sharded.scan is None  # each block owns its scan
        _assert_cells_match(sharded, single)

    def test_cell_sharded_sampled_mode_keeps_rng_parity(self, points, trace):
        from repro.simulation.device import DeviceConfig

        scenarios = [HarvestScenario()]
        policies = _policies(points)[:2]
        config = CampaignConfig(
            use_battery=True, device=DeviceConfig(recognition_mode="sampled")
        )
        single = _whole_grid(scenarios, policies, trace, config)
        with WorkerPool(campaign_workers=2) as pool:
            sharded = pool.run_campaign(scenarios, policies, trace, config)
        for scenario_index, policy_index, cell in sharded:
            reference = single.result(policy_index, scenario_index)
            assert cell.total_windows_correct == pytest.approx(
                reference.total_windows_correct, abs=0
            )

    def test_rejects_bad_jobs(self, points, trace):
        with pytest.raises(ValueError, match="campaign_workers"):
            WorkerPool(campaign_workers=0)
        with pytest.raises(ValueError, match="executor"):
            run_sharded_campaign(
                [HarvestScenario()], _policies(points)[:1], trace, workers=2
            )

    def test_worker_crash_mid_cell_surfaces_the_error(self, points, trace):
        policies = [ReapPolicy(points, alpha=1.0), CrashingPolicy(points)]
        with WorkerPool(campaign_workers=2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run_campaign(
                    [HarvestScenario()],
                    policies,
                    trace,
                    CampaignConfig(use_battery=True),
                )

    def test_merge_phase_excludes_the_shard_hook(self, points, trace):
        # The durable hook journals each shard; its time belongs to the
        # store, not to the merge phase that places cells in the grid.
        sleep_s = 0.05
        hook_calls = []

        def slow_hook(cells):
            hook_calls.append(len(cells))
            time.sleep(sleep_s)

        with WorkerPool(campaign_workers=2) as pool:
            result = pool.run_campaign(
                [HarvestScenario()],
                _policies(points),
                trace,
                CampaignConfig(use_battery=True),
                on_shard_done=slow_hook,
            )
        assert hook_calls == [2, 2]
        assert result.phase_timings["merge"] < 0.25 * sleep_s * len(hook_calls)


class TestBlockLayouts:
    """Every layout matches ``FleetCampaign.run`` on the whole grid."""

    @pytest.mark.parametrize(
        "factors, workers",
        [((0.032,), 3), ((0.032, 0.05), 2), ((0.032, 0.04, 0.05), 2)],
        ids=["S<W", "S=W", "S>W"],
    )
    def test_layout_matches_the_whole_grid(self, points, trace, factors, workers):
        scenarios = _scenarios(*factors)
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        reference = _whole_grid(scenarios, policies, trace, config)
        shards = []
        with WorkerPool(campaign_workers=workers) as pool:
            result = pool.run_campaign(
                scenarios, policies, trace, config, on_shard_done=shards.append
            )
        assert len(shards) == len(
            block_layout(len(scenarios), len(policies), workers)
        )
        journaled = [cell[:2] for cells in shards for cell in cells]
        assert sorted(journaled) == [cell[:2] for cell in reference]
        _assert_cells_match(result, reference)

    def test_partly_journaled_block_reruns_whole_and_journals_the_rest(
        self, points, trace
    ):
        # Journaled under another layout: two cells of the first block
        # (scenario 0) and none of the second.
        scenarios = _scenarios(0.032, 0.05)
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        reference = _whole_grid(scenarios, policies, trace, config)
        completed = {
            (0, 1): reference.result(1, 0), (0, 3): reference.result(3, 0),
        }
        seen = []
        with WorkerPool(campaign_workers=2) as pool:
            result = pool.run_campaign(
                scenarios, policies, trace, config, completed=completed,
                on_shard_done=lambda cells: seen.extend(c[:2] for c in cells),
            )
        missing = [cell[:2] for cell in reference if cell[:2] not in completed]
        assert sorted(seen) == missing  # each missing cell exactly once
        assert len(seen) == len(set(seen))
        assert result.result(1, 0) is completed[(0, 1)]
        _assert_cells_match(result, reference)

    def test_inline_durable_grid_is_one_fleet_run(
        self, points, trace, monkeypatch
    ):
        scenarios = _scenarios(0.032, 0.04, 0.05)
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        reference = _whole_grid(scenarios, policies, trace, config)
        runs = []
        original = FleetCampaign.run

        def counting_run(self, *args, **kwargs):
            runs.append(len(self.scenarios))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FleetCampaign, "run", counting_run)
        shards = []
        with WorkerPool(campaign_workers=1) as pool:
            result = pool.run_campaign(
                scenarios, policies, trace, config, completed={},
                on_shard_done=shards.append,
            )
        assert runs == [3]  # one lockstep scan over all three scenarios
        assert [len(cells) for cells in shards] == [12]
        _assert_cells_match(result, reference)


class TestDurableResume:
    """A durable run given journaled cells simulates only the rest."""

    @pytest.fixture(scope="class")
    def grid(self, points, trace):
        scenarios = _scenarios(0.032, 0.05)
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        reference = _whole_grid(scenarios, policies, trace, config)
        return scenarios, policies, config, reference

    def test_half_completed_grid_reruns_only_the_other_half(self, trace, grid):
        scenarios, policies, config, reference = grid
        cells = [(si, pi) for si, pi, _ in reference]
        # Every other cell, so each worker's block has holes in it.
        completed = {
            (si, pi): reference.result(pi, si) for si, pi in cells[::2]
        }
        seen = []
        with WorkerPool(campaign_workers=2) as pool:
            resumed = pool.run_campaign(
                scenarios, policies, trace, config,
                completed=completed,
                on_shard_done=lambda shard: seen.extend(
                    (si, pi) for si, pi, _ in shard
                ),
            )
        assert sorted(seen) == sorted(set(cells) - set(completed))
        assert len(seen) == len(set(seen))
        _assert_cells_match(resumed, reference)
        # Durable shards travel deflated: encoded in the workers, decoded here.
        assert {"encode", "decode"} <= set(resumed.phase_timings)

    def test_fully_completed_grid_submits_no_task(self, trace, grid):
        scenarios, policies, config, reference = grid
        seen = []
        with WorkerPool(campaign_workers=2) as pool:
            resumed = pool.run_campaign(
                scenarios, policies, trace, config,
                completed={(si, pi): cell for si, pi, cell in reference},
                on_shard_done=seen.append,
            )
        assert seen == []
        # No block ran, so no context was packed for the workers.
        assert "context_publish" not in resumed.phase_timings
        _assert_cells_match(resumed, reference)


class TestWorkerContextCache:
    @pytest.fixture()
    def unpickles(self, monkeypatch):
        """Count the worker-side unpickles, on a fresh context cache."""
        calls = []

        def counting_loads(blob):
            calls.append(blob)
            return pickle.loads(blob)

        monkeypatch.setattr(shard, "_CONTEXT_CACHE", {})
        monkeypatch.setattr(
            shard,
            "pickle",
            types.SimpleNamespace(
                dumps=pickle.dumps,
                loads=counting_loads,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )
        return calls

    def test_same_digest_unpickles_once_new_digest_again(
        self, points, trace, unpickles
    ):
        config = CampaignConfig(use_battery=True)
        policies = _policies(points)[:2]
        packed = shard._pack_context(
            ([HarvestScenario()], ["S0"], config, policies, trace)
        )
        first, _, _ = shard._run_shard(packed, (range(0, 1), range(0, 1)))
        second, _, _ = shard._run_shard(packed, (range(0, 1), range(1, 2)))
        assert len(unpickles) == 1  # the second task hit the cache
        assert [cell[:2] for cell in first + second] == [(0, 0), (0, 1)]

        shorter = SolarTrace(trace.hours[:24], name=trace.name)
        other = shard._pack_context(
            ([HarvestScenario()], ["S0"], config, policies, shorter)
        )
        assert other[0] != packed[0]
        cells, _, _ = shard._run_shard(other, (range(0, 1), range(0, 1)))
        assert len(unpickles) == 2  # a new digest unpickles
        assert len(cells[0][2].columns) == 24

    def test_cache_never_exceeds_its_bound(self, unpickles):
        bound = shard._MAX_CACHED_CONTEXTS
        packed = [shard._pack_context((index,)) for index in range(bound + 3)]
        for count, context in enumerate(packed, start=1):
            assert shard._load_context(context) == (count - 1,)
            assert len(shard._CONTEXT_CACHE) == min(count, bound)
        # Oldest first out: the newest contexts stay warm.
        assert list(shard._CONTEXT_CACHE) == [digest for digest, _ in packed[-bound:]]
        assert len(unpickles) == len(packed)
        shard._load_context(packed[-1])
        assert len(unpickles) == len(packed)


class TestPerScenarioBattery:
    def test_battery_overrides_flow_into_the_scan(self, points, trace):
        policies = _policies(points)[:2]
        config = CampaignConfig(use_battery=True)
        small = HarvestScenario(battery_capacity_j=30.0, battery_initial_j=5.0)
        large = HarvestScenario(battery_capacity_j=200.0, battery_initial_j=150.0)
        fleet = FleetCampaign([small, large], config).run(policies, trace)
        # Each scenario must match a dedicated run configured the same way.
        for scenario_index, scenario in enumerate((small, large)):
            dedicated = FleetCampaign(
                [HarvestScenario()],
                CampaignConfig(
                    use_battery=True,
                    battery_capacity_j=scenario.battery_capacity_j,
                    battery_initial_j=scenario.battery_initial_j,
                ),
            ).run(policies, trace)
            for policy_index in range(len(policies)):
                cell = fleet.result(policy_index, scenario_index)
                reference = dedicated.result(policy_index, 0)
                np.testing.assert_allclose(
                    cell.battery_charge_j,
                    reference.battery_charge_j,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    cell.objective_values(),
                    reference.objective_values(),
                    atol=1e-12,
                )

    def test_scalar_engine_honours_overrides(self, points, trace):
        scenario = HarvestScenario(battery_capacity_j=45.0, battery_initial_j=40.0)
        config = CampaignConfig(use_battery=True)
        policy = ReapPolicy(points, alpha=1.0)
        fleet = HarvestingCampaign(scenario, config, engine="fleet").run(
            policy, trace
        )
        scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
            policy, trace
        )
        np.testing.assert_allclose(
            fleet.battery_charge_j, scalar.battery_charge_j, atol=1e-9
        )
        np.testing.assert_allclose(
            fleet.objective_values(), scalar.objective_values(), atol=1e-9
        )

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            HarvestScenario(battery_capacity_j=0.0)


class TestShardedExperimentAndCli:
    def test_list_documents_serve_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "serve" in output
        assert "allocation service" in output
