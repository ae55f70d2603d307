"""Tests for sharded fleet campaigns and per-scenario battery variants.

The sharded runner must be *exactly* equivalent to the in-process fleet
engine -- the workers run the same vectorized code on partitions of the
same grid -- so every comparison here is to 1e-9 or tighter, on per-period
series, not just aggregates.  The worker-side context cache, worker
failures, the merge phase's timing and the durable resume contract (re-run
only the cells the journal is missing) are covered too.
"""

from __future__ import annotations

import pickle
import time
import types
from concurrent.futures import Executor, ProcessPoolExecutor

import numpy as np
import pytest

from repro.analysis.experiments import run_fleet_campaign_experiment
from repro.cli import main as cli_main
from repro.data.table2 import table2_design_points
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace
from repro.service import shard
from repro.service.shard import run_sharded_campaign, shard_cells
from repro.simulation.fleet import CampaignConfig, FleetCampaign
from repro.simulation.metrics import CampaignColumns
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


class StatefulPolicy(ReapPolicy):
    """A policy with cross-period state (module-level so it pickles)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = 0

    def reset(self):  # cross-period state: time slicing would reset it
        self.seen = 0


class CrashingPolicy(ReapPolicy):
    """A policy that dies mid-cell (module-level so workers can unpickle it)."""

    def allocate_arrays(self, budgets_j):
        raise RuntimeError("boom: simulated worker crash")


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
    def test_partitions_every_cell_once(self):
        chunks = shard_cells(3, 4, 5)
        flat = [cell for chunk in chunks for cell in chunk]
        assert flat == [(s, p) for s in range(3) for p in range(4)]
        assert len(chunks) == 5
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_cells(self):
        assert len(shard_cells(1, 2, 8)) == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_cells(0, 1, 1)
        with pytest.raises(ValueError):
            shard_cells(1, 1, 0)


class TestCampaignColumnsConcat:
    def test_concat_round_trips_a_split(self, points, trace):
        campaign = FleetCampaign(HarvestScenario())
        result = campaign.run(_policies(points)[:1], trace).result(0)
        columns = result.columns
        parts = [
            CampaignColumns(
                period_index=columns.period_index[lo:hi],
                energy_budget_j=columns.energy_budget_j[lo:hi],
                energy_consumed_j=columns.energy_consumed_j[lo:hi],
                active_time_s=columns.active_time_s[lo:hi],
                off_time_s=columns.off_time_s[lo:hi],
                windows_total=columns.windows_total[lo:hi],
                windows_observed=columns.windows_observed[lo:hi],
                windows_correct=columns.windows_correct[lo:hi],
                objective_value=columns.objective_value[lo:hi],
                expected_accuracy=columns.expected_accuracy[lo:hi],
                design_point_names=columns.design_point_names,
                times_by_design_point_s=columns.times_by_design_point_s[lo:hi],
            )
            for lo, hi in ((0, 30), (30, 31), (31, len(columns)))
        ]
        merged = CampaignColumns.concat(parts)
        np.testing.assert_array_equal(merged.period_index, columns.period_index)
        np.testing.assert_allclose(
            merged.objective_value, columns.objective_value, atol=0
        )
        np.testing.assert_allclose(
            merged.times_by_design_point_s,
            columns.times_by_design_point_s,
            atol=0,
        )

    def test_concat_drops_times_on_mixed_labelling(self):
        plain = CampaignColumns(
            period_index=np.arange(2),
            energy_budget_j=np.ones(2),
            energy_consumed_j=np.ones(2),
            active_time_s=np.ones(2),
            off_time_s=np.ones(2),
            windows_total=np.ones(2, dtype=int),
            windows_observed=np.ones(2, dtype=int),
            windows_correct=np.ones(2),
            objective_value=np.ones(2),
            expected_accuracy=np.ones(2),
        )
        labelled = CampaignColumns(
            period_index=np.arange(2),
            energy_budget_j=np.ones(2),
            energy_consumed_j=np.ones(2),
            active_time_s=np.ones(2),
            off_time_s=np.ones(2),
            windows_total=np.ones(2, dtype=int),
            windows_observed=np.ones(2, dtype=int),
            windows_correct=np.ones(2),
            objective_value=np.ones(2),
            expected_accuracy=np.ones(2),
            design_point_names=("DP1",),
            times_by_design_point_s=np.ones((2, 1)),
        )
        merged = CampaignColumns.concat([plain, labelled])
        assert merged.times_by_design_point_s is None
        assert len(merged) == 4

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            CampaignColumns.concat([])


class TestShardedCampaign:
    def test_cell_sharded_closed_loop_matches_single_process(self, points, trace):
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in (0.032, 0.05)
        ]
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        single = run_sharded_campaign(scenarios, policies, trace, config, jobs=1)
        sharded = run_sharded_campaign(scenarios, policies, trace, config, jobs=4)
        assert sharded.scan is None  # workers own private scans
        _assert_cells_match(sharded, single)

    def test_cell_sharded_sampled_mode_keeps_rng_parity(self, points, trace):
        from repro.simulation.device import DeviceConfig

        scenarios = [HarvestScenario()]
        policies = _policies(points)[:2]
        config = CampaignConfig(
            use_battery=True, device=DeviceConfig(recognition_mode="sampled")
        )
        single = run_sharded_campaign(scenarios, policies, trace, config, jobs=1)
        sharded = run_sharded_campaign(scenarios, policies, trace, config, jobs=2)
        for scenario_index, policy_index, cell in sharded:
            reference = single.result(policy_index, scenario_index)
            assert cell.total_windows_correct == pytest.approx(
                reference.total_windows_correct, abs=0
            )

    def test_time_sharded_open_loop_matches_single_process(self, points, trace):
        scenarios = [HarvestScenario()]
        policies = [ReapPolicy(points, alpha=1.0)]
        config = CampaignConfig(use_battery=False)
        single = run_sharded_campaign(scenarios, policies, trace, config, jobs=1)
        sharded = run_sharded_campaign(scenarios, policies, trace, config, jobs=3)
        merged = sharded.result(0).columns
        reference = single.result(0).columns
        np.testing.assert_array_equal(merged.period_index, reference.period_index)
        np.testing.assert_allclose(
            merged.objective_value, reference.objective_value, atol=1e-9
        )
        np.testing.assert_allclose(
            merged.times_by_design_point_s,
            reference.times_by_design_point_s,
            atol=1e-9,
        )

    def test_single_closed_loop_cell_cannot_time_shard(self, points, trace):
        # One closed-loop cell with many workers: the runner must fall back
        # to an exact (single-shard) run rather than split the recurrence.
        scenarios = [HarvestScenario()]
        policies = [ReapPolicy(points, alpha=1.0)]
        config = CampaignConfig(use_battery=True)
        single = run_sharded_campaign(scenarios, policies, trace, config, jobs=1)
        sharded = run_sharded_campaign(scenarios, policies, trace, config, jobs=4)
        _assert_cells_match(sharded, single)

    def test_rejects_bad_jobs(self, points, trace):
        with pytest.raises(ValueError):
            run_sharded_campaign(
                [HarvestScenario()], _policies(points)[:1], trace, jobs=0
            )

    def test_stateful_policy_refuses_time_sharding(self, points, trace):
        from repro.service.shard import _time_shardable

        config = CampaignConfig(use_battery=False)
        assert _time_shardable(config, [ReapPolicy(points)])
        assert not _time_shardable(config, [StatefulPolicy(points)])
        # The stateful cell still runs exactly (cell-sharded, one chunk).
        single = run_sharded_campaign(
            [HarvestScenario()], [StatefulPolicy(points)], trace, config, jobs=1
        )
        sharded = run_sharded_campaign(
            [HarvestScenario()], [StatefulPolicy(points)], trace, config, jobs=3
        )
        _assert_cells_match(sharded, single)

    def test_worker_crash_mid_cell_surfaces_the_error(self, points, trace):
        policies = [ReapPolicy(points, alpha=1.0), CrashingPolicy(points)]
        with pytest.raises(RuntimeError, match="boom"):
            run_sharded_campaign(
                [HarvestScenario()],
                policies,
                trace,
                CampaignConfig(use_battery=True),
                jobs=2,
            )

    def test_merge_phase_excludes_the_shard_hook(self, points, trace):
        # The durable hook journals each shard; its time belongs to the
        # store, not to the merge phase that places cells in the grid.
        sleep_s = 0.05
        hook_calls = []

        def slow_hook(cells):
            hook_calls.append(len(cells))
            time.sleep(sleep_s)

        result = run_sharded_campaign(
            [HarvestScenario()],
            _policies(points),
            trace,
            CampaignConfig(use_battery=True),
            jobs=2,
            on_shard_done=slow_hook,
        )
        assert len(hook_calls) == 2
        assert result.phase_timings["merge"] < 0.25 * sleep_s * len(hook_calls)


class TestDurableResume:
    """A durable run given journaled cells simulates only the rest."""

    @pytest.fixture(scope="class")
    def grid(self, points, trace):
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in (0.032, 0.05)
        ]
        policies = _policies(points)
        config = CampaignConfig(use_battery=True)
        reference = run_sharded_campaign(scenarios, policies, trace, config, jobs=1)
        return scenarios, policies, config, reference

    def test_half_completed_grid_reruns_only_the_other_half(self, trace, grid):
        scenarios, policies, config, reference = grid
        cells = [(si, pi) for si, pi, _ in reference]
        # Every other cell, so each worker's chunk has holes in it.
        completed = {
            (si, pi): reference.result(pi, si) for si, pi in cells[::2]
        }
        seen = []
        with ProcessPoolExecutor(max_workers=2) as pool:
            resumed = run_sharded_campaign(
                scenarios, policies, trace, config, jobs=2, executor=pool,
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

        class NoTasks(Executor):
            def submit(self, *_args, **_kwargs):
                raise AssertionError("a fully journaled grid submitted a task")

        seen = []
        resumed = run_sharded_campaign(
            scenarios, policies, trace, config, jobs=2, executor=NoTasks(),
            completed={(si, pi): cell for si, pi, cell in reference},
            on_shard_done=seen.append,
        )
        assert seen == []
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
        first, _, _ = shard._run_cell_shard(packed, [(0, 0)])
        second, _, _ = shard._run_cell_shard(packed, [(0, 1)])
        assert len(unpickles) == 1  # the second task hit the cache
        assert [cell[:2] for cell in first + second] == [(0, 0), (0, 1)]

        shorter = SolarTrace(trace.hours[:24], name=trace.name)
        other = shard._pack_context(
            ([HarvestScenario()], ["S0"], config, policies, shorter)
        )
        assert other[0] != packed[0]
        cells, _, _ = shard._run_cell_shard(other, [(0, 0)])
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
    def test_experiment_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_fleet_campaign_experiment(jobs=0, hours=24)

    def test_experiment_rows_match_across_jobs(self):
        kwargs = dict(
            alphas=(1.0,),
            baselines=("DP1", "DP5"),
            exposure_factors=(0.032, 0.05),
            hours=48,
        )
        single = run_fleet_campaign_experiment(jobs=1, **kwargs)
        sharded = run_fleet_campaign_experiment(jobs=2, **kwargs)
        assert sharded.extras["jobs"] == 2
        assert len(single.rows) == len(sharded.rows)
        for row_a, row_b in zip(single.rows, sharded.rows):
            assert row_a[:2] == row_b[:2]
            np.testing.assert_allclose(
                [float(v) for v in row_a[2:]],
                [float(v) for v in row_b[2:]],
                atol=1e-9,
            )

    def test_fleet_cli_jobs_flag(self, tmp_path, capsys):
        csv_path = tmp_path / "fleet.csv"
        code = cli_main(
            [
                "fleet", "--hours", "24", "--alphas", "1.0",
                "--baselines", "DP1", "--jobs", "2", "--csv", str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharded fleet engine (2 jobs)" in output
        assert csv_path.exists()

    def test_list_documents_serve_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "serve" in output
        assert "allocation service" in output
