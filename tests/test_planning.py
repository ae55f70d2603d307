"""Tests of the forecast-driven planning subsystem (repro.planning).

Covers the forecast providers (including the persistence forecaster's
no-history first day and noisy-oracle determinism), the horizon planners'
degraded regimes (zero-harvest windows and all-infeasible budgets must
fall back to the static off-floor allocation, never raise), the
vectorized :class:`~repro.planning.scan.PlanScan` against the scalar
reference loop to 1e-9, and the end-to-end wiring through
:class:`~repro.simulation.fleet.FleetCampaign`, process sharding and the
``plan`` experiment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import (
    run_fleet_campaign_experiment,
    run_plan_experiment,
)
from repro.core.batch import StackedConsumptionCurves
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.data.table2 import table2_design_points
from repro.energy.fleet import BatteryScan
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace, TraceHour
from repro.planning import (
    HorizonAverageAllocator,
    MpcPlanner,
    NoisyOracleForecast,
    PerfectForecast,
    PersistenceForecast,
    PlanBattery,
    PlanScan,
    make_forecast_provider,
)
from repro.simulation.fleet import CampaignConfig, FleetCampaign
from repro.simulation.policies import PlanningPolicy, ReapPolicy, StaticPolicy
from repro.simulation.simulator import HarvestingCampaign

OFF_FLOOR_J = OFF_STATE_POWER_W * ACTIVITY_PERIOD_S


@pytest.fixture(scope="module")
def points():
    return tuple(table2_design_points())


def _trace(hours: int, seed: int = 2015, month: int = 9) -> SolarTrace:
    trace = SyntheticSolarModel(seed=seed).generate_month(month)
    return SolarTrace(trace.hours[:hours], name=trace.name)


def _dark_trace(hours: int) -> SolarTrace:
    return SolarTrace(
        [
            TraceHour(
                day_of_year=1 + index // 24,
                hour_of_day=index % 24,
                ghi_w_per_m2=0.0,
            )
            for index in range(hours)
        ],
        name="dark",
    )


def _budgets(result) -> np.ndarray:
    columns = result.columns
    if columns is not None:
        return np.asarray(columns.energy_budget_j, dtype=float)
    return np.array([outcome.energy_budget_j for outcome in result.outcomes])


# ---------------------------------------------------------------------------
# Forecast providers
# ---------------------------------------------------------------------------

class TestForecastProviders:
    def test_perfect_matrix_is_the_shifted_future(self):
        harvest = np.array([1.0, 2.0, 3.0, 4.0])
        matrix = PerfectForecast().matrix(harvest, horizon=3)
        assert matrix.shape == (4, 3)
        np.testing.assert_allclose(matrix[0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(matrix[2], [3.0, 4.0, 0.0])  # zero past end
        np.testing.assert_allclose(matrix[3], [4.0, 0.0, 0.0])

    def test_persistence_first_day_has_no_history(self):
        harvest = np.arange(48, dtype=float) + 1.0
        provider = PersistenceForecast(periods_per_day=24, initial_j=0.0)
        matrix = provider.matrix(harvest, horizon=6)
        # Day one: nothing was observed a day earlier -> the initial value.
        np.testing.assert_allclose(matrix[:18], 0.0)
        # Day two: the same slot of day one, which *was* observed.
        np.testing.assert_allclose(matrix[24], harvest[0:6])
        np.testing.assert_allclose(matrix[30], harvest[6:12])

    def test_persistence_lookahead_beyond_one_day(self):
        harvest = np.arange(72, dtype=float)
        provider = PersistenceForecast(periods_per_day=24)
        matrix = provider.matrix(harvest, horizon=30)
        # Offset 26 targets period t+26; the most recent observed same-slot
        # value is two days back.
        assert matrix[30, 26] == harvest[30 + 26 - 48]

    def test_persistence_initial_value_used_without_history(self):
        provider = PersistenceForecast(periods_per_day=24, initial_j=1.5)
        matrix = provider.matrix(np.arange(24, dtype=float), horizon=24)
        # At t = 0 nothing has been observed yet: every lookahead entry is
        # the initial value, not a peek at the trace.
        np.testing.assert_allclose(matrix[0], 1.5)

    def test_noisy_oracle_is_deterministic_under_a_seed(self):
        harvest = np.linspace(0.0, 8.0, 36)
        first = NoisyOracleForecast(noise_std=0.3, seed=11).matrix(harvest, 12)
        second = NoisyOracleForecast(noise_std=0.3, seed=11).matrix(harvest, 12)
        np.testing.assert_array_equal(first, second)
        other = NoisyOracleForecast(noise_std=0.3, seed=12).matrix(harvest, 12)
        assert not np.array_equal(first, other)

    def test_noisy_oracle_never_negative_and_unbiased_scale(self):
        harvest = np.full(200, 2.0)
        matrix = NoisyOracleForecast(noise_std=0.5, seed=3).matrix(harvest, 4)
        assert np.all(matrix >= 0.0)
        assert 1.5 < matrix.mean() < 2.5

    def test_factory_and_validation(self):
        assert make_forecast_provider("perfect").kind == "perfect"
        assert make_forecast_provider("persistence").kind == "persistence"
        assert make_forecast_provider("noisy", seed=5).seed == 5
        with pytest.raises(ValueError, match="forecast"):
            make_forecast_provider("psychic")
        with pytest.raises(ValueError, match="horizon"):
            PerfectForecast().matrix(np.ones(4), horizon=0)
        with pytest.raises(ValueError, match="non-negative"):
            PerfectForecast().matrix(np.array([-1.0]), horizon=2)


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------

def _single_battery(
    capacity: float = 60.0, charge: float = 30.0
) -> PlanBattery:
    scan = BatteryScan(1, capacity_j=capacity, initial_charge_j=charge)
    return PlanBattery.from_scan(scan)


def _flat_consumption(budgets):
    """A device that consumes whatever it is granted (slope-1 curve)."""
    return np.asarray(budgets, dtype=float)


class TestHorizonAverageAllocator:
    def test_budget_is_window_mean_plus_battery_surplus(self):
        planner = HorizonAverageAllocator(4)
        battery = _single_battery(capacity=60.0, charge=40.0)
        window = np.array([[8.0], [4.0], [2.0], [2.0]])
        budget = planner.step_budgets(
            window, np.array([40.0]), battery, _flat_consumption
        )
        # mean 4 J + min(charge - target 30 J, max draw 5 J) = 9 J,
        # below the supply cap (8 + 40 * 0.95).
        np.testing.assert_allclose(budget, [9.0])

    def test_zero_harvest_window_degrades_to_the_off_floor(self):
        planner = HorizonAverageAllocator(6)
        battery = _single_battery(capacity=60.0, charge=20.0)  # below target
        window = np.zeros((6, 1))
        budget = planner.step_budgets(
            window, np.array([20.0]), battery, _flat_consumption
        )
        # No forecast, no surplus: topped up to the off floor (the static
        # degraded allocation), funded by the battery.
        np.testing.assert_allclose(budget, [OFF_FLOOR_J])

    def test_empty_battery_and_dark_window_grants_zero_not_raise(self):
        planner = HorizonAverageAllocator(6)
        battery = _single_battery(capacity=60.0, charge=0.0)
        budget = planner.step_budgets(
            np.zeros((6, 1)), np.array([0.0]), battery, _flat_consumption
        )
        np.testing.assert_allclose(budget, [0.0])

    def test_supply_cap_limits_the_grant(self):
        planner = HorizonAverageAllocator(2)
        battery = _single_battery(capacity=60.0, charge=1.0)
        # Huge mean forecast, tiny current-period forecast and store: the
        # grant cannot exceed what the period could physically supply.
        window = np.array([[0.5], [100.0]])
        budget = planner.step_budgets(
            window, np.array([1.0]), battery, _flat_consumption
        )
        np.testing.assert_allclose(budget, [0.5 + 1.0 * 0.95])

    def test_window_shape_is_validated(self):
        planner = HorizonAverageAllocator(4)
        with pytest.raises(ValueError, match="window"):
            planner.step_budgets(
                np.zeros((3, 1)), np.zeros(1), _single_battery(),
                _flat_consumption,
            )


class TestMpcPlanner:
    def test_sustainable_ceiling_is_granted(self):
        planner = MpcPlanner(3, max_budget_j=5.0)
        battery = _single_battery(capacity=200.0, charge=150.0)
        window = np.full((3, 1), 10.0)   # harvest alone covers any budget
        budget = planner.step_budgets(
            window, np.array([150.0]), battery, _flat_consumption
        )
        np.testing.assert_allclose(budget, [5.0])

    def test_all_infeasible_degrades_to_supply_capped_floor_not_raise(self):
        planner = MpcPlanner(4, max_budget_j=10.0)
        battery = _single_battery(capacity=60.0, charge=0.0)
        window = np.zeros((4, 1))        # dark window, empty store
        budget = planner.step_budgets(
            window, np.array([0.0]), battery, _flat_consumption
        )
        np.testing.assert_allclose(budget, [0.0])  # nothing to grant from
        # With a sliver of charge the degraded grant is the floor capped
        # by what the store can actually deliver.
        budget = planner.step_budgets(
            window, np.array([0.1]), battery, _flat_consumption
        )
        np.testing.assert_allclose(budget, [0.1 * 0.95])

    def test_search_lands_between_floor_and_ceiling(self):
        planner = MpcPlanner(4, max_budget_j=50.0, passes=4)
        battery = _single_battery(capacity=1000.0, charge=100.0)
        window = np.zeros((4, 1))
        budget = float(
            planner.step_budgets(
                window, np.array([100.0]), battery, _flat_consumption
            )[0]
        )
        # Dark window funded purely by the store: the sustainable constant
        # spend is bounded by the deliverable-charge recurrence; the grid
        # search must land within one quantum of that boundary.
        assert OFF_FLOOR_J < budget < 50.0
        ok = planner.sustainable(
            np.array([budget]), window, np.array([100.0]), battery,
            _flat_consumption,
        )
        assert bool(ok[0])

    def test_sustainability_is_monotone_in_the_budget(self):
        planner = MpcPlanner(6, max_budget_j=20.0)
        battery = _single_battery(capacity=80.0, charge=25.0)
        rng = np.random.default_rng(5)
        window = rng.uniform(0.0, 4.0, size=(6, 1))
        budgets = np.linspace(0.1, 20.0, 64)[:, None]
        ok = planner.sustainable(
            budgets, window, np.array([25.0]), battery, _flat_consumption
        )[:, 0]
        # Once unsustainable, always unsustainable.
        assert not np.any(ok[1:] > ok[:-1])

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="passes"):
            MpcPlanner(4, max_budget_j=5.0, passes=0)
        with pytest.raises(ValueError, match="candidates"):
            MpcPlanner(4, max_budget_j=5.0, candidates=2)
        with pytest.raises(ValueError, match="max_budget"):
            MpcPlanner(4, max_budget_j=0.0)


# ---------------------------------------------------------------------------
# PlanScan vs the scalar reference
# ---------------------------------------------------------------------------

class TestPlanScanEquivalence:
    @pytest.mark.parametrize("planner", ["horizon", "mpc"])
    @pytest.mark.parametrize("forecast", ["perfect", "persistence", "noisy"])
    def test_scan_matches_scalar_reference(self, points, planner, forecast):
        policy = PlanningPolicy(
            points, planner=planner, horizon_periods=12, forecast=forecast
        )
        trace = _trace(72)
        config = CampaignConfig(use_battery=True, battery_capacity_j=80.0)
        scenario = HarvestScenario()
        fleet = HarvestingCampaign(scenario, config, engine="fleet").run(
            policy, trace
        )
        scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
            policy, trace
        )
        np.testing.assert_allclose(
            _budgets(fleet), _budgets(scalar), rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            fleet.objective_values(), scalar.objective_values(),
            rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(
            fleet.battery_charge_j, scalar.battery_charge_j, rtol=0, atol=1e-9
        )

    def test_multi_scenario_grid_matches_per_cell_scalar_runs(self, points):
        trace = _trace(48)
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in (0.032, 0.06)
        ]
        policies = [
            PlanningPolicy(points, planner="horizon", horizon_periods=8),
            PlanningPolicy(points, planner="mpc", horizon_periods=8),
            ReapPolicy(points),
        ]
        config = CampaignConfig(use_battery=True)
        result = FleetCampaign(scenarios, config).run(policies, trace)
        for scenario_index, scenario in enumerate(scenarios):
            for policy_index, policy in enumerate(policies):
                reference = HarvestingCampaign(
                    scenario, config, engine="scalar"
                ).run(policy, trace)
                cell = result.result(policy_index, scenario_index)
                np.testing.assert_allclose(
                    cell.objective_values(),
                    reference.objective_values(),
                    rtol=1e-9, atol=1e-9,
                )
                np.testing.assert_allclose(
                    cell.battery_charge_j,
                    reference.battery_charge_j,
                    rtol=0, atol=1e-9,
                )

    def test_scenario_battery_overrides_are_honoured(self, points):
        trace = _trace(48)
        scenarios = [
            HarvestScenario(battery_capacity_j=30.0, battery_initial_j=5.0),
            HarvestScenario(),
        ]
        policy = PlanningPolicy(points, planner="mpc", horizon_periods=8)
        config = CampaignConfig(use_battery=True, battery_capacity_j=60.0)
        result = FleetCampaign(scenarios, config).run([policy], trace)
        small = result.result(0, 0)
        assert small.battery_charge_j[0] == 5.0
        assert np.max(small.battery_charge_j) <= 30.0 + 1e-9
        reference = HarvestingCampaign(
            scenarios[0], config, engine="scalar"
        ).run(policy, trace)
        np.testing.assert_allclose(
            small.battery_charge_j, reference.battery_charge_j,
            rtol=0, atol=1e-9,
        )

    def test_dark_trace_degrades_gracefully_in_both_engines(self, points):
        """Zero-harvest horizons: budgets fall to the floor, nothing raises."""
        trace = _dark_trace(30)
        config = CampaignConfig(
            use_battery=True, battery_capacity_j=20.0, battery_initial_j=2.0
        )
        for planner in ("horizon", "mpc"):
            policy = PlanningPolicy(
                points, planner=planner, horizon_periods=6,
                forecast="persistence",
            )
            fleet = HarvestingCampaign(
                HarvestScenario(), config, engine="fleet"
            ).run(policy, trace)
            scalar = HarvestingCampaign(
                HarvestScenario(), config, engine="scalar"
            ).run(policy, trace)
            np.testing.assert_allclose(
                fleet.battery_charge_j, scalar.battery_charge_j,
                rtol=0, atol=1e-9,
            )
            budgets = _budgets(fleet)
            # The store drains monotonically, the grants decay with it,
            # and once it is empty the budget sits below the off floor --
            # the degraded static allocation, with the device browning
            # out instead of anything raising.
            assert np.all(np.diff(budgets) <= 1e-2)
            assert budgets[-1] < OFF_FLOOR_J
            assert fleet.battery_charge_j[-1] < 0.1

    def test_plan_scan_validates_shapes(self, points):
        policy = PlanningPolicy(points, planner="horizon", horizon_periods=4)
        scan = PlanScan(policy.build_planner(), BatteryScan(2))
        curves = StackedConsumptionCurves([policy.consumption_curve()] * 2)
        with pytest.raises(ValueError, match="forecast tensor"):
            scan.run(np.ones((6, 2)), np.zeros((6, 3, 2)), curves)
        with pytest.raises(ValueError, match="harvest"):
            scan.run(np.ones((6, 3)), np.zeros((6, 4, 2)), curves)


# ---------------------------------------------------------------------------
# Policy wiring and fleets
# ---------------------------------------------------------------------------

class TestPlanningPolicy:
    def test_names_and_validation(self, points):
        policy = PlanningPolicy(points, planner="mpc", horizon_periods=12,
                                forecast="noisy")
        assert policy.name == "MPC12-noisy"
        assert PlanningPolicy(points).name == "Horizon24-perfect"
        with pytest.raises(ValueError, match="planner"):
            PlanningPolicy(points, planner="oracle")
        with pytest.raises(ValueError, match="forecast"):
            PlanningPolicy(points, forecast="wrong")
        with pytest.raises(ValueError, match="horizon"):
            PlanningPolicy(points, horizon_periods=0)
        with pytest.raises(ValueError, match="noise"):
            PlanningPolicy(points, forecast_noise=-0.1)

    def test_planner_key_groups_compatible_policies(self, points):
        one = PlanningPolicy(points, planner="mpc", horizon_periods=12)
        two = PlanningPolicy(points, planner="mpc", horizon_periods=12,
                             forecast="noisy", alpha=2.0)
        other = PlanningPolicy(points, planner="mpc", horizon_periods=6)
        assert one.planner_key == two.planner_key  # forecasts are data
        assert one.planner_key != other.planner_key
        assert one.planner_key != PlanningPolicy(points).planner_key

    def test_open_loop_behaves_like_reap(self, points):
        trace = _trace(24)
        config = CampaignConfig(use_battery=False)
        planned = HarvestingCampaign(HarvestScenario(), config).run(
            PlanningPolicy(points, planner="mpc"), trace
        )
        reap = HarvestingCampaign(HarvestScenario(), config).run(
            ReapPolicy(points), trace
        )
        np.testing.assert_allclose(
            planned.objective_values(), reap.objective_values(), atol=1e-12
        )

    def test_mixed_fleet_keeps_base_policies_untouched(self, points):
        """Adding planning cells must not change harvest-following cells."""
        trace = _trace(48)
        config = CampaignConfig(use_battery=True)
        base = [ReapPolicy(points), StaticPolicy(points, "DP3")]
        alone = FleetCampaign(HarvestScenario(), config).run(base, trace)
        assert alone.scan is not None  # pure-base fleets keep the scan
        mixed = FleetCampaign(HarvestScenario(), config).run(
            base + [PlanningPolicy(points, horizon_periods=8)], trace
        )
        assert mixed.scan is None  # mixed fleets: per-cell trajectories only
        for index in range(len(base)):
            np.testing.assert_allclose(
                mixed.result(index).objective_values(),
                alone.result(index).objective_values(),
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                mixed.result(index).battery_charge_j,
                alone.result(index).battery_charge_j,
                rtol=0, atol=1e-12,
            )

    def test_sharded_planning_campaign_matches_single_process(self, points):
        from repro.service.pool import WorkerPool

        trace = _trace(48)
        config = CampaignConfig(use_battery=True)
        scenarios = [HarvestScenario()]
        policies = [
            PlanningPolicy(points, planner="horizon", horizon_periods=8),
            PlanningPolicy(points, planner="mpc", horizon_periods=8),
            ReapPolicy(points),
        ]
        single = FleetCampaign(scenarios, config).run(policies, trace)
        with WorkerPool(campaign_workers=2) as pool:
            sharded = pool.run_campaign(scenarios, policies, trace, config)
        for scenario_index, policy_index, cell in sharded:
            reference = single.result(policy_index, scenario_index)
            np.testing.assert_allclose(
                cell.objective_values(), reference.objective_values(),
                rtol=0, atol=1e-9,
            )


class TestPlanningExperiments:
    def test_run_plan_experiment_rows(self):
        result = run_plan_experiment(
            planner="horizon", horizon_periods=8,
            forecasts=("perfect", "persistence"), hours=48,
        )
        assert len(result.rows) == 3  # two forecasts + REAP baseline
        policies = [row[1] for row in result.rows]
        assert policies == ["Horizon8-perfect", "Horizon8-persistence", "REAP"]
        assert result.extras["num_cells"] == 3

    def test_fleet_experiment_accepts_planners(self):
        result = run_fleet_campaign_experiment(
            alphas=(1.0,), baselines=("DP1",), hours=48,
            planners=("horizon", "mpc"), horizon_periods=8,
            forecast="persistence",
        )
        policies = [row[1] for row in result.rows]
        assert "Horizon8-persistence" in policies
        assert "MPC8-persistence" in policies
        assert result.extras["num_cells"] == 4

    def test_plan_experiment_validates_forecasts(self):
        with pytest.raises(ValueError, match="forecast"):
            run_plan_experiment(forecasts=(), hours=24)

    def test_open_loop_fleet_rejects_planners(self):
        # A planner without a battery would silently collapse to REAP and
        # mislabel its rows; the experiment layer refuses the combination.
        with pytest.raises(ValueError, match="battery"):
            run_fleet_campaign_experiment(
                alphas=(1.0,), baselines=(), hours=24,
                planners=("horizon",), use_battery=False,
            )
