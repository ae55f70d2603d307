"""Equivalence suite: the vectorized fleet engine vs the scalar reference.

The fleet campaign engine (battery scan + batched allocation + columnar
device accounting) must reproduce the scalar ``HarvestingCampaign`` loop to
1e-9 on every per-period figure -- budgets, consumed energy, battery
trajectory, window counts -- across random traces, policies, alphas and
battery configurations, in both recognition modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    BatchAllocator,
    ConsumptionCurveError,
    StackedConsumptionCurves,
)
from repro.core.design_point import DesignPoint
from repro.data.paper_constants import ACTIVITY_WINDOW_S
from repro.energy.battery import Battery
from repro.energy.budget import HarvestFollowingAllocator
from repro.energy.fleet import BatteryScan
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.simulation.device import DEFAULT_WINDOW_S, DeviceConfig, DeviceSimulator
from repro.simulation.fleet import (
    CampaignConfig,
    FleetCampaign,
    policy_supports_fleet,
)
from repro.simulation.metrics import CampaignColumns, CampaignResult, PeriodOutcome
from repro.simulation.policies import (
    OnOffDutyCyclePolicy,
    OraclePolicy,
    ReapPolicy,
    StaticPolicy,
    default_policy_suite,
)
from repro.simulation.simulator import HarvestingCampaign

TOLERANCE = 1e-9


def _random_policy(points, rng):
    alpha = float(rng.uniform(0.25, 4.0))
    kind = rng.integers(0, 4)
    if kind == 0:
        return ReapPolicy(points, alpha=alpha)
    if kind == 1:
        return OraclePolicy(points, alpha=alpha)
    if kind == 2:
        name = points[int(rng.integers(0, len(points)))].name
        return StaticPolicy(points, name, alpha=alpha)
    return OnOffDutyCyclePolicy(points, alpha=alpha)


def _random_config(rng, recognition_mode):
    capacity = float(rng.uniform(20.0, 120.0))
    return CampaignConfig(
        use_battery=True,
        battery_capacity_j=capacity,
        battery_initial_j=(
            -1.0 if rng.random() < 0.5 else float(rng.uniform(0.0, capacity))
        ),
        battery_target_soc=float(rng.uniform(0.0, 0.9)),
        battery_max_draw_j=float(rng.uniform(0.0, 8.0)),
        device=DeviceConfig(
            recognition_mode=recognition_mode, seed=int(rng.integers(0, 2**31))
        ),
    )


def _assert_campaigns_match(scalar: CampaignResult, fleet: CampaignResult) -> None:
    assert len(scalar) == len(fleet)
    assert fleet.columns is not None, "fleet result should be columnar"
    columns = fleet.columns
    for index, outcome in enumerate(scalar.outcomes):
        assert outcome.windows_total == int(columns.windows_total[index])
        assert outcome.windows_observed == int(columns.windows_observed[index])
        assert outcome.energy_budget_j == pytest.approx(
            float(columns.energy_budget_j[index]), abs=TOLERANCE
        )
        assert outcome.energy_consumed_j == pytest.approx(
            float(columns.energy_consumed_j[index]), abs=TOLERANCE
        )
        assert outcome.active_time_s == pytest.approx(
            float(columns.active_time_s[index]), abs=1e-6
        )
        assert outcome.windows_correct == pytest.approx(
            float(columns.windows_correct[index]), abs=TOLERANCE
        )
        assert outcome.objective_value == pytest.approx(
            float(columns.objective_value[index]), abs=TOLERANCE
        )
    if scalar.battery_charge_j is not None:
        assert fleet.battery_charge_j is not None
        np.testing.assert_allclose(
            fleet.battery_charge_j, scalar.battery_charge_j, rtol=0, atol=TOLERANCE
        )


class TestClosedLoopEquivalence:
    """Fleet battery scan + batch allocation vs the hour-by-hour loop."""

    @pytest.mark.parametrize("recognition_mode", ["expected", "sampled"])
    def test_random_campaigns_match_scalar_loop(self, table2_points, recognition_mode):
        rng = np.random.default_rng(20260726)
        scenario = HarvestScenario()
        for _ in range(6):
            trace = SyntheticSolarModel(seed=int(rng.integers(0, 10_000))).generate_days(
                int(rng.integers(1, 300)), int(rng.integers(2, 4))
            )
            config = _random_config(rng, recognition_mode)
            policy_seed = int(rng.integers(0, 2**31))
            scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
                _random_policy(table2_points, np.random.default_rng(policy_seed)),
                trace,
            )
            fleet = HarvestingCampaign(scenario, config, engine="fleet").run(
                _random_policy(table2_points, np.random.default_rng(policy_seed)),
                trace,
            )
            _assert_campaigns_match(scalar, fleet)

    @pytest.mark.parametrize("recognition_mode", ["expected", "sampled"])
    def test_policy_suite_shares_one_scan(self, table2_points, recognition_mode):
        trace = SyntheticSolarModel(seed=77).generate_days(120, 3)
        config = CampaignConfig(
            use_battery=True,
            battery_capacity_j=80.0,
            device=DeviceConfig(recognition_mode=recognition_mode, seed=3),
        )
        scenario = HarvestScenario()
        policies = default_policy_suite(table2_points, alpha=2.0)
        fleet_results = HarvestingCampaign(scenario, config, engine="fleet").run_many(
            policies, trace
        )
        scalar_results = HarvestingCampaign(scenario, config, engine="scalar").run_many(
            default_policy_suite(table2_points, alpha=2.0), trace
        )
        assert list(fleet_results) == list(scalar_results)
        for name in scalar_results:
            _assert_campaigns_match(scalar_results[name], fleet_results[name])

    def test_unsupported_policy_falls_back_to_scalar(self, table2_points):
        from repro.core.allocator import AllocatorConfig, ReapAllocator

        cross_checked = ReapPolicy(
            table2_points, allocator=ReapAllocator(AllocatorConfig(cross_check=True))
        )
        assert not policy_supports_fleet(cross_checked, use_battery=True)
        assert policy_supports_fleet(cross_checked, use_battery=False)

        trace = SyntheticSolarModel(seed=5).generate_days(10, 2)
        config = CampaignConfig(use_battery=True)
        scenario = HarvestScenario()
        fleet = HarvestingCampaign(scenario, config, engine="fleet").run(
            cross_checked, trace
        )
        scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
            cross_checked, trace
        )
        # The fallback *is* the scalar loop, so the results agree exactly.
        assert fleet.columns is None
        for a, b in zip(fleet.outcomes, scalar.outcomes):
            assert a.objective_value == b.objective_value

    def test_rejects_unknown_engine(self, table2_points):
        with pytest.raises(ValueError):
            HarvestingCampaign(HarvestScenario(), engine="warp")

    def test_run_many_matches_policies_by_identity_not_name(self, table2_points):
        # Two same-named policies, one fleet-supported and one not: each must
        # be simulated with its own allocator (the unsupported one must not
        # inherit the supported one's fleet result).
        from repro.core.allocator import AllocatorConfig, ReapAllocator

        trace = SyntheticSolarModel(seed=9).generate_days(30, 1)
        config = CampaignConfig(use_battery=True)
        scenario = HarvestScenario()
        default_reap = ReapPolicy(table2_points)
        full_reap = ReapPolicy(
            table2_points,
            allocator=ReapAllocator(AllocatorConfig(formulation="full")),
        )
        results = HarvestingCampaign(scenario, config, engine="fleet").run_many(
            [default_reap, full_reap], trace
        )
        # Later-wins name collapse keeps the *second* policy's campaign,
        # which ran through the scalar fallback (list-based result).
        assert results["REAP"].columns is None
        scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
            ReapPolicy(
                table2_points,
                allocator=ReapAllocator(AllocatorConfig(formulation="full")),
            ),
            trace,
        )
        np.testing.assert_allclose(
            results["REAP"].objective_values(),
            scalar.objective_values(),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("recognition_mode", ["expected", "sampled"])
    def test_mixed_design_point_sets_in_one_fleet(self, table2_points, recognition_mode):
        # Policies over different design-point subsets have different
        # consumption-curve grids; the closed-loop fleet must still run them
        # together and match the scalar loop.
        trace = SyntheticSolarModel(seed=21).generate_days(200, 2)
        config = CampaignConfig(
            use_battery=True,
            device=DeviceConfig(recognition_mode=recognition_mode, seed=17),
        )
        scenario = HarvestScenario()

        def policies():
            return [
                ReapPolicy(table2_points, alpha=1.0),
                ReapPolicy(table2_points[:3], alpha=2.0),
                StaticPolicy(table2_points[:2], "DP2", alpha=1.0),
            ]

        fleet = FleetCampaign(scenario, config).run(policies(), trace)
        scalar_campaign = HarvestingCampaign(scenario, config, engine="scalar")
        for index, policy in enumerate(policies()):
            _assert_campaigns_match(
                scalar_campaign.run(policy, trace), fleet.result(index)
            )


class TestOpenLoopEquivalence:
    @pytest.mark.parametrize("recognition_mode", ["expected", "sampled"])
    def test_open_loop_matches_scalar(self, table2_points, recognition_mode):
        rng = np.random.default_rng(99)
        scenario = HarvestScenario()
        trace = SyntheticSolarModel(seed=31).generate_days(150, 3)
        config = CampaignConfig(
            use_battery=False,
            device=DeviceConfig(recognition_mode=recognition_mode, seed=11),
        )
        for _ in range(4):
            policy_seed = int(rng.integers(0, 2**31))
            scalar = HarvestingCampaign(scenario, config, engine="scalar").run(
                _random_policy(table2_points, np.random.default_rng(policy_seed)),
                trace,
            )
            fleet = HarvestingCampaign(scenario, config, engine="fleet").run(
                _random_policy(table2_points, np.random.default_rng(policy_seed)),
                trace,
            )
            _assert_campaigns_match(scalar, fleet)


class TestBatteryScan:
    def test_matches_scalar_battery_and_allocator(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            capacity = float(rng.uniform(15.0, 100.0))
            target_soc = float(rng.uniform(0.0, 0.9))
            max_draw = float(rng.uniform(0.0, 7.0))
            harvest = rng.uniform(0.0, 9.0, 60) * (rng.random(60) < 0.7)
            fraction = float(rng.uniform(0.2, 1.0))

            battery = Battery(capacity_j=capacity)
            allocator = HarvestFollowingAllocator(
                battery, target_soc=target_soc, max_battery_draw_j=max_draw
            )
            budgets, consumed = [], []
            for h in harvest:
                budget = allocator.grant(float(h))
                spent = budget * fraction
                allocator.settle(float(h), spent)
                budgets.append(budget)
                consumed.append(spent)

            scan = BatteryScan(
                3,
                capacity_j=capacity,
                target_soc=target_soc,
                max_draw_j=max_draw,
            )
            result = scan.run(harvest, lambda b: b * fraction)
            assert result.num_devices == 3
            assert result.num_periods == harvest.size
            for device in range(3):
                np.testing.assert_allclose(
                    result.budgets_j[:, device], budgets, rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(
                    result.device_charge_j(device),
                    battery.history,
                    rtol=0,
                    atol=1e-12,
                )
            np.testing.assert_allclose(result.final_charge_j, battery.history[-1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BatteryScan(0)
        with pytest.raises(ValueError):
            BatteryScan(2, capacity_j=-1.0)
        with pytest.raises(ValueError):
            BatteryScan(2, target_soc=1.5)
        scan = BatteryScan(2)
        with pytest.raises(ValueError):
            scan.run(np.full((5, 3), 1.0), lambda b: b)
        with pytest.raises(ValueError):
            scan.run(np.array([-1.0, 2.0]), lambda b: b)


class TestConsumptionCurves:
    def test_reap_curve_matches_engine_everywhere(self, table2_points):
        engine = BatchAllocator(table2_points)
        budgets = np.random.default_rng(1).uniform(0.0, 14.0, 3000)
        for alpha in (0.0, 0.5, 1.0, 2.0, 8.0):
            curve = engine.consumption_curve(alpha=alpha)
            np.testing.assert_allclose(
                curve(budgets),
                engine.device_consumption(budgets, alpha=alpha),
                rtol=0,
                atol=1e-10,
            )

    def test_static_curves_match_engine(self, table2_points):
        engine = BatchAllocator(table2_points)
        budgets = np.random.default_rng(2).uniform(0.0, 14.0, 1000)
        for dp in table2_points:
            curve = engine.static_consumption_curve(dp.name, alpha=2.0)
            np.testing.assert_allclose(
                curve(budgets),
                engine.static_arrays(dp.name, budgets, alpha=2.0).device_consumption_j,
                rtol=0,
                atol=1e-10,
            )

    def test_degenerate_design_point_rejected(self):
        # A design point cheaper than the off state breaks the
        # piecewise-linear structure; the engine must refuse a curve.
        points = [
            DesignPoint(name="CHEAP", accuracy=0.5, power_w=1e-6),
            DesignPoint(name="HOT", accuracy=0.9, power_w=3e-3),
        ]
        engine = BatchAllocator(points)
        with pytest.raises(ConsumptionCurveError):
            engine.consumption_curve(alpha=1.0)

    def test_stacked_curves_match_individuals(self, table2_points):
        engine = BatchAllocator(table2_points)
        curves = [
            engine.consumption_curve(alpha=1.0),
            engine.static_consumption_curve("DP1", alpha=1.0),
            engine.static_consumption_curve("DP5", alpha=2.0),
        ]
        stacked = StackedConsumptionCurves(curves)
        assert stacked.num_devices == 3
        budgets = np.random.default_rng(3).uniform(0.0, 12.0, 3)
        expected = [float(curve(np.array([b]))[0]) for curve, b in zip(curves, budgets)]
        np.testing.assert_array_equal(stacked(budgets), expected)

    def test_stacked_curves_heterogeneous_grids(self, table2_points):
        # Policies over different design-point sets produce curves with
        # different breakpoint grids; the stack must evaluate each device
        # against its own grid.
        full = BatchAllocator(table2_points)
        subset = BatchAllocator(table2_points[:3])
        curves = [
            full.consumption_curve(alpha=1.0),
            subset.consumption_curve(alpha=2.0),
            full.static_consumption_curve("DP5", alpha=1.0),
            subset.static_consumption_curve("DP2", alpha=1.0),
        ]
        stacked = StackedConsumptionCurves(curves)
        budgets = np.random.default_rng(6).uniform(0.0, 12.0, 4)
        expected = [float(curve(np.array([b]))[0]) for curve, b in zip(curves, budgets)]
        np.testing.assert_array_equal(stacked(budgets), expected)

    def test_curve_is_cached_per_policy(self, table2_points):
        policy = ReapPolicy(table2_points, alpha=1.0)
        assert policy.consumption_curve() is policy.consumption_curve()


class TestTiedOptima:
    """At alpha = 0 every design point scores the same per second, so many
    vertices are optimal.  The battery scan (through the consumption curve)
    and the cell columns (through ``solve_arrays``) must still pick the same
    one, or the columns report energy the battery never drew."""

    def test_closed_loop_consumption_matches_the_curve(self, table2_points):
        policy = ReapPolicy(table2_points, alpha=0.0)
        trace = SyntheticSolarModel(seed=2015).generate_month(9)
        result = FleetCampaign(
            [HarvestScenario()], CampaignConfig(use_battery=True)
        ).run([policy], trace)
        columns = result.result(0, 0).columns
        np.testing.assert_allclose(
            columns.energy_consumed_j,
            policy.consumption_curve()(columns.energy_budget_j),
            rtol=0,
            atol=TOLERANCE,
        )

    def test_single_alpha_grid_is_bit_equal_to_arrays(self, table2_points):
        engine = BatchAllocator(table2_points)
        budgets = np.random.default_rng(8).uniform(0.0, 12.0, 300)
        arrays = engine.solve_arrays(budgets, 0.0)
        grid = engine.solve_grid(budgets, alphas=(0.0,))
        np.testing.assert_array_equal(arrays.times_s, grid.times_s[0])
        np.testing.assert_array_equal(arrays.energy_j, grid.energy_j[0])
        np.testing.assert_array_equal(arrays.objective, grid.objective[0])


class TestSolveArrays:
    def test_solve_arrays_matches_solve_grid(self, table2_points):
        engine = BatchAllocator(table2_points)
        budgets = np.random.default_rng(4).uniform(0.0, 12.0, 300)
        for alpha in (0.5, 1.0, 4.0):
            arrays = engine.solve_arrays(budgets, alpha=alpha)
            grid = engine.solve_grid(budgets, alphas=(alpha,))
            np.testing.assert_array_equal(arrays.times_s, grid.times_s[0])
            np.testing.assert_array_equal(arrays.energy_j, grid.energy_j[0])
            np.testing.assert_allclose(
                arrays.objective, grid.objective[0], rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(arrays.feasible, grid.budget_feasible)

    def test_static_arrays_match_static_allocations(self, table2_points):
        engine = BatchAllocator(table2_points)
        budgets = np.random.default_rng(5).uniform(0.0, 12.0, 60)
        for name in ("DP1", "DP4"):
            arrays = engine.static_arrays(name, budgets, alpha=2.0)
            for index, allocation in enumerate(
                engine.static_allocations(name, budgets, alpha=2.0)
            ):
                assert allocation.energy_j == pytest.approx(
                    float(arrays.energy_j[index]), abs=1e-12
                )
                assert allocation.objective == pytest.approx(
                    float(arrays.objective[index]), abs=1e-12
                )
                assert allocation.budget_feasible == bool(arrays.feasible[index])

    def test_allocation_materialisation(self, table2_points):
        engine = BatchAllocator(table2_points)
        arrays = engine.solve_arrays([5.0], alpha=1.0)
        allocation = arrays.allocation(0)
        allocation.check(5.0)
        assert allocation.objective == pytest.approx(float(arrays.objective[0]))


class TestColumnarResults:
    def _columns(self, periods=4):
        index = np.arange(periods)
        return CampaignColumns(
            period_index=index,
            energy_budget_j=np.full(periods, 5.0),
            energy_consumed_j=np.full(periods, 4.0),
            active_time_s=np.full(periods, 1800.0),
            off_time_s=np.full(periods, 1800.0),
            windows_total=np.full(periods, 2250),
            windows_observed=np.full(periods, 1000),
            windows_correct=np.full(periods, 900.0),
            objective_value=np.full(periods, 0.5),
            expected_accuracy=np.full(periods, 0.5),
            design_point_names=("DP1",),
            times_by_design_point_s=np.full((periods, 1), 1800.0),
        )

    def test_lazy_outcomes_match_columns(self):
        result = CampaignResult.from_columns("REAP", 1.0, self._columns())
        assert len(result) == 4
        assert result.mean_objective == pytest.approx(0.5)
        assert result.total_energy_consumed_j == pytest.approx(16.0)
        assert result.overall_recognition_rate == pytest.approx(900.0 / 2250.0)
        outcomes = result.outcomes  # materialised on demand
        assert isinstance(outcomes[0], PeriodOutcome)
        assert outcomes[2].time_by_design_point == {"DP1": 1800.0}
        assert result.summary()["periods"] == 4.0

    def test_columnar_results_are_read_only(self):
        result = CampaignResult.from_columns("REAP", 1.0, self._columns())
        with pytest.raises(ValueError):
            result.append(result.outcomes[0])

    def test_roundtrip_through_outcomes(self):
        columns = self._columns()
        rebuilt = CampaignColumns.from_outcomes(columns.to_outcomes())
        np.testing.assert_array_equal(rebuilt.windows_correct, columns.windows_correct)
        np.testing.assert_array_equal(rebuilt.period_index, columns.period_index)


class TestFleetGrid:
    def test_scenario_policy_grid(self, table2_points):
        trace = SyntheticSolarModel(seed=13).generate_days(60, 2)
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in (0.032, 0.06)
        ]
        policies = [
            ReapPolicy(table2_points, alpha=1.0),
            StaticPolicy(table2_points, "DP5", alpha=1.0),
        ]
        fleet = FleetCampaign(
            scenarios,
            CampaignConfig(use_battery=True),
            scenario_labels=["low", "high"],
        )
        result = fleet.run(policies, trace)
        assert result.num_scenarios == 2
        assert result.num_policies == 2
        assert result.num_cells == 4
        assert result.scan is not None and result.scan.num_devices == 4
        # Higher exposure harvests more, so the fleet consumes at least as much.
        low = result.result("REAP", 0)
        high = result.result("REAP", 1)
        assert high.total_energy_consumed_j > low.total_energy_consumed_j
        # Each scenario row matches a dedicated single-scenario campaign.
        solo = HarvestingCampaign(
            scenarios[1], CampaignConfig(use_battery=True), engine="fleet"
        ).run(ReapPolicy(table2_points, alpha=1.0), trace)
        np.testing.assert_allclose(
            high.objective_values(), solo.objective_values(), rtol=0, atol=1e-12
        )
        for _, _, cell in result:
            assert isinstance(cell, CampaignResult)

    def test_ambiguous_policy_name_lookup_rejected(self, table2_points):
        trace = SyntheticSolarModel(seed=2).generate_days(50, 1)
        fleet = FleetCampaign(HarvestScenario(), CampaignConfig())
        result = fleet.run(
            [
                ReapPolicy(table2_points, alpha=1.0),
                ReapPolicy(table2_points, alpha=2.0),
            ],
            trace,
        )
        with pytest.raises(ValueError, match="ambiguous|appears"):
            result.result("REAP")
        assert result.result(0).alpha == 1.0
        assert result.result(1).alpha == 2.0

    def test_validation(self, table2_points):
        with pytest.raises(ValueError):
            FleetCampaign([])
        with pytest.raises(ValueError):
            FleetCampaign(
                [HarvestScenario()], scenario_labels=["a", "b"]
            )
        fleet = FleetCampaign(HarvestScenario())
        with pytest.raises(ValueError):
            fleet.run([], SyntheticSolarModel(seed=1).generate_days(1, 1))


class TestSatelliteFixes:
    def test_campaign_config_device_not_shared(self):
        first = CampaignConfig()
        second = CampaignConfig()
        assert first.device is not second.device

    def test_harvest_scenario_defaults_not_shared(self):
        first = HarvestScenario()
        second = HarvestScenario()
        assert first.cell is not second.cell
        assert first.circuit is not second.circuit

    def test_window_constant_hoisted(self, table2_points):
        assert DEFAULT_WINDOW_S == ACTIVITY_WINDOW_S
        from repro.core.schedule import TimeAllocation

        allocation = TimeAllocation.all_off([], period_s=3600.0)
        outcome = DeviceSimulator().run_period(allocation)
        assert outcome.windows_total == int(round(3600.0 / ACTIVITY_WINDOW_S))
