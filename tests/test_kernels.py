"""Equivalence suite for the production kernels (repro.core.kernels).

Every engine runs one kernel path; each kernel must agree with the oracle
it replaced, across randomly generated problems:

* ``solve_arrays`` via the value hull against the candidate enumeration
  (``BatchAllocator._solve_arrays_reference``): objectives and energies to
  1e-9;
* the ``BatteryScan`` grant/settle recurrence against the per-period loop
  (``BatteryScan._run_reference``): bit-exact for the scalar recurrence;
* the MPC window projection against the unfused projection
  (``MpcPlanner._sustainable_reference``): identical masks and budgets;
* the Numba-less container must fall back gracefully (``None`` from the
  kernels, reference results from the engines) rather than raise;
* whole campaigns must match a reference run with every kernel declined,
  including the sampled-mode RNG stream (budget parity implies
  window-count parity).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch, kernels
from repro.core.batch import BatchAllocator, StackedConsumptionCurves
from repro.core.design_point import DesignPoint
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.energy.fleet import BatteryScan
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario
from repro.planning import MpcPlanner, PlanBattery
from repro.simulation.device import DeviceConfig
from repro.simulation.fleet import CampaignConfig
from repro.simulation.policies import default_policy_suite
from repro.simulation.simulator import HarvestingCampaign

OFF_FLOOR_J = OFF_STATE_POWER_W * ACTIVITY_PERIOD_S

#: Documented agreement contract (see repro.core.kernels).
COMPILED_ATOL = 1e-9


def design_point_lists(min_size=1, max_size=6):
    """Random design-point sets that out-draw the off state (hull exists)."""
    point = st.tuples(
        st.floats(min_value=0.05, max_value=1.0),                  # accuracy
        st.floats(min_value=OFF_STATE_POWER_W * 2, max_value=5e-3),  # power
    )
    return st.lists(point, min_size=min_size, max_size=max_size).map(
        lambda pairs: [
            DesignPoint(name=f"P{i}", accuracy=a, power_w=p)
            for i, (a, p) in enumerate(pairs)
        ]
    )


budget_lists = st.lists(
    st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=24
)
alphas = st.floats(min_value=0.0, max_value=8.0)


def _both(engine, budgets, alpha):
    """(reference, production) solves of one budget vector."""
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    reference = engine._solve_arrays_reference(budgets, alpha)
    return reference, engine.solve_arrays(budgets, alpha=alpha)


@pytest.fixture
def reference_run(monkeypatch):
    """Run a callable with every kernel entry point declining.

    The engines then take their reference paths throughout: the candidate
    enumeration (and curves probed through it), the per-period battery
    loop and the unfused MPC projection.  The shared-engine LRU is emptied
    on both sides, so no hull-built table or curve leaks into the reference
    run and no reference-built one outlives it.
    """

    def run(function):
        batch._SHARED_ENGINES.clear()
        with monkeypatch.context() as patch:
            for name in ("build_solve_tables", "battery_scan", "mpc_sustainable"):
                patch.setattr(kernels, name, lambda *args, **kwargs: None)
            try:
                return function()
            finally:
                batch._SHARED_ENGINES.clear()

    return run


# ---------------------------------------------------------------------------
# Kernel selection and the Numba-less fallback
# ---------------------------------------------------------------------------

class TestBackendPlumbing:
    def test_numba_absent_is_not_ready(self):
        # The container image does not ship Numba; every engine must still
        # construct and solve (via the fallbacks) without it.
        if kernels.HAVE_NUMBA:  # pragma: no cover - optional-deps CI job
            assert kernels.numba_ready() or True
        else:
            assert not kernels.numba_ready()

    def test_degenerate_sets_have_no_hull(self):
        # A design point cheaper than the off state voids the hull; the
        # engine must fall back to the reference enumeration, exactly.
        points = (
            DesignPoint(name="CHEAP", accuracy=0.4, power_w=OFF_STATE_POWER_W / 2),
            DesignPoint(name="HOT", accuracy=0.9, power_w=3e-3),
        )
        assert kernels.build_solve_tables(
            np.array([dp.power_w for dp in points]),
            np.array([dp.accuracy for dp in points]),
            1.0, ACTIVITY_PERIOD_S, OFF_STATE_POWER_W,
        ) is None
        budgets = np.linspace(0.0, 12.0, 50)
        reference, fast = _both(BatchAllocator(points), budgets, 1.0)
        np.testing.assert_array_equal(fast.times_s, reference.times_s)
        np.testing.assert_array_equal(fast.objective, reference.objective)


# ---------------------------------------------------------------------------
# Kernel 1: solve_arrays via the value hull
# ---------------------------------------------------------------------------

def _assert_internally_consistent(arrays, engine, budgets, atol):
    """The fast result must be a *feasible, self-consistent* allocation:
    its reported figures must follow from its own times, and its energy
    must respect the budget.  (At exactly tied optima the hull and the
    enumeration legitimately report different optimal vertices, so
    equality is asserted on the objective, not on the times.)"""
    times = arrays.times_s
    assert np.all(times >= -atol)
    active = times.sum(axis=1)
    assert np.all(active <= engine.period_s * (1 + atol))
    powers = np.array([dp.power_w for dp in engine.design_points])
    accuracies = np.array([dp.accuracy for dp in engine.design_points])
    energy = times @ powers + engine.off_power_w * (engine.period_s - active)
    np.testing.assert_allclose(arrays.energy_j, energy, rtol=1e-6, atol=atol)
    weights = accuracies ** arrays.alpha
    np.testing.assert_allclose(
        arrays.objective, (times @ weights) / engine.period_s,
        rtol=1e-6, atol=atol,
    )
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    feasible = arrays.feasible
    scale = np.maximum(1.0, budgets[feasible])
    assert np.all(arrays.energy_j[feasible] <= budgets[feasible] + atol * scale)


class TestHullSolveEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(points=design_point_lists(), budgets=budget_lists, alpha=alphas)
    def test_compiled_matches_reference(self, points, budgets, alpha):
        engine = BatchAllocator(points)
        reference, fast = _both(engine, budgets, alpha)
        np.testing.assert_array_equal(fast.feasible, reference.feasible)
        np.testing.assert_allclose(
            fast.objective, reference.objective, rtol=0, atol=COMPILED_ATOL
        )
        _assert_internally_consistent(fast, engine, budgets, COMPILED_ATOL)

    def test_full_arrays_agree_on_table2(self, table2_points):
        # The paper's design points are strictly separated in accuracy and
        # power, so the optimal vertex is unique everywhere except the
        # measure-zero kink set: every output array must agree, not just
        # the objective.
        engine = BatchAllocator(table2_points)
        budgets = np.linspace(0.0, 30.0, 400)
        atol, time_atol = COMPILED_ATOL, COMPILED_ATOL * ACTIVITY_PERIOD_S
        for alpha in (0.5, 1.0, 2.0, 4.0):
            reference, fast = _both(engine, budgets, alpha)
            np.testing.assert_array_equal(fast.feasible, reference.feasible)
            np.testing.assert_allclose(
                fast.objective, reference.objective, rtol=atol, atol=atol
            )
            np.testing.assert_allclose(
                fast.energy_j, reference.energy_j, rtol=atol, atol=atol
            )
            np.testing.assert_allclose(
                fast.expected_accuracy, reference.expected_accuracy,
                rtol=atol, atol=atol,
            )
            np.testing.assert_allclose(
                fast.times_s, reference.times_s, rtol=0, atol=time_atol
            )

    def test_tied_optima_may_pick_the_cheaper_vertex(self):
        # Two equal-value vertices (equal accuracy) are both optimal; the
        # hull keeps the cheaper one while the reference argmax keeps the
        # first-listed.  Objectives must agree regardless, and the fast
        # path must never spend more than the reference.
        points = (
            DesignPoint(name="HOT", accuracy=0.9, power_w=4.0e-3),
            DesignPoint(name="COOL", accuracy=0.9, power_w=3.0e-3),
        )
        budgets = np.linspace(0.0, 20.0, 100)
        reference, fast = _both(BatchAllocator(points), budgets, 1.0)
        np.testing.assert_allclose(
            fast.objective, reference.objective, rtol=0, atol=COMPILED_ATOL
        )
        assert np.all(fast.energy_j <= reference.energy_j + COMPILED_ATOL)

    @settings(max_examples=40, deadline=None)
    @given(points=design_point_lists(min_size=2), alpha=alphas)
    def test_infeasible_rows_report_the_off_floor(self, points, alpha):
        budgets = np.array([0.0, OFF_FLOOR_J / 2, OFF_FLOOR_J])
        for arrays in _both(BatchAllocator(points), budgets, alpha):
            assert not arrays.feasible[0]
            assert not arrays.feasible[1]
            assert arrays.feasible[2]
            np.testing.assert_allclose(
                arrays.energy_j[:2], OFF_FLOOR_J, rtol=0, atol=COMPILED_ATOL
            )
            np.testing.assert_array_equal(arrays.times_s[:2], 0.0)

    def test_hull_vertices_are_bit_equal(self, table2_points):
        # At the hull's own vertices (the pure-DP budgets) the blend
        # degenerates to one point: hull and enumeration coincide exactly.
        vertex_budgets = [dp.power_w * ACTIVITY_PERIOD_S for dp in table2_points]
        reference, fast = _both(BatchAllocator(table2_points), vertex_budgets, 1.0)
        np.testing.assert_allclose(
            fast.objective, reference.objective, rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Kernel 2: the BatteryScan recurrence
# ---------------------------------------------------------------------------

def _stacked_curves(points, num_devices, alpha=1.0):
    engine = BatchAllocator(points)
    curve = engine.consumption_curve(alpha=alpha)
    return StackedConsumptionCurves([curve] * num_devices)


def _random_harvest(rng, num_periods, num_devices):
    return rng.uniform(0.0, 12.0, size=(num_periods, num_devices))


class TestBatteryScanEquivalence:
    def test_narrow_fleet_scalar_path_is_bit_exact(self, table2_points):
        # D <= 24 runs the scalar recurrence: the arithmetic is the same
        # Python-float sequence as the reference's vector ops, so the
        # trajectories match bit for bit.
        rng = np.random.default_rng(42)
        curves = _stacked_curves(table2_points, 8)
        harvest = _random_harvest(rng, 72, 8)
        scan = BatteryScan(8, capacity_j=60.0)
        reference = scan._run_reference(harvest, curves)
        fast = scan.run(harvest, curves)
        np.testing.assert_array_equal(fast.budgets_j, reference.budgets_j)
        np.testing.assert_array_equal(fast.consumed_j, reference.consumed_j)
        np.testing.assert_array_equal(fast.charge_j, reference.charge_j)

    @pytest.mark.skipif(kernels.numba_ready(), reason="needs the numba-less fallback")
    def test_wide_compiled_fleet_without_numba_falls_back(self, table2_points):
        # Above the scalar crossover with no jit available, the kernel
        # declines (None) and BatteryScan.run silently takes the reference
        # loop -- exact equality, no errors.
        num_devices = 40
        curves = _stacked_curves(table2_points, num_devices)
        tables = curves.fused_tables()
        assert tables is not None
        scan = BatteryScan(num_devices)
        harvest = _random_harvest(np.random.default_rng(3), 24, num_devices)
        assert kernels.battery_scan(
            harvest, scan.initial_charge_j, scan.capacity_j,
            scan.target_soc * scan.capacity_j, scan.max_draw_j,
            scan.min_budget_j, scan.charge_efficiency,
            scan.discharge_efficiency, tables,
        ) is None
        reference = scan._run_reference(harvest, curves)
        fast = scan.run(harvest, curves)
        np.testing.assert_array_equal(fast.budgets_j, reference.budgets_j)

    def test_heterogeneous_fleets_have_no_fused_tables(self, table2_points):
        engine = BatchAllocator(table2_points)
        mixed = StackedConsumptionCurves([
            engine.consumption_curve(alpha=1.0),
            engine.static_consumption_curve("DP1", alpha=2.0),
        ])
        # Different grids -> no single fused table -> reference loop.
        if mixed.fused_tables() is not None:
            pytest.skip("curves happen to share one grid")
        harvest = _random_harvest(np.random.default_rng(5), 24, 2)
        scan = BatteryScan(2)
        reference = scan._run_reference(harvest, mixed)
        fast = scan.run(harvest, mixed)
        np.testing.assert_array_equal(fast.budgets_j, reference.budgets_j)


# ---------------------------------------------------------------------------
# Kernel 3: the MPC window projection
# ---------------------------------------------------------------------------

def _plan_battery(num_devices, capacity=60.0, charge=20.0):
    scan = BatteryScan(num_devices, capacity_j=capacity, initial_charge_j=charge)
    return PlanBattery.from_scan(scan), np.full(num_devices, float(charge))


class TestMpcEquivalence:
    def test_small_grids_decline_without_numba(self, table2_points):
        if kernels.numba_ready():  # pragma: no cover - optional-deps CI job
            pytest.skip("jit accepts any grid size")
        curves = _stacked_curves(table2_points, 2)
        tables = curves.fused_tables()
        battery, charge = _plan_battery(2)
        budgets = np.full((16, 2), 4.0)
        assert budgets.size < kernels._MPC_FUSED_MIN_ELEMENTS
        assert kernels.mpc_sustainable(
            budgets, np.full((4, 2), 3.0), charge,
            battery.charge_efficiency, battery.discharge_efficiency,
            1e-9, tables,
        ) is None

    def test_wide_mask_matches_reference(self, table2_points):
        rng = np.random.default_rng(11)
        num_devices = 300  # 16 candidates x 300 devices clears the gate
        curves = _stacked_curves(table2_points, num_devices)
        battery, charge = _plan_battery(num_devices, charge=15.0)
        planner = MpcPlanner(6, max_budget_j=30.0)
        window = rng.uniform(0.0, 10.0, size=(6, num_devices))
        budgets = np.linspace(OFF_FLOOR_J, 30.0, 16)[:, None] * np.ones(
            (1, num_devices)
        )
        assert budgets.size >= kernels._MPC_FUSED_MIN_ELEMENTS
        mask_ref = planner._sustainable_reference(
            budgets, window, charge, battery, curves
        )
        mask_fast = planner.sustainable(budgets, window, charge, battery, curves)
        np.testing.assert_array_equal(mask_fast, mask_ref)

    def test_step_budgets_agree_within_a_refinement_cell(
        self, table2_points, reference_run
    ):
        rng = np.random.default_rng(13)
        num_devices = 300
        curves = _stacked_curves(table2_points, num_devices)
        battery, charge = _plan_battery(num_devices, charge=25.0)
        planner = MpcPlanner(5, max_budget_j=30.0, passes=3, candidates=16)
        window = rng.uniform(0.0, 8.0, size=(5, num_devices))
        reference = reference_run(
            lambda: planner.step_budgets(window, charge, battery, curves)
        )
        fast = planner.step_budgets(window, charge, battery, curves)
        np.testing.assert_allclose(fast, reference, rtol=0, atol=COMPILED_ATOL)


# ---------------------------------------------------------------------------
# End-to-end: campaigns against a reference run
# ---------------------------------------------------------------------------

def _campaign_config(recognition_mode="expected", seed=9):
    return CampaignConfig(
        use_battery=True,
        battery_capacity_j=80.0,
        device=DeviceConfig(recognition_mode=recognition_mode, seed=seed),
    )


class TestCampaignBackendEquivalence:
    @pytest.mark.parametrize("recognition_mode", ["expected", "sampled"])
    def test_compiled_campaign_matches_numpy(
        self, table2_points, recognition_mode, reference_run
    ):
        # Equal budgets mean the sampled-mode Bernoulli draws consume the
        # identical RNG stream: window counts must match exactly.
        trace = SyntheticSolarModel(seed=21).generate_days(60, 3)

        def run():
            campaign = HarvestingCampaign(
                HarvestScenario(), _campaign_config(recognition_mode),
                engine="fleet",
            )
            return campaign.run_many(
                default_policy_suite(table2_points, alpha=2.0), trace
            )

        reference = reference_run(run)
        fast = run()
        assert list(reference) == list(fast)
        for name in reference:
            ref, new = reference[name], fast[name]
            assert ref.columns is not None and new.columns is not None
            np.testing.assert_allclose(
                new.columns.energy_budget_j, ref.columns.energy_budget_j,
                rtol=0, atol=COMPILED_ATOL,
            )
            np.testing.assert_allclose(
                new.columns.objective_value, ref.columns.objective_value,
                rtol=0, atol=COMPILED_ATOL,
            )
            np.testing.assert_array_equal(
                new.columns.windows_correct, ref.columns.windows_correct
            )
