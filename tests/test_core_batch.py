"""Tests for the vectorized batch allocation engine (repro.core.batch).

The central property: on any (budget, alpha) grid, :class:`BatchAllocator`
reproduces the objectives of the scalar :class:`ReapAllocator` -- for all
three formulations -- within 1e-9, and its winning vertices coincide with
the analytic solver's.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import FORMULATIONS, AllocatorConfig, ReapAllocator
from repro.core import batch as batch_module
from repro.core.analytic import solve_analytic
from repro.core.batch import BatchAllocator, BatchGridResult
from repro.core.design_point import DesignPoint
from repro.core.problem import ReapProblem, static_allocation
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.data.table2 import table2_design_points


def design_point_lists(min_size=1, max_size=6):
    """Random, uniquely named design-point sets."""
    point = st.tuples(
        st.floats(min_value=0.05, max_value=1.0),      # accuracy
        st.floats(min_value=1e-4, max_value=5e-3),     # power in W
    )
    return st.lists(point, min_size=min_size, max_size=max_size).map(
        lambda pairs: [
            DesignPoint(name=f"P{i}", accuracy=a, power_w=p)
            for i, (a, p) in enumerate(pairs)
        ]
    )


budget_grids = st.lists(
    st.floats(min_value=0.0, max_value=25.0), min_size=1, max_size=6
)
alpha_grids = st.lists(
    st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=3
)


class TestBatchMatchesScalarSolvers:
    @settings(max_examples=25, deadline=None)
    @given(points=design_point_lists(), budgets=budget_grids, alphas=alpha_grids)
    def test_objectives_match_all_formulations(self, points, budgets, alphas):
        """Batch objectives equal every scalar formulation's within 1e-9."""
        grid = BatchAllocator(tuple(points)).solve_grid(budgets, alphas)
        allocators = {
            formulation: ReapAllocator(AllocatorConfig(formulation=formulation))
            for formulation in FORMULATIONS
        }
        for alpha_index, alpha in enumerate(grid.alphas):
            for budget_index, budget in enumerate(grid.budgets_j):
                problem = ReapProblem(
                    tuple(points),
                    energy_budget_j=float(budget),
                    alpha=float(alpha),
                    off_power_w=OFF_STATE_POWER_W,
                )
                batch_objective = grid.objective[alpha_index, budget_index]
                for formulation, allocator in allocators.items():
                    scalar = allocator.solve(problem)
                    assert batch_objective == pytest.approx(
                        scalar.objective, rel=1e-9, abs=1e-9
                    ), (formulation, float(budget), float(alpha))

    @settings(max_examples=25, deadline=None)
    @given(points=design_point_lists(), budgets=budget_grids, alphas=alpha_grids)
    def test_allocations_are_feasible_and_optimal(self, points, budgets, alphas):
        """Every materialised cell is feasible and achieves the exact optimum.

        Under exact objective ties (e.g. equal-accuracy design points) the
        batch engine may legitimately pick a different vertex than the
        analytic solver, so the contract is the optimal value, not the
        identical time vector.
        """
        grid = BatchAllocator(tuple(points)).solve_grid(budgets, alphas)
        for alpha_index, alpha in enumerate(grid.alphas):
            for budget_index, budget in enumerate(grid.budgets_j):
                allocation = grid.allocation(alpha_index, budget_index)
                allocation.check(float(budget))
                reference = solve_analytic(
                    ReapProblem(
                        tuple(points),
                        energy_budget_j=float(budget),
                        alpha=float(alpha),
                    )
                )
                assert allocation.objective == pytest.approx(
                    reference.objective, rel=1e-9, abs=1e-9
                )

    @settings(max_examples=20, deadline=None)
    @given(points=design_point_lists(min_size=2), budgets=budget_grids)
    def test_static_grid_matches_scalar_static_allocation(self, points, budgets):
        engine = BatchAllocator(tuple(points))
        for dp in points:
            series = engine.static_grid(dp.name, budgets, alpha=2.0)
            for budget_index, budget in enumerate(series.budgets_j):
                problem = ReapProblem(
                    tuple(points), energy_budget_j=float(budget), alpha=2.0
                )
                reference = static_allocation(problem, dp.name)
                assert series.objective[budget_index] == pytest.approx(
                    reference.objective, rel=1e-9, abs=1e-12
                )
                assert series.active_time_s[budget_index] == pytest.approx(
                    reference.active_time_s, rel=1e-9, abs=1e-6
                )


class TestBatchGridResult:
    def setup_method(self):
        self.points = tuple(table2_design_points())
        self.engine = BatchAllocator(self.points)

    def test_grid_shapes_and_metadata(self):
        budgets = np.linspace(0.0, 11.0, 17)
        alphas = (0.5, 1.0, 2.0)
        grid = self.engine.solve_grid(budgets, alphas)
        assert isinstance(grid, BatchGridResult)
        assert grid.num_budgets == 17 and grid.num_alphas == 3
        assert grid.objective.shape == (3, 17)
        assert grid.times_s.shape == (3, 17, 5)
        assert grid.off_time_s.shape == (3, 17)
        assert grid.period_s == ACTIVITY_PERIOD_S

    def test_infeasible_budgets_flagged_and_all_off(self):
        grid = self.engine.solve_budgets([0.0, 0.05, 5.0])
        assert list(grid.budget_feasible) == [False, False, True]
        assert np.all(grid.times_s[0, :2] == 0.0)
        assert grid.objective[0, 0] == 0.0
        allocation = grid.allocation(0, 0)
        assert not allocation.budget_feasible
        assert allocation.active_time_s == 0.0

    def test_known_5j_blend(self):
        """At 5 J / alpha=1 the optimum is the DP4/DP5 blend of Section 5.2."""
        grid = self.engine.solve_budgets([5.0])
        allocation = grid.allocation(0, 0)
        active = sorted(name for name, t in allocation.as_dict().items() if t > 0)
        assert active == ["DP4", "DP5"]
        assert allocation.energy_j == pytest.approx(5.0, rel=1e-9)

    def test_objective_monotone_in_budget_and_saturates(self):
        budgets = np.linspace(0.2, 12.0, 100)
        grid = self.engine.solve_budgets(budgets)
        objective = grid.objective[0]
        assert np.all(np.diff(objective) >= -1e-12)
        # Past DP1's full-hour energy the optimum is pinned at DP1 accuracy.
        saturated = budgets >= self.engine.max_useful_energy_j
        assert np.allclose(objective[saturated], max(dp.accuracy for dp in self.points))

    def test_allocations_materialise_lazily(self):
        grid = self.engine.solve_budgets(np.linspace(0.2, 10.0, 7), alpha=2.0)
        allocations = grid.allocations(0)
        assert len(allocations) == 7
        for budget, allocation in zip(grid.budgets_j, allocations):
            assert allocation.alpha == 2.0
            assert allocation.budget_j == pytest.approx(float(budget))

    def test_solve_allocations_equals_scalar_loop(self):
        budgets = np.linspace(0.2, 10.0, 9)
        batch = self.engine.solve_allocations(budgets, alpha=1.0)
        allocator = ReapAllocator()
        for budget, allocation in zip(budgets, batch):
            scalar = allocator.solve(
                ReapProblem(self.points, energy_budget_j=float(budget), alpha=1.0)
            )
            assert allocation.objective == pytest.approx(
                scalar.objective, rel=1e-9, abs=1e-12
            )


class TestBatchAllocatorValidation:
    def test_rejects_bad_parameters(self):
        points = tuple(table2_design_points())
        with pytest.raises(ValueError):
            BatchAllocator(points, period_s=0.0)
        with pytest.raises(ValueError):
            BatchAllocator(points, off_power_w=-1.0)
        engine = BatchAllocator(points)
        with pytest.raises(ValueError):
            engine.solve_grid([])
        with pytest.raises(ValueError):
            engine.solve_grid([1.0], alphas=[])
        with pytest.raises(ValueError):
            engine.solve_grid([-1.0])
        with pytest.raises(ValueError):
            engine.solve_grid([1.0], alphas=[-0.5])
        with pytest.raises(KeyError):
            engine.static_grid("DP99", [1.0])

    def test_from_problem_copies_fixed_parameters(self):
        problem = ReapProblem(
            tuple(table2_design_points()),
            energy_budget_j=5.0,
            period_s=1800.0,
            off_power_w=1e-4,
        )
        engine = BatchAllocator.from_problem(problem)
        assert engine.period_s == 1800.0
        assert engine.off_power_w == 1e-4
        assert engine.min_required_energy_j == pytest.approx(1e-4 * 1800.0)

    def test_candidate_vertex_count(self):
        engine = BatchAllocator(tuple(table2_design_points()))
        # off + 5 singles + C(5, 2) pairs (all Table 2 powers are distinct)
        assert engine.num_candidate_vertices == 1 + 5 + 10

    def test_identical_powers_handled_via_single_vertices(self):
        points = (
            DesignPoint(name="A", accuracy=0.9, power_w=2e-3),
            DesignPoint(name="B", accuracy=0.7, power_w=2e-3),
        )
        engine = BatchAllocator(points)
        assert engine.num_candidate_vertices == 1 + 2  # singular pair dropped
        grid = engine.solve_budgets([4.0])
        reference = solve_analytic(
            ReapProblem(points, energy_budget_j=4.0, alpha=1.0)
        )
        assert grid.objective[0, 0] == pytest.approx(reference.objective, rel=1e-12)


class TestKinkTieBreak:
    """Regression: the argmax at exact consumption-curve kinks is pinned.

    At the exact kink budget ``P_i * T`` a saturated single vertex ties
    with its zero-time pair blends to within round-off.  The snapped
    tie-break (any candidate within the tolerance of the maximum counts,
    earliest wins) must resolve every such tie to the *pure* single vertex
    running the full period -- in the NumPy candidate enumeration (the
    oracle, id ``numpy``) and in the production hull kernel (id
    ``compiled``) alike -- so the chosen vertex cannot flip between runs,
    budgets epsilon apart, or the two solves.
    """

    SOLVES = {
        "numpy": lambda engine, budgets: engine._solve_arrays_reference(
            np.asarray(budgets, dtype=float), 1.0
        ),
        "compiled": lambda engine, budgets: engine.solve_arrays(
            budgets, alpha=1.0
        ),
    }

    @staticmethod
    def _hull_indices(points, alpha):
        """Design points whose pure vertex is optimal at its own kink.

        Only value-hull members can win at their saturation budget:
        dominated points are beaten there by a blend of their hull
        neighbours, so the tie in question never arises for them.
        """
        from repro.core import kernels

        tables = kernels.build_solve_tables(
            np.array([dp.power_w for dp in points]),
            np.array([dp.accuracy for dp in points]),
            alpha, ACTIVITY_PERIOD_S, OFF_STATE_POWER_W,
        )
        assert tables is not None
        return [int(i) for i in tables[2] if i >= 0]

    @pytest.mark.parametrize("solve", ["numpy", "compiled"])
    def test_exact_kink_budget_pins_the_pure_vertex(self, solve):
        points = tuple(table2_design_points())
        engine = BatchAllocator(points)
        for index in self._hull_indices(points, alpha=1.0):
            dp = points[index]
            kink = dp.power_w * ACTIVITY_PERIOD_S        # exact saturation
            arrays = self.SOLVES[solve](engine, [kink])
            times = arrays.times_s[0]
            # The winner is the pure single vertex: DP i runs the whole
            # period, every other time is exactly zero.
            assert times[index] == pytest.approx(
                ACTIVITY_PERIOD_S, rel=0, abs=ACTIVITY_PERIOD_S * 1e-6
            ), (solve, dp.name)
            others = np.delete(times, index)
            np.testing.assert_allclose(
                others, 0.0, rtol=0, atol=ACTIVITY_PERIOD_S * 1e-6,
                err_msg=f"{solve}/{dp.name}: kink tie not snapped",
            )

    def test_kink_neighbourhood_is_stable(self):
        # Budgets one float64 ulp either side of the kink must not change
        # the winning vertex support (the tie tolerance dwarfs one ulp).
        points = tuple(table2_design_points())
        engine = BatchAllocator(points)
        for index in self._hull_indices(points, alpha=1.0):
            dp = points[index]
            kink = dp.power_w * ACTIVITY_PERIOD_S
            for budget in (np.nextafter(kink, 0.0), kink, np.nextafter(kink, np.inf)):
                times = engine.solve_arrays([budget], alpha=1.0).times_s[0]
                support = {
                    points[i].name for i in range(len(points))
                    if times[i] > ACTIVITY_PERIOD_S * 1e-9
                }
                assert support == {dp.name}, (dp.name, float(budget))

    def test_tie_break_matches_analytic_winner(self):
        # The analytic solver enumerates candidates in the same (off,
        # singles, pairs) order; at kinks both must report the same
        # single-point support.
        points = tuple(table2_design_points())
        engine = BatchAllocator(points)
        for index in self._hull_indices(points, alpha=1.0):
            dp = points[index]
            kink = dp.power_w * ACTIVITY_PERIOD_S
            reference = solve_analytic(
                ReapProblem(points, energy_budget_j=kink, alpha=1.0)
            )
            batch = engine.solve_arrays([kink], alpha=1.0)
            ref_support = {
                name for name, t in reference.as_dict().items() if t > 1e-6
            }
            batch_support = {
                points[i].name for i in range(len(points))
                if batch.times_s[0, i] > 1e-6
            }
            assert batch_support == ref_support == {dp.name}


class TestBoundedCaches:
    """Per-alpha engine entries live in bounded, thread-safe LRU maps."""

    def test_alpha_churn_stops_at_the_bound(self):
        points = tuple(table2_design_points())
        engine = BatchAllocator(points)
        limit = batch_module._MAX_ALPHA_ENTRIES
        alphas = np.linspace(0.01, 8.0, 10_000)
        for alpha in alphas:
            engine.solve_arrays([5.0], alpha=alpha)
        # Curve builds cost ~0.5 ms each; 1,000 alphas still churn the
        # curve maps many times over their bound.
        for alpha in alphas[::10]:
            engine.consumption_curve(alpha)
            engine.static_consumption_curve("DP2", alpha)
        assert len(engine._solve_tables) == limit
        assert len(engine._curve_cache) == limit
        assert len(engine._static_curve_cache) == limit
        # The first alphas were evicted long ago; their rebuilt answers
        # still equal the scalar optimum.
        budgets = np.linspace(0.0, 12.0, 25)
        for alpha in alphas[:3]:
            arrays = engine.solve_arrays(budgets, alpha=alpha)
            for budget, objective in zip(budgets, arrays.objective):
                reference = solve_analytic(
                    ReapProblem(points, energy_budget_j=budget, alpha=alpha)
                )
                assert objective == pytest.approx(
                    reference.objective, rel=0, abs=1e-9
                )

    def test_concurrent_builds_keep_one_entry_per_key(self):
        cache = batch_module.BoundedLru(16)
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            try:
                for key in rng.integers(0, 8, 2000):
                    value = cache.get(int(key), lambda k=int(key): [k])
                    seen.setdefault(int(key), value)
                    if seen[int(key)] is not value or value != [int(key)]:
                        errors.append(int(key))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        seen: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) == 8
        for key in range(32):
            cache.get(key, lambda: key)
        assert len(cache) == 16
