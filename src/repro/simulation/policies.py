"""Runtime policies compared in the evaluation.

A *policy* decides, at the start of every activity period, how the period's
energy budget is spent across the available design points.  The evaluation
compares:

* :class:`ReapPolicy` -- the paper's contribution: solve the allocation LP.
* :class:`StaticPolicy` -- run one fixed design point until the budget runs
  out (the DP1..DP5 baselines of Figures 5-7).
* :class:`OnOffDutyCyclePolicy` -- the related-work baseline (Kansal-style
  duty cycling): the device only knows the *highest-accuracy* operating
  point and an off state, and picks the duty cycle that fits the budget.
  Functionally this coincides with the static policy for the chosen DP, but
  it is kept separate because it models a device with no notion of multiple
  design points.
* :class:`OraclePolicy` -- solves the same problem as REAP with the exact
  vertex-enumeration solver; used to sanity-check the runtime solver inside
  simulations.

All policies expose the same ``allocate(budget) -> TimeAllocation``
interface so the simulator can swap them freely.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocator import AllocatorConfig, ReapAllocator
from repro.core.analytic import solve_analytic
from repro.core.batch import BatchAllocator, BatchArrays, ConsumptionCurve
from repro.core.design_point import DesignPoint, validate_design_points
from repro.core.objective import validate_alpha
from repro.core.problem import ReapProblem, static_allocation
from repro.core.schedule import TimeAllocation
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.planning.forecasts import (
    ForecastProvider,
    make_forecast_provider,
    validate_forecast_kind,
)
from repro.planning.horizon import (
    HorizonAverageAllocator,
    HorizonPlanner,
    MpcPlanner,
    validate_planner_kind,
)


class Policy(abc.ABC):
    """Base class for runtime energy-spending policies."""

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        alpha: float = 1.0,
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> None:
        validate_design_points(design_points)
        self.design_points = tuple(design_points)
        self.alpha = validate_alpha(alpha)
        self.period_s = period_s
        self.off_power_w = off_power_w

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short policy name used in reports."""

    @abc.abstractmethod
    def allocate(self, energy_budget_j: float) -> TimeAllocation:
        """Decide how to spend one period's energy budget."""

    def allocate_many(self, budgets_j: Sequence[float]) -> List[TimeAllocation]:
        """Allocate one period per budget (a whole trace at once).

        The base implementation simply loops over :meth:`allocate`; policies
        whose decisions are independent across periods override this with the
        vectorized batch engine so month-long campaigns avoid one LP solve
        per hour.
        """
        return [self.allocate(budget) for budget in budgets_j]

    def allocate_arrays(self, budgets_j: Sequence[float]) -> BatchArrays:
        """Raw-array allocations for a whole budget vector (fleet fast path).

        The base implementation materialises :meth:`allocate_many` and packs
        the result, so *any* policy can feed the vectorized device
        accounting; policies backed by the batch engine override this with a
        pure array solve.
        """
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        allocations = self.allocate_many([float(b) for b in budgets])
        return BatchArrays(
            design_points=self.design_points,
            budgets_j=budgets,
            alpha=self.alpha,
            times_s=np.array([a.times_s for a in allocations]),
            feasible=np.array([a.budget_feasible for a in allocations]),
            objective=np.array([a.objective for a in allocations]),
            expected_accuracy=np.array([a.expected_accuracy for a in allocations]),
            active_time_s=np.array([a.active_time_s for a in allocations]),
            energy_j=np.array([a.energy_j for a in allocations]),
            period_s=self.period_s,
            off_power_w=self.off_power_w,
        )

    def consumption_curve(self) -> ConsumptionCurve:
        """Period consumption as a piecewise-linear function of the budget.

        Needed by the closed-loop fleet engine, whose battery scan evaluates
        consumption without solving per-period allocations.  Policies that
        cannot provide a closed form raise ``NotImplementedError``; the
        campaign then falls back to the scalar reference loop for them.
        The curve is built once per policy and cached (policies treat their
        parameters as fixed, like the shared batch engine).
        """
        curve = getattr(self, "_curve", None)
        if curve is None:
            curve = self._build_consumption_curve()
            self._curve = curve
        return curve

    def _build_consumption_curve(self) -> ConsumptionCurve:
        """Construct the curve (overridden by batch-engine-backed policies)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a closed-form "
            "consumption-of-budget curve"
        )

    def reset(self) -> None:
        """Clear any internal state between campaigns (default: nothing)."""

    def __getstate__(self):
        """Pickle without the transient engine/curve bindings.

        The batch engine (solve tables, vertex structure) and the cached
        consumption curve are derived entirely from the policy's
        parameters; shipping them to worker processes would bloat every
        campaign context, and the receiving process rebinds through the
        shared-engine registry anyway.
        """
        state = dict(self.__dict__)
        state.pop("_batch", None)
        state.pop("_curve", None)
        return state

    def _batch_engine(self) -> BatchAllocator:
        """Shared (lazily bound) batch engine over this policy's parameters.

        Bound through :meth:`BatchAllocator.shared`, so every policy in
        the process with the same engine key -- all the alphas of a sweep,
        all the cells a warm campaign worker runs -- reuses one vertex
        structure, one set of solve tables and one consumption curve per
        alpha.  The binding is also re-established after unpickling
        (workers receive policies without the transient ``_batch``
        attribute), which is exactly when sharing pays off.
        """
        engine = getattr(self, "_batch", None)
        if engine is None:
            engine = BatchAllocator.shared(
                self.design_points,
                period_s=self.period_s,
                off_power_w=self.off_power_w,
            )
            self._batch = engine
        return engine

    def build_problem(self, energy_budget_j: float) -> ReapProblem:
        """Build the optimisation problem describing one period."""
        return ReapProblem(
            design_points=self.design_points,
            energy_budget_j=energy_budget_j,
            period_s=self.period_s,
            alpha=self.alpha,
            off_power_w=self.off_power_w,
        )


class ReapPolicy(Policy):
    """The REAP runtime: optimal multi-design-point allocation."""

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        alpha: float = 1.0,
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
        allocator: Optional[ReapAllocator] = None,
    ) -> None:
        super().__init__(design_points, alpha, period_s, off_power_w)
        self.allocator = allocator or ReapAllocator(AllocatorConfig())

    @property
    def name(self) -> str:
        return "REAP"

    def allocate(self, energy_budget_j: float) -> TimeAllocation:
        return self.allocator.solve(self.build_problem(energy_budget_j))

    def _batchable(self) -> bool:
        """Whether this policy's allocator semantics match the batch engine."""
        config = self.allocator.config
        return not (
            config.formulation == "full"
            or config.cross_check
            or not config.clip_infeasible
        )

    def allocate_many(self, budgets_j: Sequence[float]) -> List[TimeAllocation]:
        if not self._batchable():
            # Keep the exact scalar semantics the caller asked for (including
            # raising BudgetTooSmallError when clip_infeasible is disabled).
            return super().allocate_many(budgets_j)
        return self._batch_engine().solve_allocations(budgets_j, alpha=self.alpha)

    def allocate_arrays(self, budgets_j: Sequence[float]) -> BatchArrays:
        if not self._batchable():
            return super().allocate_arrays(budgets_j)
        return self._batch_engine().solve_arrays(budgets_j, alpha=self.alpha)

    def _build_consumption_curve(self) -> ConsumptionCurve:
        if not self._batchable():
            raise NotImplementedError(
                "custom allocator configurations keep the scalar campaign path"
            )
        return self._batch_engine().consumption_curve(alpha=self.alpha)


class OraclePolicy(Policy):
    """Exact (vertex-enumeration) solution of the REAP problem."""

    @property
    def name(self) -> str:
        return "Oracle"

    def allocate(self, energy_budget_j: float) -> TimeAllocation:
        return solve_analytic(self.build_problem(energy_budget_j))

    def allocate_many(self, budgets_j: Sequence[float]) -> List[TimeAllocation]:
        # The batch engine *is* the vectorized vertex enumeration.
        return self._batch_engine().solve_allocations(budgets_j, alpha=self.alpha)

    def allocate_arrays(self, budgets_j: Sequence[float]) -> BatchArrays:
        return self._batch_engine().solve_arrays(budgets_j, alpha=self.alpha)

    def _build_consumption_curve(self) -> ConsumptionCurve:
        return self._batch_engine().consumption_curve(alpha=self.alpha)


class StaticPolicy(Policy):
    """Always run one fixed design point; turn off when the budget runs out."""

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        static_name: str,
        alpha: float = 1.0,
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> None:
        super().__init__(design_points, alpha, period_s, off_power_w)
        names = [dp.name for dp in self.design_points]
        if static_name not in names:
            raise KeyError(f"unknown design point {static_name!r}; have {names}")
        self.static_name = static_name

    @property
    def name(self) -> str:
        return f"Static-{self.static_name}"

    def allocate(self, energy_budget_j: float) -> TimeAllocation:
        return static_allocation(self.build_problem(energy_budget_j), self.static_name)

    def allocate_many(self, budgets_j: Sequence[float]) -> List[TimeAllocation]:
        return self._batch_engine().static_allocations(
            self.static_name, budgets_j, alpha=self.alpha
        )

    def allocate_arrays(self, budgets_j: Sequence[float]) -> BatchArrays:
        return self._batch_engine().static_arrays(
            self.static_name, budgets_j, alpha=self.alpha
        )

    def _build_consumption_curve(self) -> ConsumptionCurve:
        return self._batch_engine().static_consumption_curve(
            self.static_name, alpha=self.alpha
        )


class OnOffDutyCyclePolicy(Policy):
    """Related-work baseline: duty-cycle a single operating point.

    Models prior energy-management schemes that "choose between on and off
    power states" (Section 2): the device runs its single operating point for
    a duty-cycled fraction of the period chosen so the period's energy budget
    is met exactly, with no awareness of alternative design points.
    """

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        operating_point: Optional[str] = None,
        alpha: float = 1.0,
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> None:
        super().__init__(design_points, alpha, period_s, off_power_w)
        if operating_point is None:
            # Default to the highest-accuracy point, as prior work ships the
            # most capable configuration it can build.
            operating_point = max(self.design_points, key=lambda dp: dp.accuracy).name
        names = [dp.name for dp in self.design_points]
        if operating_point not in names:
            raise KeyError(f"unknown design point {operating_point!r}; have {names}")
        self.operating_point = operating_point

    @property
    def name(self) -> str:
        return f"DutyCycle-{self.operating_point}"

    def allocate(self, energy_budget_j: float) -> TimeAllocation:
        return static_allocation(
            self.build_problem(energy_budget_j), self.operating_point
        )

    def allocate_many(self, budgets_j: Sequence[float]) -> List[TimeAllocation]:
        return self._batch_engine().static_allocations(
            self.operating_point, budgets_j, alpha=self.alpha
        )

    def allocate_arrays(self, budgets_j: Sequence[float]) -> BatchArrays:
        return self._batch_engine().static_arrays(
            self.operating_point, budgets_j, alpha=self.alpha
        )

    def _build_consumption_curve(self) -> ConsumptionCurve:
        return self._batch_engine().static_consumption_curve(
            self.operating_point, alpha=self.alpha
        )

    def duty_cycle(self, energy_budget_j: float) -> float:
        """The on-fraction chosen for the given budget (for reports)."""
        return self.allocate(energy_budget_j).active_fraction


class PlanningPolicy(ReapPolicy):
    """Forecast-driven REAP: budgets come from a horizon plan, not the harvest.

    In closed-loop (battery-backed) campaigns this policy's budgets are
    produced by the :mod:`repro.planning` subsystem instead of the
    harvest-following allocator: a forecast provider predicts the next
    ``horizon_periods`` of harvest and a horizon planner (the closed-form
    :class:`~repro.planning.horizon.HorizonAverageAllocator` or the
    receding-horizon :class:`~repro.planning.horizon.MpcPlanner`) turns
    each lookahead window plus the battery state into the period's budget.
    The allocation of each granted budget is plain REAP.  The fleet engine
    steps planning cells through the vectorized
    :class:`~repro.planning.scan.PlanScan`; the scalar engine runs
    :func:`repro.planning.reference.run_planning_scalar`.  Open-loop
    campaigns have no battery to plan against, so there this policy
    behaves exactly like :class:`ReapPolicy`.

    Parameters
    ----------
    planner:
        ``"horizon"`` (mean-forecast allocation) or ``"mpc"``
        (receding-horizon LP re-solving).
    horizon_periods:
        Lookahead window length W in activity periods.
    forecast:
        Forecast provider: ``"perfect"``, ``"persistence"`` or ``"noisy"``.
    forecast_noise / forecast_seed:
        Noise scale and RNG seed of the noisy-oracle provider (ignored by
        the others; the seed makes noisy runs bit-reproducible).
    mpc_passes / mpc_candidates:
        Grid-refinement depth and width of the MPC budget search.
    """

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        planner: str = "horizon",
        horizon_periods: int = 24,
        forecast: str = "perfect",
        forecast_noise: float = 0.2,
        forecast_seed: int = 7,
        mpc_passes: int = 3,
        mpc_candidates: int = 16,
        alpha: float = 1.0,
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> None:
        # Planning needs the closed-form consumption curve and the batched
        # raw-array solves, so the default (batchable) allocator is fixed.
        super().__init__(design_points, alpha, period_s, off_power_w)
        self.planner = validate_planner_kind(planner)
        if horizon_periods < 1:
            raise ValueError(
                f"horizon must be >= 1 period, got {horizon_periods}"
            )
        self.horizon_periods = int(horizon_periods)
        self.forecast = validate_forecast_kind(forecast)
        if forecast_noise < 0:
            raise ValueError(
                f"forecast noise must be non-negative, got {forecast_noise}"
            )
        self.forecast_noise = float(forecast_noise)
        self.forecast_seed = int(forecast_seed)
        if mpc_passes < 1:
            raise ValueError(f"mpc_passes must be >= 1, got {mpc_passes}")
        if mpc_candidates < 3:
            raise ValueError(
                f"mpc_candidates must be >= 3, got {mpc_candidates}"
            )
        self.mpc_passes = int(mpc_passes)
        self.mpc_candidates = int(mpc_candidates)

    @property
    def name(self) -> str:
        label = "MPC" if self.planner == "mpc" else "Horizon"
        return f"{label}{self.horizon_periods}-{self.forecast}"

    @property
    def planner_key(self) -> tuple:
        """Grouping key: policies with equal keys share one plan scan."""
        key: tuple = (self.planner, self.horizon_periods)
        if self.planner == "mpc":
            key += (
                self.mpc_passes,
                self.mpc_candidates,
                float(self._batch_engine().max_useful_energy_j),
            )
        return key

    def build_planner(self) -> HorizonPlanner:
        """Materialise this policy's horizon planner."""
        if self.planner == "mpc":
            return MpcPlanner(
                self.horizon_periods,
                max_budget_j=self._batch_engine().max_useful_energy_j,
                passes=self.mpc_passes,
                candidates=self.mpc_candidates,
            )
        return HorizonAverageAllocator(self.horizon_periods)

    def forecast_provider(self) -> ForecastProvider:
        """Materialise this policy's forecast provider."""
        return make_forecast_provider(
            self.forecast,
            noise_std=self.forecast_noise,
            seed=self.forecast_seed,
        )


def default_policy_suite(
    design_points: Sequence[DesignPoint],
    alpha: float = 1.0,
    period_s: float = ACTIVITY_PERIOD_S,
    off_power_w: float = OFF_STATE_POWER_W,
) -> list:
    """REAP plus one static policy per design point (the Figure 5/6 line-up)."""
    policies: list = [
        ReapPolicy(
            design_points,
            alpha=alpha,
            period_s=period_s,
            off_power_w=off_power_w,
        )
    ]
    for dp in design_points:
        policies.append(
            StaticPolicy(
                design_points,
                dp.name,
                alpha=alpha,
                period_s=period_s,
                off_power_w=off_power_w,
            )
        )
    return policies


__all__ = [
    "OnOffDutyCyclePolicy",
    "OraclePolicy",
    "PlanningPolicy",
    "Policy",
    "ReapPolicy",
    "StaticPolicy",
    "default_policy_suite",
]
