"""Horizon planners: turn a harvest lookahead into per-period budgets.

A *planner* decides, at the start of every activity period, how large an
energy budget to grant given (a) the forecast of the next ``W`` periods and
(b) the battery's state of charge.  Two planners bracket the design space:

* :class:`HorizonAverageAllocator` -- allocate against the *mean* forecast
  of the lookahead window plus a bounded battery draw, clamped from below
  by the off-state floor (when the battery can fund it) and from above by
  what the current period could physically supply.  Closed-form, no LP.
* :class:`MpcPlanner` -- receding-horizon control: find the largest
  constant budget whose planned battery trajectory stays serviceable over
  the whole window, where the *planned consumption* at a candidate budget
  is the REAP LP's optimum (its piecewise-linear
  :class:`~repro.core.batch.ConsumptionCurve`).  The scalar reference then
  materialises each step's horizon plan with one
  :meth:`~repro.core.batch.BatchAllocator.solve_arrays` broadcast solve
  over the window -- one vectorized solve per step, never ``W`` scalar LPs.

Both planners are written as lockstep array programs over a device axis:
:meth:`HorizonPlanner.step_budgets` maps a ``(W, D)`` forecast window and a
``(D,)`` charge vector to ``(D,)`` budgets.  The vectorized
:class:`~repro.planning.scan.PlanScan` calls them with whole fleets; the
scalar reference loop of :mod:`repro.planning.reference` calls the same
math with ``D = 1``, so the two paths cannot drift on the planning
decision itself (the cross-checked difference is the surrounding
simulation: per-period LP solves and the scalar battery vs the
consumption-curve scan).

Degraded regimes are part of the contract: a zero-harvest window (e.g. a
persistence forecaster's first day) or a budget range that is infeasible
end to end must *degrade to the static off-floor allocation* -- the grant
falls to the planner's floor and the device browns out gracefully --
never raise.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.core import kernels
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.energy.battery import Battery
from repro.energy.fleet import BatteryScan

#: Maps a (D,) vector of candidate budgets to the (D,) energies the devices
#: would consume at those budgets (a ConsumptionCurve or stacked curves).
ConsumptionFn = Callable[[np.ndarray], np.ndarray]

#: Planner kinds selectable by name (CLI, campaign requests).
PLANNER_KINDS = ("horizon", "mpc")


def validate_planner_kind(kind: str) -> str:
    """Check a planner name (raises ``ValueError`` when unknown)."""
    if kind not in PLANNER_KINDS:
        raise ValueError(f"planner must be one of {PLANNER_KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class PlanBattery:
    """Per-device battery parameters the planners plan against.

    A read-only view of the store: the planners never mutate charge, they
    only project it.  Build one with :meth:`from_scan` (fleet path) or
    :meth:`from_battery` (scalar reference path); both carry the exact
    values the corresponding settle implementation uses, so planned and
    realised trajectories share one parameterisation.
    """

    capacity_j: np.ndarray           #: (D,) usable capacity
    target_charge_j: np.ndarray      #: (D,) reserve level (target_soc * capacity)
    max_draw_j: np.ndarray           #: (D,) per-period draw bound
    min_budget_j: np.ndarray         #: (D,) grant floor (off-state energy)
    charge_efficiency: np.ndarray    #: (D,) store-side loss factor
    discharge_efficiency: np.ndarray #: (D,) load-side loss factor

    @classmethod
    def from_scan(cls, scan: BatteryScan) -> "PlanBattery":
        """View of a fleet :class:`~repro.energy.fleet.BatteryScan`."""
        return cls(
            capacity_j=scan.capacity_j,
            target_charge_j=scan.target_soc * scan.capacity_j,
            max_draw_j=scan.max_draw_j,
            min_budget_j=scan.min_budget_j,
            charge_efficiency=scan.charge_efficiency,
            discharge_efficiency=scan.discharge_efficiency,
        )

    @classmethod
    def from_battery(
        cls,
        battery: Battery,
        target_soc: float = 0.5,
        max_draw_j: float = 5.0,
        min_budget_j: float = OFF_STATE_POWER_W * ACTIVITY_PERIOD_S,
    ) -> "PlanBattery":
        """Single-device view over a scalar :class:`Battery` (D = 1)."""

        def one(value: float) -> np.ndarray:
            return np.array([float(value)])

        return cls(
            capacity_j=one(battery.capacity_j),
            target_charge_j=one(target_soc * battery.capacity_j),
            max_draw_j=one(max_draw_j),
            min_budget_j=one(min_budget_j),
            charge_efficiency=one(battery.charge_efficiency),
            discharge_efficiency=one(battery.discharge_efficiency),
        )


class HorizonPlanner(abc.ABC):
    """Base class for lookahead-driven budget planners."""

    def __init__(self, horizon_periods: int) -> None:
        if horizon_periods < 1:
            raise ValueError(
                f"horizon must be >= 1 period, got {horizon_periods}"
            )
        self.horizon_periods = int(horizon_periods)

    @abc.abstractmethod
    def step_budgets(
        self,
        window: np.ndarray,
        charge_j: np.ndarray,
        battery: PlanBattery,
        consumption: ConsumptionFn,
    ) -> np.ndarray:
        """Budgets for one period: ``(W, D)`` forecast x ``(D,)`` charge."""

    def _validate_window(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=float)
        if window.ndim != 2 or window.shape[0] != self.horizon_periods:
            raise ValueError(
                f"window must be ({self.horizon_periods}, D), got {window.shape}"
            )
        return window


class HorizonAverageAllocator(HorizonPlanner):
    """Allocate against the mean forecast of the lookahead window.

    Each period's budget is the window-mean forecast plus a bounded draw of
    the charge above the battery's reserve level, topped up to the
    off-state floor when the store can fund it, and finally clamped by what
    the period can physically supply (current-period forecast plus the
    battery's deliverable energy).  This is the receding-horizon refinement
    of :class:`repro.energy.budget.HorizonAverageAllocator`, which chunks
    the forecast into fixed blocks; here the window slides every period.
    """

    def step_budgets(
        self,
        window: np.ndarray,
        charge_j: np.ndarray,
        battery: PlanBattery,
        consumption: ConsumptionFn,
    ) -> np.ndarray:
        window = self._validate_window(window)
        mean_forecast = window.mean(axis=0)
        # Battery levelling draw, as in the harvest-following grant.
        surplus = np.minimum(
            np.maximum(charge_j - battery.target_charge_j, 0.0),
            battery.max_draw_j,
        )
        budget = mean_forecast + surplus
        # Top up to the off-state floor where the store can cover it.
        available = charge_j * battery.discharge_efficiency
        shortfall = battery.min_budget_j - budget
        extra = np.minimum(shortfall, available - surplus)
        budget = budget + np.maximum(0.0, extra)
        # Supply clamp: a period cannot spend beyond its own (forecast)
        # harvest plus everything the battery could deliver.
        budget = np.minimum(budget, window[0] + available)
        return np.maximum(budget, 0.0)


class MpcPlanner(HorizonPlanner):
    """Receding-horizon planner: largest window-sustainable constant budget.

    At every step the planner searches for the largest budget ``b`` such
    that holding ``b`` for the whole lookahead window keeps the planned
    battery trajectory serviceable: each window period's LP consumption at
    ``b`` must be coverable by that period's forecast harvest plus the
    store's deliverable charge.  The planned trajectory ignores the
    capacity ceiling (surplus beyond full is optimistically kept); under a
    receding horizon the next step replans from the *real* clamped charge,
    so the optimism self-corrects and the projection stays a pure
    cumulative sum -- which is what lets one probe evaluate the whole
    window in a handful of array operations instead of ``W`` sequential
    steps.

    The search is a grid refinement rather than a scalar bisection: every
    pass evaluates ``candidates`` evenly spaced budgets for *all* devices
    in one vectorized :meth:`sustainable` call and narrows each device's
    bracket to the winning grid interval, so ``passes`` refinement rounds
    deliver ``(candidates - 1) ** passes`` effective resolution at a few
    array operations per round.  (Sustainability is monotone in the
    budget: the LP consumption never decreases with the grant, so deeper
    grids only tighten the same boundary.)

    When even the floor budget is unsustainable (a zero-harvest window on
    an empty store) the planner degrades to the floor -- the static
    off-state allocation -- rather than raising; when the ceiling is
    sustainable it grants the ceiling (every extra joule past
    ``max_budget_j`` is wasted on a saturated LP anyway).
    """

    def __init__(
        self,
        horizon_periods: int,
        max_budget_j: Union[float, np.ndarray],
        passes: int = 3,
        candidates: int = 16,
        feasibility_tol_j: float = 1e-9,
    ) -> None:
        super().__init__(horizon_periods)
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        if candidates < 3:
            raise ValueError(f"need at least 3 candidates, got {candidates}")
        if feasibility_tol_j < 0:
            raise ValueError("feasibility tolerance must be non-negative")
        self.max_budget_j = np.asarray(max_budget_j, dtype=float)
        if np.any(self.max_budget_j <= 0):
            raise ValueError("max_budget_j must be positive")
        self.passes = int(passes)
        self.candidates = int(candidates)
        self.feasibility_tol_j = float(feasibility_tol_j)
        self._fractions = np.linspace(0.0, 1.0, self.candidates)[:, None]
        self._indices = np.arange(self.candidates)[:, None]
        # (floor, ceiling, device-index) cache: constant across the many
        # per-period calls of one scan, keyed by the battery view.
        self._bounds_cache: tuple = ()

    def sustainable(
        self,
        budgets_j: np.ndarray,
        window: np.ndarray,
        charge_j: np.ndarray,
        battery: PlanBattery,
        consumption: ConsumptionFn,
    ) -> np.ndarray:
        """Sustainability mask of constant budgets: (D,) or (C, D) in/out.

        The budget is held constant over the window, so the LP consumption
        is one curve evaluation; the projected charge before window period
        ``k`` is the initial charge plus the cumulative (efficiency-
        weighted) harvest-minus-consumption deltas of the periods before
        it.  Sustainability requires every period's consumption to fit in
        its forecast harvest plus the store's deliverable charge.
        Single-grid curve sets run the fused
        :func:`repro.core.kernels.mpc_sustainable`; everything else runs
        :meth:`_sustainable_reference`.
        """
        budgets = np.asarray(budgets_j, dtype=float)
        squeeze = budgets.ndim == 1
        if squeeze:
            budgets = budgets[None, :]
        ok = None
        tables = getattr(consumption, "fused_tables", None)
        tables = tables() if tables is not None else None
        if tables is not None:
            ok = kernels.mpc_sustainable(
                budgets,
                window,
                charge_j,
                battery.charge_efficiency,
                battery.discharge_efficiency,
                self.feasibility_tol_j,
                tables,
            )
        if ok is None:
            ok = self._sustainable_reference(
                budgets, window, charge_j, battery, consumption
            )
        return ok[0] if squeeze else ok

    def _sustainable_reference(
        self,
        budgets: np.ndarray,
        window: np.ndarray,
        charge_j: np.ndarray,
        battery: PlanBattery,
        consumption: ConsumptionFn,
    ) -> np.ndarray:
        """The unfused (W, C, D) projection: (C, D) budgets in, mask out."""
        spent = consumption(budgets)                            # (C, D)
        deltas = window[:, None, :] - spent[None, :, :]         # (W, C, D)
        stored = np.where(
            deltas >= 0,
            deltas * battery.charge_efficiency,
            deltas / battery.discharge_efficiency,
        )
        cumulative = stored.cumsum(axis=0)
        projected = np.empty_like(stored)                       # charge before k
        projected[0] = charge_j
        projected[1:] = charge_j + cumulative[:-1]
        deficit = (
            spent[None, :, :]
            - window[:, None, :]
            - projected * battery.discharge_efficiency
        )
        return deficit.max(axis=0) <= self.feasibility_tol_j    # (C, D)

    def step_budgets(
        self,
        window: np.ndarray,
        charge_j: np.ndarray,
        battery: PlanBattery,
        consumption: ConsumptionFn,
    ) -> np.ndarray:
        window = self._validate_window(window)
        floor, ceiling, device_index = self._bounds(battery, charge_j.shape)
        lo, hi = floor, ceiling
        ceiling_ok = floor_ok = None
        for _ in range(self.passes):
            grid = lo + (hi - lo) * self._fractions             # (C, D)
            ok = self.sustainable(
                grid, window, charge_j, battery, consumption
            )
            if ceiling_ok is None:
                # Pass 1 spans [floor, ceiling]: its endpoints decide the
                # degraded regimes.
                ceiling_ok, floor_ok = ok[-1], ok[0]
            best = np.where(ok, self._indices, -1).max(axis=0)  # (D,)
            found = best >= 0
            clipped = np.maximum(best, 0)
            new_lo = grid[clipped, device_index]
            new_hi = grid[np.minimum(clipped + 1, self.candidates - 1),
                          device_index]
            lo = np.where(found, new_lo, lo)
            hi = np.where(found, new_hi, lo)
        # Ceiling sustainable: grant it.  Floor unsustainable: degrade to
        # the floor (the static off-state allocation).  Otherwise: the
        # search's best sustainable budget.  The final supply clamp only
        # bites in the degraded regime -- sustainability at window period
        # 0 already bounds the plan's consumption by the period's supply
        # -- and keeps an empty store from granting unfunded budgets.
        budget = np.where(ceiling_ok, ceiling, np.where(floor_ok, lo, floor))
        return np.minimum(
            budget, window[0] + charge_j * battery.discharge_efficiency
        )

    def _bounds(
        self, battery: PlanBattery, shape: tuple
    ) -> tuple:
        """Search bounds and device indexer, cached per battery view."""
        cached = self._bounds_cache
        if cached and cached[0] is battery and cached[1] == shape:
            return cached[2]
        floor = np.broadcast_to(battery.min_budget_j, shape).astype(float)
        ceiling = np.maximum(
            np.broadcast_to(self.max_budget_j, shape).astype(float), floor
        )
        bounds = (floor, ceiling, np.arange(floor.size))
        self._bounds_cache = (battery, shape, bounds)
        return bounds


__all__ = [
    "ConsumptionFn",
    "HorizonAverageAllocator",
    "HorizonPlanner",
    "MpcPlanner",
    "PLANNER_KINDS",
    "PlanBattery",
    "validate_planner_kind",
]
