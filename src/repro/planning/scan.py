"""Vectorized planning scan: horizon plans for whole fleets in lockstep.

:class:`PlanScan` is to the planning subsystem what
:class:`~repro.energy.fleet.BatteryScan` is to harvest-following budgets:
one state vector of battery charges, one vector step per period, covering
every (scenario x policy x alpha) cell of a fleet at once.  Each step

1. slices the period's forecast window out of the precomputed ``(H, W, D)``
   forecast tensor (see :mod:`repro.planning.forecasts`),
2. asks the shared :class:`~repro.planning.horizon.HorizonPlanner` for the
   ``(D,)`` budget vector (the planner math is identical to the scalar
   reference -- same functions, wider arrays),
3. evaluates the fleet's period consumption through the piecewise-linear
   consumption curves (no LP per period), and
4. settles the *actual* harvest against the charge vector through
   :meth:`BatteryScan.settle` -- the same clip-for-clip settle the scalar
   :class:`~repro.energy.battery.Battery` implements.

The result reuses :class:`~repro.energy.fleet.BatteryScanResult`, so the
fleet campaign machinery consumes planned budgets exactly like
harvest-following ones.
"""

from __future__ import annotations

import numpy as np

from repro.energy.fleet import BatteryScan, BatteryScanResult, ConsumptionFn
from repro.planning.horizon import HorizonPlanner, PlanBattery


class PlanScan:
    """Steps forecast-driven budget plans for many devices in lockstep.

    Parameters
    ----------
    planner:
        The shared horizon planner (one kind and window per scan; fleets
        mixing planner configurations run one scan per group).
    battery:
        Per-device battery parameters and the settle implementation; its
        ``num_devices`` fixes the fleet width D.
    """

    def __init__(self, planner: HorizonPlanner, battery: BatteryScan) -> None:
        self.planner = planner
        self.battery = battery

    @property
    def num_devices(self) -> int:
        """Fleet width D."""
        return self.battery.num_devices

    def run(
        self,
        harvest_j: np.ndarray,
        forecast_j: np.ndarray,
        consumption: ConsumptionFn,
    ) -> BatteryScanResult:
        """Scan the fleet over a trace of actual harvests and forecasts.

        Parameters
        ----------
        harvest_j:
            Actually harvested energy per period: (H,) shared or (H, D).
        forecast_j:
            Forecast tensor (H, W, D): row ``t`` is the W-period lookahead
            available when period ``t``'s budget is planned.
        consumption:
            Closed-form period consumption (see
            :class:`~repro.core.batch.StackedConsumptionCurves`): maps the
            (D,) granted budgets to the (D,) consumed energies.
        """
        num_devices = self.num_devices
        harvest = np.asarray(harvest_j, dtype=float)
        if harvest.ndim == 1:
            harvest = np.broadcast_to(
                harvest[:, None], (harvest.size, num_devices)
            )
        if harvest.ndim != 2 or harvest.shape[1] != num_devices:
            raise ValueError(
                f"harvest must be (H,) or (H, {num_devices}), got {harvest.shape}"
            )
        if np.any(harvest < 0):
            raise ValueError("harvest must be non-negative")
        num_periods = harvest.shape[0]
        forecast = np.asarray(forecast_j, dtype=float)
        expected = (num_periods, self.planner.horizon_periods, num_devices)
        if forecast.shape != expected:
            raise ValueError(
                f"forecast tensor must be {expected}, got {forecast.shape}"
            )
        if np.any(forecast < 0):
            raise ValueError("forecast must be non-negative")

        battery = self.battery
        plan_battery = PlanBattery.from_scan(battery)
        budgets = np.empty((num_periods, num_devices))
        consumed = np.empty_like(budgets)
        charges = np.empty((num_periods + 1, num_devices))
        charge = battery.initial_charge_j.copy()
        charges[0] = charge
        for period in range(num_periods):
            window = forecast[period]                           # (W, D)
            budget = self.planner.step_budgets(
                window, charge, plan_battery, consumption
            )
            spent = consumption(budget)
            charge = battery.settle(harvest[period], spent, charge)
            budgets[period] = budget
            consumed[period] = spent
            charges[period + 1] = charge
        return BatteryScanResult(
            harvest_j=np.array(harvest),
            budgets_j=budgets,
            consumed_j=consumed,
            charge_j=charges,
        )


__all__ = ["PlanScan"]
