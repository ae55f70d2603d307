"""Vectorized closed-loop battery dynamics for fleets of devices.

Why this module exists
----------------------
The closed-loop month study steps a battery-backed budget allocator one
activity period at a time: :meth:`HarvestFollowingAllocator.grant` turns the
battery's state of charge into a budget, the runtime spends (part of) it,
and :meth:`HarvestFollowingAllocator.settle` banks the surplus or draws the
deficit through :class:`~repro.energy.battery.Battery`.  Periods cannot be
solved independently -- each budget depends on the previous period's
consumption -- so the grid-shaped batch engine of :mod:`repro.core.batch`
does not apply along the time axis.

What *can* be vectorized is the device axis.  Grant and settle are built
entirely from clips, minima and additions, so the charge recurrence for a
whole fleet of independent devices (one per policy x alpha x scenario cell)
is a lockstep scan: one state vector of battery charges, one vector step per
period.  Combined with the piecewise-linear
:class:`~repro.core.batch.ConsumptionCurve` (period consumption as a
closed-form function of the granted budget), the month-long closed-loop
study across a policy suite collapses from ``periods x policies``
LP-and-step iterations to ``periods`` vector steps.

:class:`BatteryScan` reproduces the scalar pair
(:class:`~repro.energy.battery.Battery` +
:class:`~repro.energy.budget.HarvestFollowingAllocator`) operation for
operation -- same clip order, same efficiency factors, same floor top-up --
so fleet trajectories match the scalar reference to floating-point
round-off.  The scalar classes remain the reference implementation and the
single-device story.  :meth:`BatteryScan.run` steps single-grid curve sets
through :func:`repro.core.kernels.battery_scan`; the per-period vector loop
of :meth:`BatteryScan._run_reference` serves every other case and is the
kernel's test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core import kernels
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W
from repro.energy.battery import Battery

#: Maps a (D,) vector of granted budgets to a (D,) vector of consumed energy
#: (typically a :class:`~repro.core.batch.StackedConsumptionCurves`).
ConsumptionFn = Callable[[np.ndarray], np.ndarray]

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class BatteryScanResult:
    """Trajectories produced by one closed-loop fleet scan.

    All arrays are indexed ``[period, device]`` except ``charge_j``, which
    carries one extra leading row for the initial state of charge (so
    ``charge_j[t]`` is the charge *before* period ``t`` and ``charge_j[-1]``
    the final charge) -- the same shape as the scalar
    :attr:`Battery.history`.
    """

    harvest_j: np.ndarray   #: (H, D) harvested energy per period
    budgets_j: np.ndarray   #: (H, D) granted budgets
    consumed_j: np.ndarray  #: (H, D) energy the devices consumed
    charge_j: np.ndarray    #: (H + 1, D) battery state of charge

    @property
    def num_periods(self) -> int:
        """Number of scanned periods H."""
        return int(self.budgets_j.shape[0])

    @property
    def num_devices(self) -> int:
        """Number of devices D stepped in lockstep."""
        return int(self.budgets_j.shape[1])

    @property
    def final_charge_j(self) -> np.ndarray:
        """(D,) battery charge after the last period."""
        return self.charge_j[-1]

    def device_charge_j(self, device: int) -> np.ndarray:
        """(H + 1,) battery trajectory of one device."""
        return self.charge_j[:, device]


class BatteryScan:
    """Steps many independent battery-backed devices in lockstep.

    Parameters mirror :class:`~repro.energy.battery.Battery` and
    :class:`~repro.energy.budget.HarvestFollowingAllocator`; each accepts a
    scalar (shared by the whole fleet) or one value per device.

    Parameters
    ----------
    num_devices:
        Fleet width D.
    capacity_j:
        Usable battery capacity in joules.
    initial_charge_j:
        Initial state of charge (negative means half full).
    target_soc:
        State-of-charge target; surplus above it is released to the load.
    max_draw_j:
        Upper bound on the battery's contribution to one period's budget.
    min_budget_j:
        Floor on the granted budget (defaults to the off-state energy).
    charge_efficiency / discharge_efficiency:
        Round-trip loss factors of the store.
    """

    def __init__(
        self,
        num_devices: int,
        capacity_j: ArrayLike = 60.0,
        initial_charge_j: ArrayLike = -1.0,
        target_soc: ArrayLike = 0.5,
        max_draw_j: ArrayLike = 5.0,
        min_budget_j: ArrayLike = OFF_STATE_POWER_W * ACTIVITY_PERIOD_S,
        # Defaults reference the scalar Battery so the fleet/scalar parity
        # cannot drift if the battery model is retuned.
        charge_efficiency: ArrayLike = Battery.charge_efficiency,
        discharge_efficiency: ArrayLike = Battery.discharge_efficiency,
    ) -> None:
        if num_devices < 1:
            raise ValueError(f"need at least one device, got {num_devices}")
        self.num_devices = int(num_devices)

        def spread(value: ArrayLike) -> np.ndarray:
            array = np.broadcast_to(
                np.asarray(value, dtype=float), (self.num_devices,)
            ).copy()
            return array

        self.capacity_j = spread(capacity_j)
        if np.any(self.capacity_j <= 0):
            raise ValueError("battery capacity must be positive")
        self.charge_efficiency = spread(charge_efficiency)
        self.discharge_efficiency = spread(discharge_efficiency)
        if np.any((self.charge_efficiency <= 0) | (self.charge_efficiency > 1)):
            raise ValueError("charge_efficiency must be in (0, 1]")
        if np.any((self.discharge_efficiency <= 0) | (self.discharge_efficiency > 1)):
            raise ValueError("discharge_efficiency must be in (0, 1]")
        initial = spread(initial_charge_j)
        initial = np.where(initial < 0, self.capacity_j / 2, initial)
        if np.any(initial > self.capacity_j):
            raise ValueError("initial charge exceeds capacity")
        self.initial_charge_j = initial
        self.target_soc = spread(target_soc)
        if np.any((self.target_soc < 0) | (self.target_soc > 1)):
            raise ValueError("target_soc must be in [0, 1]")
        self.max_draw_j = spread(max_draw_j)
        if np.any(self.max_draw_j < 0):
            raise ValueError("max_draw_j must be non-negative")
        self.min_budget_j = spread(min_budget_j)
        self._target_charge_j = self.target_soc * self.capacity_j

    # -----------------------------------------------------------------------------
    def grant(self, harvest_j: np.ndarray, charge_j: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`HarvestFollowingAllocator.grant` for one period.

        ``harvest_j`` and ``charge_j`` are (D,) vectors; returns the (D,)
        granted budgets without mutating any state.
        """
        contribution = np.minimum(
            np.maximum(charge_j - self._target_charge_j, 0.0), self.max_draw_j
        )
        # Top the budget up to the floor where the battery can cover it.
        shortfall = self.min_budget_j - (harvest_j + contribution)
        available = charge_j * self.discharge_efficiency
        extra = np.minimum(shortfall, available - contribution)
        contribution = contribution + np.maximum(0.0, extra)
        return harvest_j + contribution

    def settle(
        self,
        harvest_j: np.ndarray,
        consumed_j: np.ndarray,
        charge_j: np.ndarray,
    ) -> np.ndarray:
        """Vectorized settle: bank surpluses, draw deficits; returns new charge."""
        # Charge branch: store the unused harvest through the charge
        # efficiency, clamped at the capacity headroom.
        accepted = np.minimum(
            (harvest_j - consumed_j) * self.charge_efficiency,
            self.capacity_j - charge_j,
        )
        # Discharge branch: deliver what the store can, never below empty.
        deliverable = np.minimum(
            consumed_j - harvest_j, charge_j * self.discharge_efficiency
        )
        return np.where(
            harvest_j >= consumed_j,
            charge_j + accepted,
            np.maximum(0.0, charge_j - deliverable / self.discharge_efficiency),
        )

    def run(
        self,
        harvest_j: np.ndarray,
        consumption: ConsumptionFn,
    ) -> BatteryScanResult:
        """Scan the whole fleet over a harvest trace.

        Parameters
        ----------
        harvest_j:
            Harvested energy per period: shape (H,) shared by every device
            or (H, D) with one column per device.
        consumption:
            Closed-form period consumption: maps the (D,) granted budgets of
            one period to the (D,) energies the devices actually consume
            (see :class:`~repro.core.batch.StackedConsumptionCurves`).
        """
        harvest = np.asarray(harvest_j, dtype=float)
        if harvest.ndim == 1:
            harvest = np.broadcast_to(
                harvest[:, None], (harvest.size, self.num_devices)
            )
        if harvest.ndim != 2 or harvest.shape[1] != self.num_devices:
            raise ValueError(
                f"harvest must be (H,) or (H, {self.num_devices}), "
                f"got {harvest.shape}"
            )
        if np.any(harvest < 0):
            raise ValueError("harvest must be non-negative")
        fast = self._run_fast(harvest, consumption)
        if fast is not None:
            return fast
        return self._run_reference(harvest, consumption)

    def _run_reference(
        self, harvest: np.ndarray, consumption: ConsumptionFn
    ) -> BatteryScanResult:
        """The per-period vector loop (any consumption function)."""
        num_periods = harvest.shape[0]
        budgets = np.empty((num_periods, self.num_devices))
        consumed = np.empty_like(budgets)
        charges = np.empty((num_periods + 1, self.num_devices))
        charge = self.initial_charge_j.copy()
        charges[0] = charge
        grant, settle = self.grant, self.settle
        for period in range(num_periods):
            harvest_now = harvest[period]
            budget = grant(harvest_now, charge)
            spent = consumption(budget)
            charge = settle(harvest_now, spent, charge)
            budgets[period] = budget
            consumed[period] = spent
            charges[period + 1] = charge
        return BatteryScanResult(
            harvest_j=np.array(harvest),
            budgets_j=budgets,
            consumed_j=consumed,
            charge_j=charges,
        )

    def _run_fast(
        self, harvest: np.ndarray, consumption: ConsumptionFn
    ) -> Optional["BatteryScanResult"]:
        """The recurrence through the fused scan kernel.

        Returns ``None`` when the kernel does not apply: the consumption
        function is not a single-grid stacked curve set, or the fleet is
        too wide for the Numba-less scalar fallback to win.
        """
        tables = getattr(consumption, "fused_tables", None)
        if tables is None:
            return None
        tables = tables()
        if tables is None:
            return None
        result = kernels.battery_scan(
            harvest,
            self.initial_charge_j,
            self.capacity_j,
            self._target_charge_j,
            self.max_draw_j,
            self.min_budget_j,
            self.charge_efficiency,
            self.discharge_efficiency,
            tables,
        )
        if result is None:
            return None
        budgets, consumed, charges = result
        return BatteryScanResult(
            harvest_j=np.array(harvest),
            budgets_j=budgets,
            consumed_j=consumed,
            charge_j=charges,
        )


__all__ = ["BatteryScan", "BatteryScanResult", "ConsumptionFn"]
