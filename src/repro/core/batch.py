"""Vectorized batch allocation engine: solve whole grids of REAP LPs at once.

Why this module exists
----------------------
Every sweep-style experiment in the reproduction -- the Figure 5/6
energy-budget sweeps, the alpha ablations and the month-long solar study of
Section 5.4 -- solves the *same* tiny two-constraint LP thousands of times
while only the energy budget (and sometimes alpha) varies.  Solving those
instances one at a time through :class:`~repro.core.allocator.ReapAllocator`
rebuilds a tableau and runs a Python pivot loop per instance, which makes
fleet-scale studies (many scenarios x many periods) needlessly slow.

:class:`BatchAllocator` exploits the structure proven by
:mod:`repro.core.analytic`: the REAP LP has only two structural constraints
(the time identity and the energy budget), so every optimum lies at

1. the **all-off** vertex,
2. a **single-point** vertex (one design point active as long as the budget
   or the period allows), or
3. a **pair "blend"** vertex (two design points with both constraints
   binding -- e.g. the DP4/DP5 split at a 5 J budget).

For a fixed design-point set there are only ``1 + N + N*(N-1)/2`` candidate
vertices.  The engine enumerates them *once* as NumPy arrays and evaluates
all of them against **all** budgets and alphas via broadcasting; an argmax
then selects the winner of every grid cell.  No Python-level loop touches
the (budget, alpha) grid, so a 200 x 5 sweep costs a handful of array
operations instead of a thousand simplex solves.

Quickstart
----------
Solve a whole Figure 5/6-style grid in one call::

    import numpy as np
    from repro.core.batch import BatchAllocator
    from repro.data.table2 import table2_design_points

    engine = BatchAllocator(table2_design_points())
    budgets = np.linspace(0.2, 10.4, 200)          # joules per hour
    grid = engine.solve_grid(budgets, alphas=(0.5, 1.0, 2.0))

    grid.objective.shape          # (3, 200): one row per alpha
    grid.expected_accuracy[1]     # accuracy curve at alpha = 1
    grid.active_time_s[2]         # active-time curve at alpha = 2
    allocation = grid.allocation(1, 99)   # full TimeAllocation for one cell

Single-alpha sweeps use :meth:`BatchAllocator.solve_budgets`, and the static
design-point baselines of Figure 5 are closed-form and exposed through
:meth:`BatchAllocator.static_grid`::

    series = engine.solve_budgets(budgets, alpha=1.0)   # A = 1 grid
    dp1 = engine.static_grid("DP1", budgets)            # StaticSeries arrays

Raw-array API (the fleet simulation path)
-----------------------------------------
The campaign simulator consumes allocations as plain arrays, one row per
activity period, and must not pay for per-cell ``TimeAllocation`` objects.
:meth:`BatchAllocator.solve_arrays` (and its static counterpart
:meth:`BatchAllocator.static_arrays`) return a :class:`BatchArrays` bundle:
per-DP time matrices, objectives, consumed energy and the feasibility mask
for one alpha over a whole budget vector.

Closed-loop campaigns additionally need the *consumed energy as a function
of the granted budget*: the battery recurrence of
:mod:`repro.energy.fleet` cannot solve one LP per period because each
period's budget depends on the previous period's consumption.  Because every
optimal vertex either binds the energy budget exactly (consumption equals
the budget) or saturates a design point for the whole period (consumption is
constant), the consumed energy is a **piecewise-linear** function of the
budget whose kinks all lie at ``{0, E_off, P_i * T_P}``.
:meth:`BatchAllocator.consumption_curve` captures that function as a
:class:`ConsumptionCurve` that can be evaluated for thousands of budgets
without touching the LP again.

Equivalence and scope
---------------------
The production solve reads each optimum off the LP's concave value hull
(:func:`repro.core.kernels.hull_solve`): one bracket lookup and one blend
per (alpha, budget) cell.  The candidate enumeration described above is
the reference: it is the only path for design-point sets without a hull (a
design point that draws no more than the off state), and it is the oracle
the equivalence suites compare the hull against.  It applies the same
feasibility tolerances and visits candidates in the same order as
:func:`repro.core.analytic.solve_analytic` (all-off first, then single
points, then pairs), so objectives agree with
:class:`~repro.core.allocator.ReapAllocator` to floating-point round-off.
Under an *exact* objective tie between two vertices -- alpha = 0, or two
design points with identical accuracy -- the hull returns the cheapest
optimal vertex while the enumeration returns the first-listed one; the
optimal value is identical.  The property-based test-suite asserts this on
randomized grids for all three scalar formulations.  The scalar simplex
remains the reference implementation (and the only path for the two-phase
``"full"`` formulation); the batch engine is the fast path for grid-shaped
workloads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.design_point import (
    DesignPoint,
    canonical_design_key,
    validate_design_points,
)
from repro.core.objective import validate_alpha
from repro.core.problem import ReapProblem
from repro.core.schedule import TimeAllocation
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W

#: Tolerance below which two design-point powers are considered identical
#: (the pair system is singular and the single-point vertices cover it).
_POWER_GAP_TOLERANCE = 1e-15

#: Feasibility slack on vertex coordinates, matching the analytic solver.
_VERTEX_TOLERANCE = 1e-9

#: Objective-scale slack of the deterministic argmax tie-break: candidates
#: within ``_TIE_TOLERANCE_OBJECTIVE * period_s`` (on the value scale) of the
#: maximum are considered tied and the *first* candidate in canonical order
#: (off, singles, pairs) wins.  This pins the chosen vertex at exact
#: consumption-curve kinks -- where round-off used to flip the argmax
#: between a saturated single and its zero-weight pair blends -- on every
#: run, while perturbing reported objectives by at most 1e-10.
_TIE_TOLERANCE_OBJECTIVE = 1e-10

#: Per-engine bound on the lazily built per-alpha entries (solve tables,
#: REAP curves, and static curves keyed by (policy, alpha)).  Campaigns and
#: sweeps use a handful of alphas; the bound only stops a client sending a
#: new alpha per request from growing a long-lived engine without limit.
_MAX_ALPHA_ENTRIES = 64


class BoundedLru:
    """Thread-safe get-or-build map that keeps the ``limit`` most recent keys.

    A miss builds outside the lock (a racing duplicate build is discarded
    in favour of the entry stored first), then evicts the least recently
    used entries beyond ``limit``.
    """

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The entry under ``key``, built with ``build()`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = build()
        with self._lock:
            if key in self._entries:  # lost a build race; keep the first
                self._entries.move_to_end(key)
                return self._entries[key]
            self._entries[key] = value
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()


#: Process-wide engine registry behind :meth:`BatchAllocator.shared`,
#: keyed by :meth:`BatchAllocator.engine_key`.  Bounded LRU so pathological
#: parameter churn (e.g. fuzzing over random design sets) cannot pin
#: unbounded solve tables in memory.
_MAX_SHARED_ENGINES = 32
_SHARED_ENGINES = BoundedLru(_MAX_SHARED_ENGINES)


@dataclass(frozen=True)
class StaticSeries:
    """Closed-form series of one static design-point policy over a budget grid.

    The static baseline of Section 5 runs a single design point until the
    budget is exhausted; its active time, accuracy and objective are simple
    closed-form functions of the budget and need no LP at all.
    """

    name: str
    budgets_j: np.ndarray
    active_time_s: np.ndarray
    expected_accuracy: np.ndarray
    objective: np.ndarray


@dataclass(frozen=True)
class BatchArrays:
    """Raw-array solution of one alpha over a budget vector.

    This is the fleet-simulation view of the engine: all per-period
    quantities as flat arrays indexed by budget (times have a trailing
    design-point axis), with no :class:`~repro.core.schedule.TimeAllocation`
    objects materialised.  Use :meth:`allocation` to build the odd cell that
    needs one.
    """

    design_points: Tuple[DesignPoint, ...]
    budgets_j: np.ndarray          #: (B,) energy budgets
    alpha: float                   #: trade-off parameter the solve used
    times_s: np.ndarray            #: (B, N) active seconds per design point
    feasible: np.ndarray           #: (B,) False below the off-state floor
    objective: np.ndarray          #: (B,) objective values J*
    expected_accuracy: np.ndarray  #: (B,) alpha=1 objective of the optimum
    active_time_s: np.ndarray      #: (B,) total active seconds
    energy_j: np.ndarray           #: (B,) energy consumed by the optimum
    period_s: float
    off_power_w: float

    def __len__(self) -> int:
        return int(self.budgets_j.size)

    @property
    def num_budgets(self) -> int:
        """Number of solved budgets B."""
        return int(self.budgets_j.size)

    @property
    def off_time_s(self) -> np.ndarray:
        """(B,) seconds spent in the off state."""
        return np.maximum(0.0, self.period_s - self.active_time_s)

    @property
    def device_consumption_j(self) -> np.ndarray:
        """(B,) energy the *device* actually consumes per period.

        Equals the allocation's energy, except below the off-state floor
        where the device browns out and can only consume what was granted
        (mirroring :meth:`repro.simulation.device.DeviceSimulator.run_period`).
        """
        return np.where(
            self.feasible, self.energy_j, np.minimum(self.energy_j, self.budgets_j)
        )

    def allocation(self, index: int) -> TimeAllocation:
        """Materialise the :class:`TimeAllocation` of one budget row."""
        times = self.times_s[index]
        active = float(times.sum())
        return TimeAllocation(
            design_points=self.design_points,
            times_s=tuple(float(t) for t in times),
            off_time_s=max(0.0, self.period_s - active),
            period_s=self.period_s,
            alpha=self.alpha,
            off_power_w=self.off_power_w,
            budget_j=float(self.budgets_j[index]),
            budget_feasible=bool(self.feasible[index]),
        )


class ConsumptionCurveError(ValueError):
    """The consumption function is not piecewise-linear over the breakpoints.

    Raised when a design-point set violates the assumptions behind
    :class:`ConsumptionCurve` (for example a design point cheaper than the
    off state, whose constant-value candidate can overtake budget-binding
    candidates at arbitrary interior budgets).  Callers fall back to the
    scalar per-period path.
    """


@dataclass(frozen=True)
class ConsumptionCurve:
    """Piecewise-linear device consumption as a function of the budget.

    Segment ``k`` covers ``[breakpoints_j[k], breakpoints_j[k+1])`` (the last
    one extends to infinity) and evaluates to ``values_j[k] + slopes[k] *
    (budget - anchors_j[k])``; every slope is 0 (a saturated design point) or
    1 (the energy constraint binds).  Each segment is anchored at an
    *interior* probe of the exact engine rather than at its left breakpoint:
    floating-point round-off can flip the argmax tie-break exactly at a kink
    budget, and anchoring inside the segment keeps the curve equal to the
    engine everywhere except on that measure-zero set of exact-kink budgets.
    """

    breakpoints_j: np.ndarray  #: (M,) sorted segment starts, beginning at 0
    anchors_j: np.ndarray      #: (M,) interior anchor budget of each segment
    values_j: np.ndarray       #: (M,) consumption at each anchor
    slopes: np.ndarray         #: (M,) d(consumption)/d(budget) per segment

    #: Tolerance on the slope/linearity validation probes.
    _VALIDATION_TOLERANCE = 1e-9

    @classmethod
    def from_probe(
        cls,
        breakpoints_j: Sequence[float],
        consumption: "Callable[[np.ndarray], np.ndarray]",
    ) -> "ConsumptionCurve":
        """Build a curve by probing an exact consumption evaluator.

        ``consumption`` maps a budget vector to per-budget consumed energy
        (e.g. a :meth:`BatchAllocator.device_consumption` closure).  Every
        segment is validated against three interior probes: it must be
        linear with slope 0 or 1, otherwise :class:`ConsumptionCurveError`
        is raised and the caller should use the evaluator directly.
        """
        points = np.unique(np.asarray(breakpoints_j, dtype=float))
        if points.size == 0 or points[0] < 0:
            raise ConsumptionCurveError("breakpoints must be non-negative")
        if points[0] != 0.0:
            points = np.concatenate([[0.0], points])

        # Three probes per segment (the last segment is open-ended).
        widths = np.append(np.diff(points), max(1.0, points[-1]))
        probe_a = points + widths * 0.25
        probe_mid = points + widths * 0.5
        probe_b = points + widths * 0.75
        consumed_a = np.asarray(consumption(probe_a), dtype=float)
        consumed_mid = np.asarray(consumption(probe_mid), dtype=float)
        consumed_b = np.asarray(consumption(probe_b), dtype=float)
        slopes = (consumed_b - consumed_a) / (probe_b - probe_a)

        scale = max(1.0, float(np.max(points)))
        tolerance = cls._VALIDATION_TOLERANCE * scale
        near_zero = np.abs(slopes) <= tolerance
        near_one = np.abs(slopes - 1.0) <= tolerance
        if not np.all(near_zero | near_one):
            raise ConsumptionCurveError(
                "consumption is not piecewise-linear with slopes in {0, 1}"
            )
        slopes = np.where(near_one, 1.0, 0.0)
        # The line through the outer probes must reproduce the middle probe
        # (catches jumps or curvature strictly inside a segment).
        predicted_mid = consumed_a + slopes * (probe_mid - probe_a)
        if np.any(np.abs(predicted_mid - consumed_mid) > tolerance):
            raise ConsumptionCurveError(
                "consumption has a discontinuity inside a segment"
            )
        return cls(
            breakpoints_j=points,
            anchors_j=probe_a,
            values_j=consumed_a,
            slopes=slopes,
        )

    def __call__(self, budgets_j: Sequence[float]) -> np.ndarray:
        """Evaluate the curve for a vector of budgets."""
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        index = np.searchsorted(self.breakpoints_j, budgets, side="right") - 1
        index = np.minimum(np.maximum(index, 0), self.breakpoints_j.size - 1)
        return self.values_j[index] + self.slopes[index] * (
            budgets - self.anchors_j[index]
        )


class StackedConsumptionCurves:
    """Evaluate one :class:`ConsumptionCurve` per device in a single pass.

    Curves sharing one breakpoint/anchor grid (curves built by one
    :class:`BatchAllocator` always do) evaluate as two gathers and a fused
    multiply-add per step of the battery scan.  Heterogeneous fleets --
    policies over different design-point sets, periods or off powers --
    are grouped by grid and evaluated one gather pass per distinct grid.
    """

    def __init__(self, curves: Sequence[ConsumptionCurve]) -> None:
        if not curves:
            raise ValueError("need at least one consumption curve")
        self._num_devices = len(curves)
        groups: dict = {}
        for device, curve in enumerate(curves):
            key = (curve.breakpoints_j.tobytes(), curve.anchors_j.tobytes())
            groups.setdefault(key, []).append((device, curve))
        self._groups = []
        for members in groups.values():
            devices = np.array([device for device, _ in members])
            group_curves = [curve for _, curve in members]
            self._groups.append(
                (
                    devices,
                    group_curves[0].breakpoints_j,
                    group_curves[0].anchors_j,
                    np.stack([c.values_j for c in group_curves]),  # (G, M)
                    np.stack([c.slopes for c in group_curves]),    # (G, M)
                    np.arange(len(group_curves)),
                )
            )

    @property
    def num_devices(self) -> int:
        """Number of stacked device curves D."""
        return self._num_devices

    def fused_tables(self) -> Optional[Tuple[np.ndarray, ...]]:
        """The single shared curve grid, or ``None`` for mixed fleets.

        When every device shares one breakpoint/anchor grid (fleets built
        by one :class:`BatchAllocator` always do), returns ``(breakpoints,
        anchors, values, slopes)`` with ``values``/``slopes`` shaped
        ``(D, M)`` in device order -- the layout the accelerated kernels of
        :mod:`repro.core.kernels` consume.  Heterogeneous fleets return
        ``None`` and take the grouped reference path.
        """
        if len(self._groups) != 1:
            return None
        _, breakpoints, anchors, values, slopes, _ = self._groups[0]
        return breakpoints, anchors, values, slopes

    def __call__(self, budgets_j: np.ndarray) -> np.ndarray:
        """Per-device consumption of granted budgets: (..., D) in and out.

        The trailing axis is the device axis; leading axes (e.g. the MPC
        planner's candidate-budget axis) broadcast through.
        """
        if len(self._groups) == 1:
            devices, breakpoints, anchors, values, slopes, rows = self._groups[0]
            index = breakpoints.searchsorted(budgets_j, side="right") - 1
            index = np.minimum(np.maximum(index, 0), breakpoints.size - 1)
            return values[rows, index] + slopes[rows, index] * (
                budgets_j - anchors[index]
            )
        consumed = np.empty(np.shape(budgets_j))
        for devices, breakpoints, anchors, values, slopes, rows in self._groups:
            budgets = budgets_j[..., devices]
            index = breakpoints.searchsorted(budgets, side="right") - 1
            index = np.minimum(np.maximum(index, 0), breakpoints.size - 1)
            consumed[..., devices] = values[rows, index] + slopes[rows, index] * (
                budgets - anchors[index]
            )
        return consumed


@dataclass(frozen=True)
class BatchGridResult:
    """Solution of a (budget x alpha) grid of REAP problems.

    All arrays are indexed ``[alpha_index, budget_index]`` (times have a
    trailing design-point axis).  The heavy per-cell
    :class:`~repro.core.schedule.TimeAllocation` objects are *not* built
    eagerly; use :meth:`allocation` / :meth:`allocations` to materialise the
    cells you actually need.
    """

    design_points: Tuple[DesignPoint, ...]
    budgets_j: np.ndarray          #: (B,) swept energy budgets
    alphas: np.ndarray             #: (A,) swept trade-off parameters
    times_s: np.ndarray            #: (A, B, N) optimal active times
    objective: np.ndarray          #: (A, B) optimal objective values J*
    expected_accuracy: np.ndarray  #: (A, B) alpha=1 objective of the optimum
    active_time_s: np.ndarray      #: (A, B) total active seconds
    energy_j: np.ndarray           #: (A, B) energy consumed by the optimum
    budget_feasible: np.ndarray    #: (B,) False below the off-state floor
    period_s: float
    off_power_w: float

    @property
    def num_alphas(self) -> int:
        """Number of swept alpha values A."""
        return int(self.alphas.size)

    @property
    def num_budgets(self) -> int:
        """Number of swept budgets B."""
        return int(self.budgets_j.size)

    @property
    def off_time_s(self) -> np.ndarray:
        """(A, B) seconds spent in the off state."""
        return self.period_s - self.active_time_s

    def allocation(self, alpha_index: int, budget_index: int) -> TimeAllocation:
        """Materialise the :class:`TimeAllocation` of one grid cell."""
        times = self.times_s[alpha_index, budget_index]
        active = float(times.sum())
        return TimeAllocation(
            design_points=self.design_points,
            times_s=tuple(float(t) for t in times),
            off_time_s=max(0.0, self.period_s - active),
            period_s=self.period_s,
            alpha=float(self.alphas[alpha_index]),
            off_power_w=self.off_power_w,
            budget_j=float(self.budgets_j[budget_index]),
            budget_feasible=bool(self.budget_feasible[budget_index]),
        )

    def allocations(self, alpha_index: int = 0) -> List[TimeAllocation]:
        """Materialise the allocations of one alpha row, one per budget."""
        return [
            self.allocation(alpha_index, budget_index)
            for budget_index in range(self.num_budgets)
        ]


class BatchAllocator:
    """Solves grids of REAP problems over a fixed design-point set.

    Parameters
    ----------
    design_points:
        The design points available to the runtime (typically the five
        Pareto-optimal DPs of Table 2).  Fixed for the engine's lifetime so
        the candidate-vertex structure can be precomputed once.
    period_s:
        Activity period :math:`T_P` in seconds.
    off_power_w:
        Power consumed in the off state.
    """

    def __init__(
        self,
        design_points: Sequence[DesignPoint],
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> None:
        validate_design_points(design_points)
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        if off_power_w < 0:
            raise ValueError(f"off-state power must be non-negative, got {off_power_w}")
        self.design_points = tuple(design_points)
        self.period_s = float(period_s)
        self.off_power_w = float(off_power_w)
        # Value-hull tables of the solve, built lazily once per alpha (see
        # kernels.build_solve_tables), and the consumption curves, which
        # probe several solves each, per alpha and per static policy.
        self._solve_tables = BoundedLru(_MAX_ALPHA_ENTRIES)
        self._curve_cache = BoundedLru(_MAX_ALPHA_ENTRIES)
        self._static_curve_cache = BoundedLru(_MAX_ALPHA_ENTRIES)

        self._powers = np.array([dp.power_w for dp in self.design_points])
        self._accuracies = np.array([dp.accuracy for dp in self.design_points])
        self._marginal_powers = self._powers - self.off_power_w

        # Pair vertices: keep only pairs whose power draws differ (identical
        # powers make the 2x2 system singular; the single-point vertices
        # already cover those optima).
        n = len(self.design_points)
        pair_i, pair_j = np.triu_indices(n, k=1)
        gaps = self._powers[pair_i] - self._powers[pair_j]
        usable = np.abs(gaps) >= _POWER_GAP_TOLERANCE
        self._pair_i = pair_i[usable]
        self._pair_j = pair_j[usable]
        self._pair_gaps = gaps[usable]

    @classmethod
    def from_problem(cls, problem: ReapProblem) -> "BatchAllocator":
        """Build an engine matching a scalar problem's fixed parameters."""
        return cls(
            problem.design_points,
            period_s=problem.period_s,
            off_power_w=problem.off_power_w,
        )

    @classmethod
    def shared(
        cls,
        design_points: Sequence[DesignPoint],
        period_s: float = ACTIVITY_PERIOD_S,
        off_power_w: float = OFF_STATE_POWER_W,
    ) -> "BatchAllocator":
        """Process-wide engine for these parameters, built at most once.

        Engines are immutable after construction and their lazily-built
        caches (solve tables, consumption curves) are per-(alpha, policy),
        so every policy with the same :meth:`engine_key` can share one
        instance: a fleet sweeping ten alphas over one design-point set
        builds one vertex structure and one curve per alpha instead of
        ten of each -- and a warm campaign worker reuses them across
        cells, tasks and campaigns.  Thread-safe; bounded LRU.
        """
        key = (
            canonical_design_key(tuple(design_points)),
            float(period_s),
            float(off_power_w),
        )
        return _SHARED_ENGINES.get(
            key,
            lambda: cls(design_points, period_s=period_s, off_power_w=off_power_w),
        )

    # --- convenience ----------------------------------------------------------
    def engine_key(self) -> tuple:
        """Canonical hashable encoding of this engine's fixed parameters.

        Two engines with equal keys solve identical problems for any
        (budget, alpha): the same design-point *set* (order-independent),
        period and off power.  The allocation service groups concurrent
        requests by this key so each group dispatches as one batched solve,
        and :meth:`ReapProblem.canonical_key` extends it with the per-request
        budget and alpha to form the result-cache key.
        """
        return (
            canonical_design_key(self.design_points),
            self.period_s,
            self.off_power_w,
        )

    @property
    def num_design_points(self) -> int:
        """Number of design points N."""
        return len(self.design_points)

    @property
    def num_candidate_vertices(self) -> int:
        """Candidate vertices evaluated per grid cell (off + singles + pairs)."""
        return 1 + self.num_design_points + self._pair_i.size

    @property
    def min_required_energy_j(self) -> float:
        """Energy needed to stay off for the whole period."""
        return self.off_power_w * self.period_s

    @property
    def max_useful_energy_j(self) -> float:
        """Budget past which every additional joule is wasted."""
        return float(self._powers.max()) * self.period_s

    # --- candidate enumeration -------------------------------------------------
    def _candidate_times(
        self, budgets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate all candidate vertices against all budgets at once.

        Returns ``(t_single, t_pair_i, t_pair_j, pair_feasible)`` where
        ``t_single`` is ``(B, N)`` and the pair arrays are ``(B, K)``.
        """
        surplus = budgets - self.min_required_energy_j          # (B,)

        # Single-point vertices: run DP i as long as the budget (or the
        # period) allows; non-positive marginal power means the DP is cheaper
        # than staying off, so it runs the whole period.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_single = np.where(
                self._marginal_powers[None, :] > 0,
                surplus[:, None] / self._marginal_powers[None, :],
                self.period_s,
            )
        t_single = np.clip(t_single, 0.0, self.period_s)        # (B, N)

        # Pair vertices: both the time identity and the energy budget bind.
        #   t_i + t_j = TP,  P_i t_i + P_j t_j = Eb
        t_pair_i = (
            budgets[:, None] - self._powers[self._pair_j][None, :] * self.period_s
        ) / self._pair_gaps[None, :]                            # (B, K)
        t_pair_j = self.period_s - t_pair_i
        pair_feasible = (t_pair_i >= -_VERTEX_TOLERANCE) & (
            t_pair_j >= -_VERTEX_TOLERANCE
        )
        t_pair_i = np.maximum(t_pair_i, 0.0)
        t_pair_j = np.maximum(t_pair_j, 0.0)

        # Mirror the analytic solver's post-clamp feasibility tolerances: the
        # clamped vertex must still respect the period and the budget.
        total = t_pair_i + t_pair_j
        energy = (
            self._powers[self._pair_i][None, :] * t_pair_i
            + self._powers[self._pair_j][None, :] * t_pair_j
            + self.off_power_w * (self.period_s - total)
        )
        pair_feasible &= total <= self.period_s * (1 + _VERTEX_TOLERANCE)
        pair_feasible &= energy <= budgets[:, None] * (1 + _VERTEX_TOLERANCE) + 1e-12
        return t_single, t_pair_i, t_pair_j, pair_feasible

    # --- winner selection ------------------------------------------------------
    def _winner_times(
        self, budgets: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Argmax-select the winning vertex of every (weight-row, budget) cell.

        ``weights`` holds one row of objective weights per alpha, shape
        ``(A, N)``.  Returns the optimal times ``(A, B, N)`` and the budget
        feasibility mask ``(B,)``.
        """
        n = self.num_design_points
        num_budgets = budgets.size
        num_alphas = weights.shape[0]
        feasible = budgets >= self.min_required_energy_j - 1e-12   # (B,)

        t_single, t_pair_i, t_pair_j, pair_feasible = self._candidate_times(budgets)

        # Candidate values, broadcast over (A, B, candidate): the all-off
        # vertex scores zero, singles score w_i * t_i, pairs score the blend.
        value_off = np.zeros((num_alphas, num_budgets, 1))
        value_single = weights[:, None, :] * t_single[None, :, :]
        value_pair = (
            weights[:, None, self._pair_i] * t_pair_i[None, :, :]
            + weights[:, None, self._pair_j] * t_pair_j[None, :, :]
        )
        value_pair = np.where(pair_feasible[None, :, :], value_pair, -np.inf)

        # Candidate order matches solve_analytic (off, singles, pairs) so
        # argmax breaks ties identically and the winning vertices coincide.
        # The tie is *snapped*: any candidate within the tolerance of the
        # maximum counts as tied and the earliest one wins, so round-off at
        # an exact consumption-curve kink (where a saturated single equals
        # its zero-weight pair blends) cannot flip the chosen vertex
        # between runs.
        values = np.concatenate([value_off, value_single, value_pair], axis=2)
        tie_tol = _TIE_TOLERANCE_OBJECTIVE * self.period_s
        best = values.max(axis=2, keepdims=True)
        winners = np.argmax(values >= best - tie_tol, axis=2)      # (A, B)
        winners[:, ~feasible] = 0

        times = np.zeros((num_alphas, num_budgets, n))
        single_won = (winners >= 1) & (winners <= n)
        if np.any(single_won):
            alpha_idx, budget_idx = np.nonzero(single_won)
            point_idx = winners[alpha_idx, budget_idx] - 1
            times[alpha_idx, budget_idx, point_idx] = t_single[budget_idx, point_idx]
        pair_won = winners > n
        if np.any(pair_won):
            alpha_idx, budget_idx = np.nonzero(pair_won)
            k = winners[alpha_idx, budget_idx] - 1 - n
            times[alpha_idx, budget_idx, self._pair_i[k]] = t_pair_i[budget_idx, k]
            times[alpha_idx, budget_idx, self._pair_j[k]] = t_pair_j[budget_idx, k]
        return times, feasible

    @staticmethod
    def _validate_budgets(budgets_j: Sequence[float]) -> np.ndarray:
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        if budgets.size == 0:
            raise ValueError("budget grid is empty")
        if np.any(budgets < 0):
            raise ValueError("energy budgets must be non-negative")
        return budgets

    # --- grid solves -----------------------------------------------------------
    def solve_grid(
        self,
        budgets_j: Sequence[float],
        alphas: Sequence[float] = (1.0,),
    ) -> BatchGridResult:
        """Solve every (alpha, budget) cell of the grid in one vectorized pass.

        Parameters
        ----------
        budgets_j:
            Energy budgets to sweep (any non-negative values; budgets below
            the off-state floor yield the all-off allocation flagged
            infeasible, exactly like the scalar allocator with
            ``clip_infeasible=True``).
        alphas:
            Trade-off parameters to sweep.
        """
        budgets = self._validate_budgets(budgets_j)
        alpha_grid = np.array([validate_alpha(a) for a in np.atleast_1d(alphas)])
        if alpha_grid.size == 0:
            raise ValueError("alpha grid is empty")
        times, feasible, objective, accuracy, active, energy = self._solve(
            budgets, alpha_grid
        )
        return BatchGridResult(
            design_points=self.design_points,
            budgets_j=budgets,
            alphas=alpha_grid,
            times_s=times,
            objective=objective,
            expected_accuracy=accuracy,
            active_time_s=active,
            energy_j=energy,
            budget_feasible=feasible,
            period_s=self.period_s,
            off_power_w=self.off_power_w,
        )

    def _solve(self, budgets: np.ndarray, alpha_grid: np.ndarray) -> tuple:
        """The production (A, B) solve: the value hull, else the reference.

        Returns ``(times, feasible, objective, accuracy, active, energy)``
        in the :class:`BatchGridResult` layout.  ``solve_arrays`` is the
        ``A = 1`` case of the same call, so a single-alpha grid and the
        raw arrays of that alpha are bit-identical.
        """
        tables = [self._hull_tables(float(alpha)) for alpha in alpha_grid]
        if any(table is None for table in tables):
            return self._solve_reference(budgets, alpha_grid)
        return kernels.hull_solve(
            budgets, tables, self._accuracies, self.period_s,
            self.num_design_points,
        )

    def _hull_tables(self, alpha: float) -> Optional[tuple]:
        """The cached value hull of one alpha (``None``: no hull exists)."""
        return self._solve_tables.get(
            alpha,
            lambda: kernels.build_solve_tables(
                self._powers, self._accuracies, alpha, self.period_s,
                self.off_power_w,
            ),
        )

    def _solve_reference(self, budgets: np.ndarray, alpha_grid: np.ndarray) -> tuple:
        """The candidate-enumeration solve (:meth:`_solve`'s layout)."""
        # Objective weights a_i^alpha for every alpha: (A, N).  numpy already
        # yields 0**0 == 1, matching DesignPoint.weighted_accuracy.
        weights = self._accuracies[None, :] ** alpha_grid[:, None]
        times, feasible = self._winner_times(budgets, weights)
        active = times.sum(axis=2)                                 # (A, B)
        objective = np.einsum("abn,an->ab", times, weights) / self.period_s
        accuracy = (times @ self._accuracies) / self.period_s
        energy = times @ self._powers + self.off_power_w * (self.period_s - active)
        return times, feasible, objective, accuracy, active, energy

    def solve_budgets(
        self, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> BatchGridResult:
        """Solve a single-alpha budget sweep (an ``A = 1`` grid)."""
        return self.solve_grid(budgets_j, alphas=(alpha,))

    def solve_allocations(
        self, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> List[TimeAllocation]:
        """Solve a budget sweep and materialise one allocation per budget.

        This is the drop-in replacement for calling
        ``ReapAllocator().solve(problem.with_budget(b))`` in a loop.
        """
        return self.solve_budgets(budgets_j, alpha=alpha).allocations(0)

    # --- raw-array solves (fleet simulation path) -------------------------------
    def solve_arrays(self, budgets_j: Sequence[float], alpha: float = 1.0) -> BatchArrays:
        """Solve one alpha over a budget vector, returning raw arrays only.

        This is the fleet-campaign fast path: per-DP time matrices, the
        objective/accuracy/energy series and the feasibility mask, with no
        per-cell :class:`TimeAllocation` objects.
        """
        budgets = self._validate_budgets(budgets_j)
        alpha = validate_alpha(alpha)
        return self._arrays(
            budgets, alpha, self._solve(budgets, np.array([alpha]))
        )

    def _solve_arrays_reference(
        self, budgets: np.ndarray, alpha: float
    ) -> BatchArrays:
        """:meth:`solve_arrays` through the candidate enumeration (the oracle)."""
        return self._arrays(
            budgets, alpha, self._solve_reference(budgets, np.array([alpha]))
        )

    def _arrays(self, budgets: np.ndarray, alpha: float, solved: tuple) -> BatchArrays:
        """Row 0 of a one-alpha :meth:`_solve` result as :class:`BatchArrays`."""
        times, feasible, objective, accuracy, active, energy = solved
        return BatchArrays(
            design_points=self.design_points,
            budgets_j=budgets,
            alpha=alpha,
            times_s=times[0],
            feasible=feasible,
            objective=objective[0],
            expected_accuracy=accuracy[0],
            active_time_s=active[0],
            energy_j=energy[0],
            period_s=self.period_s,
            off_power_w=self.off_power_w,
        )

    def static_arrays(
        self, name: str, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> BatchArrays:
        """Raw arrays of the static policy running ``name`` over the budgets.

        Array counterpart of :meth:`static_allocations` (below the off-state
        floor the row is the all-off fallback flagged infeasible).
        """
        index = self._index_of(name)
        budgets = self._validate_budgets(budgets_j)
        alpha = validate_alpha(alpha)
        active = self.static_active_times(name, budgets)           # (B,)
        feasible = budgets >= self.min_required_energy_j - 1e-12
        times = np.zeros((budgets.size, self.num_design_points))
        times[:, index] = active
        weight = self.design_points[index].weighted_accuracy(alpha)
        return BatchArrays(
            design_points=self.design_points,
            budgets_j=budgets,
            alpha=alpha,
            times_s=times,
            feasible=feasible,
            objective=weight * active / self.period_s,
            expected_accuracy=self._accuracies[index] * active / self.period_s,
            active_time_s=active,
            energy_j=self._powers[index] * active
            + self.off_power_w * (self.period_s - active),
            period_s=self.period_s,
            off_power_w=self.off_power_w,
        )

    # --- consumption as a function of the budget --------------------------------
    def _curve_breakpoints(self) -> np.ndarray:
        """Budgets where the consumption function can kink.

        The winning vertex changes only where a design point saturates
        (``P_i * T_P``) or the budget crosses the off-state floor; between
        those, consumption is linear in the budget.
        """
        return np.unique(
            np.concatenate(
                [[0.0, self.min_required_energy_j], self._powers * self.period_s]
            )
        )

    def device_consumption(
        self, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> np.ndarray:
        """Energy the device consumes per period at the REAP optimum."""
        return self.solve_arrays(budgets_j, alpha=alpha).device_consumption_j

    def consumption_curve(self, alpha: float = 1.0) -> ConsumptionCurve:
        """Piecewise-linear consumption-of-budget for the REAP optimum.

        Raises :class:`ConsumptionCurveError` when the design-point set
        violates the piecewise-linear structure (a design point no more
        power-hungry than the off state, whose constant-value candidate can
        overtake budget-binding candidates at arbitrary interior budgets).
        """
        if np.any(self._marginal_powers <= 0):
            raise ConsumptionCurveError(
                "a design point draws no more than the off state; consumption "
                "is not piecewise-linear over the saturation breakpoints"
            )
        # Probe the production solve: the battery scan then draws exactly
        # the energy the cell's allocations report, tied optima included
        # (where the hull and the enumeration pick different vertices).
        # Curves are immutable, so one probe per alpha serves every caller.
        probe_alpha = validate_alpha(alpha)
        return self._curve_cache.get(
            probe_alpha,
            lambda: ConsumptionCurve.from_probe(
                self._curve_breakpoints(),
                lambda budgets: self.device_consumption(budgets, probe_alpha),
            ),
        )

    def static_consumption_curve(
        self, name: str, alpha: float = 1.0
    ) -> ConsumptionCurve:
        """Piecewise-linear consumption-of-budget for one static policy."""
        return self._static_curve_cache.get(
            (name, validate_alpha(alpha)),
            lambda: ConsumptionCurve.from_probe(
                self._curve_breakpoints(),
                lambda budgets: self.static_arrays(
                    name, budgets, alpha=alpha
                ).device_consumption_j,
            ),
        )

    # --- static (single design point) baselines --------------------------------
    def static_active_times(self, name: str, budgets_j: Sequence[float]) -> np.ndarray:
        """Closed-form active times of the static policy running ``name``."""
        index = self._index_of(name)
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        surplus = budgets - self.min_required_energy_j
        marginal = self._marginal_powers[index]
        if marginal <= 0:
            active = np.full(budgets.shape, self.period_s)
        else:
            active = np.clip(surplus / marginal, 0.0, self.period_s)
        active[budgets < self.min_required_energy_j - 1e-12] = 0.0
        return active

    def static_grid(
        self, name: str, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> StaticSeries:
        """Closed-form series of one static design point over a budget grid."""
        index = self._index_of(name)
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        active = self.static_active_times(name, budgets)
        accuracy = self._accuracies[index]
        weight = self.design_points[index].weighted_accuracy(validate_alpha(alpha))
        return StaticSeries(
            name=name,
            budgets_j=budgets,
            active_time_s=active,
            expected_accuracy=accuracy * active / self.period_s,
            objective=weight * active / self.period_s,
        )

    def static_allocations(
        self, name: str, budgets_j: Sequence[float], alpha: float = 1.0
    ) -> List[TimeAllocation]:
        """Materialise the static policy's allocations, one per budget."""
        budgets = np.atleast_1d(np.asarray(budgets_j, dtype=float))
        active = self.static_active_times(name, budgets)
        feasible = budgets >= self.min_required_energy_j - 1e-12
        allocations = []
        for budget, active_time, ok in zip(budgets, active, feasible):
            if not ok:
                allocations.append(
                    TimeAllocation.all_off(
                        design_points=self.design_points,
                        period_s=self.period_s,
                        alpha=alpha,
                        off_power_w=self.off_power_w,
                        budget_j=float(budget),
                        budget_feasible=False,
                    )
                )
                continue
            allocations.append(
                TimeAllocation.single_point(
                    design_points=self.design_points,
                    name=name,
                    active_time_s=float(active_time),
                    period_s=self.period_s,
                    alpha=alpha,
                    off_power_w=self.off_power_w,
                    budget_j=float(budget),
                )
            )
        return allocations

    def _index_of(self, name: str) -> int:
        for index, dp in enumerate(self.design_points):
            if dp.name == name:
                return index
        raise KeyError(
            f"unknown design point {name!r}; have "
            f"{[dp.name for dp in self.design_points]}"
        )


__all__ = [
    "BatchAllocator",
    "BatchArrays",
    "BatchGridResult",
    "ConsumptionCurve",
    "ConsumptionCurveError",
    "StackedConsumptionCurves",
    "StaticSeries",
]
