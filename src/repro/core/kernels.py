"""The production kernels behind the batch, fleet and planning engines.

The reproduction's hot paths are three tight array programs:

1. :meth:`~repro.core.batch.BatchAllocator.solve_arrays` and
   :meth:`~repro.core.batch.BatchAllocator.solve_grid` -- the REAP optimum
   of every (alpha, budget) cell,
2. the :class:`~repro.energy.fleet.BatteryScan` grant/settle recurrence over
   the piecewise-linear consumption curve (the one loop NumPy cannot
   vectorize away: each period's budget depends on the previous period's
   consumption), and
3. :meth:`~repro.planning.horizon.MpcPlanner.sustainable` -- the MPC grid
   refinement's window projection.

There is one production path for each, and it is not a user option:

* When Numba imports, every kernel runs its jitted scalar loop.  The first
  compile or dispatch failure switches the process to the fallbacks for
  good (:func:`numba_ready`).
* Without Numba, the solve runs the vectorized value-hull pass below.  The
  battery scan runs a pure-Python scalar recurrence for fleets of at most
  ``_SCALAR_SCAN_MAX_DEVICES`` devices, where Python floats beat NumPy's
  per-period dispatch.  The MPC projection runs a fused float64 window
  scan once the candidate grid has ``_MPC_FUSED_MIN_ELEMENTS`` elements.
  Both thresholds are measured crossovers.
* Where no kernel applies -- a design point that draws no more than the off
  state (no hull), curves on mixed grids (no fused tables), or a wide fleet
  or small MPC grid without Numba -- the helpers return ``None`` and the
  callers run their reference implementations:
  :meth:`~repro.core.batch.BatchAllocator._solve_arrays_reference` (the
  candidate-vertex enumeration), the per-period loop of
  :meth:`~repro.energy.fleet.BatteryScan._run_reference` and the unfused
  projection of
  :meth:`~repro.planning.horizon.MpcPlanner._sustainable_reference`.
  Those references are also the oracles the equivalence suites compare
  against at 1e-9.

The value hull
--------------
The solve does not enumerate the ``1 + N + N(N-1)/2`` candidate vertices
per budget.  The REAP LP's value function ``J*(E)`` is the **upper concave,
non-decreasing hull** of the pure-vertex points
``{(E_floor, 0)} U {(P_i * T, w_i * T)}`` (flat past the last hull vertex),
so a solve is one bracket lookup over the hull breakpoints plus a linear
blend of the two bracketing hull vertices: at most ``O(B * N)`` work
instead of ``O(B * N^2)``.  The hull only exists when every design point out-draws the
off state (the same precondition as
:meth:`~repro.core.batch.BatchAllocator.consumption_curve`).  At exactly
tied optima (alpha = 0, or two design points of equal accuracy) the hull
returns the cheapest optimal vertex; the enumeration returns the
first-listed one.  Objectives are equal either way.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - exercised only in the optional-deps CI job
    from numba import njit

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - the common, numba-less environment
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op decorator stand-in so jitted defs still parse."""

        if args and callable(args[0]):
            return args[0]

        def wrap(function):
            return function

        return wrap


#: Set on the first Numba compile/dispatch failure: the fallback becomes
#: permanent for the process rather than re-raising on every call.
_NUMBA_BROKEN = False


def numba_ready() -> bool:
    """True when the kernels actually jit (Numba imported and working)."""
    return HAVE_NUMBA and not _NUMBA_BROKEN


def _numba_call(jitted, *args):
    """Run a jitted kernel, permanently falling back on any Numba failure."""
    global _NUMBA_BROKEN
    try:
        jitted(*args)
        return True
    except Exception:  # pragma: no cover - only reachable with a broken numba
        _NUMBA_BROKEN = True
        return False


# ---------------------------------------------------------------------------
# Kernel 1: the REAP solve via the concave value hull
# ---------------------------------------------------------------------------
def build_solve_tables(
    powers: np.ndarray,
    accuracies: np.ndarray,
    alpha: float,
    period_s: float,
    off_power_w: float,
) -> Optional[tuple]:
    """Precompute the value hull of one (engine, alpha) pair.

    Returns ``(hull_energy, hull_value, hull_index)`` with one entry per
    hull vertex -- vertex 0 is the all-off floor (``hull_index[0] == -1``),
    later vertices are design points in increasing energy.  Returns
    ``None`` when the hull does not exist (a design point draws no more
    than the off state) or holds no design point (every weight is zero), in
    which case callers must use the reference candidate enumeration.
    """
    marginal = powers - off_power_w
    if np.any(marginal <= 0):
        return None
    weights = accuracies**alpha
    energies = powers * period_s
    values = weights * period_s
    floor = off_power_w * period_s

    order = np.argsort(energies, kind="stable")
    hull_e = [float(floor)]
    hull_v = [0.0]
    hull_i = [-1]
    for i in order:
        energy, value = float(energies[i]), float(values[i])
        if value <= hull_v[-1]:
            continue  # dominated: no extra value for the extra energy
        # Pop hull vertices that fall below the chord to the new point
        # (standard monotone-chain upper hull on energy-sorted points).
        while len(hull_e) >= 2 and (value - hull_v[-2]) * (
            hull_e[-1] - hull_e[-2]
        ) >= (hull_v[-1] - hull_v[-2]) * (energy - hull_e[-2]):
            hull_e.pop()
            hull_v.pop()
            hull_i.pop()
        hull_e.append(energy)
        hull_v.append(value)
        hull_i.append(int(i))
    if len(hull_e) < 2:
        return None
    return (
        np.asarray(hull_e, dtype=np.float64),
        np.asarray(hull_v, dtype=np.float64),
        np.asarray(hull_i, dtype=np.int64),
    )


@njit(cache=False)
def _hull_solve_jit(  # pragma: no cover - requires numba
    budgets, hull_e, hull_v, hull_i, counts, acc, period, floor,
    times, feasible, objective, accuracy, active, energy,
):
    num_alphas, num_budgets = objective.shape
    for row in range(num_budgets):
        feasible[row] = budgets[row] >= floor - 1e-12
    for a in range(num_alphas):
        num_vertices = counts[a]
        top = hull_e[a, num_vertices - 1]
        for row in range(num_budgets):
            if not feasible[row]:
                energy[a, row] = floor
                continue
            clamped = budgets[row]
            if clamped > top:
                clamped = top
            if clamped < floor:
                clamped = floor
            lo, hi = 0, num_vertices
            while lo < hi:
                mid = (lo + hi) // 2
                if hull_e[a, mid] <= clamped:
                    lo = mid + 1
                else:
                    hi = mid
            k = lo - 1
            if k > num_vertices - 2:
                k = num_vertices - 2
            if k < 0:
                k = 0
            lam = (clamped - hull_e[a, k]) / (hull_e[a, k + 1] - hull_e[a, k])
            t_right = lam * period
            t_left = period - t_right
            left, right = hull_i[a, k], hull_i[a, k + 1]
            times[a, row, right] = t_right
            if left >= 0:
                times[a, row, left] = t_left
                active[a, row] = period
                accuracy[a, row] = (
                    t_left * acc[left] + t_right * acc[right]
                ) / period
            else:
                active[a, row] = t_right
                accuracy[a, row] = t_right * acc[right] / period
            objective[a, row] = (
                hull_v[a, k] + lam * (hull_v[a, k + 1] - hull_v[a, k])
            ) / period
            energy[a, row] = clamped


def _hull_solve_numpy(
    budgets, hull_e, hull_v, hull_i, counts, acc, period, num_points
) -> tuple:
    """The (A, B) hull pass as whole-array operations on flat indices."""
    num_alphas, width = hull_e.shape
    num_budgets = budgets.size
    floor = hull_e[0, 0]
    feasible = budgets >= floor - 1e-12
    row_start = np.arange(0, num_alphas * width, width)
    top = hull_e.take(row_start + counts - 1)[:, None]
    clamped = np.minimum(np.maximum(budgets, floor), top)          # (A, B)
    # Bracket lookup: the last hull vertex at or below the clamped budget.
    k = np.empty((num_alphas, num_budgets), dtype=np.int64)
    for row, count in enumerate(counts.tolist()):
        k[row] = hull_e[row, :count].searchsorted(clamped[row], side="right")
    k -= 1
    np.minimum(k, counts[:, None] - 2, out=k)
    lo = k + row_start[:, None]                  # flat index of the left vertex
    hi = lo + 1
    e_lo = hull_e.take(lo)
    lam = (clamped - e_lo) / (hull_e.take(hi) - e_lo)
    t_right = np.where(feasible, lam * period, 0.0)
    left, right = hull_i.take(lo), hull_i.take(hi)
    has_left = (left >= 0) & feasible
    t_left = np.where(has_left, period - t_right, 0.0)
    cell = np.arange(0, num_alphas * num_budgets * num_points, num_points)
    cell = cell.reshape(num_alphas, num_budgets)
    times = np.zeros(num_alphas * num_budgets * num_points)
    times[cell + right] = t_right
    times[(cell + left)[has_left]] = t_left[has_left]
    v_lo = hull_v.take(lo)
    value = v_lo + lam * (hull_v.take(hi) - v_lo)
    objective = np.where(feasible, value / period, 0.0)
    active = t_left + t_right
    acc_left = np.where(has_left, acc.take(np.maximum(left, 0)), 0.0)
    accuracy = np.where(
        feasible, (t_left * acc_left + t_right * acc.take(right)) / period, 0.0
    )
    energy = np.where(feasible, clamped, floor)
    return (
        times.reshape(num_alphas, num_budgets, num_points),
        feasible, objective, accuracy, active, energy,
    )


def hull_solve(
    budgets: np.ndarray,
    tables: Sequence[tuple],
    accuracies: np.ndarray,
    period_s: float,
    num_points: int,
) -> tuple:
    """Solve a budget vector against the hulls of ``A`` alphas in one pass.

    ``tables`` holds one :func:`build_solve_tables` result per alpha; they
    are padded to one ``(A, V)`` grid, so each (alpha, budget) cell is
    computed by the same arithmetic whatever else shares the call.
    Returns ``(times, feasible, objective, accuracy, active, energy)``
    shaped ``(A, B, N)``, ``(B,)`` and ``(A, B)`` -- the field layout of
    :class:`~repro.core.batch.BatchGridResult`.
    """
    num_alphas = len(tables)
    counts = np.array([table[0].size for table in tables], dtype=np.int64)
    width = int(counts.max())
    hull_e = np.full((num_alphas, width), np.inf)
    hull_v = np.zeros((num_alphas, width))
    hull_i = np.zeros((num_alphas, width), dtype=np.int64)
    for row, (energy, value, index) in enumerate(tables):
        hull_e[row, : energy.size] = energy
        hull_v[row, : value.size] = value
        hull_i[row, : index.size] = index
    b = np.ascontiguousarray(budgets, dtype=np.float64)
    if numba_ready():
        times = np.zeros((num_alphas, b.size, num_points))
        feasible = np.empty(b.size, dtype=np.bool_)
        objective = np.zeros((num_alphas, b.size))
        accuracy = np.zeros_like(objective)
        active = np.zeros_like(objective)
        energy = np.zeros_like(objective)
        if _numba_call(
            _hull_solve_jit,
            b, hull_e, hull_v, hull_i, counts, accuracies,
            float(period_s), float(hull_e[0, 0]),
            times, feasible, objective, accuracy, active, energy,
        ):
            return times, feasible, objective, accuracy, active, energy
    return _hull_solve_numpy(
        b, hull_e, hull_v, hull_i, counts, accuracies, float(period_s),
        num_points,
    )


# ---------------------------------------------------------------------------
# Kernel 2: the BatteryScan grant/settle recurrence
# ---------------------------------------------------------------------------
#: Fleet width above which the pure-Python scalar fallback loses to the
#: vectorized reference (measured crossover is ~24 devices).
_SCALAR_SCAN_MAX_DEVICES = 24


@njit(cache=False)
def _battery_scan_jit(  # pragma: no cover - requires numba
    harvest, initial, capacity, target, max_draw, min_budget, ce, de,
    breakpoints, anchors, values, slopes,
    budgets, consumed, charges,
):
    num_periods, num_devices = harvest.shape
    num_breaks = breakpoints.shape[0]
    for d in range(num_devices):
        charges[0, d] = initial[d]
    for t in range(num_periods):
        for d in range(num_devices):
            h = harvest[t, d]
            c = charges[t, d]
            # grant: levelling draw + floor top-up (HarvestFollowingAllocator)
            contribution = c - target[d]
            if contribution < 0.0:
                contribution = 0.0
            elif contribution > max_draw[d]:
                contribution = max_draw[d]
            shortfall = min_budget[d] - (h + contribution)
            extra = c * de[d] - contribution
            if shortfall < extra:
                extra = shortfall
            if extra > 0.0:
                contribution = contribution + extra
            budget = h + contribution
            # consumption: piecewise-linear curve segment lookup
            lo, hi = 0, num_breaks
            while lo < hi:
                mid = (lo + hi) // 2
                if breakpoints[mid] <= budget:
                    lo = mid + 1
                else:
                    hi = mid
            k = lo - 1
            if k < 0:
                k = 0
            spent = values[d, k] + slopes[d, k] * (budget - anchors[k])
            # settle: bank the surplus or draw the deficit
            if h >= spent:
                accepted = (h - spent) * ce[d]
                headroom = capacity[d] - c
                if accepted > headroom:
                    accepted = headroom
                c = c + accepted
            else:
                deliverable = spent - h
                available = c * de[d]
                if deliverable > available:
                    deliverable = available
                c = c - deliverable / de[d]
                if c < 0.0:
                    c = 0.0
            budgets[t, d] = budget
            consumed[t, d] = spent
            charges[t + 1, d] = c


def _battery_scan_scalar(
    harvest, initial, capacity, target, max_draw, min_budget, ce, de, tables
) -> tuple:
    """Pure-Python scalar recurrence: bit-equal to the reference for the
    narrow fleets where Python scalars beat NumPy's per-period dispatch."""
    breakpoints, anchors, values, slopes = tables
    num_periods, num_devices = harvest.shape
    num_breaks = breakpoints.size
    bp = breakpoints.tolist()
    anchor = anchors.tolist()
    value_rows = values.tolist()
    slope_rows = slopes.tolist()
    cap = capacity.tolist()
    tgt = target.tolist()
    draw = max_draw.tolist()
    floor = min_budget.tolist()
    ce_l = ce.tolist()
    de_l = de.tolist()
    charge = initial.tolist()
    harvest_rows = harvest.tolist()
    budgets = np.empty((num_periods, num_devices))
    consumed = np.empty_like(budgets)
    charges = np.empty((num_periods + 1, num_devices))
    charges[0] = charge
    for t in range(num_periods):
        row_h = harvest_rows[t]
        row_b = budgets[t]
        row_c = consumed[t]
        row_ch = charges[t + 1]
        for d in range(num_devices):
            h = row_h[d]
            c = charge[d]
            contribution = c - tgt[d]
            if contribution < 0.0:
                contribution = 0.0
            elif contribution > draw[d]:
                contribution = draw[d]
            shortfall = floor[d] - (h + contribution)
            extra = c * de_l[d] - contribution
            if shortfall < extra:
                extra = shortfall
            if extra > 0.0:
                contribution = contribution + extra
            budget = h + contribution
            lo, hi = 0, num_breaks
            while lo < hi:
                mid = (lo + hi) // 2
                if bp[mid] <= budget:
                    lo = mid + 1
                else:
                    hi = mid
            k = lo - 1
            if k < 0:
                k = 0
            spent = value_rows[d][k] + slope_rows[d][k] * (budget - anchor[k])
            if h >= spent:
                accepted = (h - spent) * ce_l[d]
                headroom = cap[d] - c
                if accepted > headroom:
                    accepted = headroom
                c = c + accepted
            else:
                deliverable = spent - h
                available = c * de_l[d]
                if deliverable > available:
                    deliverable = available
                c = c - deliverable / de_l[d]
                if c < 0.0:
                    c = 0.0
            charge[d] = c
            row_b[d] = budget
            row_c[d] = spent
            row_ch[d] = c
    return budgets, consumed, charges


def battery_scan(
    harvest: np.ndarray,
    initial: np.ndarray,
    capacity: np.ndarray,
    target: np.ndarray,
    max_draw: np.ndarray,
    min_budget: np.ndarray,
    ce: np.ndarray,
    de: np.ndarray,
    tables: tuple,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the closed-loop recurrence on one consumption-curve grid.

    ``tables`` is the fused ``(breakpoints, anchors, values, slopes)`` grid
    of :meth:`~repro.core.batch.StackedConsumptionCurves.fused_tables`.
    Returns float64 ``(budgets, consumed, charges)``, or ``None`` when no
    kernel beats the reference here (wide fleets without Numba).
    """
    num_devices = harvest.shape[1]
    if numba_ready():
        breakpoints, anchors, values, slopes = (
            np.ascontiguousarray(t) for t in tables
        )
        budgets = np.empty(harvest.shape)
        consumed = np.empty_like(budgets)
        charges = np.empty((harvest.shape[0] + 1, num_devices))
        if _numba_call(
            _battery_scan_jit,
            np.ascontiguousarray(harvest), initial, capacity, target,
            max_draw, min_budget, ce, de,
            breakpoints, anchors, values, slopes,
            budgets, consumed, charges,
        ):
            return budgets, consumed, charges
    if num_devices <= _SCALAR_SCAN_MAX_DEVICES:
        return _battery_scan_scalar(
            harvest, initial, capacity, target, max_draw, min_budget,
            ce, de, tables,
        )
    return None


# ---------------------------------------------------------------------------
# Kernel 3: the MPC window-sustainability projection
# ---------------------------------------------------------------------------
@njit(cache=False)
def _mpc_sustainable_jit(  # pragma: no cover - requires numba
    budgets, window, charge, ce, de, tol,
    breakpoints, anchors, values, slopes, ok,
):
    num_candidates, num_devices = budgets.shape
    num_windows = window.shape[0]
    num_breaks = breakpoints.shape[0]
    for ci in range(num_candidates):
        for d in range(num_devices):
            budget = budgets[ci, d]
            lo, hi = 0, num_breaks
            while lo < hi:
                mid = (lo + hi) // 2
                if breakpoints[mid] <= budget:
                    lo = mid + 1
                else:
                    hi = mid
            k = lo - 1
            if k < 0:
                k = 0
            spent = values[d, k] + slopes[d, k] * (budget - anchors[k])
            running = 0.0
            good = True
            for w in range(num_windows):
                delta = window[w, d] - spent
                deficit = -delta - (charge[d] + running) * de[d]
                if deficit > tol:
                    good = False
                    break
                if delta >= 0.0:
                    running += delta * ce[d]
                else:
                    running += delta / de[d]
            ok[ci, d] = good


def _mpc_sustainable_numpy(spent, window, charge, ce, de, tol) -> np.ndarray:
    """Fused window scan: running (C, D) buffers instead of (W, C, D)
    temporaries."""
    running = np.zeros_like(spent)
    ok = np.ones(spent.shape, dtype=bool)
    for w in range(window.shape[0]):
        delta = window[w][None, :] - spent
        deficit = -delta - (charge + running) * de
        ok &= deficit <= tol
        running = running + np.where(delta >= 0, delta * ce, delta / de)
    return ok


#: Candidate-grid size (C * D elements) below which the fused NumPy window
#: scan loses to the reference's single broadcast over (W, C, D) -- per-step
#: dispatch overhead dominates tiny arrays.  Without Numba, smaller
#: problems return ``None`` and take the reference path.
_MPC_FUSED_MIN_ELEMENTS = 4096


def mpc_sustainable(
    budgets: np.ndarray,
    window: np.ndarray,
    charge: np.ndarray,
    ce: np.ndarray,
    de: np.ndarray,
    tol: float,
    tables: tuple,
) -> Optional[np.ndarray]:
    """Sustainability mask of ``(C, D)`` candidate budgets over a window.

    Semantically identical to the reference
    :meth:`~repro.planning.horizon.MpcPlanner._sustainable_reference` with
    the curve evaluation and the ``(W, C, D)`` projection fused into one
    pass.  Returns ``None`` when no kernel would beat the reference here
    (Numba absent and the candidate grid too small to amortise the fused
    loop).
    """
    if numba_ready():
        breakpoints, anchors, values, slopes = (
            np.ascontiguousarray(t) for t in tables
        )
        ok = np.empty(budgets.shape, dtype=np.bool_)
        if _numba_call(
            _mpc_sustainable_jit,
            np.ascontiguousarray(budgets), np.ascontiguousarray(window),
            charge, ce, de, float(tol),
            breakpoints, anchors, values, slopes, ok,
        ):
            return ok
    if budgets.size < _MPC_FUSED_MIN_ELEMENTS:
        return None
    breakpoints, anchors, values, slopes = tables
    index = breakpoints.searchsorted(budgets, side="right") - 1
    np.clip(index, 0, breakpoints.size - 1, out=index)
    rows = np.arange(budgets.shape[1])
    spent = values[rows, index] + slopes[rows, index] * (
        budgets - anchors[index]
    )
    return _mpc_sustainable_numpy(spent, window, charge, ce, de, tol)


__all__ = [
    "HAVE_NUMBA",
    "battery_scan",
    "build_solve_tables",
    "hull_solve",
    "mpc_sustainable",
    "numba_ready",
]
