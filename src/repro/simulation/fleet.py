"""Fleet campaign engine: whole grids of campaigns as array programs.

This module is the vectorized runtime behind
:class:`~repro.simulation.simulator.HarvestingCampaign`.  Where the scalar
reference steps one policy through one trace hour by hour
(``grant -> allocate -> run_period -> settle``), :class:`FleetCampaign`
simulates a whole grid of (scenario x policy x alpha) cells against a trace
in three vectorized stages:

1. **Budgets.**  Open-loop budgets are the per-scenario harvest vectors.
   Closed-loop budgets come from :class:`~repro.energy.fleet.BatteryScan`:
   one battery-charge vector covering every fleet cell, stepped per period
   in lockstep, with each policy's period consumption evaluated through its
   piecewise-linear :class:`~repro.core.batch.ConsumptionCurve` instead of
   a per-period LP solve.
2. **Allocations.**  Each cell's full budget column is solved in one
   :meth:`~repro.simulation.policies.Policy.allocate_arrays` call (the
   batch engine's raw-array path).
3. **Accounting.**  :meth:`~repro.simulation.device.DeviceSimulator.run_periods_batch`
   turns the per-DP time matrices into columnar campaign outcomes,
   reproducing the scalar window/energy/recognition accounting (including
   the sampled-mode RNG stream) exactly.

The scalar loop remains in :mod:`repro.simulation.simulator` as the
cross-checked reference; the equivalence suite asserts agreement to 1e-9 on
budgets, consumed energy, battery trajectories and recognition counts.

The module also holds the one codec of a campaign's columns: the cell
record (:func:`encode_cell`, :func:`decode_cells`), a JSON header plus the
cell's float64/zlib column and battery frames.  The service's columns
stream (:meth:`FleetResult.to_binary_frames`, :meth:`FleetResult.from_binary`),
a durable campaign worker's shard payload and the store journal's
``shard_done`` records are all made of it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batch import ConsumptionCurveError, StackedConsumptionCurves
from repro.energy.fleet import BatteryScan, BatteryScanResult
from repro.obs.profiling import PhaseProfiler
from repro.harvesting.solar_cell import HarvestScenario
from repro.harvesting.traces import SolarTrace
from repro.planning.scan import PlanScan
from repro.simulation.device import DeviceConfig, DeviceSimulator
from repro.simulation.metrics import CampaignColumns, CampaignResult, inflate
from repro.simulation.policies import PlanningPolicy, Policy

#: Leading magic of the binary campaign wire format (see
#: :meth:`FleetResult.to_binary_frames`).
CAMPAIGN_BINARY_MAGIC = b"REAPCOL1"

#: One simulated cell in grid coordinates: (scenario, policy, result).
Cell = Tuple[int, int, CampaignResult]


def _binary_frame(blob: bytes) -> bytes:
    """One length-prefixed wire frame: little-endian uint64 size + payload."""
    return struct.pack("<Q", len(blob)) + blob


def _read_binary_frame(blob: bytes, offset: int, what: str) -> tuple:
    """Pop one length-prefixed frame; raises ValueError when truncated."""
    if len(blob) < offset + 8:
        raise ValueError(f"binary campaign stream truncated: missing {what} size")
    (size,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if len(blob) < offset + size:
        raise ValueError(
            f"binary campaign stream truncated: {what} needs {size} bytes, "
            f"{len(blob) - offset} left"
        )
    return blob[offset:offset + size], offset + size


#: Fields each binary header must carry, with their JSON types.
_META_FIELDS = {
    "scenario_labels": list,
    "policy_names": list,
    "alphas": list,
    "trace_hours": int,
}
_CELL_FIELDS = {
    "scenario_index": int,
    "policy_index": int,
    "policy_name": str,
    "alpha": (int, float),
}


def _check_fields(
    header: Any, what: str, fields: Dict[str, Any]
) -> Dict[str, Any]:
    """Check that a decoded header is an object whose ``fields`` have their types.

    Headers come off the network and out of the journal, so a corrupt one
    must fail as a :class:`ValueError`, never as a ``KeyError`` or
    ``TypeError``.
    """
    if not isinstance(header, dict):
        raise ValueError(f"malformed binary {what}: not a JSON object")
    for key, kind in fields.items():
        if not isinstance(header.get(key), kind):
            raise ValueError(f"malformed binary {what}: bad or missing {key!r}")
    return header


def _json_header(blob: bytes, what: str, fields: Dict[str, Any]) -> Dict[str, Any]:
    """Decode one JSON header frame and check its ``fields``' types."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"malformed binary {what}: {error}") from error
    return _check_fields(header, what, fields)


# --- the cell record: the one encoding of a campaign's columns ------------------
def encode_cell(scenario_index: int, policy_index: int, result: CampaignResult) -> bytes:
    """One cell record: the campaign codec's unit.

    A length-prefixed JSON header (grid position, policy, alpha, and the
    battery trajectory's presence and length), then the cell's
    :meth:`~repro.simulation.metrics.CampaignResult.wire_frames`, each
    length-prefixed: the ``<f8``/zlib
    :meth:`~repro.simulation.metrics.CampaignColumns.to_bytes` frame and,
    for closed-loop cells, the deflated ``<f8`` battery frame.  The
    columns stream (:meth:`FleetResult.to_binary_frames`), a durable
    campaign worker's shard payload and the journal's ``shard_done``
    records are all made of these records (:func:`encode_cells`).  A cell
    that already holds its frames is re-framed without deflating again.
    """
    columns_frame, battery_frame = result.wire_frames()
    battery = result.battery_charge_j
    header = {
        "scenario_index": int(scenario_index),
        "policy_index": int(policy_index),
        "policy_name": result.policy_name,
        "alpha": float(result.alpha),
        "has_battery": battery is not None,
        "battery_len": 0 if battery is None else int(battery.size),
    }
    frames = [json.dumps(header, separators=(",", ":")).encode("utf-8"), columns_frame]
    if battery_frame is not None:
        frames.append(battery_frame)
    return b"".join(_binary_frame(frame) for frame in frames)


def _read_cell(
    blob: bytes, offset: int, index: int
) -> Tuple[Dict[str, Any], bytes, Optional[bytes], int]:
    """Walk one cell record: (header, columns frame, battery frame, next offset).

    Checks the framing and the header's field types and inflates nothing;
    the battery frame is ``None`` for open-loop cells.
    """
    what = f"cell {index} header"
    head_blob, offset = _read_binary_frame(blob, offset, what)
    head = _json_header(head_blob, what, _CELL_FIELDS)
    columns_frame, offset = _read_binary_frame(
        blob, offset, f"cell {index} columns"
    )
    battery_frame = None
    if head.get("has_battery"):
        battery_frame, offset = _read_binary_frame(
            blob, offset, f"cell {index} battery"
        )
    return head, columns_frame, battery_frame, offset


def _decode_cell(
    blob: bytes, offset: int, index: int, journal: bool
) -> Tuple[Cell, int]:
    """Decode one :func:`encode_cell` record at ``offset``; returns (cell, next offset).

    The cell keeps the frames it was decoded from.  Journal records
    written before headers carried ``battery_len`` lack it; their cells
    all come from :meth:`FleetCampaign.run`, whose trajectories hold the
    initial charge plus one entry per period, so with ``journal`` a
    missing length means ``num_periods + 1``.  Without it (the wire,
    :meth:`FleetResult.from_binary`) the length is required.
    """
    head, columns_frame, battery_frame, offset = _read_cell(blob, offset, index)
    columns = CampaignColumns.from_bytes(columns_frame)
    battery = None
    if battery_frame is not None:
        battery_bytes = inflate(battery_frame, f"binary cell {index} battery frame")
        battery_len = head.get(
            "battery_len", columns.num_periods + 1 if journal else 0
        )
        if not isinstance(battery_len, int):
            raise ValueError(
                f"malformed binary cell {index} header: bad 'battery_len'"
            )
        if len(battery_bytes) != battery_len * 8:
            raise ValueError(
                f"binary cell {index} battery frame has "
                f"{len(battery_bytes)} bytes, expected {battery_len * 8}"
            )
        battery = np.frombuffer(battery_bytes, dtype="<f8").astype(float)
    result = CampaignResult.from_columns(
        head["policy_name"],
        float(head["alpha"]),
        columns,
        battery_charge_j=battery,
        wire_frames=(columns_frame, battery_frame),
    )
    return (head["scenario_index"], head["policy_index"], result), offset


def encode_cells(cells: Iterable[Cell]) -> bytes:
    """Concatenated :func:`encode_cell` records (shard payloads, journal records)."""
    return b"".join(encode_cell(*cell) for cell in cells)


def decode_cells(blob: bytes) -> List[Cell]:
    """Decode every record of an :func:`encode_cells` payload.

    Raises :class:`ValueError`, and only that, on anything malformed.
    The decoded cells equal the encoded ones to the last bit and keep
    their frames, so encoding them again deflates nothing.  Records
    journaled before headers carried ``battery_len`` decode too.
    """
    cells: List[Cell] = []
    offset = 0
    while offset < len(blob):
        cell, offset = _decode_cell(blob, offset, len(cells), journal=True)
        cells.append(cell)
    return cells


def cell_ids(blob: bytes) -> List[Tuple[int, int]]:
    """The (scenario, policy) ids of an :func:`encode_cells` payload.

    Reads the cell headers only, so it costs no inflating; raises
    :class:`ValueError` on malformed framing or headers.
    """
    ids: List[Tuple[int, int]] = []
    offset = 0
    while offset < len(blob):
        head, _, _, offset = _read_cell(blob, offset, len(ids))
        ids.append((head["scenario_index"], head["policy_index"]))
    return ids


@dataclass
class CampaignConfig:
    """Configuration of a harvesting campaign simulation."""

    #: When True, budgets flow through a battery-backed energy allocator; the
    #: unspent part of each budget is banked and shortfalls draw the battery.
    use_battery: bool = False
    #: Battery capacity in joules (only used when ``use_battery``).
    battery_capacity_j: float = 60.0
    #: Initial battery charge in joules (negative means half full).
    battery_initial_j: float = -1.0
    #: Battery state-of-charge reserve: charge above this level is released
    #: to the load (so day-time surplus funds night-time operation), charge
    #: below it is retained.
    battery_target_soc: float = 0.35
    #: Maximum battery contribution to a single period's budget, in joules.
    battery_max_draw_j: float = 5.0
    #: Device simulation settings.
    device: DeviceConfig = field(default_factory=DeviceConfig)


def policy_supports_fleet(policy: Policy, use_battery: bool) -> bool:
    """Whether the fleet engine can run ``policy`` end to end.

    Open-loop campaigns work for every policy (the array path falls back to
    the policy's own scalar allocator when needed); closed-loop campaigns
    additionally require a closed-form consumption curve for the battery
    scan.
    """
    if not use_battery:
        return True
    try:
        policy.consumption_curve()
    except (NotImplementedError, ConsumptionCurveError):
        return False
    return True


class FleetResult:
    """Results of one fleet run: a (scenario x policy) grid of campaigns."""

    def __init__(
        self,
        scenario_labels: Sequence[str],
        policies: Optional[Sequence[Policy]] = None,
        grid: Sequence[Sequence[CampaignResult]] = (),
        scan: Optional[BatteryScanResult] = None,
        trace_hours: int = 0,
        policy_names: Optional[Sequence[str]] = None,
        alphas: Optional[Sequence[float]] = None,
    ) -> None:
        self.scenario_labels = list(scenario_labels)
        if policies is not None:
            self.policy_names = [policy.name for policy in policies]
            self.alphas = [policy.alpha for policy in policies]
        else:
            # Reconstructed results (e.g. streamed back from the service)
            # carry names and alphas directly, no Policy objects in sight.
            if policy_names is None or alphas is None:
                raise ValueError(
                    "need either policies or (policy_names, alphas)"
                )
            self.policy_names = list(policy_names)
            self.alphas = [float(alpha) for alpha in alphas]
        self._grid = [list(row) for row in grid]
        #: Battery trajectories of the underlying scan (closed loop only).
        self.scan = scan
        self.trace_hours = trace_hours
        #: Wall-clock seconds per pipeline phase (harvest, scan_settle,
        #: cell_solve, merge, ...), filled in by :meth:`FleetCampaign.run`
        #: and the sharded runner; empty when nothing instrumented it.
        #: Deliberately not part of :meth:`meta_payload` -- the wire format
        #: is unchanged; the service ships it via ``CampaignResponse``.
        self.phase_timings: Dict[str, float] = {}

    @property
    def num_scenarios(self) -> int:
        """Number of swept harvest scenarios S."""
        return len(self.scenario_labels)

    @property
    def num_policies(self) -> int:
        """Number of swept policies P."""
        return len(self.policy_names)

    @property
    def num_cells(self) -> int:
        """Total number of simulated campaigns (S x P)."""
        return self.num_scenarios * self.num_policies

    def result(
        self, policy: Union[int, str], scenario_index: int = 0
    ) -> CampaignResult:
        """Campaign result of one cell, by policy index or name.

        Name lookup refuses ambiguous fleets (the same policy name at
        several alphas); address those cells by index instead.
        """
        if isinstance(policy, str):
            if self.policy_names.count(policy) > 1:
                raise ValueError(
                    f"policy name {policy!r} appears "
                    f"{self.policy_names.count(policy)} times in this fleet; "
                    "use the policy index"
                )
            policy = self.policy_names.index(policy)
        return self._grid[scenario_index][policy]

    def results(self, scenario_index: int = 0) -> Dict[str, CampaignResult]:
        """One scenario row as a name-keyed mapping (like ``run_many``).

        Mirrors ``HarvestingCampaign.run_many`` semantics, including its
        collapse of duplicate policy names (later entries win); use
        :meth:`result` with indices for fleets that repeat names.
        """
        return {
            name: result
            for name, result in zip(
                self.policy_names, self._grid[scenario_index]
            )
        }

    def __iter__(self):
        for scenario_index, row in enumerate(self._grid):
            for policy_index, result in enumerate(row):
                yield scenario_index, policy_index, result

    def cell_summaries(self) -> List[Dict[str, Any]]:
        """Scalar per-cell summaries (one dict per grid cell, grid order).

        This is the ``GET /campaign/<id>`` summary payload and the row
        source for fleet report tables; the full per-period columns travel
        separately via :meth:`cell_payloads`.
        """
        summaries = []
        for scenario_index, policy_index, result in self:
            battery = result.battery_charge_j
            summaries.append({
                "scenario": self.scenario_labels[scenario_index],
                "policy": result.policy_name,
                "alpha": float(result.alpha),
                "periods": len(result),
                "mean_objective": result.mean_objective,
                "mean_expected_accuracy": result.mean_expected_accuracy,
                "active_hours": result.total_active_time_s / 3600.0,
                "energy_j": result.total_energy_consumed_j,
                "recognition_rate": result.overall_recognition_rate,
                "final_battery_j": (
                    None if battery is None else float(battery[-1])
                ),
            })
        return summaries

    # --- wire codec -------------------------------------------------------------
    def meta_payload(self) -> Dict[str, Any]:
        """Grid-shape header of the campaign wire format."""
        return {
            "scenario_labels": list(self.scenario_labels),
            "policy_names": list(self.policy_names),
            "alphas": [float(alpha) for alpha in self.alphas],
            "trace_hours": int(self.trace_hours),
        }

    def cell_payloads(self) -> Iterator[Dict[str, Any]]:
        """One JSON-ready payload per (scenario, policy) cell, in grid order.

        Each payload carries the cell's
        :class:`~repro.simulation.metrics.CampaignColumns` (list-based
        results are packed into columns first) plus its battery trajectory;
        ``repro.service.client campaign columns`` prints them, one line per
        cell after the :meth:`meta_payload` line.
        """
        for scenario_index, policy_index, result in self:
            columns = result.columns
            if columns is None:
                columns = CampaignColumns.from_outcomes(result.outcomes)
            battery = result.battery_charge_j
            yield {
                "scenario_index": scenario_index,
                "policy_index": policy_index,
                "policy_name": result.policy_name,
                "alpha": float(result.alpha),
                "columns": columns.to_json_dict(),
                "battery_charge_j": (
                    None if battery is None else [float(v) for v in battery]
                ),
            }

    def to_binary_frames(self) -> Iterator[bytes]:
        """Stream the campaign as the binary columnar wire format.

        Yields the :data:`CAMPAIGN_BINARY_MAGIC` bytes, one length-prefixed
        JSON meta frame (:meth:`meta_payload` plus ``dtype``, ``codec`` and
        ``num_cells``), then one :func:`encode_cell` record per grid cell.
        Each cell is deflated at most once: a durable campaign's cells hold
        the frames their worker encoded and the journal stores, and any
        other cell keeps the frames it encodes here.
        """
        yield CAMPAIGN_BINARY_MAGIC
        meta = dict(self.meta_payload())
        meta["dtype"] = "<f8"
        meta["codec"] = "zlib"
        meta["num_cells"] = self.num_cells
        yield _binary_frame(json.dumps(meta, separators=(",", ":")).encode("utf-8"))
        for cell in self:
            yield encode_cell(*cell)

    @classmethod
    def from_binary(cls, blob: bytes) -> "FleetResult":
        """Decode one buffered :meth:`to_binary_frames` stream.

        Raises :class:`ValueError`, and only that, on anything malformed:
        a bad magic, truncated frames, a meta or cell header that is not a
        JSON object or lacks a field of the right type, a cell outside the
        grid, or a cell count that disagrees with the meta frame.
        """
        magic = blob[: len(CAMPAIGN_BINARY_MAGIC)]
        if magic != CAMPAIGN_BINARY_MAGIC:
            raise ValueError(
                f"binary campaign stream has bad magic {magic!r}; "
                f"expected {CAMPAIGN_BINARY_MAGIC!r}"
            )
        offset = len(CAMPAIGN_BINARY_MAGIC)
        meta_blob, offset = _read_binary_frame(blob, offset, "meta frame")
        meta = _json_header(meta_blob, "meta frame", {"num_cells": int})
        num_cells = meta["num_cells"]
        if num_cells < 0:
            raise ValueError("malformed binary meta frame: bad num_cells")
        if meta.get("codec") != "zlib":
            raise ValueError(
                f"unsupported binary codec {meta.get('codec')!r} in meta frame"
            )
        cells: List[Cell] = []
        for index in range(num_cells):
            cell, offset = _decode_cell(blob, offset, index, journal=False)
            cells.append(cell)
        if offset != len(blob):
            raise ValueError(
                f"binary campaign stream has {len(blob) - offset} trailing bytes"
            )
        return cls.from_cells(meta, cells)

    @classmethod
    def from_cells(
        cls, meta: Dict[str, Any], cells: Iterable[Cell]
    ) -> "FleetResult":
        """Assemble a grid from a :meth:`meta_payload` and its decoded cells.

        Later cells win on repeated (scenario, policy) ids.  Raises
        :class:`ValueError` on a meta that lacks a field of the right
        type, a cell outside the grid, or a cell left unfilled -- a
        partial grid must not masquerade as a full one.  :attr:`scan` is
        ``None``: battery trajectories live on the cell results.
        """
        _check_fields(meta, "meta frame", _META_FIELDS)
        labels = list(meta["scenario_labels"])
        names = list(meta["policy_names"])
        alphas = meta["alphas"]
        if len(alphas) != len(names) or not all(
            isinstance(alpha, (int, float)) for alpha in alphas
        ):
            raise ValueError("malformed binary meta frame: bad alphas")
        grid: List[List[Optional[CampaignResult]]] = [
            [None] * len(names) for _ in labels
        ]
        for scenario_index, policy_index, result in cells:
            if not (
                0 <= scenario_index < len(labels)
                and 0 <= policy_index < len(names)
            ):
                raise ValueError(
                    f"cell ({scenario_index}, {policy_index}) lies outside "
                    f"the {len(labels)} x {len(names)} campaign grid"
                )
            grid[scenario_index][policy_index] = result
        missing = [
            (scenario_index, policy_index)
            for scenario_index, row in enumerate(grid)
            for policy_index, value in enumerate(row)
            if value is None
        ]
        if missing:
            raise ValueError(f"campaign cells left unfilled: {missing}")
        return cls(
            scenario_labels=labels,
            grid=grid,
            scan=None,
            trace_hours=meta["trace_hours"],
            policy_names=names,
            alphas=[float(alpha) for alpha in alphas],
        )


class FleetCampaign:
    """Runs grids of (scenario x policy) campaigns through the array engine.

    Parameters
    ----------
    scenarios:
        One :class:`HarvestScenario` or a sequence of scenario variants
        (e.g. different wearable exposure factors); every policy runs
        against every scenario.
    config:
        Campaign settings shared by all cells (battery, device simulation).
    scenario_labels:
        Optional display names for the scenario axis.
    """

    def __init__(
        self,
        scenarios: Union[HarvestScenario, Sequence[HarvestScenario]],
        config: Optional[CampaignConfig] = None,
        scenario_labels: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(scenarios, HarvestScenario):
            scenarios = [scenarios]
        if not scenarios:
            raise ValueError("need at least one harvest scenario")
        self.scenarios = list(scenarios)
        self.config = config or CampaignConfig()
        if scenario_labels is None:
            scenario_labels = [f"S{index}" for index in range(len(self.scenarios))]
        if len(scenario_labels) != len(self.scenarios):
            raise ValueError(
                f"{len(scenario_labels)} labels for {len(self.scenarios)} scenarios"
            )
        self.scenario_labels = list(scenario_labels)

    # -----------------------------------------------------------------------------
    def _harvest_matrix(self, trace: SolarTrace) -> np.ndarray:
        """(H, S) harvested energy per period for every scenario."""
        columns = [
            [scenario.harvested_energy_j(hour.ghi_w_per_m2) for hour in trace]
            for scenario in self.scenarios
        ]
        return np.array(columns).T

    def _battery_fleet(self, policies: Sequence[Policy]) -> BatteryScan:
        """One battery-state vector covering every (scenario, policy) cell.

        Device order is scenario-major: ``d = s * P + p``.  Scenarios may
        carry their own battery (capacity, initial charge); the
        per-scenario values spread across that scenario's policy cells.
        """
        num_scenarios = len(self.scenarios)
        num_policies = len(policies)
        capacity = np.repeat(
            [
                scenario.battery_capacity_j
                if scenario.battery_capacity_j is not None
                else self.config.battery_capacity_j
                for scenario in self.scenarios
            ],
            num_policies,
        )
        initial = np.repeat(
            [
                scenario.battery_initial_j
                if scenario.battery_initial_j is not None
                else self.config.battery_initial_j
                for scenario in self.scenarios
            ],
            num_policies,
        )
        return BatteryScan(
            num_devices=num_scenarios * num_policies,
            capacity_j=capacity,
            initial_charge_j=initial,
            target_soc=self.config.battery_target_soc,
            max_draw_j=self.config.battery_max_draw_j,
        )

    def _battery_scan(
        self, policies: Sequence[Policy], harvest: np.ndarray
    ) -> BatteryScanResult:
        """Run the lockstep battery scan over every (scenario, policy) cell."""
        curves = [policy.consumption_curve() for policy in policies]
        stacked = StackedConsumptionCurves(curves * len(self.scenarios))
        per_device_harvest = np.repeat(harvest, len(policies), axis=1)
        return self._battery_fleet(policies).run(per_device_harvest, stacked)

    def _plan_scan(
        self, policies: Sequence[PlanningPolicy], harvest: np.ndarray
    ) -> BatteryScanResult:
        """Run one lockstep planning scan over a same-planner policy group.

        All policies in the group share one planner configuration
        (:attr:`PlanningPolicy.planner_key`); forecasts may differ per
        cell -- they are data, stacked into one (H, W, D) tensor.
        """
        num_policies = len(policies)
        horizon = policies[0].horizon_periods
        curves = [policy.consumption_curve() for policy in policies]
        stacked = StackedConsumptionCurves(curves * len(self.scenarios))
        num_periods = harvest.shape[0]
        num_devices = len(self.scenarios) * num_policies
        forecast = np.empty((num_periods, horizon, num_devices))
        for scenario_index in range(len(self.scenarios)):
            column = harvest[:, scenario_index]
            for policy_index, policy in enumerate(policies):
                device = scenario_index * num_policies + policy_index
                forecast[:, :, device] = policy.forecast_provider().matrix(
                    column, horizon
                )
        per_device_harvest = np.repeat(harvest, num_policies, axis=1)
        scan = PlanScan(policies[0].build_planner(), self._battery_fleet(policies))
        return scan.run(per_device_harvest, forecast, stacked)

    def run(
        self,
        policies: Sequence[Policy],
        trace: SolarTrace,
        profiler: Optional[PhaseProfiler] = None,
    ) -> FleetResult:
        """Simulate every (scenario, policy) cell over ``trace``.

        ``profiler`` accumulates per-phase wall-clock seconds (a private
        one is used when omitted); the breakdown lands on the returned
        result's :attr:`FleetResult.phase_timings` either way, so
        ``repro fleet --profile`` and the service's per-phase histograms
        cost one ``perf_counter`` pair per phase, not a flag.
        """
        policies = list(policies)
        if not policies:
            raise ValueError("need at least one policy")
        if profiler is None:
            profiler = PhaseProfiler()
        with profiler.phase("harvest"):
            harvest = self._harvest_matrix(trace)                  # (H, S)

        # Closed-loop budgets: harvest-following cells share one lockstep
        # battery scan; forecast-driven (planning) cells run one PlanScan
        # per planner group.  cell_traces maps (scenario, policy) to that
        # cell's (budgets, battery trajectory).
        scan: Optional[BatteryScanResult] = None
        cell_traces: Dict[tuple, tuple] = {}
        if self.config.use_battery:
            with profiler.phase("scan_settle"):
                base = [
                    (index, policy)
                    for index, policy in enumerate(policies)
                    if not isinstance(policy, PlanningPolicy)
                ]
                groups: Dict[tuple, List[tuple]] = {}
                for index, policy in enumerate(policies):
                    if isinstance(policy, PlanningPolicy):
                        groups.setdefault(policy.planner_key, []).append(
                            (index, policy)
                        )
                if base:
                    base_scan = self._battery_scan(
                        [p for _, p in base], harvest
                    )
                    if not groups:
                        scan = base_scan  # whole-fleet scan, as before
                    self._record_cell_traces(cell_traces, base, base_scan)
                for members in groups.values():
                    group_scan = self._plan_scan(
                        [p for _, p in members], harvest
                    )
                    self._record_cell_traces(cell_traces, members, group_scan)

        grid: List[List[CampaignResult]] = []
        with profiler.phase("cell_solve"):
            for scenario_index in range(len(self.scenarios)):
                row: List[CampaignResult] = []
                for policy_index, policy in enumerate(policies):
                    if self.config.use_battery:
                        budgets, battery = cell_traces[
                            (scenario_index, policy_index)
                        ]
                    else:
                        budgets = harvest[:, scenario_index]
                        battery = None
                    policy.reset()
                    arrays = policy.allocate_arrays(budgets)
                    simulator = DeviceSimulator(self.config.device)
                    columns = simulator.run_periods_batch(arrays, budgets)
                    row.append(
                        CampaignResult.from_columns(
                            policy.name,
                            policy.alpha,
                            columns,
                            battery_charge_j=battery,
                        )
                    )
                grid.append(row)
        with profiler.phase("merge"):
            result = FleetResult(
                scenario_labels=self.scenario_labels,
                policies=policies,
                grid=grid,
                scan=scan,
                trace_hours=len(trace),
            )
        result.phase_timings = profiler.as_dict()
        return result

    def _record_cell_traces(
        self,
        cell_traces: Dict[tuple, tuple],
        members: Sequence[tuple],
        scan: BatteryScanResult,
    ) -> None:
        """Map a sub-fleet scan's device columns back to grid cells.

        ``members`` is the scan's policy axis as (grid policy index,
        policy) pairs; the scan's device order is scenario-major over that
        axis.
        """
        width = len(members)
        for scenario_index in range(len(self.scenarios)):
            for column, (policy_index, _) in enumerate(members):
                device = scenario_index * width + column
                cell_traces[(scenario_index, policy_index)] = (
                    scan.budgets_j[:, device],
                    scan.charge_j[:, device],
                )


__all__ = [
    "CAMPAIGN_BINARY_MAGIC",
    "CampaignConfig",
    "Cell",
    "FleetCampaign",
    "FleetResult",
    "cell_ids",
    "decode_cells",
    "encode_cell",
    "encode_cells",
    "policy_supports_fleet",
]
