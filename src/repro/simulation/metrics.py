"""Metrics collected by the trace-driven device simulation.

Two representations coexist:

* :class:`PeriodOutcome` -- one object per simulated period, convenient for
  inspection and the scalar reference loop;
* :class:`CampaignColumns` -- the same figures as a struct-of-arrays, which
  is what the vectorized fleet engine produces: a month-long x many-policy
  study stores a handful of arrays per campaign instead of allocating one
  outcome object per hour.

:class:`CampaignResult` accepts either; columnar results materialise their
:class:`PeriodOutcome` list lazily, only when ``.outcomes`` is touched.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: zlib level of every deflated frame: column payloads, battery
#: trajectories, journal and wire alike.  Level 1 deflates a month-long
#: study ~3x faster than level 6 for ~5% more bytes; inflating does not
#: depend on the level, so frames written at any level stay readable.
ZLIB_LEVEL = 1

#: Column layout of the binary frame: (field name, kind) where kind is
#: ``"int"`` (``<i8``) or ``"float"`` (``<f8``).
_BINARY_COLUMN_LAYOUT = (
    ("period_index", "int"),
    ("energy_budget_j", "float"),
    ("energy_consumed_j", "float"),
    ("active_time_s", "float"),
    ("off_time_s", "float"),
    ("windows_total", "int"),
    ("windows_observed", "int"),
    ("windows_correct", "float"),
    ("objective_value", "float"),
    ("expected_accuracy", "float"),
)


@dataclass(frozen=True)
class PeriodOutcome:
    """What actually happened during one simulated activity period."""

    period_index: int
    energy_budget_j: float
    energy_consumed_j: float
    active_time_s: float
    off_time_s: float
    windows_total: int
    windows_observed: int
    windows_correct: float
    objective_value: float
    expected_accuracy: float
    time_by_design_point: Dict[str, float] = field(default_factory=dict)

    @property
    def observed_fraction(self) -> float:
        """Fraction of the user's activity windows the device observed."""
        if self.windows_total == 0:
            return 0.0
        return self.windows_observed / self.windows_total

    @property
    def recognition_rate(self) -> float:
        """Correctly recognised windows over *all* windows (missed count as wrong).

        This is the realised counterpart of the expected accuracy metric: an
        off device misses activities, so its recognition rate drops even if
        the classifier would have been accurate.
        """
        if self.windows_total == 0:
            return 0.0
        return self.windows_correct / self.windows_total

    @property
    def budget_utilisation(self) -> float:
        """Consumed energy as a fraction of the granted budget."""
        if self.energy_budget_j <= 0:
            return 0.0
        return self.energy_consumed_j / self.energy_budget_j


@dataclass(frozen=True)
class CampaignColumns:
    """Struct-of-arrays view of a campaign's per-period outcomes.

    Every field mirrors the same-named :class:`PeriodOutcome` attribute with
    one entry per period.  ``times_by_design_point_s`` keeps the per-DP time
    matrix (periods x design points) so :meth:`to_outcomes` can rebuild the
    per-period allocation dictionaries on demand.
    """

    period_index: np.ndarray            #: (H,) int
    energy_budget_j: np.ndarray         #: (H,)
    energy_consumed_j: np.ndarray       #: (H,)
    active_time_s: np.ndarray           #: (H,)
    off_time_s: np.ndarray              #: (H,)
    windows_total: np.ndarray           #: (H,) int
    windows_observed: np.ndarray        #: (H,) int
    windows_correct: np.ndarray         #: (H,)
    objective_value: np.ndarray         #: (H,)
    expected_accuracy: np.ndarray       #: (H,)
    design_point_names: Tuple[str, ...] = ()
    times_by_design_point_s: Optional[np.ndarray] = None  #: (H, N)

    def __len__(self) -> int:
        return int(self.period_index.size)

    @property
    def num_periods(self) -> int:
        """Number of recorded periods H."""
        return len(self)

    def to_outcomes(self) -> List[PeriodOutcome]:
        """Materialise one :class:`PeriodOutcome` per period."""
        outcomes = []
        times = self.times_by_design_point_s
        for row in range(len(self)):
            time_by_dp: Dict[str, float] = {}
            if times is not None:
                for name, t in zip(self.design_point_names, times[row]):
                    if t > 0:
                        time_by_dp[name] = float(t)
            outcomes.append(
                PeriodOutcome(
                    period_index=int(self.period_index[row]),
                    energy_budget_j=float(self.energy_budget_j[row]),
                    energy_consumed_j=float(self.energy_consumed_j[row]),
                    active_time_s=float(self.active_time_s[row]),
                    off_time_s=float(self.off_time_s[row]),
                    windows_total=int(self.windows_total[row]),
                    windows_observed=int(self.windows_observed[row]),
                    windows_correct=float(self.windows_correct[row]),
                    objective_value=float(self.objective_value[row]),
                    expected_accuracy=float(self.expected_accuracy[row]),
                    time_by_design_point=time_by_dp,
                )
            )
        return outcomes

    # --- codecs ---------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """The columns as JSON lists: what ``campaign columns`` prints.

        Python's ``json`` serialises floats with shortest round-trip repr,
        so the printed values are the float64 columns exactly.
        """
        payload: Dict[str, object] = {
            "period_index": [int(v) for v in self.period_index],
            "energy_budget_j": [float(v) for v in self.energy_budget_j],
            "energy_consumed_j": [float(v) for v in self.energy_consumed_j],
            "active_time_s": [float(v) for v in self.active_time_s],
            "off_time_s": [float(v) for v in self.off_time_s],
            "windows_total": [int(v) for v in self.windows_total],
            "windows_observed": [int(v) for v in self.windows_observed],
            "windows_correct": [float(v) for v in self.windows_correct],
            "objective_value": [float(v) for v in self.objective_value],
            "expected_accuracy": [float(v) for v in self.expected_accuracy],
        }
        if self.times_by_design_point_s is not None:
            payload["design_point_names"] = list(self.design_point_names)
            payload["times_by_design_point_s"] = [
                [float(v) for v in row] for row in self.times_by_design_point_s
            ]
        return payload

    def to_bytes(self) -> bytes:
        """Encode as one self-describing binary frame.

        Layout: a little-endian ``uint64`` header length, a UTF-8 JSON
        header (dtype, codec, period count, design point names), then the
        column buffers back to back in :data:`_BINARY_COLUMN_LAYOUT` order
        -- integers as ``<i8``, floats as ``<f8`` -- followed by the
        optional per-DP time matrix, all zlib-deflated as one payload.
        The frame is lossless, and zlib at a fixed level is
        deterministic, so it round-trips byte-exactly through
        :meth:`from_bytes`.
        """
        header: Dict[str, object] = {
            "version": 1,
            "dtype": "<f8",
            "codec": "zlib",
            "num_periods": len(self),
        }
        if self.times_by_design_point_s is not None:
            header["design_point_names"] = list(self.design_point_names)
        header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
        columns = [
            np.ascontiguousarray(
                getattr(self, name), dtype="<i8" if kind == "int" else "<f8"
            )
            for name, kind in _BINARY_COLUMN_LAYOUT
        ]
        if self.times_by_design_point_s is not None:
            columns.append(
                np.ascontiguousarray(self.times_by_design_point_s, dtype="<f8")
            )
        return b"".join((
            struct.pack("<Q", len(header_blob)),
            header_blob,
            zlib.compress(b"".join(columns), ZLIB_LEVEL),
        ))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CampaignColumns":
        """Decode a frame produced by :meth:`to_bytes`.

        Raises :class:`ValueError` on truncated or malformed frames, and
        on any dtype or codec but ``<f8`` and ``zlib``.
        """
        if len(blob) < 8:
            raise ValueError("binary columns frame truncated: missing header length")
        (header_len,) = struct.unpack_from("<Q", blob, 0)
        if len(blob) < 8 + header_len:
            raise ValueError("binary columns frame truncated: incomplete header")
        try:
            header = json.loads(blob[8:8 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"malformed binary columns header: {error}") from error
        if not isinstance(header, dict):
            raise ValueError("malformed binary columns header: not an object")
        version = header.get("version")
        if version != 1:
            raise ValueError(f"unsupported binary columns version {version!r}")
        dtype = header.get("dtype")
        if dtype != "<f8":
            raise ValueError(f"unsupported binary dtype {dtype!r} in header")
        codec = header.get("codec")
        if codec != "zlib":
            raise ValueError(f"unsupported binary codec {codec!r} in header")
        num_periods = header.get("num_periods")
        if not isinstance(num_periods, int) or num_periods < 0:
            raise ValueError("malformed binary columns header: bad num_periods")
        names = header.get("design_point_names", [])
        if not isinstance(names, list):
            raise ValueError(
                "malformed binary columns header: bad design_point_names"
            )
        payload = inflate(blob[8 + header_len:], "binary columns frame")
        offset = 0

        def take(wire_dtype: str, count: int) -> np.ndarray:
            nonlocal offset
            nbytes = 8 * count
            if len(payload) < offset + nbytes:
                raise ValueError(
                    "binary columns frame truncated: "
                    f"expected {nbytes} bytes at payload offset {offset}"
                )
            array = np.frombuffer(
                payload, dtype=wire_dtype, count=count, offset=offset
            )
            offset += nbytes
            return array

        fields: Dict[str, np.ndarray] = {}
        for name, kind in _BINARY_COLUMN_LAYOUT:
            if kind == "int":
                fields[name] = take("<i8", num_periods).astype(int)
            else:
                fields[name] = take("<f8", num_periods).astype(float)
        times: Optional[np.ndarray] = None
        if names:
            flat = take("<f8", num_periods * len(names)).astype(float)
            times = flat.reshape(num_periods, len(names))
        if offset != len(payload):
            raise ValueError(
                f"binary columns frame has {len(payload) - offset} trailing bytes"
            )
        return cls(
            design_point_names=tuple(names),
            times_by_design_point_s=times,
            **fields,
        )

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[PeriodOutcome]) -> "CampaignColumns":
        """Pack a list of outcomes into columns (per-DP times are dropped)."""
        return cls(
            period_index=np.array([o.period_index for o in outcomes], dtype=int),
            energy_budget_j=np.array([o.energy_budget_j for o in outcomes]),
            energy_consumed_j=np.array([o.energy_consumed_j for o in outcomes]),
            active_time_s=np.array([o.active_time_s for o in outcomes]),
            off_time_s=np.array([o.off_time_s for o in outcomes]),
            windows_total=np.array([o.windows_total for o in outcomes], dtype=int),
            windows_observed=np.array(
                [o.windows_observed for o in outcomes], dtype=int
            ),
            windows_correct=np.array([o.windows_correct for o in outcomes]),
            objective_value=np.array([o.objective_value for o in outcomes]),
            expected_accuracy=np.array([o.expected_accuracy for o in outcomes]),
        )


def deflate_f8(array: np.ndarray) -> bytes:
    """One array as a zlib-deflated ``<f8`` buffer (battery frames)."""
    return zlib.compress(np.ascontiguousarray(array, dtype="<f8"), ZLIB_LEVEL)


def inflate(frame: bytes, what: str) -> bytes:
    """Inflate one deflated payload that must fill ``frame`` exactly.

    Raises :class:`ValueError` when the deflate stream is corrupt, ends
    early, or is followed by bytes inside the frame, which
    ``zlib.decompress`` would silently ignore.
    """
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(frame)
    except zlib.error as error:
        raise ValueError(f"{what} truncated or corrupt: {error}") from error
    if not inflater.eof:
        raise ValueError(f"{what} truncated: the deflate stream ends early")
    if inflater.unused_data:
        raise ValueError(
            f"{what} has {len(inflater.unused_data)} trailing bytes"
        )
    return payload


#: A cell's float64/zlib frames: (columns frame, battery frame or None).
WireFrames = Tuple[bytes, Optional[bytes]]


class CampaignResult:
    """Aggregate result of running one policy over a whole budget trace.

    Holds either an appendable list of :class:`PeriodOutcome` objects (the
    scalar reference path) or a :class:`CampaignColumns` bundle (the fleet
    path); aggregates are computed from whichever is present.  Accessing
    :attr:`outcomes` on a columnar result materialises the objects lazily.
    """

    def __init__(
        self,
        policy_name: str,
        alpha: float,
        outcomes: Optional[Sequence[PeriodOutcome]] = None,
        columns: Optional[CampaignColumns] = None,
        battery_charge_j: Optional[np.ndarray] = None,
    ) -> None:
        if outcomes is not None and columns is not None:
            raise ValueError("provide either outcomes or columns, not both")
        self.policy_name = policy_name
        self.alpha = alpha
        self.columns = columns
        #: Battery state-of-charge trajectory (periods + 1 entries) for
        #: closed-loop campaigns; None for open-loop runs.
        self.battery_charge_j = (
            None if battery_charge_j is None
            else np.asarray(battery_charge_j, dtype=float)
        )
        self._outcomes: Optional[List[PeriodOutcome]] = (
            list(outcomes) if outcomes is not None
            else ([] if columns is None else None)
        )
        #: Encoded frames held for reuse (see :meth:`wire_frames`).
        self._wire_frames: Optional[WireFrames] = None

    @classmethod
    def from_columns(
        cls,
        policy_name: str,
        alpha: float,
        columns: CampaignColumns,
        battery_charge_j: Optional[np.ndarray] = None,
        wire_frames: Optional[WireFrames] = None,
    ) -> "CampaignResult":
        """Wrap a columnar outcome bundle produced by the fleet engine.

        ``wire_frames`` are the bundle's already-encoded frames (e.g. as
        decoded from the campaign journal); :meth:`wire_frames` then
        returns them instead of deflating the columns again.
        """
        result = cls(
            policy_name,
            alpha,
            columns=columns,
            battery_charge_j=battery_charge_j,
        )
        result._wire_frames = wire_frames
        return result

    def wire_frames(self) -> WireFrames:
        """The cell's float64/zlib frames: (columns frame, battery frame).

        The columns frame is :meth:`CampaignColumns.to_bytes`; the battery
        frame is the :func:`deflate_f8` trajectory, or ``None`` for
        open-loop cells.  They are encoded on first use and then held, so
        a cell is deflated once: its cell record
        (:func:`repro.simulation.fleet.encode_cell`) in a worker's shard
        payload, the journal and the columns stream reuse the same bytes.
        """
        if self._wire_frames is None:
            columns = self.columns
            if columns is None:
                columns = CampaignColumns.from_outcomes(self.outcomes)
            battery = self.battery_charge_j
            self._wire_frames = (
                columns.to_bytes(),
                None if battery is None else deflate_f8(battery),
            )
        return self._wire_frames

    @property
    def outcomes(self) -> List[PeriodOutcome]:
        """Per-period outcomes (materialised on first access when columnar)."""
        if self._outcomes is None:
            assert self.columns is not None
            self._outcomes = self.columns.to_outcomes()
        return self._outcomes

    def append(self, outcome: PeriodOutcome) -> None:
        """Record one period's outcome (list-based results only)."""
        if self.columns is not None:
            raise ValueError("columnar campaign results are read-only")
        assert self._outcomes is not None
        self._outcomes.append(outcome)
        self._wire_frames = None  # encoded without this outcome

    def __len__(self) -> int:
        if self.columns is not None:
            return len(self.columns)
        return len(self.outcomes)

    def __repr__(self) -> str:
        return (
            f"CampaignResult(policy_name={self.policy_name!r}, "
            f"alpha={self.alpha!r}, periods={len(self)}, "
            f"columnar={self.columns is not None})"
        )

    # --- aggregates -----------------------------------------------------------------
    @property
    def total_active_time_s(self) -> float:
        """Total active time across the campaign."""
        if self.columns is not None:
            return float(self.columns.active_time_s.sum())
        return float(sum(o.active_time_s for o in self.outcomes))

    @property
    def total_energy_consumed_j(self) -> float:
        """Total energy consumed across the campaign."""
        if self.columns is not None:
            return float(self.columns.energy_consumed_j.sum())
        return float(sum(o.energy_consumed_j for o in self.outcomes))

    @property
    def total_windows_observed(self) -> int:
        """Total activity windows the device observed."""
        if self.columns is not None:
            return int(self.columns.windows_observed.sum())
        return int(sum(o.windows_observed for o in self.outcomes))

    @property
    def total_windows_correct(self) -> float:
        """Total correctly recognised windows."""
        if self.columns is not None:
            return float(self.columns.windows_correct.sum())
        return float(sum(o.windows_correct for o in self.outcomes))

    @property
    def total_windows(self) -> int:
        """Total activity windows that occurred (observed or not)."""
        if self.columns is not None:
            return int(self.columns.windows_total.sum())
        return int(sum(o.windows_total for o in self.outcomes))

    @property
    def mean_expected_accuracy(self) -> float:
        """Mean per-period expected accuracy."""
        if len(self) == 0:
            return 0.0
        if self.columns is not None:
            return float(self.columns.expected_accuracy.mean())
        return float(np.mean([o.expected_accuracy for o in self.outcomes]))

    @property
    def mean_objective(self) -> float:
        """Mean per-period objective value at the campaign's alpha."""
        if len(self) == 0:
            return 0.0
        if self.columns is not None:
            return float(self.columns.objective_value.mean())
        return float(np.mean([o.objective_value for o in self.outcomes]))

    @property
    def overall_recognition_rate(self) -> float:
        """Correct windows over all windows across the whole campaign."""
        total = self.total_windows
        if total == 0:
            return 0.0
        return self.total_windows_correct / total

    def objective_values(self) -> np.ndarray:
        """Per-period objective values."""
        if self.columns is not None:
            return np.array(self.columns.objective_value)
        return np.array([o.objective_value for o in self.outcomes])

    def active_times_s(self) -> np.ndarray:
        """Per-period active times."""
        if self.columns is not None:
            return np.array(self.columns.active_time_s)
        return np.array([o.active_time_s for o in self.outcomes])

    def daily_objective_totals(self, periods_per_day: int = 24) -> np.ndarray:
        """Sum of objective values per day (used for Figure 7 error bars)."""
        values = self.objective_values()
        if values.size == 0:
            return values
        num_days = int(np.ceil(values.size / periods_per_day))
        padded = np.zeros(num_days * periods_per_day)
        padded[: values.size] = values
        return padded.reshape(num_days, periods_per_day).sum(axis=1)

    def summary(self) -> Dict[str, float]:
        """Scalar summary of the campaign (for reports and tests)."""
        return {
            "periods": float(len(self)),
            "total_active_time_s": self.total_active_time_s,
            "total_energy_j": self.total_energy_consumed_j,
            "mean_expected_accuracy": self.mean_expected_accuracy,
            "mean_objective": self.mean_objective,
            "overall_recognition_rate": self.overall_recognition_rate,
            "windows_observed": float(self.total_windows_observed),
            "windows_total": float(self.total_windows),
        }


def compare_campaigns(
    reference: CampaignResult,
    baseline: CampaignResult,
    periods_per_day: int = 24,
) -> Dict[str, float]:
    """Normalised comparison of two campaigns (reference / baseline).

    Ratios are computed on per-day objective totals, mirroring how Figure 7
    reports the mean and range of REAP's improvement over each static DP
    across the days of the month.  Days where the baseline total is zero are
    skipped.
    """
    reference_days = reference.daily_objective_totals(periods_per_day)
    baseline_days = baseline.daily_objective_totals(periods_per_day)
    mask = baseline_days > 1e-12
    if not np.any(mask):
        return {"mean_ratio": float("nan"), "min_ratio": float("nan"),
                "max_ratio": float("nan"), "days_compared": 0.0}
    ratios = reference_days[mask] / baseline_days[mask]
    return {
        "mean_ratio": float(ratios.mean()),
        "min_ratio": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "days_compared": float(ratios.size),
    }


__all__ = [
    "CampaignColumns",
    "CampaignResult",
    "PeriodOutcome",
    "ZLIB_LEVEL",
    "compare_campaigns",
    "deflate_f8",
    "inflate",
]
