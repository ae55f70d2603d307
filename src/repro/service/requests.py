"""Typed request/response contract of the allocation service.

The service speaks one message pair: an :class:`AllocationRequest` describes
a single REAP decision (design-point set, energy budget, alpha, period, off
power) and an :class:`AllocationResponse` carries the optimum back together
with service metadata (cache hit, coalesced batch size).  Both sides are
frozen dataclasses with lossless JSON codecs, so the stdlib HTTP front-end
(:mod:`repro.service.server`) and the Python client
(:mod:`repro.service.client`) share one wire format with no third-party
dependencies.

Canonical problem encoding
--------------------------
Every request has a *canonical key*: the order-independent hashable tuple
defined by :meth:`repro.core.problem.ReapProblem.canonical_key`.  Two
requests that permute the same design points encode identically; requests
that differ in any solver-relevant value (budget, alpha, period, off power,
any design-point field) never collide, because floats enter the key exactly
(no rounding).  The key's engine-level prefix equals
:meth:`repro.core.batch.BatchAllocator.engine_key`, which is how the
micro-batcher groups concurrent requests onto shared batch engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.design_point import (
    DesignPoint,
    canonical_design_key,
    validate_design_points,
)
from repro.core.objective import validate_alpha
from repro.core.problem import ReapProblem
from repro.data.paper_constants import ACTIVITY_PERIOD_S, OFF_STATE_POWER_W


@dataclass(frozen=True)
class AllocationRequest:
    """One REAP allocation decision to be served.

    ``design_points`` may be left ``None``, meaning "the server's default
    set" (the Table 2 points unless the service was configured otherwise);
    the service resolves the default before keying its cache, so a request
    spelling the default set out explicitly and one leaving it ``None`` hit
    the same cache entry.
    """

    energy_budget_j: float
    alpha: float = 1.0
    design_points: Optional[Tuple[DesignPoint, ...]] = None
    period_s: float = ACTIVITY_PERIOD_S
    off_power_w: float = OFF_STATE_POWER_W

    def __post_init__(self) -> None:
        if self.energy_budget_j < 0:
            raise ValueError(
                f"energy budget must be non-negative, got {self.energy_budget_j}"
            )
        validate_alpha(self.alpha)
        if self.period_s <= 0:
            raise ValueError(f"period must be positive, got {self.period_s}")
        if self.off_power_w < 0:
            raise ValueError(
                f"off-state power must be non-negative, got {self.off_power_w}"
            )
        if self.design_points is not None:
            validate_design_points(self.design_points)
            object.__setattr__(self, "design_points", tuple(self.design_points))

    # --- canonical encoding ----------------------------------------------------
    @property
    def is_resolved(self) -> bool:
        """Whether the design-point set has been filled in."""
        return self.design_points is not None

    def resolve(self, default_points: Sequence[DesignPoint]) -> "AllocationRequest":
        """Fill an unset design-point field with the service default."""
        if self.design_points is not None:
            return self
        return replace(self, design_points=tuple(default_points))

    @property
    def engine_key(self) -> tuple:
        """Engine-level key: which :class:`BatchAllocator` can serve this.

        Equals :meth:`repro.core.batch.BatchAllocator.engine_key` of a
        matching engine.
        """
        if self.design_points is None:
            raise ValueError(
                "request has no design points; resolve() it against the "
                "service defaults first"
            )
        return (
            canonical_design_key(self.design_points),
            float(self.period_s),
            float(self.off_power_w),
        )

    @property
    def cache_key(self) -> tuple:
        """Canonical problem encoding (the service result-cache key)."""
        return self.engine_key + (float(self.energy_budget_j), float(self.alpha))

    def to_problem(self) -> ReapProblem:
        """Lower to the scalar :class:`ReapProblem` (reference semantics)."""
        if self.design_points is None:
            raise ValueError(
                "request has no design points; resolve() it against the "
                "service defaults first"
            )
        return ReapProblem(
            design_points=self.design_points,
            energy_budget_j=self.energy_budget_j,
            period_s=self.period_s,
            alpha=self.alpha,
            off_power_w=self.off_power_w,
        )

    # --- JSON codec -------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-ready dictionary (the wire format)."""
        payload: Dict[str, Any] = {
            "energy_budget_j": self.energy_budget_j,
            "alpha": self.alpha,
            "period_s": self.period_s,
            "off_power_w": self.off_power_w,
        }
        if self.design_points is not None:
            payload["design_points"] = [
                {"name": dp.name, "accuracy": dp.accuracy, "power_w": dp.power_w}
                for dp in self.design_points
            ]
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "AllocationRequest":
        """Decode the wire format (raises ``ValueError`` on bad payloads)."""
        if "energy_budget_j" not in payload:
            raise ValueError("allocation request needs an 'energy_budget_j' field")
        points: Optional[Tuple[DesignPoint, ...]] = None
        raw_points = payload.get("design_points")
        if raw_points is not None:
            points = tuple(
                DesignPoint(
                    name=str(entry["name"]),
                    accuracy=float(entry["accuracy"]),
                    power_w=float(entry["power_w"]),
                )
                for entry in raw_points
            )
        return cls(
            energy_budget_j=float(payload["energy_budget_j"]),
            alpha=float(payload.get("alpha", 1.0)),
            design_points=points,
            period_s=float(payload.get("period_s", ACTIVITY_PERIOD_S)),
            off_power_w=float(payload.get("off_power_w", OFF_STATE_POWER_W)),
        )


@dataclass(frozen=True)
class AllocationResponse:
    """The served optimum plus service metadata.

    ``times_s`` maps design-point names to active seconds (zero entries are
    kept so clients see the full schedule).  ``cache_hit`` and
    ``batch_size`` describe how the service produced the answer: whether it
    came straight from the result cache, and how many concurrent requests
    shared the batched solve that computed it.
    """

    times_s: Dict[str, float]
    off_time_s: float
    objective: float
    expected_accuracy: float
    active_time_s: float
    energy_j: float
    budget_feasible: bool
    energy_budget_j: float
    alpha: float
    cache_hit: bool = False
    batch_size: int = 1

    def marked_cache_hit(self) -> "AllocationResponse":
        """Copy of this response flagged as served from the cache."""
        return replace(self, cache_hit=True)

    # --- constructor from engine results ---------------------------------------
    @classmethod
    def from_columns(
        cls,
        names: Sequence[str],
        period_s: float,
        times_s: np.ndarray,
        active_time_s: np.ndarray,
        objective: np.ndarray,
        expected_accuracy: np.ndarray,
        energy_j: np.ndarray,
        feasible: np.ndarray,
        budgets_j: np.ndarray,
        alphas: Sequence[float],
        batch_size: int,
    ) -> List["AllocationResponse"]:
        """One response per row of a batch solve's per-request columns.

        Row ``i`` of every column (``times_s`` is ``(rows, len(names))``)
        belongs to request ``i``, which solved at ``alphas[i]``.  Each
        column becomes Python floats in one ``tolist`` call rather than
        element by element: at a few hundred requests, building the
        responses costs more than the vectorized solve itself.
        """
        period = float(period_s)
        return [
            cls(
                times_s=dict(zip(names, times)),
                off_time_s=max(0.0, period - active),
                objective=value,
                expected_accuracy=accuracy,
                active_time_s=active,
                energy_j=energy,
                budget_feasible=ok,
                energy_budget_j=budget,
                alpha=float(alpha),
                batch_size=batch_size,
            )
            for times, active, value, accuracy, energy, ok, budget, alpha in zip(
                times_s.tolist(),
                active_time_s.tolist(),
                objective.tolist(),
                expected_accuracy.tolist(),
                energy_j.tolist(),
                feasible.tolist(),
                budgets_j.tolist(),
                alphas,
            )
        ]

    # --- JSON codec -------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-ready dictionary (the wire format)."""
        return {
            "times_s": dict(self.times_s),
            "off_time_s": self.off_time_s,
            "objective": self.objective,
            "expected_accuracy": self.expected_accuracy,
            "active_time_s": self.active_time_s,
            "energy_j": self.energy_j,
            "budget_feasible": self.budget_feasible,
            "energy_budget_j": self.energy_budget_j,
            "alpha": self.alpha,
            "cache_hit": self.cache_hit,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "AllocationResponse":
        """Decode the wire format."""
        return cls(
            times_s={
                str(name): float(t) for name, t in payload["times_s"].items()
            },
            off_time_s=float(payload["off_time_s"]),
            objective=float(payload["objective"]),
            expected_accuracy=float(payload["expected_accuracy"]),
            active_time_s=float(payload["active_time_s"]),
            energy_j=float(payload["energy_j"]),
            budget_feasible=bool(payload["budget_feasible"]),
            energy_budget_j=float(payload["energy_budget_j"]),
            alpha=float(payload["alpha"]),
            cache_hit=bool(payload.get("cache_hit", False)),
            batch_size=int(payload.get("batch_size", 1)),
        )


#: Campaign fields that journals written by older servers, and older
#: clients, still send: accepted and ignored whatever their value.
_RETIRED_CAMPAIGN_FIELDS = frozenset({"backend"})


@dataclass(frozen=True)
class CampaignRequest:
    """One fleet study to be run by the service's campaign workers.

    Mirrors the surface of the ``repro fleet`` command: every
    (exposure-factor scenario x policy) cell of the grid is simulated over
    one synthetic solar trace, with a REAP policy plus the named static
    baselines at every alpha.  The server lowers this to
    :func:`repro.service.shard.run_sharded_campaign` on its worker pool,
    so a remote campaign equals the local
    :class:`~repro.simulation.fleet.FleetCampaign` run to floating-point
    round-off.
    """

    alphas: Tuple[float, ...] = (1.0, 2.0)
    baselines: Tuple[str, ...] = ("DP1", "DP3", "DP5")
    exposure_factors: Tuple[float, ...] = (0.032,)
    month: int = 9
    seed: int = 2015
    hours: Optional[int] = None
    use_battery: bool = True
    #: Forecast-driven planning policies added at every alpha: each entry
    #: is a planner kind (``"horizon"`` / ``"mpc"``); the lookahead and
    #: forecast settings below are shared by all of them.
    planners: Tuple[str, ...] = ()
    horizon_periods: int = 24
    forecast: str = "perfect"
    forecast_noise: float = 0.2
    forecast_seed: int = 7

    def __post_init__(self) -> None:
        # Imported here (not module level) to keep the allocation-only
        # service path free of the planning stack at import time.
        from repro.planning import validate_forecast_kind, validate_planner_kind

        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(
            self, "baselines", tuple(str(name) for name in self.baselines)
        )
        object.__setattr__(
            self,
            "exposure_factors",
            tuple(float(f) for f in self.exposure_factors),
        )
        object.__setattr__(
            self, "planners", tuple(str(name) for name in self.planners)
        )
        if not self.alphas:
            raise ValueError("campaign needs at least one alpha")
        for alpha in self.alphas:
            validate_alpha(alpha)
        if not self.exposure_factors:
            raise ValueError("campaign needs at least one exposure factor")
        if any(factor <= 0 for factor in self.exposure_factors):
            raise ValueError(
                f"exposure factors must be positive, got {self.exposure_factors}"
            )
        if not 1 <= int(self.month) <= 12:
            raise ValueError(f"month must be in [1, 12], got {self.month}")
        if self.hours is not None and self.hours < 1:
            raise ValueError(f"hours must be at least 1, got {self.hours}")
        for planner in self.planners:
            validate_planner_kind(planner)
        if self.planners and not self.use_battery:
            raise ValueError(
                "planning policies need a battery to plan against; drop the "
                "planners or run the campaign closed-loop (use_battery=True)"
            )
        validate_forecast_kind(self.forecast)
        if self.horizon_periods < 1:
            raise ValueError(
                f"horizon must be >= 1 period, got {self.horizon_periods}"
            )
        if self.forecast_noise < 0:
            raise ValueError(
                f"forecast noise must be non-negative, got {self.forecast_noise}"
            )

    @property
    def num_policies(self) -> int:
        """Policies per scenario: REAP + baselines + planners, per alpha."""
        return len(self.alphas) * (1 + len(self.baselines) + len(self.planners))

    @property
    def num_cells(self) -> int:
        """Total (scenario x policy) campaign cells the study simulates."""
        return len(self.exposure_factors) * self.num_policies

    def build(self, design_points: Optional[Sequence[DesignPoint]] = None):
        """Materialise (scenarios, labels, policies, trace, config).

        This is the single source of truth for lowering a campaign request
        to simulator objects -- the server and any local parity check both
        call it, so "remote equals local" can never drift on construction
        details.  ``design_points`` is the hardware the study simulates: a
        service passes its configured default set (so campaigns describe
        the same hardware its ``/allocate`` answers do), ``None`` means
        the published Table 2 points.  Imports are local: the
        allocation-only service path never pays for the simulation stack.
        """
        from repro.data.table2 import table2_design_points
        from repro.harvesting.solar import SyntheticSolarModel
        from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
        from repro.harvesting.traces import SolarTrace
        from repro.simulation.fleet import CampaignConfig
        from repro.simulation.policies import (
            PlanningPolicy,
            ReapPolicy,
            StaticPolicy,
        )

        points = tuple(
            design_points if design_points is not None
            else table2_design_points()
        )
        trace = SyntheticSolarModel(seed=self.seed).generate_month(self.month)
        if self.hours is not None:
            if self.hours > len(trace):
                raise ValueError(
                    f"hours must be in [1, {len(trace)}], got {self.hours}"
                )
            trace = SolarTrace(trace.hours[: self.hours], name=trace.name)
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in self.exposure_factors
        ]
        labels = [f"exposure={factor:g}" for factor in self.exposure_factors]
        policies: List[object] = []
        for alpha in self.alphas:
            policies.append(ReapPolicy(points, alpha=alpha))
            policies.extend(
                StaticPolicy(points, name, alpha=alpha)
                for name in self.baselines
            )
            policies.extend(
                PlanningPolicy(
                    points,
                    planner=planner,
                    horizon_periods=self.horizon_periods,
                    forecast=self.forecast,
                    forecast_noise=self.forecast_noise,
                    forecast_seed=self.forecast_seed,
                    alpha=alpha,
                )
                for planner in self.planners
            )
        return scenarios, labels, policies, trace, CampaignConfig(
            use_battery=self.use_battery
        )

    # --- JSON codec -------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-ready dictionary (the wire format)."""
        return {
            "alphas": list(self.alphas),
            "baselines": list(self.baselines),
            "exposure_factors": list(self.exposure_factors),
            "month": self.month,
            "seed": self.seed,
            "hours": self.hours,
            "use_battery": self.use_battery,
            "planners": list(self.planners),
            "horizon_periods": self.horizon_periods,
            "forecast": self.forecast,
            "forecast_noise": self.forecast_noise,
            "forecast_seed": self.forecast_seed,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "CampaignRequest":
        """Decode the wire format (raises ``ValueError`` on bad payloads)."""
        known = {
            "alphas", "baselines", "exposure_factors", "month", "seed",
            "hours", "use_battery", "planners", "horizon_periods",
            "forecast", "forecast_noise", "forecast_seed",
        }
        unknown = set(payload) - known - _RETIRED_CAMPAIGN_FIELDS
        if unknown:
            raise ValueError(
                f"unknown campaign request fields: {sorted(unknown)}"
            )
        hours = payload.get("hours")
        return cls(
            alphas=tuple(payload.get("alphas", (1.0, 2.0))),
            baselines=tuple(payload.get("baselines", ("DP1", "DP3", "DP5"))),
            exposure_factors=tuple(payload.get("exposure_factors", (0.032,))),
            month=int(payload.get("month", 9)),
            seed=int(payload.get("seed", 2015)),
            hours=None if hours is None else int(hours),
            use_battery=bool(payload.get("use_battery", True)),
            planners=tuple(payload.get("planners", ())),
            horizon_periods=int(payload.get("horizon_periods", 24)),
            forecast=str(payload.get("forecast", "perfect")),
            forecast_noise=float(payload.get("forecast_noise", 0.2)),
            forecast_seed=int(payload.get("forecast_seed", 7)),
        )


@dataclass(frozen=True)
class CampaignResponse:
    """Status of one submitted campaign (the ``/campaign/<id>`` payload)."""

    campaign_id: str
    status: str
    cells: int
    trace_hours: int
    scenario_labels: Tuple[str, ...] = ()
    policy_names: Tuple[str, ...] = ()
    alphas: Tuple[float, ...] = ()
    error: Optional[str] = None
    summary: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    #: Per-phase wall-clock seconds of the finished run (see
    #: :attr:`repro.simulation.fleet.FleetResult.phase_timings`); ``None``
    #: until the campaign is done.
    profile: Optional[Dict[str, float]] = None

    #: Legal lifecycle states, in order:
    #: ``queued -> running -> done | failed | cancelled``.
    STATUSES = ("queued", "running", "done", "failed", "cancelled")

    #: Terminal states -- nothing transitions out of these.
    TERMINAL_STATUSES = ("done", "failed", "cancelled")

    def __post_init__(self) -> None:
        if self.status not in self.STATUSES:
            raise ValueError(
                f"status must be one of {self.STATUSES}, got {self.status!r}"
            )

    @property
    def finished(self) -> bool:
        """Whether the campaign has reached a terminal state."""
        return self.status in self.TERMINAL_STATUSES

    def to_json_dict(self) -> Dict[str, Any]:
        """Encode as a JSON-ready dictionary (the wire format)."""
        return {
            "campaign_id": self.campaign_id,
            "status": self.status,
            "cells": self.cells,
            "trace_hours": self.trace_hours,
            "scenario_labels": list(self.scenario_labels),
            "policy_names": list(self.policy_names),
            "alphas": list(self.alphas),
            "error": self.error,
            "summary": [dict(entry) for entry in self.summary],
            "profile": dict(self.profile) if self.profile else None,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "CampaignResponse":
        """Decode the wire format.

        ``"pending"`` (the pre-v1 name of the initial state) is mapped to
        ``"queued"`` so new clients can read old servers.
        """
        status = str(payload["status"])
        if status == "pending":
            status = "queued"
        return cls(
            campaign_id=str(payload["campaign_id"]),
            status=status,
            cells=int(payload["cells"]),
            trace_hours=int(payload["trace_hours"]),
            scenario_labels=tuple(payload.get("scenario_labels", ())),
            policy_names=tuple(payload.get("policy_names", ())),
            alphas=tuple(float(a) for a in payload.get("alphas", ())),
            error=payload.get("error"),
            summary=tuple(payload.get("summary", ())),
            profile=(
                {str(k): float(v) for k, v in payload["profile"].items()}
                if payload.get("profile")
                else None
            ),
        )


__all__ = [
    "AllocationRequest",
    "AllocationResponse",
    "CampaignRequest",
    "CampaignResponse",
]
