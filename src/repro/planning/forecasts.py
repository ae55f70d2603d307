"""Forecast providers: harvest traces -> per-period lookahead matrices.

The planning subsystem consumes forecasts in one canonical shape: a
``(H, W)`` *forecast matrix* whose row ``t`` holds the ``W``-period
lookahead available at the start of period ``t`` (entry ``[t, k]`` is the
prediction for period ``t + k``).  Providers build that matrix from the
scenario's true harvest vector up front, so forecast generation costs one
array pass per campaign cell instead of one call per period, and a fleet of
devices can carry one forecast tensor ``(H, W, D)`` into the vectorized
:class:`~repro.planning.scan.PlanScan`.

Three providers span the forecast-quality axis the planning studies sweep:

* :class:`PerfectForecast` -- oracle lookahead (the true future harvest);
  isolates the value of planning from the cost of forecast error.
* :class:`PersistenceForecast` -- yesterday-equals-today: the prediction for
  a period is the value observed one (or more) whole days earlier.  The
  first day has no history and falls back to ``initial_j`` -- planners must
  degrade gracefully on that all-zeros horizon.
* :class:`NoisyOracleForecast` -- the true future scaled by deterministic
  multiplicative noise (seeded, clipped at zero), turning forecast error
  into a first-class scenario axis.

The providers are *trace-level*: the matrix form is what the lockstep
planning scan needs.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

#: Forecast providers selectable by name (CLI, campaign requests).
FORECAST_KINDS = ("perfect", "persistence", "noisy")


def validate_forecast_kind(kind: str) -> str:
    """Check a forecast-provider name (raises ``ValueError`` when unknown)."""
    if kind not in FORECAST_KINDS:
        raise ValueError(
            f"forecast must be one of {FORECAST_KINDS}, got {kind!r}"
        )
    return kind


def _validate_harvest(harvest_j: Sequence[float]) -> np.ndarray:
    harvest = np.asarray(harvest_j, dtype=float)
    if harvest.ndim != 1 or harvest.size == 0:
        raise ValueError(
            f"harvest must be a non-empty 1-D vector, got shape {harvest.shape}"
        )
    if np.any(harvest < 0):
        raise ValueError("harvest must be non-negative")
    return harvest


class ForecastProvider(abc.ABC):
    """Base class: turns a harvest trace into a lookahead matrix."""

    #: Provider name as used by CLI flags and campaign requests.
    kind: str = ""

    @abc.abstractmethod
    def matrix(self, harvest_j: Sequence[float], horizon: int) -> np.ndarray:
        """``(H, W)`` forecast matrix for a ``(H,)`` harvest vector.

        Entry ``[t, k]`` is the prediction, made at the start of period
        ``t``, of the energy period ``t + k`` will harvest.  Predictions
        beyond the end of the trace are zero (the campaign ends; planning
        against zero is the conservative choice).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PerfectForecast(ForecastProvider):
    """Oracle lookahead: the forecast *is* the future harvest."""

    kind = "perfect"

    def matrix(self, harvest_j: Sequence[float], horizon: int) -> np.ndarray:
        harvest = _validate_harvest(harvest_j)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        num_periods = harvest.size
        targets = np.arange(num_periods)[:, None] + np.arange(horizon)[None, :]
        clipped = np.minimum(targets, num_periods - 1)
        return np.where(targets < num_periods, harvest[clipped], 0.0)


class PersistenceForecast(ForecastProvider):
    """Seasonal persistence: a period looks like the same slot one day ago.

    The prediction for target period ``s`` uses the most recent same-slot
    value that was already *observed* when the forecast is issued -- one
    whole day back for lookaheads shorter than a day, further back when the
    horizon spans multiple days.  Targets with no observed history (the
    first day of the campaign) fall back to ``initial_j``.
    """

    kind = "persistence"

    def __init__(self, periods_per_day: int = 24, initial_j: float = 0.0) -> None:
        if periods_per_day < 1:
            raise ValueError(
                f"periods_per_day must be >= 1, got {periods_per_day}"
            )
        if initial_j < 0:
            raise ValueError(f"initial forecast must be non-negative, got {initial_j}")
        self.periods_per_day = int(periods_per_day)
        self.initial_j = float(initial_j)

    def __repr__(self) -> str:
        return (
            f"PersistenceForecast(periods_per_day={self.periods_per_day}, "
            f"initial_j={self.initial_j})"
        )

    def matrix(self, harvest_j: Sequence[float], horizon: int) -> np.ndarray:
        harvest = _validate_harvest(harvest_j)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        num_periods = harvest.size
        offsets = np.arange(horizon)[None, :]                      # (1, W)
        # Look back whole days: enough of them that the source period
        # precedes the issue time t (k // P + 1 days covers offset k).
        days_back = offsets // self.periods_per_day + 1
        sources = (
            np.arange(num_periods)[:, None]
            + offsets
            - days_back * self.periods_per_day
        )
        clipped = np.maximum(sources, 0)
        return np.where(sources >= 0, harvest[clipped], self.initial_j)


class NoisyOracleForecast(ForecastProvider):
    """Perfect lookahead corrupted by seeded multiplicative noise.

    Each matrix entry is the true value scaled by ``max(0, 1 + sigma * z)``
    with ``z`` standard normal.  The noise field is drawn once from
    ``numpy.random.default_rng(seed)`` over the whole ``(H, W)`` matrix, so
    a fixed seed yields a bit-identical forecast on every run -- and the
    scalar reference loop and the fleet scan see the same noise.
    """

    kind = "noisy"

    def __init__(self, noise_std: float = 0.2, seed: int = 7) -> None:
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        self.noise_std = float(noise_std)
        self.seed = int(seed)

    def __repr__(self) -> str:
        return f"NoisyOracleForecast(noise_std={self.noise_std}, seed={self.seed})"

    def matrix(self, harvest_j: Sequence[float], horizon: int) -> np.ndarray:
        exact = PerfectForecast().matrix(harvest_j, horizon)
        rng = np.random.default_rng(self.seed)
        factors = np.maximum(
            0.0, 1.0 + self.noise_std * rng.standard_normal(exact.shape)
        )
        return exact * factors


def make_forecast_provider(
    kind: str,
    noise_std: float = 0.2,
    seed: int = 7,
    periods_per_day: int = 24,
) -> ForecastProvider:
    """Build a provider by name (the CLI / campaign-request factory)."""
    validate_forecast_kind(kind)
    if kind == "perfect":
        return PerfectForecast()
    if kind == "persistence":
        return PersistenceForecast(periods_per_day=periods_per_day)
    return NoisyOracleForecast(noise_std=noise_std, seed=seed)


__all__ = [
    "FORECAST_KINDS",
    "ForecastProvider",
    "NoisyOracleForecast",
    "PerfectForecast",
    "PersistenceForecast",
    "make_forecast_provider",
    "validate_forecast_kind",
]
