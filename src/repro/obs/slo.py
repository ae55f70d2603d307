"""Latency SLOs: per-endpoint thresholds, good/total counts, burn rates.

An SLO here is "fraction of requests to endpoints matching *key* that
finish under *threshold* milliseconds must be at least *target*"
(target defaults to 99%).  The tracker keeps, per key:

* cumulative ``good`` / ``bad`` event counts in the
  ``repro_slo_events_total`` counter family (the durable signal an
  external system would alert on), and
* two in-process burn-rate windows (5 minutes of 15 s buckets, 1 hour of
  60 s buckets) so ``/stats`` and ``/metrics`` can answer "how fast am I
  spending error budget *right now*" without an external store.

Burn rate is the standard multi-window definition: the window's bad
fraction divided by the error budget ``1 - target``.  1.0 means the
budget is being consumed exactly at the sustainable rate; 14.4 on the
1h window is the classic page-worthy threshold for a 99.9% / 30d SLO.

Keys are endpoint names (``allocate``, ``campaign``); a key matches an
endpoint label like ``"POST /allocate/batch"`` when ``/<key>`` appears
in it, longest key winning, so ``--slo-ms allocate=5,campaign=500``
covers ``/allocate``, ``/allocate/batch``, and every ``/campaign``
route without enumerating them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .metrics import Counter, MetricsRegistry, Sample

#: Default objectives applied when ``--slo-ms`` is not given: interactive
#: allocates in 25 ms, campaign operations in 5 s.
DEFAULT_SLO_MS: Mapping[str, float] = {"allocate": 25.0, "campaign": 5000.0}

DEFAULT_TARGET = 0.99

#: (window label, window seconds, bucket seconds)
_WINDOWS: Tuple[Tuple[str, float, float], ...] = (
    ("5m", 300.0, 15.0),
    ("1h", 3600.0, 60.0),
)


def parse_slo_spec(spec: str) -> Dict[str, float]:
    """Parse ``"allocate=5,campaign=500"`` into {key: threshold_ms}."""
    out: Dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if not key or not value.strip():
            raise ValueError(
                f"bad SLO spec item {item!r}; expected name=threshold_ms"
            )
        threshold_ms = float(value)
        if threshold_ms <= 0:
            raise ValueError(f"SLO threshold must be positive, got {item!r}")
        out[key] = threshold_ms
    if not out:
        raise ValueError(f"empty SLO spec {spec!r}")
    return out


class _Window:
    """Time-bucketed ring of (good, total) counts covering one window."""

    def __init__(self, window_s: float, bucket_s: float) -> None:
        self.window_s = window_s
        self.bucket_s = bucket_s
        self.num_buckets = int(window_s / bucket_s)
        # Each slot: [epoch bucket index, good, total].
        self._buckets: List[List[float]] = [
            [-1, 0, 0] for _ in range(self.num_buckets)
        ]

    def record(self, good: bool, now: float) -> None:
        index = int(now / self.bucket_s)
        slot = self._buckets[index % self.num_buckets]
        if slot[0] != index:
            slot[0] = index
            slot[1] = 0
            slot[2] = 0
        slot[1] += 1 if good else 0
        slot[2] += 1

    def totals(self, now: float) -> Tuple[int, int]:
        """(good, total) over buckets still inside the window at ``now``."""
        oldest = int(now / self.bucket_s) - self.num_buckets + 1
        good = total = 0
        for slot in self._buckets:
            if slot[0] >= oldest:
                good += int(slot[1])
                total += int(slot[2])
        return good, total

    def snapshot(self, now: float) -> List[List[int]]:
        """Live ``[epoch bucket index, good, total]`` rows at ``now``.

        Epoch bucket indices are ``int(wall_clock / bucket_s)`` -- the
        same value on every process of a cluster -- so rows from
        different processes merge exactly by summing per index.
        """
        oldest = int(now / self.bucket_s) - self.num_buckets + 1
        return sorted(
            [int(slot[0]), int(slot[1]), int(slot[2])]
            for slot in self._buckets
            if slot[0] >= oldest and slot[2] > 0
        )


class _Objective:
    """One SLO key's threshold and burn-rate windows."""

    def __init__(self, threshold_ms: float) -> None:
        self.threshold_s = threshold_ms / 1000.0
        self.threshold_ms = threshold_ms
        self.windows = {
            label: _Window(window_s, bucket_s)
            for label, window_s, bucket_s in _WINDOWS
        }

    def record(self, good: bool, now: float) -> None:
        for window in self.windows.values():
            window.record(good, now)


class SloTracker:
    """Per-endpoint latency objectives with burn-rate windows (thread-safe).

    The cumulative good/bad counts live in the ``repro_slo_events_total``
    counter family (:attr:`events`); the windows only feed burn rates.
    """

    def __init__(
        self,
        slo_ms: Optional[Mapping[str, float]] = None,
        target: float = DEFAULT_TARGET,
    ) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(f"SLO target must be in (0, 1), got {target}")
        self.target = target
        self._lock = threading.Lock()
        self._objectives = {
            key: _Objective(threshold_ms)
            for key, threshold_ms in (slo_ms or DEFAULT_SLO_MS).items()
        }
        self.events = Counter(
            "repro_slo_events_total",
            "Requests judged against each SLO, by outcome.",
            ("slo", "outcome"),
        )
        for key in self._objectives:
            for outcome in ("good", "bad"):
                self.events.inc(0.0, slo=key, outcome=outcome)

    def _counts(self, key: str) -> Tuple[int, int]:
        """(good, total) events judged against one objective so far."""
        good = int(self.events.value(slo=key, outcome="good"))
        return good, good + int(self.events.value(slo=key, outcome="bad"))

    def match(self, endpoint: str) -> Optional[str]:
        """The SLO key covering an endpoint label, longest key winning."""
        best: Optional[str] = None
        for key in self._objectives:
            if f"/{key}" in endpoint:
                if best is None or len(key) > len(best):
                    best = key
        return best

    def observe(
        self, endpoint: str, seconds: float, now: Optional[float] = None
    ) -> Optional[str]:
        """Record one request against its matching objective, if any.

        ``now`` is an epoch-seconds override for tests; returns the
        matched key (``None`` when the endpoint has no objective).
        """
        key = self.match(endpoint)
        if key is None:
            return None
        if now is None:
            now = time.time()
        objective = self._objectives[key]
        good = seconds <= objective.threshold_s
        with self._lock:
            objective.record(good, now)
        self.events.inc(slo=key, outcome="good" if good else "bad")
        return key

    def burn_rate(
        self, key: str, window: str, now: Optional[float] = None
    ) -> float:
        """One objective's burn rate over ``"5m"`` or ``"1h"``.

        0.0 when the window saw no events; 1.0 means the error budget is
        being spent exactly at the sustainable rate.
        """
        if now is None:
            now = time.time()
        with self._lock:
            objective = self._objectives[key]
            good, total = objective.windows[window].totals(now)
        if total == 0:
            return 0.0
        bad_fraction = (total - good) / total
        return bad_fraction / (1.0 - self.target)

    def to_json_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Encode for the ``/stats`` endpoint."""
        if now is None:
            now = time.time()
        out: Dict[str, Any] = {"target": self.target, "objectives": {}}
        for key, objective in sorted(self._objectives.items()):
            good, total = self._counts(key)
            out["objectives"][key] = {
                "threshold_ms": objective.threshold_ms,
                "good": good,
                "total": total,
                "compliance": (good / total) if total else 1.0,
                "burn_rate_5m": self.burn_rate(key, "5m", now),
                "burn_rate_1h": self.burn_rate(key, "1h", now),
            }
        return out

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Export good/bad epochs for cross-process merging.

        The payload carries, per objective, the cumulative counts plus
        every live burn-rate bucket keyed by its wall-clock epoch index
        (see :meth:`_Window.snapshot`).  Because all processes share
        wall-clock epochs, :func:`merged_burn_rates` can reconstruct the
        *cluster* burn rate exactly by summing rows per index.
        """
        if now is None:
            now = time.time()
        out: Dict[str, Any] = {"target": self.target, "objectives": {}}
        with self._lock:
            for key, objective in sorted(self._objectives.items()):
                good, total = self._counts(key)
                out["objectives"][key] = {
                    "threshold_ms": objective.threshold_ms,
                    "good": good,
                    "total": total,
                    "windows": {
                        label: {
                            "bucket_s": window.bucket_s,
                            "num_buckets": window.num_buckets,
                            "buckets": window.snapshot(now),
                        }
                        for label, window in objective.windows.items()
                    },
                }
        return out

    # -- Prometheus families --

    def _threshold_samples(self) -> List[Sample]:
        with self._lock:
            items = [
                (key, obj.threshold_s)
                for key, obj in sorted(self._objectives.items())
            ]
        return [("", {"slo": key}, value) for key, value in items]

    def _burn_rate_samples(self) -> List[Sample]:
        now = time.time()
        with self._lock:
            keys = sorted(self._objectives)
        return [
            ("", {"slo": key, "window": window}, self.burn_rate(key, window, now))
            for key in keys
            for window, _, _ in _WINDOWS
        ]

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose this tracker's families on a metrics registry."""
        registry.callback(
            "repro_slo_threshold_seconds",
            "Latency threshold of each SLO objective.",
            "gauge",
            self._threshold_samples,
        )
        registry.register(self.events)
        registry.callback(
            "repro_slo_burn_rate",
            "Error-budget burn rate per SLO over trailing windows.",
            "gauge",
            self._burn_rate_samples,
        )


def merged_burn_rates(
    snapshots: List[Mapping[str, Any]], now: Optional[float] = None
) -> Dict[str, Any]:
    """Cluster-wide SLO state from per-process :meth:`SloTracker.snapshot`\\ s.

    Epoch-bucket rows merge exactly (same wall-clock indices on every
    process); the result mirrors :meth:`SloTracker.to_json_dict` with the
    burn rates computed from the merged buckets.  Buckets that have aged
    out of a window by ``now`` are dropped before summing, so a stale
    snapshot cannot inflate a current burn rate.
    """
    if now is None:
        now = time.time()
    target = DEFAULT_TARGET
    merged: Dict[str, Dict[str, Any]] = {}
    for payload in snapshots:
        target = float(payload.get("target", target))
        for key, objective in payload.get("objectives", {}).items():
            entry = merged.setdefault(key, {
                "threshold_ms": float(objective.get("threshold_ms", 0.0)),
                "good": 0, "total": 0, "windows": {},
            })
            entry["good"] += int(objective.get("good", 0))
            entry["total"] += int(objective.get("total", 0))
            for label, window in objective.get("windows", {}).items():
                slot = entry["windows"].setdefault(label, {
                    "bucket_s": float(window["bucket_s"]),
                    "num_buckets": int(window["num_buckets"]),
                    "buckets": {},
                })
                for index, good, total in window.get("buckets", ()):
                    row = slot["buckets"].setdefault(int(index), [0, 0])
                    row[0] += int(good)
                    row[1] += int(total)
    out: Dict[str, Any] = {"target": target, "objectives": {}}
    for key, entry in sorted(merged.items()):
        burn: Dict[str, float] = {}
        for label, slot in entry["windows"].items():
            oldest = int(now / slot["bucket_s"]) - slot["num_buckets"] + 1
            good = total = 0
            for index, (row_good, row_total) in slot["buckets"].items():
                if index >= oldest:
                    good += row_good
                    total += row_total
            if total == 0:
                burn[label] = 0.0
            else:
                burn[label] = ((total - good) / total) / (1.0 - target)
        out["objectives"][key] = {
            "threshold_ms": entry["threshold_ms"],
            "good": entry["good"],
            "total": entry["total"],
            "compliance": (
                entry["good"] / entry["total"] if entry["total"] else 1.0
            ),
            **{f"burn_rate_{label}": value for label, value in sorted(burn.items())},
        }
    return out


__all__ = [
    "DEFAULT_SLO_MS",
    "DEFAULT_TARGET",
    "SloTracker",
    "merged_burn_rates",
    "parse_slo_spec",
]
