"""Thread-safe metrics registry with Prometheus text exposition.

This is the one place the service counts anything:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` families with
  optional label dimensions, each family guarded by one lock so executor
  threads and the event loop can record concurrently.  A component (the
  cache, batcher, campaign pool, store, SLO tracker) creates the families it
  records into and registers them on the service's registry
  (:meth:`MetricsRegistry.register`); ``/metrics``, ``/stats`` and the
  cluster snapshot all read those same families, so they cannot disagree.
* Histograms default to the log2 bucket scheme (:data:`LOG2_BOUNDS_S`:
  1 microsecond doubling up through ~67 seconds, plus an overflow bucket)
  so recording stays O(1) with a fixed ~30-int footprint per label set
  regardless of traffic, and their read side gives the quantiles and the
  ``{count, mean_ms, max_ms, p50/p95/p99_ms}`` summary ``/stats`` reports.
* :meth:`MetricsRegistry.render` emits the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` headers, ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` histogram series) for ``GET /metrics``.
* :meth:`MetricsRegistry.callback` registers sample *functions* for
  values that are read rather than counted (uptime, cache entries,
  campaigns by status, burn rates) or derived from another family's
  count or sum.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, TypeVar,
)

#: Upper bounds of the log2 histogram buckets, in seconds (1 us .. ~67 s).
LOG2_BOUNDS_S = tuple(1e-6 * 2.0**exponent for exponent in range(27))

#: One exposition sample: (name suffix, label mapping, value).  The suffix
#: is ``""`` for plain series and ``"_bucket"`` / ``"_sum"`` / ``"_count"``
#: for histogram series.
Sample = Tuple[str, Mapping[str, str], float]

FamilyT = TypeVar("FamilyT", bound="_Family")


def format_value(value: float) -> str:
    """Render one sample value the way Prometheus expects.

    Integral values print without a fractional part (counter increments
    stay readable and golden-testable); everything else uses ``repr`` so
    no precision is lost on the wire.
    """
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def format_labels(labels: Mapping[str, Any]) -> str:
    """Render a label mapping as ``{key="value",...}`` (empty when none)."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key]).replace("\\", "\\\\").replace('"', '\\"')
        value = value.replace("\n", "\\n")
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def _label_key(
    labelnames: Sequence[str], labels: Mapping[str, Any]
) -> Tuple[str, ...]:
    if len(labels) == len(labelnames):
        # A plain loop: this runs on every record, and building the key
        # through a comprehension costs about twice as much on 3.11.
        key: Tuple[str, ...] = ()
        try:
            for name in labelnames:
                key += (str(labels[name]),)
            return key
        except KeyError:
            pass
    raise ValueError(
        f"expected labels {tuple(labelnames)}, got {tuple(sorted(labels))}"
    )


class _Family:
    """Common shape of one registered metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        #: Label-value tuple -> the recorded state of that label set.
        self._values: Dict[Tuple[str, ...], Any] = {}

    def label_values(self) -> List[Tuple[str, ...]]:
        """Label-value tuples of every series recorded so far, sorted."""
        with self._lock:
            return sorted(self._values)

    def samples(self) -> List[Sample]:  # pragma: no cover - overridden
        raise NotImplementedError


class _ScalarFamily(_Family):
    """One float per label set; an unlabelled family starts at 0."""

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        if not self.labelnames:
            self._values[()] = 0.0

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0.0 before any record)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            ("", dict(zip(self.labelnames, key)), value)
            for key, value in items
        ]


class Counter(_ScalarFamily):
    """Monotonically increasing counter family."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be non-negative) to one label set's count."""
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_ScalarFamily):
    """Set-to-current-value gauge family."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set one label set's value."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)


class _HistogramData:
    """Bucket counts + running sum/max of one histogram label set."""

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets
        self.count = 0
        self.total = 0.0
        self.max = 0.0


class Histogram(_Family):
    """Bucketed histogram family (cumulative Prometheus exposition).

    Each label set keeps its bucket counts plus the count, sum and max of
    what it observed.  The default log2 buckets give quantile estimates
    (:meth:`quantile`, :meth:`summary`); ``bounds=()`` keeps only the
    ``+Inf`` bucket -- three samples per label set -- for values whose
    distribution nobody reads (batch sizes, per-outcome latency).  The
    max feeds ``/stats``; the Prometheus exposition has no max series.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = LOG2_BOUNDS_S,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.bounds = tuple(float(bound) for bound in bounds)
        if sorted(self.bounds) != list(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not self.labelnames:
            self._values[()] = _HistogramData(len(self.bounds) + 1)

    def observe(self, value: float, times: int = 1, **labels: Any) -> None:
        """Record ``times`` observations of ``value`` under one label set."""
        key = _label_key(self.labelnames, labels)
        index = bisect_right(self.bounds, value)
        with self._lock:
            data = self._values.get(key)
            if data is None:
                data = self._values[key] = _HistogramData(len(self.bounds) + 1)
            data.counts[index] += times
            data.count += times
            data.total += value * times
            if value > data.max:
                data.max = value

    def count(self, **labels: Any) -> int:
        """Observations recorded under one label set."""
        return self.totals(**labels)[0]

    def totals(self, **labels: Any) -> Tuple[int, float, float]:
        """(count, sum, max) of one label set; zeros before any observation."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            data = self._values.get(key)
            if data is None:
                return 0, 0.0, 0.0
            return data.count, data.total, data.max

    def quantile(self, fraction: float, **labels: Any) -> float:
        """Estimated quantile of one label set, read from the bucket counts.

        The estimate is the upper bound of the bucket holding the rank,
        clamped to the max seen (the overflow bucket reports the max), so
        it lies within one bucket width of the true quantile and never
        above the largest observation.  An empty label set returns the
        sentinel ``0.0`` -- never ``nan``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            data = self._values.get(key)
            if data is None or data.count == 0:
                return 0.0
            return self._quantile_locked(data, fraction)

    def _quantile_locked(self, data: _HistogramData, fraction: float) -> float:
        rank = fraction * data.count
        cumulative = 0
        for index, count in enumerate(data.counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.bounds):
                    return min(self.bounds[index], data.max)
                return data.max
        return data.max

    def summary(self, **labels: Any) -> Dict[str, Any]:
        """One label set as ``/stats`` reports latency, in milliseconds."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            data = self._values.get(key)
            if data is None or data.count == 0:
                return {
                    "count": 0, "mean_ms": 0.0, "max_ms": 0.0,
                    "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                }
            return {
                "count": data.count,
                "mean_ms": data.total / data.count * 1000.0,
                "max_ms": data.max * 1000.0,
                "p50_ms": self._quantile_locked(data, 0.50) * 1000.0,
                "p95_ms": self._quantile_locked(data, 0.95) * 1000.0,
                "p99_ms": self._quantile_locked(data, 0.99) * 1000.0,
            }

    def samples(self) -> List[Sample]:
        with self._lock:
            snapshot = [
                (key, list(data.counts), data.count, data.total)
                for key, data in sorted(self._values.items())
            ]
        out: List[Sample] = []
        for key, counts, count, total in snapshot:
            labels = dict(zip(self.labelnames, key))
            cumulative = 0
            for bound, bucket in zip(self.bounds, counts):
                cumulative += bucket
                out.append(
                    ("_bucket", {**labels, "le": format_value(bound)}, cumulative)
                )
            out.append(("_bucket", {**labels, "le": "+Inf"}, count))
            out.append(("_sum", labels, total))
            out.append(("_count", labels, count))
        return out


class _CallbackFamily(_Family):
    """A family whose samples are produced by a function at scrape time."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        sample_fn: Callable[[], Iterable[Sample]],
    ) -> None:
        super().__init__(name, help_text, ())
        self.kind = kind
        self._sample_fn = sample_fn

    def samples(self) -> List[Sample]:
        return list(self._sample_fn())


class MetricsRegistry:
    """Ordered collection of metric families with one text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def register(self, family: FamilyT) -> FamilyT:
        """Add a family created elsewhere; names are unique per registry."""
        with self._lock:
            if family.name in self._families:
                raise ValueError(f"metric {family.name!r} already registered")
            self._families[family.name] = family
        return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Create and register a counter family."""
        return self.register(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Create and register a gauge family."""
        return self.register(Gauge(name, help_text, labelnames))

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        bounds: Sequence[float] = LOG2_BOUNDS_S,
    ) -> Histogram:
        """Create and register a histogram family."""
        return self.register(Histogram(name, help_text, labelnames, bounds))

    def callback(
        self,
        name: str,
        help_text: str,
        kind: str,
        sample_fn: Callable[[], Iterable[Sample]],
    ) -> None:
        """Register a scrape-time sample function as one family.

        For values that are read rather than counted, and for families
        whose value is another family's count or sum: ``sample_fn`` runs
        at every :meth:`render` / :meth:`snapshot` and returns the
        family's samples.
        """
        self.register(_CallbackFamily(name, help_text, kind, sample_fn))

    def render(self) -> str:
        """The Prometheus text exposition of every registered family."""
        with self._lock:
            families = list(self._families.values())
        lines: List[str] = []
        for family in families:
            try:
                samples = family.samples()
            except Exception:
                continue  # one broken callback must not break the scrape
            lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for suffix, labels, value in samples:
                lines.append(
                    f"{family.name}{suffix}{format_labels(labels)} "
                    f"{format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every family's samples as one JSON-encodable document.

        This is the publish side of the cluster scope: a front-end
        process serialises this snapshot into the shared store so any
        peer can merge it into a cluster-wide exposition (see
        :mod:`repro.obs.cluster`).  Shape::

            {name: {"kind": ..., "help": ...,
                    "samples": [[suffix, {label: value}, value], ...]}}

        The same broken-callback tolerance as :meth:`render` applies: a
        family whose sample function raises is skipped, never fatal.
        """
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, Dict[str, Any]] = {}
        for family in families:
            try:
                samples = family.samples()
            except Exception:
                continue
            out[family.name] = {
                "kind": family.kind,
                "help": family.help_text,
                "samples": [
                    [suffix, {str(k): str(v) for k, v in labels.items()},
                     float(value)]
                    for suffix, labels, value in samples
                ],
            }
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG2_BOUNDS_S",
    "MetricsRegistry",
    "format_labels",
    "format_value",
]
