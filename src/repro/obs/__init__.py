"""Observability layer: metrics registry, request tracing, phase profiling, SLOs.

``repro.obs`` is the service stack's shared instrumentation surface:

* :mod:`repro.obs.metrics` -- thread-safe counter/gauge/histogram
  families with Prometheus text exposition (``GET /metrics``): the one
  stats source, read by ``/metrics``, ``/stats`` and the cluster snapshot
  alike, including the log2 latency histograms behind ``/stats``
  percentiles.
* :mod:`repro.obs.tracing` -- W3C-traceparent-compatible span contexts
  that follow a request from the HTTP handler through batcher groups
  and sharded campaign process workers; structured span
  logs (``--log-format json``) and the recorder behind ``GET /trace/<id>``.
* :mod:`repro.obs.profiling` -- per-phase wall-clock accumulation for
  the campaign pipeline (``repro fleet --profile``,
  ``CampaignResponse.profile``).
* :mod:`repro.obs.slo` -- per-endpoint latency objectives with good/total
  counters and 5m/1h burn-rate windows (``repro serve --slo-ms ...``).
* :mod:`repro.obs.cluster` -- cross-process snapshot publication and the
  ``proc``-labelled exposition and per-process documents behind
  ``GET /v1/metrics?scope=cluster`` and ``/v1/stats?scope=cluster`` on a
  ``--procs N`` front-end.
"""

from .cluster import (
    DEFAULT_SNAPSHOT_TTL_S,
    build_snapshot,
    cluster_stats,
    proc_identity,
    render_cluster,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LOG2_BOUNDS_S,
    MetricsRegistry,
)
from .profiling import PhaseProfiler
from .slo import DEFAULT_SLO_MS, SloTracker, merged_burn_rates, parse_slo_spec
from .tracing import (
    JsonLogFormatter,
    SpanContext,
    TraceRecorder,
    capture_spans,
    configure_logging,
    current_context,
    format_traceparent,
    ingest,
    new_trace_id,
    parse_traceparent,
    record_span,
    recorder,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_SLO_MS",
    "DEFAULT_SNAPSHOT_TTL_S",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "LOG2_BOUNDS_S",
    "MetricsRegistry",
    "PhaseProfiler",
    "SloTracker",
    "SpanContext",
    "TraceRecorder",
    "build_snapshot",
    "capture_spans",
    "cluster_stats",
    "configure_logging",
    "current_context",
    "format_traceparent",
    "ingest",
    "merged_burn_rates",
    "new_trace_id",
    "parse_slo_spec",
    "parse_traceparent",
    "proc_identity",
    "record_span",
    "recorder",
    "render_cluster",
    "span",
]
