"""Tests for the observability layer (repro.obs) and its service wiring.

Covers the metrics registry's Prometheus text exposition (golden output),
the W3C traceparent codec, span parentage across asyncio handler ->
batcher -> pool threads and across the campaign pool's process
workers, SLO burn-rate arithmetic on injected clocks, structured JSON log
lines, the campaign phase profiler, the per-endpoint latency histograms,
and the client/CLI observability surface (``/metrics``, ``/stats``,
``/trace/<id>``, ``repro fleet --profile``).
"""

from __future__ import annotations

import io
import json
import logging
import sys
import threading

import pytest

from repro.cli import main as cli_main
from repro.data.table2 import table2_design_points
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace
from repro.obs import tracing
from repro.obs.metrics import (
    LOG2_BOUNDS_S,
    Counter,
    Histogram,
    MetricsRegistry,
    format_labels,
    format_value,
)
from repro.obs.profiling import PhaseProfiler
from repro.obs.slo import DEFAULT_SLO_MS, SloTracker, parse_slo_spec
from repro.service.client import AllocationClient, ServiceError
from repro.service.client import main as client_main
from repro.service.pool import WorkerPool
from repro.service.requests import AllocationRequest, CampaignResponse
from repro.service.server import (
    AllocationServer,
    AllocationService,
    start_in_thread,
)
from repro.simulation.fleet import CampaignConfig, FleetCampaign
from repro.simulation.policies import ReapPolicy, StaticPolicy


@pytest.fixture(scope="module")
def points():
    return tuple(table2_design_points())


@pytest.fixture(scope="module")
def trace():
    month = SyntheticSolarModel(seed=2015).generate_month(9)
    return SolarTrace(month.hours[:48], name=month.name)


# --- exposition format -----------------------------------------------------------
class TestExpositionFormat:
    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"

    def test_format_labels_sorted_and_escaped(self):
        rendered = format_labels({"b": 'x"y', "a": "p\\q"})
        assert rendered == '{a="p\\\\q",b="x\\"y"}'
        assert format_labels({}) == ""

    def test_registry_render_golden(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", "Things counted.", ("kind",))
        counter.inc(kind="a")
        counter.inc(2.0, kind="a")
        registry.gauge("test_gauge", "A level.").set(1.5)
        histogram = registry.histogram(
            "test_seconds", "A latency.", bounds=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert registry.render() == (
            "# HELP test_total Things counted.\n"
            "# TYPE test_total counter\n"
            'test_total{kind="a"} 3\n'
            "# HELP test_gauge A level.\n"
            "# TYPE test_gauge gauge\n"
            "test_gauge 1.5\n"
            "# HELP test_seconds A latency.\n"
            "# TYPE test_seconds histogram\n"
            'test_seconds_bucket{le="0.1"} 1\n'
            'test_seconds_bucket{le="1"} 2\n'
            'test_seconds_bucket{le="+Inf"} 3\n'
            "test_seconds_sum 5.55\n"
            "test_seconds_count 3\n"
        )

    def test_counter_rejects_negative_and_wrong_labels(self):
        counter = Counter("c_total", "c", ("kind",))
        with pytest.raises(ValueError, match="go up"):
            counter.inc(-1.0, kind="a")
        with pytest.raises(ValueError, match="labels"):
            counter.inc(other="a")

    def test_histogram_observes_repeated_values_at_once(self):
        histogram = Histogram("h", "h", ("outcome",), bounds=(0.3,))
        histogram.observe(0.5, times=3, outcome="solve")
        histogram.observe(0.25, outcome="solve")
        assert histogram.totals(outcome="solve") == (4, 1.75, 0.5)
        assert histogram.quantile(0.25, outcome="solve") == 0.3
        assert histogram.quantile(0.5, outcome="solve") == 0.5

    def test_concurrent_records_lose_no_update(self):
        """Pool threads and the event loop record into shared families."""
        counter = Counter("c_total", "c", ("worker",))
        histogram = Histogram("h", "h", ("worker",), bounds=())

        def record(name: str) -> None:
            for _ in range(2_000):
                counter.inc(worker="shared")
                counter.inc(worker=name)
                histogram.observe(1.0, worker="shared")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=record, args=(f"w{index}",))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value(worker="shared") == 16_000
        assert all(counter.value(worker=f"w{index}") == 2_000 for index in range(8))
        assert histogram.totals(worker="shared") == (16_000, 16_000.0, 1.0)

    def test_components_register_families_they_own(self):
        registry = MetricsRegistry()
        counter = registry.register(Counter("owned_total", "o"))
        counter.inc()
        assert "owned_total 1" in registry.render()
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Counter("owned_total", "o"))

    def test_duplicate_family_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "d")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("dup_total", "d")

    def test_broken_callback_does_not_break_the_scrape(self):
        registry = MetricsRegistry()
        registry.callback("bad_metric", "b", "gauge", lambda: 1 / 0)
        registry.gauge("good_metric", "g").set(1.0)
        text = registry.render()
        assert "good_metric 1" in text
        assert "bad_metric" not in text

    def test_histogram_rejects_unsorted_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("h_seconds", "h", bounds=(1.0, 0.1))


class TestLatencyHistogramCompat:
    """The log2 ``Histogram``'s read side: what ``/stats`` reports."""

    def test_empty_histogram_reports_zeros(self):
        payload = Histogram("h_seconds", "h").summary()
        assert payload == {
            "count": 0, "mean_ms": 0.0, "max_ms": 0.0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }
        labelled = Histogram("h_seconds", "h", ("endpoint",))
        assert labelled.summary(endpoint="GET /stats") == payload

    @pytest.mark.parametrize(
        "milliseconds, p50_range",
        [
            ((1, 1, 2, 2, 3, 4, 8, 16, 50, 400), (2.0, 8.0)),
            # Beyond the last ~67 s bucket: the overflow bucket reports
            # the max seen.
            ((1_000_000,), (1_000_000.0, 1_000_000.0)),
        ],
        ids=["ten-samples", "overflow"],
    )
    def test_percentiles_are_ordered_and_bounded(self, milliseconds, p50_range):
        histogram = Histogram("h_seconds", "h")
        for value in milliseconds:
            histogram.observe(value / 1000.0)
        payload = histogram.summary()
        assert payload["count"] == len(milliseconds)
        assert payload["p50_ms"] <= payload["p95_ms"] <= payload["p99_ms"]
        assert payload["p99_ms"] <= payload["max_ms"]
        assert payload["max_ms"] == pytest.approx(max(milliseconds))
        # Log buckets: each percentile is within 2x of the true quantile.
        low, high = p50_range
        assert low <= payload["p50_ms"] <= high

    def test_percentiles_and_snapshot(self):
        histogram = Histogram("h_seconds", "h")
        for seconds in (0.001, 0.002, 0.004, 0.100):
            histogram.observe(seconds)
        payload = histogram.summary()
        assert payload["count"] == 4
        assert payload["p50_ms"] <= payload["p99_ms"]
        count, total_s, max_s = histogram.totals()
        assert count == 4
        assert total_s == pytest.approx(0.107)
        assert max_s == pytest.approx(0.100)
        buckets = [
            value for suffix, labels, value in histogram.samples()
            if suffix == "_bucket"
        ]
        assert buckets[-1] == 4  # the cumulative +Inf bucket
        assert buckets == sorted(buckets)

    def test_endpoint_latencies_prometheus_samples(self):
        endpoints = Histogram("h_seconds", "h", ("endpoint",))
        endpoints.observe(0.002, endpoint="POST /allocate")
        samples = endpoints.samples()
        suffixes = {suffix for suffix, _, _ in samples}
        assert suffixes == {"_bucket", "_sum", "_count"}
        assert all(
            labels["endpoint"] == "POST /allocate"
            for _, labels, _ in samples
        )
        # One bucket line per log2 bound plus +Inf, then _sum and _count.
        assert len(samples) == len(LOG2_BOUNDS_S) + 3

    def test_endpoint_latencies_group_by_label(self):
        latencies = Histogram("h_seconds", "h", ("endpoint",))
        latencies.observe(0.001, endpoint="GET /stats")
        latencies.observe(0.002, endpoint="GET /stats")
        latencies.observe(0.004, endpoint="POST /allocate")
        assert latencies.label_values() == [
            ("GET /stats",), ("POST /allocate",)
        ]
        assert latencies.summary(endpoint="GET /stats")["count"] == 2

    def test_endpoint_label_collapses_campaign_ids(self):
        label = AllocationServer._endpoint_label
        assert label("GET", "/v1/healthz") == "GET /healthz"
        assert label("POST", "/v1/allocate/batch") == "POST /allocate/batch"
        assert label("GET", "/v1/campaign/abc123") == "GET /campaign/*"
        assert (
            label("GET", "/v1/campaign/abc123/columns?format=binary&dtype=f8")
            == "GET /campaign/*/columns"
        )
        assert label("DELETE", "/v1/campaign/zzz") == "DELETE /campaign/*"
        assert label("GET", "/v1/nope") == "GET (other)"
        # Only /v1 paths are routes; an unversioned spelling is unknown.
        assert label("GET", "/healthz") == "GET (other)"
        assert label("POST", "/allocate") == "POST (other)"


# --- traceparent + spans ---------------------------------------------------------
class TestTraceparent:
    def test_round_trip(self):
        context = tracing.SpanContext(tracing.new_trace_id(), tracing.new_span_id())
        parsed = tracing.parse_traceparent(tracing.format_traceparent(context))
        assert parsed == context

    def test_malformed_rejected(self):
        assert tracing.parse_traceparent(None) is None
        assert tracing.parse_traceparent("") is None
        assert tracing.parse_traceparent("not-a-header") is None
        assert tracing.parse_traceparent("00-abc-def-01") is None

    def test_all_zero_ids_rejected(self):
        assert tracing.parse_traceparent(f"00-{'0' * 32}-{'1' * 16}-01") is None
        assert tracing.parse_traceparent(f"00-{'1' * 32}-{'0' * 16}-01") is None

    def test_child_keeps_trace_id(self):
        context = tracing.SpanContext("a" * 32, "b" * 16)
        child = context.child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id


class TestSpans:
    def test_nesting_builds_parentage(self):
        with tracing.capture_spans() as captured:
            with tracing.span("outer") as outer:
                assert tracing.current_context() == outer.context
                with tracing.span("inner") as inner:
                    assert inner.context.trace_id == outer.context.trace_id
            assert tracing.current_context() is None or (
                tracing.current_context() != outer.context
            )
        by_name = {record["name"]: record for record in captured}
        assert by_name["inner"]["parent_span_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_span_id"] is None

    def test_exception_still_emits_with_error_attribute(self):
        with tracing.capture_spans() as captured:
            with pytest.raises(RuntimeError):
                with tracing.span("doomed"):
                    raise RuntimeError("boom")
        assert captured[0]["attrs"]["error"] == "RuntimeError"

    def test_record_span_with_explicit_parent(self):
        parent = tracing.SpanContext("c" * 32, "d" * 16)
        with tracing.capture_spans() as captured:
            record = tracing.record_span("offloaded", parent, 100.0, 0.25, n=3)
        assert record in captured
        assert record["trace_id"] == parent.trace_id
        assert record["parent_span_id"] == parent.span_id
        assert record["duration_ms"] == pytest.approx(250.0)
        assert record["attrs"] == {"n": 3}

    def test_recorder_bounds_traces_and_spans(self):
        recorder = tracing.TraceRecorder(max_traces=2, max_spans_per_trace=3)
        for index in range(3):
            recorder.add({"trace_id": f"{index:032x}", "start_s": 1.0})
        assert len(recorder) == 2
        assert recorder.spans(f"{0:032x}") is None  # evicted (LRU)
        for _ in range(5):
            recorder.add({"trace_id": f"{2:032x}", "start_s": 2.0})
        assert len(recorder.spans(f"{2:032x}")) == 3
        assert recorder.spans("f" * 32) is None

    def test_ingest_files_into_the_global_recorder(self):
        trace_id = tracing.new_trace_id()
        tracing.ingest([{"trace_id": trace_id, "name": "shipped", "start_s": 1.0}])
        spans = tracing.recorder().spans(trace_id)
        assert spans is not None
        assert spans[0]["name"] == "shipped"


class TestStructuredLogs:
    def test_json_log_lines_parse_and_carry_trace_ids(self):
        stream = io.StringIO()
        handler = tracing.configure_logging("json", stream=stream)
        try:
            with tracing.span("unit.logged", parent=None, foo="bar"):
                pass
        finally:
            logging.getLogger().removeHandler(handler)
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line.strip()
        ]
        span_lines = [
            line for line in lines if line["logger"] == tracing.SPAN_LOGGER_NAME
        ]
        assert span_lines, lines
        record = span_lines[0]
        assert record["span_name"] == "unit.logged"
        assert len(record["trace_id"]) == 32
        assert record["attrs"] == {"foo": "bar"}

    def test_text_formatter_appends_trace_id(self):
        formatter = tracing.TextLogFormatter()
        record = logging.LogRecord("x", logging.INFO, "f", 1, "msg", (), None)
        record.trace_id = "a" * 32
        assert formatter.format(record).endswith(f"trace_id={'a' * 32}")

    def test_configure_logging_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="log format"):
            tracing.configure_logging("xml")

    def test_configure_logging_is_idempotent(self):
        first = tracing.configure_logging("json", stream=io.StringIO())
        second = tracing.configure_logging("text", stream=io.StringIO())
        root = logging.getLogger()
        try:
            ours = [
                handler
                for handler in root.handlers
                if getattr(handler, "_repro_obs_handler", False)
            ]
            assert ours == [second]
            assert first not in root.handlers
        finally:
            root.removeHandler(second)


# --- SLO tracking ----------------------------------------------------------------
class TestSloTracker:
    def test_parse_slo_spec(self):
        assert parse_slo_spec("allocate=5,campaign=500") == {
            "allocate": 5.0,
            "campaign": 500.0,
        }
        with pytest.raises(ValueError):
            parse_slo_spec("allocate")
        with pytest.raises(ValueError):
            parse_slo_spec("allocate=-1")
        with pytest.raises(ValueError):
            parse_slo_spec("  ,  ")

    def test_defaults_applied(self):
        tracker = SloTracker()
        assert tracker.match("POST /allocate") == "allocate"
        assert set(tracker.to_json_dict()["objectives"]) == set(DEFAULT_SLO_MS)

    def test_longest_key_wins_and_unmatched_is_none(self):
        tracker = SloTracker({"allocate": 5.0, "allocate/batch": 10.0})
        assert tracker.match("POST /allocate/batch") == "allocate/batch"
        assert tracker.match("POST /allocate") == "allocate"
        assert tracker.observe("GET /healthz", 0.001) is None

    def test_burn_rate_arithmetic(self):
        tracker = SloTracker({"allocate": 10.0}, target=0.9)
        now = 1_000_000.0
        for _ in range(8):
            tracker.observe("POST /allocate", 0.005, now=now)
        for _ in range(2):
            tracker.observe("POST /allocate", 0.050, now=now)
        # 2 bad / 10 total = 0.2 bad fraction; error budget 0.1 -> burn 2.0.
        assert tracker.burn_rate("allocate", "5m", now=now) == pytest.approx(2.0)
        assert tracker.burn_rate("allocate", "1h", now=now) == pytest.approx(2.0)
        payload = tracker.to_json_dict(now=now)["objectives"]["allocate"]
        assert payload["good"] == 8
        assert payload["total"] == 10
        assert payload["compliance"] == pytest.approx(0.8)
        assert payload["burn_rate_5m"] == pytest.approx(2.0)

    def test_windows_expire_independently(self):
        tracker = SloTracker({"allocate": 10.0}, target=0.9)
        now = 1_000_000.0
        tracker.observe("POST /allocate", 0.050, now=now)
        # 10 minutes later the 5m window is empty but the 1h one remembers.
        later = now + 600.0
        assert tracker.burn_rate("allocate", "5m", now=later) == 0.0
        assert tracker.burn_rate("allocate", "1h", now=later) == pytest.approx(10.0)
        assert tracker.burn_rate("allocate", "1h", now=now + 7200.0) == 0.0

    def test_register_metrics_exposes_families(self):
        registry = MetricsRegistry()
        tracker = SloTracker({"allocate": 5.0})
        tracker.observe("POST /allocate", 0.001)
        tracker.register_metrics(registry)
        text = registry.render()
        assert 'repro_slo_threshold_seconds{slo="allocate"} 0.005' in text
        assert 'repro_slo_events_total{outcome="good",slo="allocate"} 1' in text
        assert 'repro_slo_burn_rate{slo="allocate",window="5m"}' in text

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            SloTracker(target=1.0)


# --- phase profiler --------------------------------------------------------------
class TestPhaseProfiler:
    def test_phases_accumulate_and_merge(self):
        profiler = PhaseProfiler()
        assert not profiler
        with profiler.phase("solve"):
            pass
        with profiler.phase("solve"):
            pass
        profiler.add("merge", 0.5)
        profiler.merge({"merge": 0.25, "pack": 0.1})
        phases = profiler.as_dict()
        assert list(phases) == sorted(phases)
        assert phases["merge"] == pytest.approx(0.75)
        assert phases["pack"] == pytest.approx(0.1)
        assert phases["solve"] >= 0.0
        assert profiler

    def test_fleet_run_records_phases(self, points, trace):
        campaign = FleetCampaign(
            HarvestScenario(), CampaignConfig(use_battery=True)
        )
        result = campaign.run([ReapPolicy(points, alpha=1.0)], trace)
        assert "harvest" in result.phase_timings
        assert "cell_solve" in result.phase_timings
        assert "scan_settle" in result.phase_timings
        assert all(value >= 0.0 for value in result.phase_timings.values())


# --- propagation across process shards -------------------------------------------
class TestShardTracePropagation:
    def test_pickle_transport_carries_trace(self, points, trace):
        scenarios = [
            HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
            for factor in (0.032, 0.05)
        ]
        policies = [ReapPolicy(points, alpha=1.0), StaticPolicy(points, "DP1")]
        with WorkerPool(campaign_workers=2) as pool:
            with tracing.span("test.campaign") as root:
                result = pool.run_campaign(
                    scenarios, policies, trace, CampaignConfig(use_battery=True)
                )
        assert "cell_solve" in result.phase_timings
        assert "context_publish" in result.phase_timings
        spans = tracing.recorder().spans(root.context.trace_id)
        assert spans is not None
        shard_spans = [s for s in spans if s["name"] == "campaign.shard"]
        assert shard_spans, spans
        for span in shard_spans:
            assert span["trace_id"] == root.context.trace_id
            assert span["parent_span_id"] == root.context.span_id


# --- HTTP integration ------------------------------------------------------------
class TestHttpObservability:
    @pytest.fixture(scope="class")
    def server(self, points):
        service = AllocationService(
            default_points=points,
            window_s=0.001,
            slo_ms={"allocate": 25.0, "campaign": 5000.0},
        )
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    @pytest.fixture()
    def client(self, server):
        return AllocationClient(port=server.port)

    def test_trace_propagates_handler_to_batcher_and_pool(self, client):
        client.allocate(AllocationRequest(energy_budget_j=7.31, alpha=1.3))
        trace_id = client.last_trace_id
        assert trace_id and len(trace_id) == 32
        payload = client.trace(trace_id)
        assert payload["trace_id"] == trace_id
        names = {span["name"] for span in payload["spans"]}
        assert "http.request" in names
        assert "batcher.solve" in names
        by_name = {span["name"]: span for span in payload["spans"]}
        assert all(
            span["trace_id"] == trace_id for span in payload["spans"]
        )
        assert (
            by_name["batcher.solve"]["parent_span_id"]
            == by_name["http.request"]["span_id"]
        )

    def test_fixed_traceparent_is_honoured(self, server):
        context = tracing.SpanContext(tracing.new_trace_id(), tracing.new_span_id())
        client = AllocationClient(
            port=server.port, traceparent=context.traceparent()
        )
        client.health()
        assert client.last_trace_id == context.trace_id
        spans = client.trace(context.trace_id)["spans"]
        request_spans = [s for s in spans if s["name"] == "http.request"]
        assert request_spans
        assert request_spans[0]["parent_span_id"] == context.span_id

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace("e" * 32)
        assert excinfo.value.status == 404

    def test_metrics_exposition(self, client):
        client.allocate(AllocationRequest(energy_budget_j=4.21, alpha=1.1))
        text = client.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="POST /allocate",status="200"}' in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert 'endpoint="POST /allocate"' in text
        assert "repro_slo_burn_rate" in text
        assert "repro_build_info" in text
        assert "repro_uptime_seconds" in text
        # Every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels
            float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))

    def test_stats_carries_slo_and_uptime(self, client):
        stats = client.stats()
        assert stats["uptime_s"] >= 0.0
        assert "allocate" in stats["slo"]["objectives"]

    def test_stats_endpoint_carries_histograms(self, client):
        client.health()
        client.health()
        endpoints = client.stats()["endpoints"]
        assert endpoints["GET /healthz"]["count"] >= 2
        assert endpoints["GET /healthz"]["p50_ms"] > 0.0

    def test_cache_hit_and_outcome_counters(self, client):
        request = AllocationRequest(energy_budget_j=6.17, alpha=1.7)
        first = client.allocate(request)
        second = client.allocate(request)
        assert not first.cache_hit
        assert second.cache_hit
        stats = client.stats()
        assert stats["latency"]["by_outcome"]["cache_hit"]["count"] >= 1
        text = client.metrics_text()
        assert 'repro_allocations_total{outcome="cache_hit"}' in text
        assert 'repro_allocations_total{outcome="solve"}' in text

    def test_client_cli_metrics_and_trace_verbs(self, server, capsys):
        header = (
            f"00-{tracing.new_trace_id()}-{tracing.new_span_id()}-01"
        )
        code = client_main(
            [
                "--port", str(server.port), "--traceparent", header,
                "allocate", "--budget", "9.13",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert client_main(["--port", str(server.port), "metrics"]) == 0
        assert "repro_requests_total" in capsys.readouterr().out
        trace_id = header.split("-")[1]
        assert client_main(["--port", str(server.port), "trace", trace_id]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_id"] == trace_id
        assert any(
            span["name"] == "http.request" for span in payload["spans"]
        )


# --- profile codec + CLI ---------------------------------------------------------
class TestProfileSurface:
    def test_campaign_response_profile_round_trip(self):
        response = CampaignResponse(
            campaign_id="c1",
            status="done",
            cells=4,
            trace_hours=48,
            profile={"cell_solve": 0.25, "merge": 0.01},
        )
        decoded = CampaignResponse.from_json_dict(
            json.loads(json.dumps(response.to_json_dict()))
        )
        assert decoded.profile == {"cell_solve": 0.25, "merge": 0.01}
        bare = CampaignResponse(
            campaign_id="c2", status="queued", cells=4, trace_hours=48
        )
        assert (
            CampaignResponse.from_json_dict(bare.to_json_dict()).profile is None
        )

    def test_fleet_cli_profile_flag(self, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        code = cli_main(
            [
                "fleet", "--hours", "24", "--alphas", "1.0",
                "--baselines", "DP1", "--profile", str(profile_path),
            ]
        )
        assert code == 0
        assert "phase profile written to" in capsys.readouterr().out
        payload = json.loads(profile_path.read_text())
        assert "cell_solve" in payload["phases"]
        assert payload["total_s"] == pytest.approx(
            sum(payload["phases"].values())
        )
