"""Cluster-scope observability: exact merges, liveness, durable timelines.

Three layers of coverage:

- pure functions: histogram quantiles return documented sentinels on
  empty input, a property test pins the pooled-quantile bounds, and the
  cluster exposition keeps per-process series under ``proc`` labels;
- store behaviour: snapshot TTL/dead-pid expiry, span ring persistence,
  and the per-job events timeline; a cluster read is current for the
  answering process without writing the store;
- end-to-end subprocess tests in the :mod:`test_restart_resume` style:
  ``--procs 2`` cluster scrapes equal the sum of per-process scrapes,
  the events timeline survives SIGKILL/restart with lease owners, and a
  trace resolves from a front-end that never handled its request.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.obs.cluster import (
    build_snapshot,
    decode_snapshot,
    encode_snapshot,
    render_cluster,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import SloTracker, merged_burn_rates
from repro.service.requests import AllocationRequest, CampaignRequest
from repro.service.server import AllocationService
from repro.service.store import CampaignStore

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# --- histogram quantile sentinels --------------------------------------------------
class TestHistogramQuantiles:
    def test_empty_histogram_quantiles_are_zero(self):
        histogram = Histogram("h_seconds", "h")
        for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
            value = histogram.quantile(fraction)
            assert value == 0.0
            assert value == value  # never NaN
        doc = histogram.summary()
        assert doc["p50_ms"] == doc["p95_ms"] == doc["p99_ms"] == 0.0

    def test_single_observation_quantiles_are_the_observation(self):
        histogram = Histogram("h_seconds", "h")
        histogram.observe(0.004)
        for fraction in (0.5, 0.95, 0.99):
            # Bucket estimate clamped to the max seen == the observation.
            assert histogram.quantile(fraction) == pytest.approx(0.004)

    def test_quantile_rejects_out_of_range_fractions(self):
        histogram = Histogram("h_seconds", "h")
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(
            st.floats(min_value=1e-6, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        b=st.lists(
            st.floats(min_value=1e-6, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=40,
        ),
        fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_merged_quantiles_bounded_by_inputs(self, a, b, fraction):
        """quantile(A + B) is bounded by min/max of the raw inputs.

        The estimator reports bucket upper bounds clamped to the largest
        sample seen, so every quantile of the pooled label set sits at or
        above the smallest recorded sample and at or below the largest --
        never NaN, never outside the observed range.  (Positive fractions
        only: quantile(0) is the degenerate "0 of N samples" rank.)
        """
        histogram = Histogram("h_seconds", "h", ("part",))
        for part, values in (("a", a), ("b", b)):
            for seconds in values:
                histogram.observe(seconds, part=part)
                histogram.observe(seconds, part="both")
        qm = histogram.quantile(fraction, part="both")
        assert min(a + b) <= qm <= max(a + b)
        # The pooled quantile never undercuts the pointwise smaller input
        # quantile (the mixture CDF is between the two).
        assert qm >= min(
            histogram.quantile(fraction, part="a"),
            histogram.quantile(fraction, part="b"),
        )


class TestRenderCluster:
    def test_proc_labels_and_synthesized_families(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests").inc()
        slo = SloTracker({"allocate": 5.0})
        now = time.time()
        slo.observe("POST /allocate", 0.001, now=now)
        slo.observe("POST /allocate", 0.100, now=now)
        snap_a = build_snapshot(registry, slo, proc="host:1")
        snap_b = build_snapshot(registry, slo, proc="host:2")
        text = render_cluster([snap_a, snap_b])
        assert 'proc="host:1"' in text
        assert 'proc="host:2"' in text
        assert "repro_cluster_frontends 2" in text
        assert "repro_cluster_slo_events_total" in text
        assert "repro_cluster_slo_burn_rate" in text
        # Every non-comment line is name{labels} value.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)

    def test_snapshot_roundtrips_through_wire_encoding(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests").inc()
        snapshot = build_snapshot(registry, proc="host:9")
        assert decode_snapshot(encode_snapshot(snapshot)) == snapshot


class TestMergedBurnRates:
    def test_merged_epochs_reconstruct_cluster_burn(self):
        now = time.time()
        trackers = [SloTracker({"allocate": 10.0}) for _ in range(2)]
        # 1 bad + 4 good on each process: cluster bad fraction 0.2.
        for tracker in trackers:
            tracker.observe("POST /allocate", 1.0, now=now)
            for _ in range(4):
                tracker.observe("POST /allocate", 0.001, now=now)
        merged = merged_burn_rates(
            [tracker.snapshot(now) for tracker in trackers], now=now
        )
        objective = merged["objectives"]["allocate"]
        assert objective["total"] == 10
        assert objective["good"] == 8
        assert objective["burn_rate_5m"] == pytest.approx(0.2 / 0.01)


# --- store: snapshot liveness, span ring, events ----------------------------------
class TestStoreObservability:
    def test_dead_process_snapshots_expire(self, tmp_path):
        path = str(tmp_path / "jobs.db")
        live = CampaignStore(path)
        host = socket.gethostname()
        dead = CampaignStore(path, owner=f"{host}:999999:dd")
        dead.publish_snapshot(b'{"proc": "dead"}')
        live.publish_snapshot(b'{"proc": "live"}')
        procs = [proc for proc, _, _ in live.live_snapshots()]
        # The dead pid is probed same-host and dropped immediately.
        assert procs == [live.proc]
        dead.close()
        live.close()

    def test_stale_snapshots_expire_after_ttl(self, tmp_path):
        store = CampaignStore(str(tmp_path / "jobs.db"))
        store.publish_snapshot(b"{}", proc="otherhost:1")
        assert [p for p, _, _ in store.live_snapshots(ttl_s=60.0)
                if p == "otherhost:1"]
        time.sleep(0.05)
        assert not [p for p, _, _ in store.live_snapshots(ttl_s=0.01)
                    if p == "otherhost:1"]
        # Expiry deleted the row: a generous TTL cannot resurrect it.
        assert not [p for p, _, _ in store.live_snapshots(ttl_s=60.0)
                    if p == "otherhost:1"]
        store.close()

    def test_republish_overwrites_snapshot(self, tmp_path):
        store = CampaignStore(str(tmp_path / "jobs.db"))
        store.publish_snapshot(b'{"v": 1}')
        store.publish_snapshot(b'{"v": 2}')
        rows = store.live_snapshots()
        assert len(rows) == 1
        assert rows[0][1] == b'{"v": 2}'
        store.close()

    def test_span_ring_retention(self, tmp_path):
        store = CampaignStore(str(tmp_path / "jobs.db"))
        records = [
            {"trace_id": f"{i:032x}", "span_id": f"{i:016x}",
             "name": "x", "start_s": float(i)}
            for i in range(10)
        ]
        assert store.persist_spans(records, retention=4) == 10
        assert store.trace_spans(f"{1:032x}") == []  # aged out of the ring
        assert store.trace_spans(f"{9:032x}")[0]["start_s"] == 9.0
        store.close()

    def test_events_timeline_records_owners(self, tmp_path):
        store = CampaignStore(str(tmp_path / "jobs.db"))
        request = CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",))
        job_id, _created = store.submit(request)
        assert store.acquire_lease(job_id)
        store.start(job_id, 24)
        store.fail(job_id, "boom")
        events = store.events(job_id)
        kinds = [event["kind"] for event in events]
        assert kinds == ["submit", "lease_acquire", "start", "fail"]
        assert all(event["owner"] == store.proc for event in events)
        assert [event["seq"] for event in events] == sorted(
            event["seq"] for event in events
        )
        store.close()

    def test_cluster_reads_are_current_and_write_nothing(self, tmp_path):
        service = AllocationService(store=str(tmp_path / "jobs.db"))
        try:
            # One beat stores a snapshot; the traffic after it is newer.
            service.publish_observability()
            asyncio.run(service.allocate(AllocationRequest(5.0)))
            service.observe_request("POST /allocate", 0.002, 200)
            text = service.cluster_metrics_text()
            doc = service.cluster_stats_doc()
            published = service.store.snapshots_published.value()
        finally:
            service.close()
        assert published == 1
        # This process appears once, with the request it just served,
        # and not a second time from its stored (stale) row.
        assert "repro_cluster_frontends 1" in text
        assert _parse_counter(
            text, "repro_requests_total",
            endpoint="POST /allocate", proc=service.proc,
        ) == 1
        assert list(doc["procs"]) == [service.proc]
        assert doc["procs"][service.proc]["latency"]["solves"] == 1


# --- end-to-end: --procs 2, SIGKILL, cross-process traces -------------------------
REQUEST = CampaignRequest(hours=96, alphas=(1.0,), baselines=("DP1",))


def _serve(tmp_path, *extra_args):
    """Launch one ``repro serve`` subprocess; returns (proc, port)."""
    port_file = tmp_path / f"port-{time.monotonic_ns()}"
    log_path = tmp_path / f"log-{time.monotonic_ns()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), *extra_args],
            env=env, stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died during startup:\n{log_path.read_text()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"server never wrote its port:\n{log_path.read_text()}")


def _get(port, path, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get_text(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return response.read().decode()


def _submit(port, request):
    body = json.dumps(request.to_json_dict()).encode("utf-8")
    raw = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/campaign", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(raw) as response:
        return json.loads(response.read())


def _wait_done(port, campaign_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = _get(port, f"/v1/campaign/{campaign_id}")
        if status["status"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.1)
    raise TimeoutError(f"campaign {campaign_id} did not finish")


def _parse_counter(text, name, **labels):
    """Sum a counter family's samples matching the given labels."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name) or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if all(f'{key}="{val}"' in series for key, val in labels.items()):
            total += float(value)
    return total


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"),
    reason="SO_REUSEPORT not available on this platform",
)
class TestClusterScrapes:
    def test_cluster_scope_equals_sum_of_self_scrapes(self, tmp_path):
        store = tmp_path / "jobs.db"
        proc, port = _serve(tmp_path, "--store", str(store), "--procs", "2")
        try:
            pids = set()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(pids) < 2:
                pids.add(_get(port, "/v1/healthz")["pid"])
                time.sleep(0.01)
            assert len(pids) == 2, f"only {pids} answered"
            # A traffic-stable counter (scraping mutates request counters,
            # so those cannot be compared across scrapes): journal appends
            # from one finished campaign, fixed once the job is done.
            submitted = _submit(port, REQUEST)
            _wait_done(port, submitted["campaign_id"])

            # Hammer /metrics until both procs' self scrapes were seen.
            # The serving proc is read from the response itself (its
            # repro_frontend_up label) -- a separate /healthz call could
            # be routed to the *other* pid and mislabel the counter.
            per_pid = {}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(per_pid) < 2:
                text = _get_text(port, "/v1/metrics")
                served_by = text.split('repro_frontend_up{proc="')[1]
                per_pid[served_by.split('"')[0]] = _parse_counter(
                    text, "repro_store_appends_total", kind="shard_done"
                )
                time.sleep(0.01)
            assert len(per_pid) == 2

            # The cluster scrape merges *stored* snapshots: the campaign
            # pid's may be up to one publish beat (~2 s) stale, so poll
            # until the merged counter catches up with the self scrapes.
            expected = sum(per_pid.values())
            deadline = time.monotonic() + 30.0
            while True:
                cluster = _get_text(port, "/v1/metrics?scope=cluster")
                merged = _parse_counter(
                    cluster, "repro_store_appends_total", kind="shard_done"
                )
                if merged == pytest.approx(expected):
                    break
                assert time.monotonic() < deadline, (merged, expected)
                time.sleep(0.25)
            assert 'proc="' in cluster
            assert "repro_cluster_frontends 2" in cluster
            # Both processes' liveness gauges appear with proc labels.
            up_procs = {
                line.split('proc="')[1].split('"')[0]
                for line in cluster.splitlines()
                if line.startswith("repro_frontend_up{")
            }
            assert len(up_procs) == 2
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_trace_resolves_from_any_frontend(self, tmp_path):
        store = tmp_path / "jobs.db"
        proc, port = _serve(tmp_path, "--store", str(store), "--procs", "2")
        try:
            trace_id = "ab" * 16
            traceparent = f"00-{trace_id}-{'cd' * 8}-01"
            first = _get(
                port, "/v1/healthz", headers={"traceparent": traceparent}
            )
            # Wait for the handling process's publisher beat to drain the
            # span, then require every process to resolve the trace.
            deadline = time.monotonic() + 30.0
            answers = set()
            spans = None
            while time.monotonic() < deadline and len(answers) < 2:
                try:
                    doc = _get(port, f"/v1/trace/{trace_id}")
                except urllib.error.HTTPError as error:
                    error.close()
                    time.sleep(0.2)
                    continue
                spans = doc["spans"]
                answers.add(_get(port, "/v1/healthz")["pid"])
                time.sleep(0.01)
            assert len(answers) == 2, f"only {answers} answered the trace"
            assert spans and spans[0]["trace_id"] == trace_id
            assert first["pid"] in answers  # handled by one of them
        finally:
            proc.kill()
            proc.wait(timeout=10)


class TestEventsTimelineDurability:
    def test_events_survive_sigkill_and_restart(self, tmp_path):
        store = tmp_path / "jobs.db"
        proc, port = _serve(tmp_path, "--store", str(store))
        try:
            submitted = _submit(port, REQUEST)
            campaign_id = submitted["campaign_id"]
            _wait_done(port, campaign_id)
            events = _get(port, f"/v1/campaign/{campaign_id}/events")["events"]
            kinds = [event["kind"] for event in events]
            assert kinds[0] == "submit"
            assert "lease_acquire" in kinds
            assert "shard_done" in kinds
            assert kinds[-1] == "finish"
            owners = {event["owner"] for event in events}
            assert all(owner for owner in owners)
        finally:
            proc.kill()
            proc.wait(timeout=10)

        # SIGKILL + restart: the journaled timeline replays identically,
        # extended only by whatever the restart appends (nothing here --
        # the job already finished).
        proc, port = _serve(tmp_path, "--store", str(store))
        try:
            replayed = _get(port, f"/v1/campaign/{campaign_id}/events")
            assert [e["kind"] for e in replayed["events"]] == kinds
            assert _get(port, f"/v1/campaign/{campaign_id}")["status"] == "done"
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_events_404_for_unknown_campaign(self, tmp_path):
        proc, port = _serve(
            tmp_path, "--store", str(tmp_path / "jobs.db")
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(port, "/v1/campaign/c999/events")
            excinfo.value.close()
            assert excinfo.value.code == 404
        finally:
            proc.kill()
            proc.wait(timeout=10)
