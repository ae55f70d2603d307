"""Python client for the allocation service (stdlib ``http.client`` only).

:class:`AllocationClient` is a small blocking client for the JSON-over-HTTP
protocol of :mod:`repro.service.server`: one connection per call, typed
requests in, typed responses out -- including fleet campaigns submitted
with ``POST /campaign`` and streamed back as chunked NDJSON columns.  It
doubles as a command-line tool for shell scripting (the CI smoke test
drives a live server with it)::

    python -m repro.service.client --port 8734 health
    python -m repro.service.client --port 8734 allocate --budget 5 --alpha 1
    python -m repro.service.client --port 8734 stats          # human summary
    python -m repro.service.client --port 8734 stats --json   # raw counters
    python -m repro.service.client --port 8734 metrics        # Prometheus text
    python -m repro.service.client --port 8734 metrics --scope cluster
    python -m repro.service.client --port 8734 top            # live dashboard
    python -m repro.service.client --port 8734 trace <trace_id>
    python -m repro.service.client --port 8734 campaign events c1
    python -m repro.service.client --port 8734 campaign submit --hours 48
    python -m repro.service.client --port 8734 campaign status c1
    python -m repro.service.client --port 8734 campaign run --hours 48
    python -m repro.service.client --port 8734 campaign columns c1
    python -m repro.service.client --port 8734 campaign cancel c1
    python -m repro.service.client --port 8734 campaign delete c1

Each command prints the server's JSON reply on stdout and exits non-zero on
transport or HTTP errors.  All requests go to the versioned ``/v1/...``
routes; error replies carry the uniform envelope, surfaced through
:attr:`ServiceError.code`.

Every request carries a W3C ``traceparent`` header -- a fresh trace per
call by default, or a fixed one via ``traceparent=`` /
``--traceparent`` -- so any client call can be followed through the
server's span logs and ``GET /trace/<id>``; the id used last is kept on
:attr:`AllocationClient.last_trace_id`.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.service.requests import (
    AllocationRequest,
    AllocationResponse,
    CampaignRequest,
    CampaignResponse,
)


class ServiceError(RuntimeError):
    """The server answered with a non-200 status."""

    def __init__(self, status: int, payload: Any) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload

    @property
    def code(self) -> Optional[str]:
        """The stable error code from the ``/v1`` envelope, if present.

        ``/v1`` errors look like ``{"error": {"code": ..., "message": ...,
        "detail": ...}}``; servers from before the envelope send a bare
        string under ``"error"``, which yields ``None`` here.
        """
        if isinstance(self.payload, dict):
            envelope = self.payload.get("error")
            if isinstance(envelope, dict):
                code = envelope.get("code")
                return str(code) if code is not None else None
        return None

    @property
    def detail(self) -> Any:
        """The envelope's machine-readable ``detail`` field, if present."""
        if isinstance(self.payload, dict):
            envelope = self.payload.get("error")
            if isinstance(envelope, dict):
                return envelope.get("detail")
        return None


class AllocationClient:
    """Blocking client bound to one server address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8734,
        timeout_s: float = 10.0,
        traceparent: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        #: Fixed ``traceparent`` header sent on every request (one trace
        #: spanning all of this client's calls); ``None`` starts a fresh
        #: trace per call.
        self.traceparent = traceparent
        #: Trace id of the most recent request (whatever header was sent).
        self.last_trace_id: Optional[str] = None

    # --- transport --------------------------------------------------------------
    def _trace_headers(self) -> Dict[str, str]:
        """The ``traceparent`` header of one outgoing request."""
        if self.traceparent is not None:
            header = self.traceparent
            context = tracing.parse_traceparent(header)
            self.last_trace_id = context.trace_id if context else None
        else:
            context = tracing.SpanContext(
                tracing.new_trace_id(), tracing.new_span_id()
            )
            header = tracing.format_traceparent(context)
            self.last_trace_id = context.trace_id
        return {"traceparent": header}

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            encoded = None if body is None else json.dumps(body).encode("utf-8")
            headers = self._trace_headers()
            if encoded:
                headers["Content-Type"] = "application/json"
            if extra_headers:
                headers.update(extra_headers)
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            payload = json.loads(raw.decode("utf-8")) if raw else None
            if response.status != 200:
                raise ServiceError(response.status, payload)
            return payload
        finally:
            connection.close()

    def _call_text(self, method: str, path: str) -> str:
        """Like :meth:`_call` for endpoints answering plain text."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(method, path, headers=self._trace_headers())
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                try:
                    payload: Any = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = raw.decode("utf-8", "replace")
                raise ServiceError(response.status, payload)
            return raw.decode("utf-8")
        finally:
            connection.close()

    # --- typed API --------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._call("GET", "/v1/healthz")

    def stats(self, scope: str = "self") -> Dict[str, Any]:
        """``GET /v1/stats`` (``scope="cluster"`` merges all live procs)."""
        suffix = "" if scope == "self" else f"?scope={scope}"
        return self._call("GET", f"/v1/stats{suffix}")

    def metrics_text(self, scope: str = "self") -> str:
        """``GET /v1/metrics``: the raw Prometheus text exposition.

        ``scope="cluster"`` asks a store-backed multi-process front-end
        for the merged exposition (per-process series under a ``proc``
        label plus synthesized ``repro_cluster_*`` families).
        """
        suffix = "" if scope == "self" else f"?scope={scope}"
        return self._call_text("GET", f"/v1/metrics{suffix}")

    def trace(self, trace_id: str) -> Dict[str, Any]:
        """``GET /v1/trace/<id>``: the recorded spans of one trace."""
        return self._call("GET", f"/v1/trace/{trace_id}")

    def campaign_events(self, campaign_id: str) -> Dict[str, Any]:
        """``GET /v1/campaign/<id>/events``: the journaled job timeline.

        Needs a store-backed server; each event carries ``kind``, ``at``
        (epoch seconds), the owning front-end's ``host:pid``, and
        kind-specific ``details`` (shard cells, steal provenance, ...).
        """
        return self._call("GET", f"/v1/campaign/{campaign_id}/events")

    def allocate(self, request: AllocationRequest) -> AllocationResponse:
        """``POST /v1/allocate`` one typed request."""
        payload = self._call("POST", "/v1/allocate", request.to_json_dict())
        return AllocationResponse.from_json_dict(payload)

    def allocate_batch(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResponse]:
        """``POST /v1/allocate/batch``: the server coalesces the burst."""
        payload = self._call(
            "POST",
            "/v1/allocate/batch",
            {"requests": [request.to_json_dict() for request in requests]},
        )
        return [
            AllocationResponse.from_json_dict(entry)
            for entry in payload["responses"]
        ]

    # --- campaigns --------------------------------------------------------------
    def submit_campaign(
        self,
        request: CampaignRequest,
        idempotency_key: Optional[str] = None,
    ) -> CampaignResponse:
        """``POST /v1/campaign``: submit a fleet study, returns its id/status.

        ``idempotency_key`` makes the submission safe to retry: the server
        maps the key to the first job it created for it, so a resent
        request (client timeout, network retry) returns the original
        campaign id instead of starting a duplicate run.
        """
        extra = (
            {"Idempotency-Key": idempotency_key}
            if idempotency_key is not None
            else None
        )
        payload = self._call(
            "POST", "/v1/campaign", request.to_json_dict(), extra_headers=extra
        )
        return CampaignResponse.from_json_dict(payload)

    def campaign_status(self, campaign_id: str) -> CampaignResponse:
        """``GET /v1/campaign/<id>``: poll one campaign."""
        payload = self._call("GET", f"/v1/campaign/{campaign_id}")
        return CampaignResponse.from_json_dict(payload)

    def cancel_campaign(self, campaign_id: str) -> CampaignResponse:
        """``POST /v1/campaign/<id>/cancel``: request cancellation.

        Cancellation is cooperative -- a running campaign stops at its
        next shard boundary -- so the returned status may still read
        ``running``; poll until it reaches ``cancelled``.  Cancelling an
        already-finished campaign raises :class:`ServiceError` (HTTP 409,
        code ``conflict``).
        """
        payload = self._call("POST", f"/v1/campaign/{campaign_id}/cancel")
        return CampaignResponse.from_json_dict(payload)

    def delete_campaign(self, campaign_id: str) -> Dict[str, Any]:
        """``DELETE /v1/campaign/<id>``: drop a finished campaign.

        The server frees the retained result; polling the id afterwards
        yields 404.  Deleting a still-running campaign raises
        :class:`ServiceError` (HTTP 409, code ``job_running``).
        """
        return self._call("DELETE", f"/v1/campaign/{campaign_id}")

    def wait_for_campaign(
        self,
        campaign_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.2,
    ) -> CampaignResponse:
        """Poll until the campaign reaches a terminal state.

        ``done`` and ``cancelled`` return the final status; ``failed``
        raises :class:`ServiceError` (status 0); ``TimeoutError`` when
        the deadline passes first.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.campaign_status(campaign_id)
            if status.status == "failed":
                raise ServiceError(0, f"campaign failed: {status.error}")
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id!r} still {status.status} after "
                    f"{timeout_s:g}s"
                )
            time.sleep(poll_s)

    def campaign_payloads(
        self, campaign_id: str
    ) -> Iterator[Dict[str, Any]]:
        """``GET /campaign/<id>/columns``: decode the NDJSON stream lazily.

        Yields the meta payload first, then one payload per (scenario,
        policy) cell, as the chunks arrive -- the whole grid is never
        buffered as one JSON document on either side.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                "GET",
                f"/v1/campaign/{campaign_id}/columns",
                headers=self._trace_headers(),
            )
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read()
                payload = json.loads(raw.decode("utf-8")) if raw else None
                raise ServiceError(response.status, payload)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def campaign_columns_binary(
        self, campaign_id: str, dtype: str = "f8", codec: str = "zlib"
    ) -> bytes:
        """``GET /campaign/<id>/columns?format=binary``: the raw byte stream.

        ``dtype`` is ``"f8"`` (lossless, the default) or ``"f4"``
        (float32, roughly half the float payload).  ``codec`` is
        ``"zlib"`` (deflated frames, the default) or ``"raw"``
        (uncompressed -- the server streams zero-copy views, trading
        bytes on the wire for no encode cost; the server deflates each
        f8/zlib cell at most once, so after a job's first zlib fetch raw
        saves nothing).  The returned bytes decode
        with :meth:`repro.simulation.fleet.FleetResult.from_binary`.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                "GET",
                f"/v1/campaign/{campaign_id}/columns"
                f"?format=binary&dtype={dtype}&codec={codec}",
                headers=self._trace_headers(),
            )
            response = connection.getresponse()
            raw = response.read()
            if response.status != 200:
                payload = json.loads(raw.decode("utf-8")) if raw else None
                raise ServiceError(response.status, payload)
            return raw
        finally:
            connection.close()

    def campaign_result(
        self,
        campaign_id: str,
        binary: bool = False,
        dtype: str = "f8",
        codec: str = "zlib",
    ):
        """Rebuild the campaign's full :class:`FleetResult` from the stream.

        The reconstruction equals the local
        :class:`~repro.simulation.fleet.FleetCampaign` run to
        floating-point round-off.  With ``binary`` the columns travel as
        the compact binary wire format instead of NDJSON -- identical
        float64 payloads, a fraction of the bytes.
        """
        # Imported lazily: plain allocate/stats clients never touch the
        # simulation stack.
        from repro.simulation.fleet import FleetResult

        if binary:
            return FleetResult.from_binary(
                self.campaign_columns_binary(campaign_id, dtype=dtype, codec=codec)
            )
        payloads = self.campaign_payloads(campaign_id)
        meta = next(payloads)
        return FleetResult.from_payloads(meta, payloads)

    def run_campaign(
        self,
        request: CampaignRequest,
        timeout_s: float = 300.0,
        binary: bool = False,
    ) -> Tuple[CampaignResponse, Any]:
        """Submit, wait, and fetch: one call from study to FleetResult."""
        submitted = self.submit_campaign(request)
        status = self.wait_for_campaign(
            submitted.campaign_id, timeout_s=timeout_s
        )
        return status, self.campaign_result(submitted.campaign_id, binary=binary)


# --- human-readable stats ---------------------------------------------------------
def format_stats_summary(stats: Dict[str, Any]) -> str:
    """Render a ``/stats`` payload as a short human-readable summary.

    Covers the headline service-health numbers: cache hit rate, batcher
    coalescing ratio and event-loop solve utilization, SLO compliance, and
    per-endpoint latency percentiles.  ``stats --json`` prints the raw counters
    instead.
    """
    lines: List[str] = []
    uptime_s = float(stats.get("uptime_s", 0.0))

    cache = stats.get("cache", {})
    lookups = int(cache.get("lookups", 0))
    lines.append(
        "cache      {hits}/{lookups} hits ({rate:.1f}%), "
        "{entries}/{max_entries} entries, {evictions} evictions".format(
            hits=int(cache.get("hits", 0)),
            lookups=lookups,
            rate=100.0 * float(cache.get("hit_rate", 0.0)),
            entries=int(cache.get("entries", 0)),
            max_entries=int(cache.get("max_entries", 0)),
            evictions=int(cache.get("evictions", 0)),
        )
    )

    batcher = stats.get("batcher", {})
    batches = int(batcher.get("batches", 0))
    requests = int(batcher.get("requests", 0))
    coalescing = requests / batches if batches else 0.0
    lines.append(
        f"batcher    {requests} requests in {batches} batches "
        f"({coalescing:.1f}x coalescing, largest "
        f"{int(batcher.get('largest_batch', 0))})"
    )
    busy_ms = float(batcher.get("busy_ms", 0.0))
    utilization = (
        100.0 * busy_ms / (uptime_s * 1000.0) if uptime_s > 0 else 0.0
    )
    lines.append(
        f"solve      busy {busy_ms:.1f}ms ({utilization:.1f}% of the event "
        f"loop over {uptime_s:.0f}s), worst batch "
        f"{float(batcher.get('max_solve_ms', 0.0)):.2f}ms"
    )

    pool = stats.get("pool", {})
    lines.append(
        f"pool       {int(pool.get('campaign_workers', 0))} campaign "
        f"workers, {int(pool.get('campaigns', 0))} campaigns"
    )

    slo = stats.get("slo", {})
    for key, objective in sorted(slo.get("objectives", {}).items()):
        total = int(objective.get("total", 0))
        lines.append(
            "slo        {key}: {compliance:.2f}% <= {threshold:g}ms "
            "({good}/{total}), burn 5m {b5:.2f} / 1h {b1:.2f}".format(
                key=key,
                compliance=100.0 * float(objective.get("compliance", 1.0)),
                threshold=float(objective.get("threshold_ms", 0.0)),
                good=int(objective.get("good", 0)),
                total=total,
                b5=float(objective.get("burn_rate_5m", 0.0)),
                b1=float(objective.get("burn_rate_1h", 0.0)),
            )
        )

    endpoints = stats.get("endpoints", {})
    if endpoints:
        lines.append("endpoint latency (ms):")
        width = max(len(name) for name in endpoints)
        for name in sorted(endpoints):
            entry = endpoints[name]
            lines.append(
                "  {name:<{width}}  n={count:<6d} p50={p50:>8.3f}  "
                "p95={p95:>8.3f}  p99={p99:>8.3f}  max={max_ms:>8.3f}".format(
                    name=name,
                    width=width,
                    count=int(entry.get("count", 0)),
                    p50=float(entry.get("p50_ms", 0.0)),
                    p95=float(entry.get("p95_ms", 0.0)),
                    p99=float(entry.get("p99_ms", 0.0)),
                    max_ms=float(entry.get("max_ms", 0.0)),
                )
            )
    return "\n".join(lines)


# --- live dashboard ---------------------------------------------------------------
def _proc_row(proc: str, stats: Dict[str, Any]) -> Dict[str, Any]:
    """One front-end's headline numbers for a ``repro top`` row."""
    uptime_s = float(stats.get("uptime_s", 0.0)) or 1e-9
    endpoints = stats.get("endpoints", {})
    requests = sum(int(entry.get("count", 0)) for entry in endpoints.values())
    p95_ms = max(
        (float(entry.get("p95_ms", 0.0)) for entry in endpoints.values()),
        default=0.0,
    )
    # One event loop solves every batch: util is its busy share.
    busy_ms = float(stats.get("batcher", {}).get("busy_ms", 0.0))
    utilization = 100.0 * busy_ms / (uptime_s * 1000.0)
    cache = stats.get("cache", {})
    return {
        "proc": proc,
        "rps": requests / uptime_s,
        "p95_ms": p95_ms,
        "util": utilization,
        "requests": requests,
        "hit_rate": 100.0 * float(cache.get("hit_rate", 0.0)),
        "uptime_s": uptime_s,
    }


def format_top(doc: Dict[str, Any]) -> str:
    """Render one ``repro top`` frame from a cluster (or self) stats doc.

    ``doc`` is ``GET /v1/stats?scope=cluster`` -- per-process documents
    under ``procs``, the merged ``slo`` section, active ``jobs``, and
    ``recent_steals``.  A plain ``scope=self`` document renders too (one
    row, no jobs/steals sections) so the dashboard degrades gracefully
    against store-less servers.
    """
    procs = doc.get("procs")
    if procs is None:  # scope=self fallback: treat it as one anonymous proc
        procs = {"(self)": doc}
    lines: List[str] = [
        f"repro top -- {len(procs)} front-end(s), scope={doc.get('scope', 'self')}"
    ]
    lines.append("")
    lines.append(
        f"{'PROC':<22} {'RPS':>8} {'P95MS':>9} {'UTIL%':>7} "
        f"{'REQS':>8} {'HIT%':>6} {'UP_S':>7}"
    )
    for proc in sorted(procs):
        row = _proc_row(proc, procs[proc] or {})
        lines.append(
            f"{row['proc']:<22} {row['rps']:>8.1f} {row['p95_ms']:>9.3f} "
            f"{row['util']:>7.1f} {row['requests']:>8d} "
            f"{row['hit_rate']:>6.1f} {row['uptime_s']:>7.0f}"
        )
    objectives = (doc.get("slo") or {}).get("objectives", {})
    if objectives:
        lines.append("")
        lines.append(
            f"{'SLO':<22} {'COMPLY%':>8} {'BURN_5M':>9} {'BURN_1H':>9} "
            f"{'GOOD/TOTAL':>14}"
        )
        for key in sorted(objectives):
            entry = objectives[key]
            total = int(entry.get("total", 0))
            lines.append(
                f"{key:<22} "
                f"{100.0 * float(entry.get('compliance', 1.0)):>8.2f} "
                f"{float(entry.get('burn_rate_5m', 0.0)):>9.2f} "
                f"{float(entry.get('burn_rate_1h', 0.0)):>9.2f} "
                f"{int(entry.get('good', 0)):>7d}/{total:<6d}"
            )
    if "jobs" in doc:
        lines.append("")
        lines.append(f"{'JOB':<10} {'STATUS':<9} {'SHARDS':>12} OWNER")
        jobs = doc.get("jobs") or []
        for job in jobs:
            total = job.get("cells_total")
            progress = f"{job.get('cells_done', 0)}/{total if total else '?'}"
            lines.append(
                f"{job.get('campaign_id', '?'):<10} "
                f"{job.get('status', '?'):<9} {progress:>12} "
                f"{job.get('owner') or '-'}"
            )
        if not jobs:
            lines.append("(no active jobs)")
    steals = doc.get("recent_steals") or []
    if steals:
        lines.append("")
        lines.append("RECENT LEASE STEALS")
        for steal in steals:
            at = time.strftime(
                "%H:%M:%S", time.localtime(float(steal.get("at", 0.0)))
            )
            lines.append(
                f"  {at} {steal.get('job_id', '?')}: "
                f"{steal.get('owner', '?')} <- "
                f"{steal.get('previous_owner') or '?'}"
            )
    return "\n".join(lines)


def run_top(
    client: "AllocationClient",
    interval_s: float = 2.0,
    once: bool = False,
    iterations: Optional[int] = None,
) -> int:
    """The ``repro top`` loop: fetch, render, refresh until interrupted.

    Prefers ``scope=cluster``; a server without a store answers that with
    HTTP 400, in which case each frame falls back to ``scope=self``.
    ``once`` prints a single frame without clearing the terminal (CI and
    piping); ``iterations`` bounds the loop for tests.
    """
    frame = 0
    while True:
        try:
            doc = client.stats(scope="cluster")
        except ServiceError as error:
            if error.status != 400:
                raise
            doc = client.stats(scope="self")
        rendered = format_top(doc)
        if once:
            print(rendered)
            return 0
        # Clear + home between frames, like top(1) -- no curses dependency.
        sys.stdout.write("\x1b[2J\x1b[H" + rendered + "\n")
        sys.stdout.flush()
        frame += 1
        if iterations is not None and frame >= iterations:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0


# --- command-line front ----------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the client's command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro.service.client",
        description="talk to a running REAP allocation service",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8734)
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-call timeout in seconds")
    parser.add_argument("--traceparent", default=None,
                        help="fixed W3C traceparent header to send on every "
                             "request (default: a fresh trace per call)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("health", help="liveness probe")
    stats = commands.add_parser(
        "stats",
        help="service health summary (hit rate, coalescing, percentiles)",
    )
    stats.add_argument("--json", action="store_true",
                       help="print the raw /stats counters as JSON instead "
                            "of the human-readable summary")
    stats.add_argument("--scope", default="self", choices=["self", "cluster"],
                       help="cluster merges every live front-end's counters "
                            "(needs a store-backed server)")
    metrics = commands.add_parser(
        "metrics", help="raw Prometheus text from /metrics"
    )
    metrics.add_argument("--scope", default="self",
                         choices=["self", "cluster"],
                         help="cluster merges every live front-end's series "
                              "under a proc label (needs a store)")
    top = commands.add_parser(
        "top",
        help="live refreshing dashboard of the cluster (per-process rows, "
             "SLO burn, active jobs, lease steals)",
    )
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen clearing)")
    trace = commands.add_parser(
        "trace", help="fetch one trace's recorded spans by id"
    )
    trace.add_argument("id", help="32-hex-digit trace id")

    allocate = commands.add_parser("allocate", help="solve one allocation")
    allocate.add_argument("--budget", type=float, required=True,
                          help="energy budget in joules")
    allocate.add_argument("--alpha", type=float, default=1.0)

    campaign = commands.add_parser(
        "campaign", help="submit/poll/stream fleet campaigns"
    )
    verbs = campaign.add_subparsers(dest="verb", required=True)
    for verb in ("submit", "run"):
        sub = verbs.add_parser(
            verb,
            help=(
                "submit a fleet study"
                if verb == "submit"
                else "submit, wait for completion, print the final status"
            ),
        )
        sub.add_argument("--alphas", type=float, nargs="+", default=[1.0, 2.0])
        sub.add_argument("--baselines", nargs="*", default=["DP1", "DP3", "DP5"])
        sub.add_argument("--exposures", type=float, nargs="+", default=[0.032])
        sub.add_argument("--month", type=int, default=9)
        sub.add_argument("--seed", type=int, default=2015)
        sub.add_argument("--hours", type=int, default=None)
        sub.add_argument("--open-loop", action="store_true")
        sub.add_argument("--planners", nargs="*", default=[],
                         help="forecast-driven planning policies to add "
                              "(horizon and/or mpc)")
        sub.add_argument("--horizon", type=int, default=24)
        sub.add_argument("--forecast", default="perfect")
        sub.add_argument("--forecast-noise", type=float, default=0.2)
        sub.add_argument("--forecast-seed", type=int, default=7)
        sub.add_argument("--idempotency-key", default=None,
                         help="retry-safe submission key: resubmitting "
                              "with the same key returns the original "
                              "campaign id instead of a duplicate run")
    status = verbs.add_parser("status", help="poll one campaign by id")
    status.add_argument("id")
    cancel = verbs.add_parser(
        "cancel",
        help="request cancellation (takes effect at the next shard boundary)",
    )
    cancel.add_argument("id")
    delete = verbs.add_parser(
        "delete", help="delete a finished campaign (it 404s afterwards)"
    )
    delete.add_argument("id")
    events = verbs.add_parser(
        "events",
        help="journaled lifecycle timeline of one campaign "
             "(needs a store-backed server)",
    )
    events.add_argument("id")
    columns = verbs.add_parser(
        "columns",
        help="stream a finished campaign's columns (NDJSON by default)",
    )
    columns.add_argument("id")
    columns.add_argument("--binary", action="store_true",
                         help="fetch the compact binary columnar wire "
                              "format and decode it locally")
    columns.add_argument("--dtype", default="f8", choices=["f8", "f4"],
                         help="binary float width (f8 is lossless)")
    columns.add_argument("--codec", default="zlib", choices=["zlib", "raw"],
                         help="binary frame codec (raw streams zero-copy "
                              "views, skipping the deflate pass)")
    return parser


def _campaign_request(args: argparse.Namespace) -> CampaignRequest:
    """Lower the submit/run CLI arguments to a typed campaign request."""
    return CampaignRequest(
        alphas=tuple(args.alphas),
        baselines=tuple(args.baselines),
        exposure_factors=tuple(args.exposures),
        month=args.month,
        seed=args.seed,
        hours=args.hours,
        use_battery=not args.open_loop,
        planners=tuple(args.planners),
        horizon_periods=args.horizon,
        forecast=args.forecast,
        forecast_noise=args.forecast_noise,
        forecast_seed=args.forecast_seed,
    )


def _campaign_command(client: AllocationClient, args: argparse.Namespace) -> Any:
    """Run one campaign verb; returns the JSON payload to print."""
    if args.verb == "submit":
        return client.submit_campaign(
            _campaign_request(args), idempotency_key=args.idempotency_key
        ).to_json_dict()
    if args.verb == "run":
        submitted = client.submit_campaign(
            _campaign_request(args), idempotency_key=args.idempotency_key
        )
        status = client.wait_for_campaign(submitted.campaign_id)
        return status.to_json_dict()
    if args.verb == "status":
        return client.campaign_status(args.id).to_json_dict()
    if args.verb == "cancel":
        return client.cancel_campaign(args.id).to_json_dict()
    if args.verb == "delete":
        return client.delete_campaign(args.id)
    if args.verb == "events":
        return client.campaign_events(args.id)
    # columns: stream the NDJSON lines straight through, one per payload.
    if args.binary:
        # Fetch over the binary wire, then print the same per-cell lines
        # the NDJSON path would -- identical output, a fraction of the
        # transferred bytes.
        result = client.campaign_result(
            args.id, binary=True, dtype=args.dtype, codec=args.codec
        )
        print(json.dumps(result.meta_payload()))
        for payload in result.cell_payloads():
            print(json.dumps(payload))
        return None
    for payload in client.campaign_payloads(args.id):
        print(json.dumps(payload))
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Client CLI entry point; prints the server's JSON reply."""
    args = build_parser().parse_args(argv)
    client = AllocationClient(
        host=args.host,
        port=args.port,
        timeout_s=args.timeout,
        traceparent=args.traceparent,
    )
    try:
        if args.command == "health":
            payload: Any = client.health()
        elif args.command == "stats":
            if args.json or args.scope == "cluster":
                payload = client.stats(scope=args.scope)
            else:
                print(format_stats_summary(client.stats()))
                return 0
        elif args.command == "metrics":
            print(client.metrics_text(scope=args.scope), end="")
            return 0
        elif args.command == "top":
            return run_top(client, interval_s=args.interval, once=args.once)
        elif args.command == "trace":
            payload = client.trace(args.id)
        elif args.command == "campaign":
            payload = _campaign_command(client, args)
            if payload is None:  # columns already streamed to stdout
                return 0
        else:
            response = client.allocate(
                AllocationRequest(energy_budget_j=args.budget, alpha=args.alpha)
            )
            payload = response.to_json_dict()
    except (ServiceError, OSError, TimeoutError) as error:
        code = error.code if isinstance(error, ServiceError) else None
        prefix = f"[{code}] " if code else ""
        print(
            f"allocation service call failed: {prefix}{error}", file=sys.stderr
        )
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "AllocationClient",
    "ServiceError",
    "build_parser",
    "format_stats_summary",
    "format_top",
    "main",
    "run_top",
]
