"""Drive a workload against live servers and turn the ops into metrics.

``measure_end_to_end`` serves ``--trace 0`` and ``measure_layers`` serves
``--trace 1``; both return the metrics plus every phase they ran, so the
caller can count attempted and failed ops.
"""

from __future__ import annotations

import http.client
import os
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import probes
import report
import serving
from repro.service.client import AllocationClient, ServiceError
from repro.service.requests import AllocationRequest, AllocationResponse
from repro.simulation.fleet import FleetResult
from workloads import OP_TIMEOUT_S, TIMED, WARMUP, Workload, WrongAnswer

#: Servers per end-to-end run.  The timed seconds are split evenly between
#: them, each freshly started and warmed up, so that no single server's luck
#: (where its threads land, what the host does during its seconds) sets a
#: run's figures, and the cold starts behind setup_s are spread over the run.
SERVERS = 3

#: Cold starts per run, spread over it (the SERVERS ones included); setup_s
#: is their median, since a single start varies by ~20%.
SETUP_STARTS = 9

#: Warm-up before each timed phase, on a seed stream of its own.
WARMUP_S = 2.0
WARMUP_MIN_OPS = 2

#: Failures an op may meet; anything else is a bug of the benchmark.
OP_ERRORS = (ServiceError, OSError, http.client.HTTPException, ValueError, WrongAnswer)


@dataclass
class Op:
    start: float
    end: float
    outcome: Any  # None once the op failed
    error: Optional[str] = None
    correct: bool = False


@dataclass
class Phase:
    ops: List[Op]
    started: float
    finished: float

    @property
    def failed(self) -> int:
        return sum(not op.correct for op in self.ops)


def install_client_probes(recorder: probes.Recorder) -> None:
    """Wrap the client-side layer functions of this process with probes."""
    probes.patch(AllocationRequest, "to_json_dict", probes.timed(recorder, "client.codec"))
    probes.patch(AllocationResponse, "from_json_dict", probes.timed(recorder, "client.codec"))
    probes.patch(AllocationClient, "campaign_status", probes.counted(recorder, "client.polls"))
    probes.patch(FleetResult, "from_binary", probes.timed(recorder, "fleet.columns_decode"))


def drive(
    workload: Workload, server: serving.Server, phase: int, seconds: float, min_ops: int = 0
) -> Phase:
    """Closed loop: each client sends its next op when its last one returns."""
    ops: List[Op] = []
    crashes: List[BaseException] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop() -> None:
        client = AllocationClient(port=server.port, timeout_s=OP_TIMEOUT_S)
        try:
            while time.perf_counter() < deadline or len(ops) < min_ops:
                op_input = workload.next_input(phase)
                start = time.perf_counter()
                try:
                    outcome, error = workload.call(client, op_input), None
                except OP_ERRORS as failure:
                    outcome, error = None, f"{type(failure).__name__}: {failure}"
                op = Op(start, time.perf_counter(), outcome, error)
                ops.append(op)
                if outcome is not None:
                    try:
                        op.outcome = workload.after(client, outcome)
                    except OP_ERRORS as failure:
                        op.outcome, op.error = None, f"{type(failure).__name__}: {failure}"
        except BaseException as crash:  # re-raised on the main thread below
            crashes.append(crash)

    threads = [
        threading.Thread(target=client_loop, name=f"client-{index}")
        for index in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]
    return Phase(ops, started, max([deadline] + [op.end for op in ops]))


def verify(workload: Workload, phase: Phase) -> None:
    """Check every answered op against the workload's own reference."""
    answered = [op for op in phase.ops if op.outcome is not None]
    for op, ok in zip(answered, workload.verify([op.outcome for op in answered])):
        op.correct = bool(ok)
        if not ok:
            op.error = "wrong answer"


def latency_metrics(
    workload: Workload, phases: Sequence[Phase]
) -> Tuple[Dict[str, float], str]:
    """p50, tail and throughput of verified phases, plus a note on the tail.

    A failed op counts with the op timeout as its latency, so it misses
    every latency bound.
    """
    ops = [op for phase in phases for op in phase.ops]
    latencies = [op.end - op.start if op.correct else OP_TIMEOUT_S for op in ops]
    q = workload.tail_percentile
    note = f"p{q} of {len(latencies)} ops, {report.samples_beyond(len(latencies), q)} beyond it"
    allowed = report.tail_percentile(len(latencies))
    if allowed is None or allowed < q:
        note += f" (fewer than {report.TAIL_MIN_BEYOND} beyond it: run longer)"
    work = sum(workload.work(op.outcome) for op in ops if op.correct)
    elapsed = sum(phase.finished - phase.started for phase in phases)
    return {
        "p50_ms": report.percentile(latencies, 50) * 1e3,
        "tail_ms": report.percentile(latencies, q) * 1e3,
        "work_per_s": work / elapsed,
    }, note


def start_servers(
    workload: Workload,
    checkout: str,
    workdir: str,
    label: str,
    starts: int,
    traced: bool = False,
) -> Tuple[serving.Server, List[float]]:
    """Cold-start ``starts`` servers one after another; keep the last running."""
    setups = []
    for index in range(starts):
        server_dir = os.path.join(workdir, f"{label}-{index}")
        server = serving.Server(checkout, server_dir, workload.serve_args(server_dir), traced)
        setups.append(server.setup_s)
        if index < starts - 1:
            server.stop()
    return server, setups


def run_phases(
    workload: Workload,
    server: serving.Server,
    seconds: float,
    client_probes: Optional[probes.Recorder] = None,
):
    """Warm up, then time; returns (warm-up, timed, peak RSS MB, totals).

    With ``client_probes`` (and a traced server), ``totals`` holds the probe
    totals of the timed phase: (server delta, server totals, client delta).
    """
    warmup = drive(workload, server, WARMUP, WARMUP_S, WARMUP_MIN_OPS)
    if client_probes is not None:
        server_before, client_before = server.snapshot(), client_probes.snapshot()
    timed = drive(workload, server, TIMED, seconds)
    rss_mb = server.peak_rss_mb()
    totals = None
    if client_probes is not None:
        server_after = server.snapshot()
        totals = (
            probes.delta(server_after, server_before),
            server_after,
            probes.delta(client_probes.snapshot(), client_before),
        )
    return warmup, timed, rss_mb, totals


def measure_end_to_end(workload: Workload, checkout: str, workdir: str, seconds: float):
    """End-to-end metrics, tracing off; returns (metrics, phases, timed phases)."""
    setups: List[float] = []
    warmups: List[Phase] = []
    timed: List[Phase] = []
    rss_mb: List[float] = []
    for index in range(SERVERS):
        server, starts = start_servers(
            workload, checkout, workdir, f"plain{index}", SETUP_STARTS // SERVERS
        )
        setups += starts
        try:
            warmup, phase, rss, _ = run_phases(workload, server, seconds / SERVERS)
        finally:
            server.stop()
        warmups.append(warmup)
        timed.append(phase)
        rss_mb.append(rss)
    for phase in warmups + timed:
        verify(workload, phase)
    metrics, tail_note = latency_metrics(workload, timed)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(rss_mb)
    per_server = ", ".join(
        f"{latency_metrics(workload, [phase])[0]['p50_ms']:.4g}" for phase in timed
    )
    notes = {
        "setup_s": f"median of {len(setups)} cold starts "
                   f"(min {min(setups):.4f}, max {max(setups):.4f})",
        "peak_rss_mb": f"median over {SERVERS} servers of the summed VmHWM of the "
                       "server and its descendants after its timed phase",
        "p50_ms": f"median op latency (per server: {per_server})",
        "tail_ms": tail_note,
        "work_per_s": f"{workload.work_unit} answered per second",
    }
    rows = [("metric", "value", "unit", "measured as")]
    for metric in report.END_TO_END:
        rows.append((
            metric.name, report.format_value(metrics[metric.name]), metric.unit,
            notes.get(metric.name, metric.measured_as),
        ))
    print(report.table(rows))
    return metrics, warmups + timed, timed


def measure_layers(workload: Workload, checkout: str, workdir: str, seconds: float):
    """Per-layer metrics of a traced phase, after an untraced one for the
    tracing overhead; each takes half of ``seconds``, so that a traced run
    lasts as long as an end-to-end one.  Returns (metrics, phases, timed
    phases)."""
    server, _ = start_servers(workload, checkout, workdir, "plain", 1)
    try:
        plain_warmup, plain, _, _ = run_phases(workload, server, seconds / 2)
    finally:
        server.stop()
    recorder = probes.Recorder()
    install_client_probes(recorder)
    server, _ = start_servers(workload, checkout, workdir, "traced", 1, traced=True)
    try:
        warmup, timed, _, totals = run_phases(workload, server, seconds / 2, recorder)
    finally:
        server.stop()
    phases = [plain_warmup, plain, warmup, timed]
    for phase in phases:
        verify(workload, phase)
    untraced, _ = latency_metrics(workload, [plain])
    traced, _ = latency_metrics(workload, [timed])
    server_delta, server_totals, client_delta = totals
    ops = len(timed.ops)
    metrics = report.layer_values(
        ops=ops,
        op_seconds=sum(op.end - op.start for op in timed.ops),
        endpoints=workload.endpoints,
        server=server_delta,
        server_totals=server_totals,
        client=client_delta,
        profiles=[workload.profile(op.outcome) for op in timed.ops if op.outcome],
        overhead_ms=traced["p50_ms"] - untraced["p50_ms"],
    )
    print(
        f"traced phase: {ops} ops, p50 {traced['p50_ms']:.4f} ms; untraced phase: "
        f"{len(plain.ops)} ops, p50 {untraced['p50_ms']:.4f} ms; tracing overhead "
        f"{metrics['trace.overhead_ms']:.4f} ms per op"
    )
    rows = [("layer", "metric", "value", "unit", "measured as", "should move")]
    for metric in report.PER_LAYER:
        rows.append((
            metric.layer, metric.name, report.format_value(metrics[metric.name]),
            metric.unit, metric.measured_as, metric.moves,
        ))
    print(report.table(rows))
    print("server requests per endpoint (traced phase):")
    for name, (calls, seconds_spent) in sorted(server_delta.items()):
        if name.startswith("server.request:") and calls:
            print(
                f"  {name[len('server.request:'):]:<28} {calls / ops:8.3f} per op"
                f"  {seconds_spent / calls * 1e3:9.4f} ms each"
            )
    return metrics, phases, [plain, timed]
