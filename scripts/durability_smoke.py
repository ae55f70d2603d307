#!/usr/bin/env python3
"""CI durability smoke: SIGKILL a serving process, restart, verify recovery.

The storyline (stdlib only, drives real ``python -m repro serve``
subprocesses):

1. **Reference**: a store-less server runs the campaign start to finish;
   its binary columns stream is the ground truth.
2. **Victim**: a second server with ``--store`` accepts the same
   submission; the moment the journal holds at least one ``shard_done``
   record the process is SIGKILLed -- no shutdown hooks, no flush.
3. **Recovery**: a third server re-opens the same store path.  The
   campaign id must still answer, the job must run to ``done`` (re-running
   only the unjournaled shards), and the recovered columns stream must
   decode and be **byte-identical** to the reference.
4. **Exactly-once**: every (scenario, policy) cell appears in exactly one
   journaled shard record -- recovery never re-runs journaled work.
5. **Fan-out** (``--procs 2``): a two-process SO_REUSEPORT front-end on
   the same store must answer from two distinct pids and re-serve the
   same byte-identical columns.

Usage::

    PYTHONPATH=src python scripts/durability_smoke.py [--skip-procs]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

CAMPAIGN = {"hours": 200, "alphas": [0.5, 1.0], "baselines": ["DP1", "DP3"]}


def log(message: str) -> None:
    print(f"[durability-smoke] {message}", flush=True)


def serve(state_dir: Path, *extra_args: str):
    """Start one ``repro serve`` subprocess; returns (process, port)."""
    port_file = state_dir / f"port-{time.monotonic_ns()}"
    log_file = state_dir / f"serve-{time.monotonic_ns()}.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_file, "w") as handle:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), *extra_args],
            env=env, stdout=handle, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return process, int(port_file.read_text().strip())
        if process.poll() is not None:
            sys.stderr.write(log_file.read_text())
            raise SystemExit("server died during startup")
        time.sleep(0.05)
    process.kill()
    sys.stderr.write(log_file.read_text())
    raise SystemExit("server never wrote its port file")


def get_json(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as reply:
        return json.loads(reply.read())


def submit(port: int):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/campaign",
        data=json.dumps(CAMPAIGN).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as reply:
        return json.loads(reply.read())


def wait_done(port: int, campaign_id: str, timeout_s: float = 180.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = get_json(port, f"/v1/campaign/{campaign_id}")
        if status["status"] == "done":
            return
        if status["status"] in ("failed", "cancelled"):
            raise SystemExit(f"campaign ended {status['status']}: {status}")
        time.sleep(0.2)
    raise SystemExit(f"campaign {campaign_id} never finished")


def columns(port: int, campaign_id: str) -> bytes:
    """The campaign's binary columns stream, checked to decode."""
    sys.path.insert(0, SRC)
    from repro.simulation.fleet import FleetResult

    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/campaign/{campaign_id}/columns"
    ) as reply:
        raw = reply.read()
    FleetResult.from_binary(raw)
    return raw


def shard_record_count(store: Path) -> int:
    try:
        connection = sqlite3.connect(str(store), timeout=1.0)
        try:
            return connection.execute(
                "SELECT COUNT(*) FROM journal WHERE kind = 'shard_done'"
            ).fetchone()[0]
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def assert_exactly_once(store: Path) -> None:
    sys.path.insert(0, SRC)
    from repro.simulation.fleet import decode_cells

    connection = sqlite3.connect(str(store))
    try:
        rows = connection.execute(
            "SELECT payload FROM journal WHERE kind = 'shard_done'"
        ).fetchall()
    finally:
        connection.close()
    counts: dict = {}
    for (payload,) in rows:
        for scenario, policy, _cell in decode_cells(payload):
            counts[(scenario, policy)] = counts.get((scenario, policy), 0) + 1
    doubled = {key: count for key, count in counts.items() if count != 1}
    if not counts or doubled:
        raise SystemExit(f"shard journaling not exactly-once: {doubled or counts}")
    log(f"exactly-once journaling verified for {len(counts)} cells")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-procs", action="store_true",
                        help="skip the --procs 2 SO_REUSEPORT stage")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="durability-smoke-") as tmp:
        state = Path(tmp)
        store = state / "jobs.db"

        log("stage 1: reference run (no store)")
        process, port = serve(state, "--campaign-workers", "2")
        try:
            reference_id = submit(port)["campaign_id"]
            wait_done(port, reference_id)
            reference = columns(port, reference_id)
        finally:
            process.terminate()
            process.wait(timeout=15)
        log(f"reference columns: {len(reference)} bytes")

        log("stage 2: submit against --store, SIGKILL mid-campaign")
        process, port = serve(
            state, "--store", str(store), "--campaign-workers", "2"
        )
        campaign_id = submit(port)["campaign_id"]
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline and shard_record_count(store) < 1:
            time.sleep(0.02)
        journaled = shard_record_count(store)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=15)
        if journaled < 1:
            raise SystemExit("no shard was journaled before the kill")
        log(f"killed with {journaled} shard record(s) journaled")

        log("stage 3: restart on the same store, await recovery")
        process, port = serve(
            state, "--store", str(store), "--campaign-workers", "2"
        )
        try:
            wait_done(port, campaign_id)
            recovered = columns(port, campaign_id)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=15)
        if recovered != reference:
            raise SystemExit(
                "recovered columns differ from the reference run "
                f"({len(recovered)} vs {len(reference)} bytes)"
            )
        log("recovered columns byte-identical to the reference")

        assert_exactly_once(store)

        if not args.skip_procs:
            log("stage 4: --procs 2 front-end on the same store")
            process, port = serve(
                state, "--store", str(store), "--procs", "2",
                "--campaign-workers", "2",
            )
            try:
                pids = set()
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline and len(pids) < 2:
                    pids.add(get_json(port, "/v1/healthz")["pid"])
                    time.sleep(0.01)
                if len(pids) != 2:
                    raise SystemExit(f"only {pids} answered /v1/healthz")
                reserved = columns(port, campaign_id)
                if reserved != reference:
                    raise SystemExit("fan-out columns differ from reference")
                log(f"two front-ends ({sorted(pids)}) re-serve the columns")
            finally:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=20)

    log("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
