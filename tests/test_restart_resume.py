"""End-to-end durability tests: SIGKILL a serving process and recover.

These drive ``python -m repro serve`` as real subprocesses -- the only
honest way to test "the campaign id survives SIGKILL":

- kill a server mid-campaign, restart it on the same ``--store`` path,
  and require the job to finish with a FleetResult equal to a local
  single-process run to 1e-9, with every cell journaled exactly once
  (no re-run of journaled shards);
- run ``--procs 2`` front-ends on one SO_REUSEPORT port against one
  store and require both processes to answer, the job to complete with
  no double-run shards, and a clean SIGTERM teardown;
- SIGKILL a ``--procs 2`` supervisor, or a server with campaign workers,
  and require every child it started to exit within seconds.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

import repro
from repro.service.requests import CampaignRequest
from repro.simulation.fleet import FleetCampaign, FleetResult, decode_cells

REQUEST = CampaignRequest(hours=200, alphas=(0.5, 1.0), baselines=("DP1", "DP3"))

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


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


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
        return json.loads(response.read())


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


def _cell_journal_counts(store_path):
    """How many times each (scenario, policy) cell was journaled."""
    connection = sqlite3.connect(str(store_path))
    try:
        rows = connection.execute(
            "SELECT payload FROM journal WHERE kind = 'shard_done'"
        ).fetchall()
    finally:
        connection.close()
    counts = {}
    for (payload,) in rows:
        for si, pi, _result in decode_cells(payload):
            counts[(si, pi)] = counts.get((si, pi), 0) + 1
    return counts


def _shard_count(store_path):
    try:
        connection = sqlite3.connect(str(store_path), timeout=1.0)
        try:
            return connection.execute(
                "SELECT COUNT(*) FROM journal WHERE kind = 'shard_done'"
            ).fetchone()[0]
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def _proc_stat(pid):
    """(state, ppid) from ``/proc/<pid>/stat``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _running(pid):
    """Whether ``pid`` still runs; a zombie counts as exited."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid):
    """Pids of the running processes whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        stat = _proc_stat(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == pid and stat[0] != "Z":
            children.append(int(entry))
    return children


def _still_running(pids, timeout_s=5.0):
    """The pids still running once ``timeout_s`` has passed (or none)."""
    deadline = time.monotonic() + timeout_s
    while True:
        running = [pid for pid in pids if _running(pid)]
        if not running or time.monotonic() > deadline:
            return running
        time.sleep(0.05)


@pytest.fixture(scope="module")
def local_reference():
    """The single-process ground truth the recovered run must equal."""
    scenarios, labels, policies, trace, config = REQUEST.build()
    return FleetCampaign(scenarios, config, scenario_labels=labels).run(
        policies, trace
    )


class TestKillAndRecover:
    def test_sigkilled_campaign_resumes_and_matches(
        self, tmp_path, local_reference
    ):
        store = tmp_path / "jobs.db"
        proc, port = _serve(
            tmp_path, "--store", str(store), "--campaign-workers", "2"
        )
        try:
            submitted = _submit(port, REQUEST)
            campaign_id = submitted["campaign_id"]
            assert submitted["status"] in ("queued", "running")
            # Wait for at least one journaled shard, then SIGKILL: the
            # ack was persist-then-ack, so the id must survive.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and _shard_count(store) < 1:
                time.sleep(0.02)
            assert _shard_count(store) >= 1
        finally:
            proc.kill()
            proc.wait(timeout=10)

        proc, port = _serve(
            tmp_path, "--store", str(store), "--campaign-workers", "2"
        )
        try:
            status = _wait_done(port, campaign_id)
            assert status["status"] == "done"
            raw = urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/campaign/{campaign_id}/columns"
            ).read()
        finally:
            proc.kill()
            proc.wait(timeout=10)

        remote = FleetResult.from_binary(raw)
        assert remote.policy_names == local_reference.policy_names
        for si, pi, cell in remote:
            reference = local_reference.result(pi, si)
            np.testing.assert_allclose(
                cell.objective_values(),
                reference.objective_values(),
                atol=1e-9,
            )
            np.testing.assert_allclose(
                cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
            )
        # Exactly-once shard accounting: recovery re-ran only the cells
        # the journal was missing, never a journaled one.
        counts = _cell_journal_counts(store)
        assert counts
        assert all(count == 1 for count in counts.values()), counts


@pytest.mark.skipif(
    not hasattr(__import__("socket"), "SO_REUSEPORT"),
    reason="SO_REUSEPORT not available on this platform",
)
class TestMultiProcessFrontend:
    def test_two_procs_share_port_and_store(self, tmp_path):
        store = tmp_path / "jobs.db"
        proc, port = _serve(
            tmp_path, "--store", str(store), "--procs", "2",
            "--campaign-workers", "2",
        )
        try:
            # The kernel load-balances accepted connections: hammering
            # /healthz must eventually reach both processes.
            pids = set()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(pids) < 2:
                pids.add(_get(port, "/v1/healthz")["pid"])
                time.sleep(0.01)
            assert len(pids) == 2, f"only {pids} answered"

            submitted = _submit(
                port,
                CampaignRequest(hours=96, alphas=(1.0,), baselines=("DP1",)),
            )
            campaign_id = submitted["campaign_id"]
            # Any front-end can answer for any job (the store is the
            # coordination channel, not process memory).
            status = _wait_done(port, campaign_id)
            assert status["status"] == "done"
            counts = _cell_journal_counts(store)
            assert counts
            assert all(count == 1 for count in counts.values()), counts

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_procs_above_one_requires_store(self, tmp_path):
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file), "--procs", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        _stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert b"--store" in stderr


@pytest.mark.skipif(
    not os.path.isdir("/proc") or not hasattr(socket, "SO_REUSEPORT"),
    reason="needs /proc and SO_REUSEPORT",
)
class TestChildrenExitWithParent:
    def test_sigkilled_supervisor_takes_its_frontends_down(self, tmp_path):
        proc, port = _serve(
            tmp_path, "--store", str(tmp_path / "jobs.db"), "--procs", "2"
        )
        try:
            frontends = set()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(frontends) < 2:
                frontends.add(_get(port, "/v1/healthz")["pid"])
            assert len(frontends) == 2
            children = _children(proc.pid)
            assert frontends <= set(children)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        # The front-ends, and the resource tracker they shared with the
        # supervisor, exit on their own; the port goes with them.
        assert _still_running(children) == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_sigkilled_server_takes_its_campaign_workers_down(self, tmp_path):
        proc, port = _serve(tmp_path, "--campaign-workers", "2")
        try:
            submitted = _submit(
                port,
                CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",)),
            )
            status = _wait_done(port, submitted["campaign_id"])
            assert status["status"] == "done"
            workers = _children(proc.pid)
            assert len(workers) >= 2
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert _still_running(workers) == []

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="forkserver start method not available",
    )
    def test_sigkilled_owner_takes_its_forkserver_workers_down(self):
        # A fork server's workers are not children of the pool's owner, and
        # the fork server outlives it for as long as they run.
        script = (
            "import multiprocessing, os, signal\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.service.pool import _init_campaign_worker\n"
            "pool = ProcessPoolExecutor(\n"
            "    2, mp_context=multiprocessing.get_context('forkserver'),\n"
            "    initializer=_init_campaign_worker,\n"
            "    initargs=(None, os.getpid()))\n"
            "futures = [pool.submit(os.getpid) for _ in range(8)]\n"
            "print(*sorted({future.result() for future in futures}), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.wait(timeout=60)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL
        assert workers
        assert _still_running(workers) == []
