"""Start, watch and stop one ``repro serve`` process for a benchmark run.

Each server gets its own process group (so its campaign workers can be
killed with it), its own log file (an undrained pipe would stall it: it
logs every request) and its own port, read back from ``--port-file``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

#: Longest a server may take to answer its first health check.
READY_TIMEOUT_S = 60.0

#: Longest the members of a killed server's group may take to go away.
EXIT_TIMEOUT_S = 15.0

T = TypeVar("T")


class ServerError(RuntimeError):
    """The server did not come up, or died."""


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) pids in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                raw = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, pgrp, ...
        fields = raw[raw.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def peak_rss_mb(pgid: int) -> float:
    """Summed ``VmHWM`` of every live process in the group, in MB."""
    total_kb = 0
    for pid in group_members(pgid):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between the listing and the read
    return total_kb / 1024.0


def server_env(checkout: str) -> Dict[str, str]:
    """Environment that imports ``repro`` from the checkout's sources."""
    env = dict(os.environ)
    paths = [os.path.join(checkout, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Server:
    """One running server process: plain ``repro serve``, or the launcher."""

    def __init__(
        self,
        checkout: str,
        workdir: str,
        serve_args: Sequence[str],
        traced: bool = False,
    ) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.traced = traced
        self._port_file = os.path.join(workdir, "port")
        if os.path.exists(self._port_file):
            os.remove(self._port_file)  # a stale port would be polled forever
        args = ["--port", "0", "--port-file", self._port_file, *serve_args]
        if traced:
            here = os.path.dirname(os.path.abspath(__file__))
            command = [sys.executable, os.path.join(here, "launcher.py"), *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        self._log = open(os.path.join(workdir, "server.log"), "wb")
        self._snapshots = 0
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=checkout,
            env=server_env(checkout),
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            self.port = self._wait_for(self._read_port, READY_TIMEOUT_S, "port file")
            self._wait_for(self._healthy, READY_TIMEOUT_S, "healthy answer")
        except BaseException:
            self.stop()
            raise
        #: Seconds from spawning the process to its first healthy answer.
        self.setup_s = time.perf_counter() - started

    @property
    def pgid(self) -> int:
        return self.proc.pid  # start_new_session makes it the group leader

    def _wait_for(self, probe: Callable[[], Optional[T]], timeout_s: float, what: str) -> T:
        deadline = time.perf_counter() + timeout_s
        while True:
            value = probe()
            if value is not None:
                return value
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with code {self.proc.returncode} before its "
                    f"{what}; see {self._log.name}"
                )
            if time.perf_counter() > deadline:
                raise ServerError(f"no {what} from the server after {timeout_s:g}s")
            time.sleep(0.001)

    def _read_port(self) -> Optional[int]:
        try:
            with open(self._port_file, encoding="ascii") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        return int(text) if text.endswith("\n") else None

    def _healthy(self) -> Optional[bool]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5.0)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            response.read()
            return True if response.status == 200 else None
        except OSError:
            return None
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and every process it started."""
        return peak_rss_mb(self.pgid)

    def snapshot(self, timeout_s: float = 30.0) -> Dict[str, List[float]]:
        """Probe totals of a traced server (see ``launcher.py``)."""
        if not self.traced:
            raise ValueError("only a traced server keeps probe totals")
        self._snapshots += 1
        path = os.path.join(self.workdir, f"snapshot-{self._snapshots}.json")
        self.proc.stdin.write(f"{path}\n".encode("utf-8"))
        self.proc.stdin.flush()
        self._wait_for(lambda: os.path.exists(path) or None, timeout_s, "probe snapshot")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        """Kill the whole process group and wait until every member is gone.

        SIGTERM would skip the service's shutdown path and orphan the
        campaign workers, so the group is killed outright.
        """
        deadline = time.perf_counter() + EXIT_TIMEOUT_S
        while True:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(timeout=0.05)
            except subprocess.TimeoutExpired:
                pass
            if self.proc.returncode is not None and not group_members(self.pgid):
                break
            if time.perf_counter() > deadline:
                raise ServerError(f"process group {self.pgid} did not exit")
            time.sleep(0.01)
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        self._log.close()
