"""Timing probes the benchmark wraps around the program's public functions.

Both processes of a traced run use them: ``launcher.py`` inside the server
and ``run.py`` inside the load generator.  A :class:`Recorder` keeps, per
probe name, the number of calls and the seconds spent; nothing is kept per
call, so a traced run uses flat memory however long it runs.

Per-request residuals (``server.http_ms``) need to know which calls belong
to which HTTP request.  The server handles each connection in its own
asyncio task, so the probes file a request's child intervals under a
context variable, which is private to that task.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: Child intervals of the HTTP request handled by the current asyncio task.
_REQUEST_PARTS: "contextvars.ContextVar[Optional[List[Interval]]]" = (
    contextvars.ContextVar("perfbench_request_parts", default=None)
)


class Recorder:
    """Calls and seconds per probe name (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[str, List[float]] = {}
        self.enabled = True
        # A process worker forked while another thread held the lock would
        # inherit it locked and hang at its first probe; the workers' own
        # figures are never read, so their copy of the recorder switches off.
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self._lock = threading.Lock()
        self.enabled = False

    def add(self, name: str, seconds: float = 0.0, calls: int = 1) -> None:
        """Account ``calls`` calls that took ``seconds`` in total."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._totals.get(name)
            if entry is None:
                self._totals[name] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds

    def snapshot(self) -> Dict[str, List[float]]:
        """Copy of the totals: name -> [calls, seconds]."""
        with self._lock:
            return {name: list(entry) for name, entry in self._totals.items()}


def delta(after: Dict[str, List[float]], before: Dict[str, List[float]]):
    """Totals accumulated between two snapshots."""
    out = {}
    for name, (calls, seconds) in after.items():
        calls0, seconds0 = before.get(name, (0, 0.0))
        out[name] = [calls - calls0, seconds - seconds0]
    return out


def self_time(start: float, end: float, children: Iterable[Interval]) -> float:
    """Length of ``[start, end]`` not covered by any child interval.

    Children are clipped to the parent and overlaps counted once, so the
    result always lies in ``[0, end - start]``.
    """
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return max(0.0, (end - start) - covered)


def request_parts() -> List[Interval]:
    """Child intervals of the current task's HTTP request (created lazily)."""
    parts = _REQUEST_PARTS.get()
    if parts is None:
        parts = []
        _REQUEST_PARTS.set(parts)
    return parts


def patch(owner: Any, name: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` by ``wrap(original)``, keeping classmethods."""
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, name, wrap(raw))


def timed(
    recorder: Recorder,
    name: str,
    in_request: bool = False,
    on_done: Optional[Callable[[float, float, tuple, Any], None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory timing a plain or ``async`` function.

    ``in_request`` files the call's interval as a child of the current HTTP
    request; ``on_done(start, end, args, result)`` runs after each call that
    returned.
    """

    def wrap(fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = await fn(*args, **kwargs)
                finish(start, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            finish(start, args, result)
            return result

        return wrapper

    def finish(start: float, args: tuple, result: Any) -> None:
        end = time.perf_counter()
        recorder.add(name, end - start)
        if in_request:
            request_parts().append((start, end))
        if on_done is not None:
            on_done(start, end, args, result)

    return wrap


def timed_iteration(recorder: Recorder, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory for a generator function: time spent producing items.

    The consumer's own work between items (socket writes, say) is left out.
    """

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            spent = 0.0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        spent += time.perf_counter() - start
                    yield item
            finally:
                recorder.add(name, spent)

        return wrapper

    return wrap


def counted(recorder: Recorder, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory counting calls only."""

    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder.add(name)
            return fn(*args, **kwargs)

        return wrapper

    return wrap


def read_lines(fd: int) -> Iterable[str]:
    """Lines read from a raw file descriptor until end of file.

    A buffered file object is avoided on purpose: a thread blocked in its
    read holds its lock, and a process forked meanwhile (a campaign worker)
    would hang when multiprocessing closes its inherited ``sys.stdin``.
    """
    pending = b""
    while True:
        chunk = os.read(fd, 4096)
        if not chunk:
            return
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            yield line.decode("utf-8")


def serve_snapshots(recorder: Recorder, commands: Iterable[str]) -> None:
    """Write a snapshot to each path read from ``commands`` (one per line).

    Each file appears atomically (written aside, then renamed), so the
    reader can poll for its existence.
    """
    for line in commands:
        path = line.strip()
        if not path:
            continue
        aside = path + ".tmp"
        with open(aside, "w", encoding="utf-8") as handle:
            json.dump(recorder.snapshot(), handle)
        os.replace(aside, path)


def sum_seconds(totals: Dict[str, Sequence[float]], names: Iterable[str]) -> float:
    """Seconds summed over several probe names (missing names count 0)."""
    return sum(totals.get(name, (0, 0.0))[1] for name in names)


def sum_calls(totals: Dict[str, Sequence[float]], names: Iterable[str]) -> float:
    """Calls summed over several probe names (missing names count 0)."""
    return sum(totals.get(name, (0, 0.0))[0] for name in names)
