"""Request tracing: span contexts, W3C traceparent, structured span logs.

One request's journey through the service crosses an asyncio event loop,
a micro-batcher flush, executor threads, and (for campaigns)
``ProcessPoolExecutor`` workers in other processes.  This module gives
each hop a :class:`SpanContext` -- a (trace_id, span_id) pair compatible
with the W3C ``traceparent`` header -- and a way to emit what happened
as structured span records:

* :func:`span` is a context manager that opens a child span of the
  current (or an explicit) parent, installs it in a ``contextvars``
  context variable for the duration, and on exit emits one span record.
* Contextvars do **not** cross ``run_in_executor`` threads or process
  pools, so code handing work to an executor captures
  :func:`current_context` first and passes it explicitly as ``parent=``
  (worker processes receive it pickled -- :class:`SpanContext` is a
  plain frozen dataclass precisely so it pickles cheaply).
* Span records go to the stdlib logger ``repro.obs.span`` (one INFO line
  each; with :func:`configure_logging` ``fmt="json"`` every log line is
  one JSON object carrying the trace/span ids) and into a bounded
  in-process :class:`TraceRecorder` that backs ``GET /trace/<id>``.
* Campaign process workers have no channel to the parent's recorder, so
  they collect spans with :func:`capture_spans` and return them as plain
  dicts; the parent calls :func:`ingest` to file them.

Trace ids are 32 lowercase hex chars, span ids 16, as in the W3C trace
context spec; :func:`parse_traceparent` / :func:`format_traceparent`
translate to and from the ``00-<trace>-<span>-01`` header form.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import re
import secrets
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

SPAN_LOGGER_NAME = "repro.obs.span"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 32-hex-char trace id."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh random 16-hex-char span id."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class SpanContext:
    """One point in a trace: (trace_id, span_id).  Picklable by design."""

    trace_id: str
    span_id: str

    def child(self) -> "SpanContext":
        """A new context in the same trace with a fresh span id."""
        return SpanContext(trace_id=self.trace_id, span_id=new_span_id())

    def traceparent(self) -> str:
        """This context as a W3C ``traceparent`` header value."""
        return format_traceparent(self)


def format_traceparent(context: SpanContext) -> str:
    """``00-<trace_id>-<span_id>-01`` for the given context."""
    return f"00-{context.trace_id}-{context.span_id}-01"


def parse_traceparent(value: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` header; ``None`` when absent or malformed."""
    if not value:
        return None
    match = _TRACEPARENT_RE.match(value.strip().lower())
    if match is None:
        return None
    _, trace_id, span_id, _ = match.groups()
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None  # the spec reserves all-zero ids as invalid
    return SpanContext(trace_id=trace_id, span_id=span_id)


_current: "contextvars.ContextVar[Optional[SpanContext]]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)

#: Optional per-context list collecting span records instead of / besides
#: the process-global recorder -- used by process workers via
#: :func:`capture_spans`.
_sink: "contextvars.ContextVar[Optional[List[Dict[str, Any]]]]" = (
    contextvars.ContextVar("repro_obs_span_sink", default=None)
)


def current_context() -> Optional[SpanContext]:
    """The active span context of this ``contextvars`` context, if any."""
    return _current.get()


class TraceRecorder:
    """Bounded in-memory store of finished spans, keyed by trace id.

    Backs ``GET /trace/<id>``: the most recent ``max_traces`` traces are
    kept (LRU on insertion), each capped at ``max_spans_per_trace`` so a
    runaway campaign cannot grow one entry without bound.
    """

    def __init__(
        self,
        max_traces: int = 256,
        max_spans_per_trace: int = 512,
        drain_buffer: int = 4096,
    ) -> None:
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, List[Dict[str, Any]]]" = OrderedDict()
        # Monotonic arrival sequence + a bounded buffer of recent records
        # so a persistence task can drain "everything since my last seq"
        # without holding the recorder lock across I/O.
        self._seq = 0
        self._recent: "deque[tuple[int, Dict[str, Any]]]" = deque(
            maxlen=int(drain_buffer)
        )

    def add(self, record: Dict[str, Any]) -> None:
        """File one finished span record under its trace id."""
        trace_id = record.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            self._seq += 1
            self._recent.append((self._seq, dict(record)))
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            if len(spans) < self.max_spans_per_trace:
                spans.append(dict(record))

    def records_since(self, seq: int) -> "tuple[int, List[Dict[str, Any]]]":
        """(newest seq, records filed after ``seq``) -- the drain API.

        A publisher loop calls this with the last sequence number it
        persisted; records that fell out of the bounded drain buffer
        before being drained are lost (bounded-memory by design).
        """
        with self._lock:
            fresh = [
                (number, dict(record))
                for number, record in self._recent
                if number > seq
            ]
            newest = self._seq
        if not fresh:
            return newest, []
        return fresh[-1][0], [record for _, record in fresh]

    def spans(self, trace_id: str) -> Optional[List[Dict[str, Any]]]:
        """Recorded spans of one trace (start-ordered), ``None`` if unknown."""
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            return sorted(
                (dict(span) for span in spans),
                key=lambda span: span.get("start_s", 0.0),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


_RECORDER = TraceRecorder()


def recorder() -> TraceRecorder:
    """The process-global trace recorder behind ``GET /trace/<id>``."""
    return _RECORDER


@dataclass
class Span:
    """One in-flight span; mutate :attr:`attributes` before it closes."""

    name: str
    context: SpanContext
    parent_span_id: Optional[str]
    start_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def record(self, duration_s: float) -> Dict[str, Any]:
        """This span as a finished plain-dict record."""
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_span_id": self.parent_span_id,
            "start_s": self.start_s,
            "duration_ms": duration_s * 1000.0,
        }
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        return record


def _emit(record: Dict[str, Any]) -> None:
    sink = _sink.get()
    if sink is not None:
        sink.append(record)
    _RECORDER.add(record)
    logging.getLogger(SPAN_LOGGER_NAME).info(
        "span %s %.3fms",
        record["name"],
        record["duration_ms"],
        extra={
            "span_name": record["name"],
            "trace_id": record["trace_id"],
            "span_id": record["span_id"],
            "parent_span_id": record.get("parent_span_id"),
            "duration_ms": record["duration_ms"],
            **({"attrs": record["attrs"]} if "attrs" in record else {}),
        },
    )


@contextlib.contextmanager
def span(
    name: str,
    parent: Optional[SpanContext] = None,
    **attributes: Any,
) -> Iterator[Span]:
    """Open a span, install its context, and emit a record on exit.

    ``parent`` defaults to :func:`current_context`; when neither exists a
    fresh trace is started.  The record is emitted even when the body
    raises (with an ``error`` attribute), then the exception propagates.
    """
    if parent is None:
        parent = current_context()
    if parent is None:
        context = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        parent_span_id = None
    else:
        context = parent.child()
        parent_span_id = parent.span_id
    active = Span(
        name=name,
        context=context,
        parent_span_id=parent_span_id,
        start_s=time.time(),
        attributes=dict(attributes),
    )
    token = _current.set(context)
    start = time.perf_counter()
    try:
        yield active
    except BaseException as exc:
        active.attributes.setdefault("error", type(exc).__name__)
        raise
    finally:
        _current.reset(token)
        _emit(active.record(time.perf_counter() - start))


def record_span(
    name: str,
    parent: Optional[SpanContext],
    start_s: float,
    duration_s: float,
    **attributes: Any,
) -> Dict[str, Any]:
    """Emit a span synthesized from already-measured timings.

    For call sites that timed work before knowing whether a trace was
    active, or that aggregate timings from elsewhere (per-phase campaign
    timings, batcher flush groups).  Returns the emitted record.
    """
    if parent is None:
        context = SpanContext(trace_id=new_trace_id(), span_id=new_span_id())
        parent_span_id = None
    else:
        context = parent.child()
        parent_span_id = parent.span_id
    record = Span(
        name=name,
        context=context,
        parent_span_id=parent_span_id,
        start_s=start_s,
        attributes=dict(attributes),
    ).record(duration_s)
    _emit(record)
    return record


@contextlib.contextmanager
def capture_spans() -> Iterator[List[Dict[str, Any]]]:
    """Collect every span record emitted in the body into the yielded list.

    Process workers use this to ship their spans back to the parent as
    return values (their in-process recorder dies with them); the parent
    files the dicts with :func:`ingest`.
    """
    captured: List[Dict[str, Any]] = []
    token = _sink.set(captured)
    try:
        yield captured
    finally:
        _sink.reset(token)


def ingest(records: Iterable[Dict[str, Any]]) -> None:
    """File span records produced elsewhere (no re-logging)."""
    for record in records:
        if isinstance(record, dict):
            _RECORDER.add(record)


#: LogRecord attributes that are plumbing, not user data -- everything
#: else attached via ``extra=`` is carried into the JSON line.
_RESERVED_LOG_FIELDS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, carrying any ``extra=`` attributes."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key in _RESERVED_LOG_FIELDS or key in payload:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            payload[key] = value
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


class TextLogFormatter(logging.Formatter):
    """Human-oriented text lines; appends trace ids when present."""

    def __init__(self) -> None:
        super().__init__("%(asctime)s %(levelname)s %(name)s %(message)s")

    def format(self, record: logging.LogRecord) -> str:
        line = super().format(record)
        trace_id = record.__dict__.get("trace_id")
        if trace_id:
            line = f"{line} trace_id={trace_id}"
        return line


#: Format last installed by :func:`configure_logging`, or ``None`` --
#: what :func:`init_worker_logging` replays inside pool workers.
_ACTIVE_LOG_FORMAT: Optional[str] = None


def configure_logging(
    fmt: str = "text",
    level: int = logging.INFO,
    stream: Any = None,
) -> logging.Handler:
    """Install one root handler with the chosen formatter.

    ``fmt`` is ``"text"`` or ``"json"``.  Replaces handlers previously
    installed by this function (idempotent across re-invocation, e.g.
    tests or an embedded server restart) and returns the handler.
    Fork-started campaign workers inherit the configuration; spawn-started
    ones (the default inside a spawn-context front-end child) replay it
    through :func:`init_worker_logging`.
    """
    global _ACTIVE_LOG_FORMAT
    if fmt not in ("text", "json"):
        raise ValueError(f"log format must be 'text' or 'json', got {fmt!r}")
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter() if fmt == "json" else TextLogFormatter())
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    root = logging.getLogger()
    for existing in list(root.handlers):
        if getattr(existing, "_repro_obs_handler", False):
            root.removeHandler(existing)
    root.addHandler(handler)
    if root.level > level or root.level == logging.WARNING:
        root.setLevel(level)
    _ACTIVE_LOG_FORMAT = fmt
    return handler


def active_log_format() -> Optional[str]:
    """The format :func:`configure_logging` last installed, if any."""
    return _ACTIVE_LOG_FORMAT


def init_worker_logging(fmt: Optional[str]) -> None:
    """Process-pool initializer: mirror the parent's logging setup.

    A pool created inside a spawn-context process gets spawn-started
    workers (the child's inherited default start method), which import
    everything fresh and so lose the parent's logging configuration --
    their span lines would silently vanish.  Fork-started workers re-run
    the (idempotent) configuration harmlessly.  ``fmt`` is the parent's
    :func:`active_log_format`; ``None`` means the parent never configured
    logging and the worker is left alone.
    """
    if fmt is not None:
        configure_logging(fmt)


__all__ = [
    "JsonLogFormatter",
    "SPAN_LOGGER_NAME",
    "Span",
    "SpanContext",
    "TextLogFormatter",
    "TraceRecorder",
    "active_log_format",
    "capture_spans",
    "configure_logging",
    "current_context",
    "init_worker_logging",
    "format_traceparent",
    "ingest",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "record_span",
    "recorder",
    "span",
]
