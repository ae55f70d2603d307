"""Durable campaign job store: a write-ahead journal in SQLite.

The service's campaign jobs used to live in one process's dictionaries and
die with it.  This module makes the job lifecycle a *contract*: every
transition is appended to a journal **before** it is acknowledged
(persist-then-ack, the gridworks-scada proactor shape), so a ``POST
/v1/campaign`` id survives ``SIGKILL`` and any process that re-opens the
store can pick the job back up.

Journal model
-------------
One append-only ``journal`` table (monotonic ``seq``) of typed records,
each carrying a CRC-32 over its payload:

``submit``
    The full :class:`~repro.service.requests.CampaignRequest` JSON plus
    the optional idempotency key.  Appended -- and committed -- before the
    submit is acknowledged to the client.
``start``
    Execution began; records the resolved trace length.  A job may carry
    several ``start`` records (one per crash/recovery attempt).
``shard_done``
    One campaign worker's chunk of the grid finished: its (scenario,
    policy) cells as :func:`repro.simulation.fleet.encode_cell` records,
    the one campaign codec (float64/zlib column frames plus battery
    trajectories) that the ``/columns`` stream serves too.  The worker
    deflates each cell once and returns the records; the parent decodes
    them, journals the same frames and keeps them on the cells, which is
    what the columns stream splices.  A durable campaign runs one chunk
    per campaign worker, so a kill loses at most the chunks in flight; on
    recovery, cells with a journaled ``shard_done`` are *not* re-run.  A
    record that does not decode raises :class:`StoreError` on replay.
``finish``
    The grid-shape meta payload.  The full result is never duplicated:
    :meth:`load_result` reassembles it from the journaled shard frames.
``fail`` / ``cancel`` / ``delete``
    Terminal transitions (``delete`` drops the job from :meth:`jobs`).

Recovery (:meth:`CampaignStore.__init__`) replays the journal in ``seq``
order.  A torn tail -- records whose CRC no longer matches, e.g. half a
write that a ``SIGKILL`` or disk fault left behind -- is *dropped cleanly*:
everything from the first bad record onward is deleted and the preceding
prefix stays authoritative.  A store file SQLite itself cannot read raises
:class:`StoreError` (the HTTP layer answers ``store_unavailable``).

Durability bound
----------------
The store runs SQLite in WAL mode.  ``sync="normal"`` (the default) lets
SQLite fsync only at WAL checkpoints -- journaling stays off the campaign
hot path (bounded fsyncs) and every acknowledged record survives process
death (``SIGKILL``) unconditionally; an OS crash may drop the tail of
un-checkpointed acknowledgements.  ``sync="full"`` fsyncs every commit for
power-failure durability at higher latency (``repro serve --store-sync``).

Leases
------
Multi-process front-ends (``repro serve --procs N``) coordinate *solely*
through the store: before running a job, a front-end takes an advisory
lease (``BEGIN IMMEDIATE`` makes claims atomic across processes).  A lease
names its owner as ``host:pid:token`` and expires after a TTL; an owner
whose pid is no longer alive on this host is treated as expired
immediately, so a killed server's jobs can be adopted by the next process
without waiting out the TTL.  Leases are renewed on every shard
completion, never held by two processes at once -- two front-ends can
never run the same shard.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import tracing
from repro.obs.metrics import Counter, MetricsRegistry
from repro.service.requests import CampaignRequest

#: Journal record kinds, in lifecycle order.  ``lease_acquire`` /
#: ``lease_steal`` / ``recover`` are pure observability records -- they
#: surface PR 9's coordination in the ``/v1/campaign/<id>/events``
#: timeline but contribute nothing to replayed job state.
RECORD_KINDS = (
    "submit", "start", "lease_acquire", "lease_steal", "shard_done",
    "recover", "finish", "fail", "cancel", "delete",
)

#: Seconds a connection waits for another process's lock before failing.
_BUSY_TIMEOUT_S = 30.0

#: Record kinds that annotate a job without defining its state; replay
#: never creates a :class:`JobRecord` for them (a late lease record must
#: not resurrect a deleted job).
_EVENT_ONLY_KINDS = ("lease_acquire", "lease_steal", "recover")

#: Non-terminal statuses a re-opened store offers for recovery.
RESUMABLE_STATUSES = ("queued", "running")

#: Outcomes of a lease claim, the ``event`` label of
#: ``repro_store_leases_total``.
LEASE_EVENTS = ("acquired", "stolen", "rejected")

#: Default advisory-lease TTL; a backstop only -- dead owners are detected
#: by pid liveness and expire immediately.
DEFAULT_LEASE_TTL_S = 120.0

#: Completed spans persisted past ``max_spans`` are deleted oldest-first
#: (ring-buffer retention) so the trace table stays bounded forever.
DEFAULT_SPAN_RETENTION = 20000

#: Snapshots not re-published within this window are stale: excluded
#: from the cluster scope and eventually deleted.
DEFAULT_SNAPSHOT_TTL_S = 15.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    payload BLOB NOT NULL,
    crc INTEGER NOT NULL,
    created_at REAL NOT NULL,
    owner TEXT
);
CREATE INDEX IF NOT EXISTS journal_job ON journal (job_id, seq);
CREATE TABLE IF NOT EXISTS idempotency (
    key TEXT PRIMARY KEY,
    job_id TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    job_id TEXT PRIMARY KEY,
    owner TEXT NOT NULL,
    expires_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    proc TEXT PRIMARY KEY,
    payload BLOB NOT NULL,
    published_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS spans (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    trace_id TEXT NOT NULL,
    record BLOB NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS spans_trace ON spans (trace_id, id);
"""


class StoreError(RuntimeError):
    """The store file is unusable (unreadable, corrupt, or incomplete)."""


@contextmanager
def _malformed_shard(seq: int) -> Iterator[None]:
    """Raise the campaign codec's :class:`ValueError` on the ``shard_done``
    record ``seq`` as a :class:`StoreError`."""
    try:
        yield
    except ValueError as error:
        raise StoreError(
            f"journal record {seq} shard payload is malformed: {error}"
        ) from error


@dataclass
class JobRecord:
    """One job's state as replayed from the journal."""

    job_id: str
    status: str = "queued"
    request: Optional[CampaignRequest] = None
    error: Optional[str] = None
    trace_hours: int = 0
    created_at: float = 0.0
    idempotency_key: Optional[str] = None
    #: Journal seqs of this job's ``shard_done`` records (payloads are
    #: decoded lazily -- replaying a big store must not load every column).
    shard_seqs: List[int] = field(default_factory=list)
    #: (scenario_index, policy_index) cells covered by journaled shards.
    done_cells: List[Tuple[int, int]] = field(default_factory=list)
    #: Grid meta of the ``finish`` record (``None`` until finished).
    result_meta: Optional[Dict[str, Any]] = None

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in ("done", "failed", "cancelled")


def _default_owner() -> str:
    """``host:pid:token`` -- pid enables dead-owner detection on this host."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _owner_alive(owner: str) -> bool:
    """Whether a lease owner's process still runs on this host.

    Owners from other hosts (or unparsable owners) are conservatively
    treated as alive -- only the TTL expires them.
    """
    parts = owner.split(":")
    if len(parts) != 3 or parts[0] != socket.gethostname():
        return True
    try:
        pid = int(parts[1])
    except ValueError:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class CampaignStore:
    """Write-ahead campaign job store on one SQLite file (see module docs).

    Thread-safe within a process (one connection, one lock) and safe
    across processes (WAL + ``BEGIN IMMEDIATE`` transactions); every
    public method may also raise :class:`StoreError` when the underlying
    file has become unusable.
    """

    def __init__(
        self,
        path: str,
        sync: str = "normal",
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        owner: Optional[str] = None,
    ) -> None:
        if sync not in ("normal", "full"):
            raise ValueError(f"sync must be 'normal' or 'full', got {sync!r}")
        if lease_ttl_s <= 0:
            raise ValueError(f"lease TTL must be positive, got {lease_ttl_s}")
        self.path = str(path)
        self.sync = sync
        self.lease_ttl_s = float(lease_ttl_s)
        #: This process's lease identity (``host:pid:token``).
        self.owner = owner if owner is not None else _default_owner()
        #: The journal's ``owner`` column / cluster identity: ``host:pid``.
        self.proc = ":".join(self.owner.split(":")[:2])
        self.appends = Counter(
            "repro_store_appends_total",
            "Campaign journal records appended, by record kind.",
            ("kind",),
        )
        self.append_bytes = Counter(
            "repro_store_append_bytes_total",
            "Campaign journal payload bytes appended.",
        )
        self.leases = Counter(
            "repro_store_leases_total",
            "Campaign job lease events (acquired, stolen, rejected).",
            ("event",),
        )
        for event in LEASE_EVENTS:
            self.leases.inc(0.0, event=event)
        self.jobs_recovered = Counter(
            "repro_store_jobs_recovered_total",
            "Interrupted campaign jobs re-adopted from the journal.",
        )
        self.records_dropped = Counter(
            "repro_store_records_dropped_total",
            "Torn journal records dropped during recovery.",
        )
        self.results_reloaded = Counter(
            "repro_store_results_reloaded_total",
            "Finished campaign results reassembled from the journal.",
        )
        self.snapshots_published = Counter(
            "repro_store_snapshots_published_total",
            "Observability snapshots this process published.",
        )
        self.spans_persisted = Counter(
            "repro_store_spans_persisted_total",
            "Finished spans written to the store's span ring.",
        )
        self._lock = threading.RLock()
        parent = Path(self.path).resolve().parent
        parent.mkdir(parents=True, exist_ok=True)
        try:
            self._db = sqlite3.connect(
                self.path,
                timeout=_BUSY_TIMEOUT_S,
                check_same_thread=False,
                isolation_level=None,  # autocommit; explicit BEGIN IMMEDIATE
            )
            self._enable_wal()
            self._db.execute(
                "PRAGMA synchronous=%s"
                % ("FULL" if sync == "full" else "NORMAL")
            )
            self._db.executescript(_SCHEMA)
            self._migrate_journal_owner()
            self._drop_torn_tail()
        except sqlite3.DatabaseError as error:
            raise StoreError(
                f"cannot open campaign store {self.path!r}: {error}"
            ) from error

    def _enable_wal(self) -> None:
        """Switch the journal to WAL, waiting out concurrent openers.

        When several processes open one fresh file at once, SQLite can
        fail ``PRAGMA journal_mode=WAL`` with "database is locked"
        without calling the busy handler, so the connection's timeout
        does not cover it; the pragma is retried within that timeout.
        """
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    # --- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Close the SQLite connection (idempotent)."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None  # type: ignore[assignment]

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _connection(self) -> sqlite3.Connection:
        if self._db is None:
            raise StoreError(f"campaign store {self.path!r} is closed")
        return self._db

    def _migrate_journal_owner(self) -> None:
        """Add the ``owner`` column to journals created before PR 10.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table, so
        a store from an older server lacks the column; records it wrote
        keep ``owner = NULL`` in the events timeline, which is honest --
        their writer was never recorded.
        """
        columns = {
            str(row[1])
            for row in self._db.execute("PRAGMA table_info(journal)")
        }
        if "owner" not in columns:
            self._db.execute("ALTER TABLE journal ADD COLUMN owner TEXT")

    def _drop_torn_tail(self) -> None:
        """Drop every journal record from the first CRC mismatch onward.

        A torn record means the tail of the journal is suspect; keeping
        anything after it could resurrect acknowledgements that never
        fully happened.  The surviving prefix is exactly the acknowledged
        history.
        """
        rows = self._db.execute(
            "SELECT seq, payload, crc FROM journal ORDER BY seq"
        ).fetchall()
        bad_seq: Optional[int] = None
        for seq, payload, crc in rows:
            if payload is None or zlib.crc32(payload) != crc:
                bad_seq = seq
                break
        if bad_seq is not None:
            dropped = self._db.execute(
                "SELECT COUNT(*) FROM journal WHERE seq >= ?", (bad_seq,)
            ).fetchone()[0]
            self._db.execute("DELETE FROM journal WHERE seq >= ?", (bad_seq,))
            self.records_dropped.inc(int(dropped))

    # --- journal appends ----------------------------------------------------------
    def _append(self, job_id: str, kind: str, payload: bytes) -> int:
        """Append one journal record and commit it (the ack barrier)."""
        assert kind in RECORD_KINDS, kind
        started = time.time()
        clock = time.perf_counter()
        with self._lock:
            db = self._connection()
            try:
                cursor = db.execute(
                    "INSERT INTO journal (job_id, kind, payload, crc, "
                    "created_at, owner) VALUES (?, ?, ?, ?, ?, ?)",
                    (job_id, kind, payload, zlib.crc32(payload), started,
                     self.proc),
                )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"journal append failed: {error}") from error
            seq = int(cursor.lastrowid)
        self._count_append(kind, len(payload))
        parent = tracing.current_context()
        if parent is not None:
            tracing.record_span(
                "store.append",
                parent,
                started,
                time.perf_counter() - clock,
                job_id=job_id,
                kind=kind,
                bytes=len(payload),
            )
        return seq

    def _count_append(self, kind: str, nbytes: int) -> None:
        self.appends.inc(kind=kind)
        self.append_bytes.inc(nbytes)

    @staticmethod
    def _json_payload(payload: Dict[str, Any]) -> bytes:
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    def submit(
        self,
        request: CampaignRequest,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[str, bool]:
        """Journal one submission; returns ``(job_id, created)``.

        The record is committed before this returns -- the ack the HTTP
        layer sends is backed by disk.  With an ``idempotency_key`` the
        submit is exactly-once: a key seen before returns the original
        job id with ``created=False`` and journals nothing.
        """
        with self._lock:
            db = self._connection()
            try:
                db.execute("BEGIN IMMEDIATE")
                try:
                    if idempotency_key is not None:
                        row = db.execute(
                            "SELECT job_id FROM idempotency WHERE key = ?",
                            (idempotency_key,),
                        ).fetchone()
                        if row is not None:
                            return str(row[0]), False
                    job_id = f"c{self._next_job_number(db)}"
                    payload = self._json_payload({
                        "request": request.to_json_dict(),
                        "idempotency_key": idempotency_key,
                    })
                    db.execute(
                        "INSERT INTO journal (job_id, kind, payload, crc, "
                        "created_at, owner) VALUES (?, ?, ?, ?, ?, ?)",
                        (job_id, "submit", payload, zlib.crc32(payload),
                         time.time(), self.proc),
                    )
                    if idempotency_key is not None:
                        db.execute(
                            "INSERT INTO idempotency (key, job_id) "
                            "VALUES (?, ?)",
                            (idempotency_key, job_id),
                        )
                finally:
                    db.execute("COMMIT")
            except sqlite3.DatabaseError as error:
                raise StoreError(f"submit append failed: {error}") from error
        self._count_append("submit", len(payload))
        return job_id, True

    @staticmethod
    def _next_job_number(db: sqlite3.Connection) -> int:
        """Monotonic job counter, unique across restarts *and* processes."""
        row = db.execute(
            "SELECT value FROM counters WHERE name = 'job'"
        ).fetchone()
        value = (int(row[0]) if row is not None else 0) + 1
        db.execute(
            "INSERT INTO counters (name, value) VALUES ('job', ?) "
            "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
            (value,),
        )
        return value

    def start(self, job_id: str, trace_hours: int) -> None:
        """Journal the start (or restart) of execution."""
        self._append(
            job_id, "start", self._json_payload({"trace_hours": int(trace_hours)})
        )

    def shard_done(
        self, job_id: str, cells: Sequence[Tuple[int, int, Any]]
    ) -> None:
        """Journal one completed shard's cells (persist before proceeding)."""
        from repro.simulation.fleet import encode_cells

        self._append(job_id, "shard_done", encode_cells(cells))

    def finish(self, job_id: str, result: Any) -> None:
        """Journal completion; columns stay in the shard records."""
        self._append(
            job_id, "finish", self._json_payload(dict(result.meta_payload()))
        )

    def fail(self, job_id: str, error: str) -> None:
        """Journal a terminal failure."""
        self._append(job_id, "fail", self._json_payload({"error": str(error)}))

    def cancel(self, job_id: str) -> None:
        """Journal a cancellation request/transition."""
        self._append(job_id, "cancel", self._json_payload({}))

    def delete(self, job_id: str) -> None:
        """Journal deletion; the id disappears from :meth:`jobs`."""
        self._append(job_id, "delete", self._json_payload({}))

    def recover(self, job_id: str, reason: str = "adopted") -> None:
        """Journal an adoption/recovery of an abandoned job (event-only)."""
        self._append(
            job_id, "recover", self._json_payload({"reason": str(reason)})
        )

    # --- replay / queries ---------------------------------------------------------
    def _journal_rows(self, job_id: Optional[str] = None) -> List[tuple]:
        """``(seq, job_id, kind, payload, created_at)`` rows in seq order:
        every job's, or only ``job_id``'s (on the ``journal_job`` index)."""
        query = "SELECT seq, job_id, kind, payload, created_at FROM journal"
        args: Tuple[str, ...] = ()
        if job_id is not None:
            query += " WHERE job_id = ?"
            args = (job_id,)
        with self._lock:
            db = self._connection()
            try:
                return db.execute(query + " ORDER BY seq", args).fetchall()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"journal replay failed: {error}") from error

    def jobs(self) -> Dict[str, JobRecord]:
        """Replay the journal into per-job state (shard payloads stay lazy)."""
        return self._replay(self._journal_rows())

    def job(self, job_id: str) -> Optional[JobRecord]:
        """One job's replayed state, or ``None`` for unknown/deleted ids.

        Replays only that job's records, so a lookup costs the same however
        many jobs the journal holds.
        """
        return self._replay(self._journal_rows(job_id)).get(job_id)

    def _replay(self, rows: Sequence[tuple]) -> Dict[str, JobRecord]:
        """Fold seq-ordered journal rows into per-job state."""
        records: Dict[str, JobRecord] = {}
        for seq, job_id, kind, payload, created_at in rows:
            record = records.get(job_id)
            if record is None:
                if kind in _EVENT_ONLY_KINDS:
                    continue  # annotations never resurrect a deleted job
                record = records[job_id] = JobRecord(job_id=job_id)
            if kind == "submit":
                body = self._decode_json(seq, payload)
                record.created_at = float(created_at)
                record.idempotency_key = body.get("idempotency_key")
                try:
                    record.request = CampaignRequest.from_json_dict(
                        body.get("request", {})
                    )
                except (ValueError, KeyError, TypeError) as error:
                    raise StoreError(
                        f"journal record {seq} has an undecodable campaign "
                        f"request: {error}"
                    ) from error
                record.status = "queued"
            elif kind == "start":
                record.trace_hours = int(
                    self._decode_json(seq, payload).get("trace_hours", 0)
                )
                record.status = "running"
            elif kind == "shard_done":
                from repro.simulation.fleet import cell_ids

                record.shard_seqs.append(int(seq))
                with _malformed_shard(seq):
                    record.done_cells.extend(cell_ids(payload))
            elif kind == "finish":
                record.result_meta = self._decode_json(seq, payload)
                record.status = "done"
            elif kind == "fail":
                record.error = self._decode_json(seq, payload).get("error")
                record.status = "failed"
            elif kind == "cancel":
                if record.status not in ("done", "failed"):
                    record.status = "cancelled"
            elif kind == "delete":
                records.pop(job_id, None)
        return records

    @staticmethod
    def _decode_json(seq: int, payload: bytes) -> Dict[str, Any]:
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreError(
                f"journal record {seq} has an undecodable payload: {error}"
            ) from error
        if not isinstance(body, dict):
            raise StoreError(f"journal record {seq} payload is not an object")
        return body

    def done_cells(self, job_id: str) -> Dict[Tuple[int, int], Any]:
        """Decode every journaled shard of one job into grid cells.

        Later records win on duplicate (scenario, policy) ids -- duplicates
        only arise from a crash between a shard's completion and its
        in-memory accounting, and both copies are bit-identical anyway.
        """
        from repro.simulation.fleet import decode_cells

        with self._lock:
            db = self._connection()
            try:
                rows = db.execute(
                    "SELECT seq, payload FROM journal "
                    "WHERE job_id = ? AND kind = 'shard_done' ORDER BY seq",
                    (job_id,),
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"shard replay failed: {error}") from error
        cells: Dict[Tuple[int, int], Any] = {}
        for seq, payload in rows:
            with _malformed_shard(seq):
                decoded = decode_cells(payload)
            for scenario_index, policy_index, result in decoded:
                cells[(scenario_index, policy_index)] = result
        return cells

    def load_result(self, job_id: str):
        """Reassemble a finished job's :class:`FleetResult` from the journal.

        This is the disk-backed answer to ``GET /v1/campaign/<id>`` after
        an eviction or a restart: the meta frame of the ``finish`` record
        plus every journaled shard cell.  Raises :class:`StoreError` when
        the job is not finished or the journal is missing cells.
        """
        from repro.simulation.fleet import FleetResult

        record = self.job(job_id)
        if record is None:
            raise StoreError(f"unknown job {job_id!r}")
        if record.status != "done" or record.result_meta is None:
            raise StoreError(
                f"job {job_id!r} is {record.status}; only finished jobs "
                "have a stored result"
            )
        cells = self.done_cells(job_id).items()
        try:
            result = FleetResult.from_cells(
                record.result_meta,
                ((row, column, cell) for (row, column), cell in cells),
            )
        except ValueError as error:
            raise StoreError(
                f"stored job {job_id!r} does not assemble: {error}"
            ) from error
        self.results_reloaded.inc()
        return result

    def is_cancelled(self, job_id: str) -> bool:
        """Whether a ``cancel`` record exists for this job (cheap poll)."""
        with self._lock:
            db = self._connection()
            try:
                row = db.execute(
                    "SELECT 1 FROM journal WHERE job_id = ? AND "
                    "kind = 'cancel' LIMIT 1",
                    (job_id,),
                ).fetchone()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"cancel poll failed: {error}") from error
        return row is not None

    # --- leases -------------------------------------------------------------------
    def acquire_lease(
        self, job_id: str, ttl_s: Optional[float] = None
    ) -> bool:
        """Claim the advisory run lease on one job (atomic across processes).

        Succeeds when the job is unleased, already ours, expired, or held
        by a process that no longer exists on this host.  Returns ``False``
        when another live owner holds it -- the caller must not run the
        job's shards.
        """
        ttl = float(ttl_s) if ttl_s is not None else self.lease_ttl_s
        now = time.time()
        with self._lock:
            db = self._connection()
            try:
                db.execute("BEGIN IMMEDIATE")
                try:
                    row = db.execute(
                        "SELECT owner, expires_at FROM leases WHERE job_id = ?",
                        (job_id,),
                    ).fetchone()
                    stolen = False
                    previous_owner: Optional[str] = None
                    if row is not None:
                        owner, expires_at = str(row[0]), float(row[1])
                        if owner != self.owner:
                            if expires_at > now and _owner_alive(owner):
                                self.leases.inc(event="rejected")
                                return False
                            stolen = True
                            previous_owner = owner
                    db.execute(
                        "INSERT INTO leases (job_id, owner, expires_at) "
                        "VALUES (?, ?, ?) ON CONFLICT(job_id) DO UPDATE SET "
                        "owner = excluded.owner, expires_at = excluded.expires_at",
                        (job_id, self.owner, now + ttl),
                    )
                finally:
                    db.execute("COMMIT")
            except sqlite3.DatabaseError as error:
                raise StoreError(f"lease acquire failed: {error}") from error
        self.leases.inc(event="stolen" if stolen else "acquired")
        # Journaled after the claim commits: the timeline records who won,
        # and a steal names the owner it displaced.
        if stolen:
            self._append(
                job_id, "lease_steal",
                self._json_payload({"previous_owner": previous_owner}),
            )
        else:
            self._append(job_id, "lease_acquire", self._json_payload({}))
        return True

    def renew_lease(self, job_id: str, ttl_s: Optional[float] = None) -> bool:
        """Extend our lease; ``False`` when it is no longer ours."""
        ttl = float(ttl_s) if ttl_s is not None else self.lease_ttl_s
        with self._lock:
            db = self._connection()
            try:
                cursor = db.execute(
                    "UPDATE leases SET expires_at = ? "
                    "WHERE job_id = ? AND owner = ?",
                    (time.time() + ttl, job_id, self.owner),
                )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"lease renew failed: {error}") from error
        return cursor.rowcount > 0

    def release_lease(self, job_id: str) -> None:
        """Drop our lease (no-op when it is not ours)."""
        with self._lock:
            db = self._connection()
            try:
                db.execute(
                    "DELETE FROM leases WHERE job_id = ? AND owner = ?",
                    (job_id, self.owner),
                )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"lease release failed: {error}") from error

    def lease_holder(self, job_id: str) -> Optional[Tuple[str, float]]:
        """The current ``(owner, expires_at)`` of a job's lease, if any."""
        with self._lock:
            db = self._connection()
            try:
                row = db.execute(
                    "SELECT owner, expires_at FROM leases WHERE job_id = ?",
                    (job_id,),
                ).fetchone()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"lease lookup failed: {error}") from error
        return None if row is None else (str(row[0]), float(row[1]))

    def lease_abandoned(self, job_id: str) -> bool:
        """Whether a job's lease is absent, expired, or owned by the dead.

        ``True`` means no live process is driving the job -- a front-end
        that notices this may adopt it (acquire + resume).
        """
        holder = self.lease_holder(job_id)
        if holder is None:
            return True
        owner, expires_at = holder
        if owner == self.owner:
            return False
        return expires_at <= time.time() or not _owner_alive(owner)

    # --- events timeline ----------------------------------------------------------
    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """One job's journal as a human-readable lifecycle timeline.

        Each row: ``seq``, ``kind``, ``at`` (epoch seconds), ``owner``
        (the writing process's ``host:pid``; ``None`` for records from a
        pre-PR-10 store) and a light ``details`` object -- shard records
        surface their cell ids from the frame headers without decoding
        any column payloads, so the timeline stays cheap on big jobs.
        """
        from repro.simulation.fleet import cell_ids

        with self._lock:
            db = self._connection()
            try:
                rows = db.execute(
                    "SELECT seq, kind, payload, created_at, owner "
                    "FROM journal WHERE job_id = ? ORDER BY seq",
                    (job_id,),
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"events query failed: {error}") from error
        events: List[Dict[str, Any]] = []
        for seq, kind, payload, created_at, owner in rows:
            details: Dict[str, Any] = {}
            if kind == "shard_done":
                with _malformed_shard(seq):
                    ids = cell_ids(payload)
                details["cells"] = [list(cell_id) for cell_id in ids]
            elif kind in ("submit", "finish"):
                pass  # request/meta payloads are status-endpoint material
            else:
                details = self._decode_json(seq, payload)
            events.append({
                "seq": int(seq),
                "kind": str(kind),
                "at": float(created_at),
                "owner": None if owner is None else str(owner),
                "details": details,
            })
        return events

    def recent_lease_steals(self, limit: int = 10) -> List[Dict[str, Any]]:
        """The newest ``lease_steal`` records, most recent first."""
        with self._lock:
            db = self._connection()
            try:
                rows = db.execute(
                    "SELECT seq, job_id, payload, created_at, owner "
                    "FROM journal WHERE kind = 'lease_steal' "
                    "ORDER BY seq DESC LIMIT ?",
                    (int(limit),),
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"steal query failed: {error}") from error
        return [
            {
                "seq": int(seq),
                "job_id": str(job_id),
                "at": float(created_at),
                "owner": None if owner is None else str(owner),
                "previous_owner":
                    self._decode_json(seq, payload).get("previous_owner"),
            }
            for seq, job_id, payload, created_at, owner in rows
        ]

    # --- observability snapshots --------------------------------------------------
    def publish_snapshot(
        self, payload: bytes, proc: Optional[str] = None
    ) -> None:
        """Upsert this process's observability snapshot (the heartbeat).

        Re-publication refreshes ``published_at``; a process that stops
        publishing (crashed, hung, SIGKILLed) ages out of
        :meth:`live_snapshots` after the TTL.
        """
        if proc is None:
            proc = self.proc
        with self._lock:
            db = self._connection()
            try:
                db.execute(
                    "INSERT INTO snapshots (proc, payload, published_at) "
                    "VALUES (?, ?, ?) ON CONFLICT(proc) DO UPDATE SET "
                    "payload = excluded.payload, "
                    "published_at = excluded.published_at",
                    (proc, payload, time.time()),
                )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"snapshot publish failed: {error}") from error
        self.snapshots_published.inc()

    def live_snapshots(
        self, ttl_s: float = DEFAULT_SNAPSHOT_TTL_S
    ) -> List[Tuple[str, bytes, float]]:
        """Every live process's ``(proc, payload, published_at)``.

        A snapshot is live when it was published within ``ttl_s`` *and*
        its process still exists (same-host pids are probed directly, so
        a SIGKILLed front-end disappears immediately instead of lingering
        for the TTL).  Dead and stale rows are deleted on the way out --
        the table can never outgrow the set of recently live processes.
        """
        now = time.time()
        with self._lock:
            db = self._connection()
            try:
                rows = db.execute(
                    "SELECT proc, payload, published_at FROM snapshots"
                ).fetchall()
                live: List[Tuple[str, bytes, float]] = []
                dead: List[str] = []
                for proc, payload, published_at in rows:
                    proc = str(proc)
                    fresh = float(published_at) >= now - float(ttl_s)
                    if fresh and _owner_alive(f"{proc}:x"):
                        live.append((proc, payload, float(published_at)))
                    else:
                        dead.append(proc)
                for proc in dead:
                    db.execute(
                        "DELETE FROM snapshots WHERE proc = ?", (proc,)
                    )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"snapshot query failed: {error}") from error
        return sorted(live)

    # --- durable spans ------------------------------------------------------------
    def persist_spans(
        self,
        records: Sequence[Dict[str, Any]],
        retention: int = DEFAULT_SPAN_RETENTION,
    ) -> int:
        """Persist finished span records; oldest rows beyond ``retention``
        are deleted (ring-buffer semantics).  Returns how many were
        written."""
        rows = []
        now = time.time()
        for record in records:
            trace_id = record.get("trace_id")
            if not trace_id:
                continue
            rows.append((
                str(trace_id),
                json.dumps(record, separators=(",", ":"),
                           default=str).encode("utf-8"),
                now,
            ))
        if not rows:
            return 0
        with self._lock:
            db = self._connection()
            try:
                db.executemany(
                    "INSERT INTO spans (trace_id, record, created_at) "
                    "VALUES (?, ?, ?)",
                    rows,
                )
                db.execute(
                    "DELETE FROM spans WHERE id <= "
                    "(SELECT MAX(id) FROM spans) - ?",
                    (int(retention),),
                )
            except sqlite3.DatabaseError as error:
                raise StoreError(f"span persist failed: {error}") from error
        self.spans_persisted.inc(len(rows))
        return len(rows)

    def trace_spans(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every persisted span of one trace, start-ordered ([] if none)."""
        with self._lock:
            db = self._connection()
            try:
                rows = db.execute(
                    "SELECT record FROM spans WHERE trace_id = ? ORDER BY id",
                    (trace_id,),
                ).fetchall()
            except sqlite3.DatabaseError as error:
                raise StoreError(f"span query failed: {error}") from error
        spans = []
        for (record,) in rows:
            try:
                spans.append(json.loads(record.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # one corrupt row must not hide the trace
        return sorted(spans, key=lambda span: span.get("start_s", 0.0))

    # --- metrics ------------------------------------------------------------------
    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Expose the store's counter families on a metrics registry."""
        for family in (
            self.appends,
            self.append_bytes,
            self.leases,
            self.jobs_recovered,
            self.records_dropped,
            self.results_reloaded,
            self.snapshots_published,
            self.spans_persisted,
        ):
            registry.register(family)


__all__ = [
    "CampaignStore",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_SNAPSHOT_TTL_S",
    "DEFAULT_SPAN_RETENTION",
    "JobRecord",
    "LEASE_EVENTS",
    "RECORD_KINDS",
    "RESUMABLE_STATUSES",
    "StoreError",
]
