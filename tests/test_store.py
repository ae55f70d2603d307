"""Tests for the durable campaign job store (``repro.service.store``).

Covers the write-ahead contract (persist-then-ack, replay across
re-opens), exactly-once idempotent submission, the advisory lease
protocol (including dead-owner adoption), processes opening one fresh
store at once, and corruption handling: a torn journal tail is dropped
cleanly and a file SQLite cannot read raises :class:`StoreError` instead
of poisoning recovery.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sqlite3
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.service.requests import CampaignRequest
from repro.service.store import (
    CampaignStore,
    StoreError,
    decode_cells,
    encode_cells,
)
from repro.simulation import metrics
from repro.simulation.fleet import FleetCampaign

REQUEST = CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",))


@pytest.fixture(scope="module")
def fleet_result():
    """One tiny fleet run whose cells are journaled by the tests."""
    scenarios, labels, policies, trace, config = REQUEST.build()
    return FleetCampaign(scenarios, config, scenario_labels=labels).run(
        policies, trace
    )


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "jobs.db")


def _cells(fleet_result):
    return [(si, pi, cell) for si, pi, cell in fleet_result]


# --- write-ahead journal --------------------------------------------------------
class TestJournal:
    def test_submit_survives_reopen(self, store_path):
        with CampaignStore(store_path) as store:
            job_id, created = store.submit(REQUEST)
        assert created
        with CampaignStore(store_path) as reopened:
            record = reopened.job(job_id)
        assert record is not None
        assert record.status == "queued"
        assert record.request is not None
        assert record.request.to_json_dict() == REQUEST.to_json_dict()

    def test_lifecycle_replay(self, store_path, fleet_result):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            store.start(job_id, trace_hours=fleet_result.trace_hours)
            assert store.job(job_id).status == "running"
            store.shard_done(job_id, _cells(fleet_result))
            store.finish(job_id, fleet_result)
        with CampaignStore(store_path) as reopened:
            record = reopened.job(job_id)
            assert record.status == "done"
            assert record.trace_hours == fleet_result.trace_hours
            assert sorted(record.done_cells) == sorted(
                (si, pi) for si, pi, _ in fleet_result
            )

    def test_load_result_is_bit_exact(self, store_path, fleet_result):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            store.start(job_id, trace_hours=fleet_result.trace_hours)
            store.shard_done(job_id, _cells(fleet_result))
            store.finish(job_id, fleet_result)
        with CampaignStore(store_path) as reopened:
            loaded = reopened.load_result(job_id)
        assert loaded.policy_names == fleet_result.policy_names
        assert loaded.scenario_labels == fleet_result.scenario_labels
        for si, pi, cell in loaded:
            reference = fleet_result.result(pi, si)
            np.testing.assert_array_equal(
                cell.objective_values(), reference.objective_values()
            )
            np.testing.assert_array_equal(
                cell.battery_charge_j, reference.battery_charge_j
            )

    def test_load_result_requires_done(self, store_path):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            with pytest.raises(StoreError, match="only finished"):
                store.load_result(job_id)

    def test_fail_cancel_delete(self, store_path):
        with CampaignStore(store_path) as store:
            failed, _ = store.submit(REQUEST)
            store.fail(failed, "boom")
            cancelled, _ = store.submit(REQUEST)
            store.cancel(cancelled)
            deleted, _ = store.submit(REQUEST)
            store.delete(deleted)
            jobs = store.jobs()
        assert jobs[failed].status == "failed"
        assert jobs[failed].error == "boom"
        assert jobs[cancelled].status == "cancelled"
        assert deleted not in jobs

    def test_cancel_never_overrides_done(self, store_path, fleet_result):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            store.start(job_id, trace_hours=fleet_result.trace_hours)
            store.shard_done(job_id, _cells(fleet_result))
            store.finish(job_id, fleet_result)
            store.cancel(job_id)  # raced in after the finish committed
            assert store.job(job_id).status == "done"

    def test_job_equals_the_full_replay_for_every_id(
        self, store_path, fleet_result
    ):
        # job(id) replays one job's rows only; on every kind of history it
        # must agree with the whole-journal replay.
        cells = _cells(fleet_result)
        with CampaignStore(store_path) as store:
            done, _ = store.submit(REQUEST, idempotency_key="k1")
            store.acquire_lease(done)
            store.start(done, trace_hours=fleet_result.trace_hours)
            store.shard_done(done, cells[:1])
            store.shard_done(done, cells[1:])
            store.finish(done, fleet_result)
            failed, _ = store.submit(REQUEST)
            store.start(failed, trace_hours=fleet_result.trace_hours)
            store.fail(failed, "boom")
            cancelled, _ = store.submit(REQUEST)
            store.cancel(cancelled)
            deleted, _ = store.submit(REQUEST)
            store.delete(deleted)
            store.acquire_lease(deleted)  # a late lease event, no resurrection
            running, _ = store.submit(REQUEST)
            store.start(running, trace_hours=fleet_result.trace_hours)
            store.shard_done(running, cells[:1])
            store.acquire_lease("ghost")  # lease events only, never submitted
            jobs = store.jobs()
            ids = (done, failed, cancelled, deleted, running, "ghost", "c999")
            for job_id in ids:
                assert store.job(job_id) == jobs.get(job_id), job_id
        assert sorted(jobs) == sorted((done, failed, cancelled, running))
        assert jobs[done].status == "done"
        assert len(jobs[done].shard_seqs) == 2
        assert jobs[running].done_cells == [cells[0][:2]]

    def test_job_ids_monotonic_across_reopen(self, store_path):
        with CampaignStore(store_path) as store:
            first, _ = store.submit(REQUEST)
        with CampaignStore(store_path) as reopened:
            second, _ = reopened.submit(REQUEST)
        assert first != second
        assert int(second[1:]) > int(first[1:])


# --- idempotent submission ------------------------------------------------------
class TestIdempotency:
    def test_same_key_same_job(self, store_path):
        with CampaignStore(store_path) as store:
            first, created_first = store.submit(REQUEST, idempotency_key="k1")
            second, created_second = store.submit(REQUEST, idempotency_key="k1")
            assert (created_first, created_second) == (True, False)
            assert first == second
            # the replay journaled nothing: one submit record only
            assert store.appends.value(kind="submit") == 1

    def test_key_survives_reopen(self, store_path):
        with CampaignStore(store_path) as store:
            first, _ = store.submit(REQUEST, idempotency_key="k1")
        with CampaignStore(store_path) as reopened:
            second, created = reopened.submit(REQUEST, idempotency_key="k1")
        assert second == first
        assert not created

    def test_distinct_keys_distinct_jobs(self, store_path):
        with CampaignStore(store_path) as store:
            first, _ = store.submit(REQUEST, idempotency_key="k1")
            second, _ = store.submit(REQUEST, idempotency_key="k2")
            third, _ = store.submit(REQUEST)  # keyless is never coalesced
        assert len({first, second, third}) == 3


# --- advisory leases ------------------------------------------------------------
class TestLeases:
    def test_live_owner_excludes_others(self, store_path):
        mine = CampaignStore(store_path, owner=f"{socket.gethostname()}:{os.getpid()}:a")
        other = CampaignStore(store_path, owner=f"{socket.gethostname()}:{os.getpid()}:b")
        try:
            job_id, _ = mine.submit(REQUEST)
            assert mine.acquire_lease(job_id)
            assert mine.acquire_lease(job_id)  # re-entrant for the owner
            assert not other.acquire_lease(job_id)
            assert other.leases.value(event="rejected") == 1
            assert not other.lease_abandoned(job_id)
            assert mine.renew_lease(job_id)
            assert not other.renew_lease(job_id)
        finally:
            mine.close()
            other.close()

    def test_dead_owner_is_stolen_immediately(self, store_path):
        dead = CampaignStore(
            store_path, owner=f"{socket.gethostname()}:999999999:dead"
        )
        living = CampaignStore(store_path)
        try:
            job_id, _ = dead.submit(REQUEST)
            assert dead.acquire_lease(job_id)
            # TTL far from expiry, but the pid does not exist on this host.
            assert living.lease_abandoned(job_id)
            assert living.acquire_lease(job_id)
            assert living.leases.value(event="stolen") == 1
            holder, _expires = living.lease_holder(job_id)
            assert holder == living.owner
        finally:
            dead.close()
            living.close()

    def test_release_frees_the_job(self, store_path):
        mine = CampaignStore(store_path, owner=f"{socket.gethostname()}:{os.getpid()}:a")
        other = CampaignStore(store_path, owner=f"{socket.gethostname()}:{os.getpid()}:b")
        try:
            job_id, _ = mine.submit(REQUEST)
            assert mine.acquire_lease(job_id)
            mine.release_lease(job_id)
            assert other.lease_abandoned(job_id)
            assert other.acquire_lease(job_id)
        finally:
            mine.close()
            other.close()

    def test_expired_lease_is_abandoned(self, store_path):
        # A live-pid owner whose TTL has lapsed counts as abandoned too
        # (the backstop for unkillable-but-stuck processes).
        other_host = CampaignStore(
            store_path, owner="elsewhere:1:tok", lease_ttl_s=0.05
        )
        living = CampaignStore(store_path)
        try:
            job_id, _ = other_host.submit(REQUEST)
            assert other_host.acquire_lease(job_id)
            assert not living.lease_abandoned(job_id)
            import time

            time.sleep(0.1)
            assert living.lease_abandoned(job_id)
            assert living.acquire_lease(job_id)
        finally:
            other_host.close()
            living.close()


# --- concurrent opens ------------------------------------------------------------
def _open_at_barrier(path: str, barrier) -> None:
    """Forked opener: open the store once all openers are ready; exit 1 on error."""
    barrier.wait(timeout=30.0)
    try:
        CampaignStore(path).close()
    except StoreError:
        os._exit(1)
    os._exit(0)


class TestConcurrentOpen:
    def test_open_waits_out_a_writer_on_a_fresh_file(self, store_path):
        # While another connection holds a fresh file's write lock, SQLite
        # fails the switch to WAL at once, without its busy handler.
        blocker = sqlite3.connect(
            store_path, isolation_level=None, check_same_thread=False
        )
        blocker.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, blocker.execute, args=("ROLLBACK",))
        release.start()
        try:
            started = time.monotonic()
            CampaignStore(store_path).close()
            assert time.monotonic() - started >= 0.2
        finally:
            release.join()
            blocker.close()

    def test_four_processes_open_one_fresh_store_at_once(self, tmp_path):
        context = multiprocessing.get_context("fork")
        for round_index in range(60):
            path = str(tmp_path / f"fresh-{round_index}.db")
            barrier = context.Barrier(4)
            openers = [
                context.Process(target=_open_at_barrier, args=(path, barrier))
                for _ in range(4)
            ]
            for opener in openers:
                opener.start()
            for opener in openers:
                opener.join(timeout=60.0)
            assert [opener.exitcode for opener in openers] == [0] * 4, (
                f"an opener failed in round {round_index}"
            )


# --- corruption -----------------------------------------------------------------
class TestCorruption:
    def _tamper(self, store_path, which: str) -> None:
        """Flip bytes in one journal record's payload, leaving its CRC."""
        connection = sqlite3.connect(store_path)
        try:
            seq = connection.execute(
                f"SELECT {which}(seq) FROM journal"
            ).fetchone()[0]
            connection.execute(
                "UPDATE journal SET payload = X'DEADBEEF' WHERE seq = ?",
                (seq,),
            )
            connection.commit()
        finally:
            connection.close()

    def test_torn_tail_is_dropped(self, store_path, fleet_result):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            store.start(job_id, trace_hours=fleet_result.trace_hours)
            store.shard_done(job_id, _cells(fleet_result))
            store.finish(job_id, fleet_result)
        self._tamper(store_path, "MAX")  # the finish record is torn
        with CampaignStore(store_path) as reopened:
            assert reopened.records_dropped.value() == 1
            record = reopened.job(job_id)
            # The prefix stays authoritative: job reverts to running with
            # its journaled shards intact -- exactly what resume needs.
            assert record.status == "running"
            assert len(record.shard_seqs) == 1

    def test_torn_middle_record_drops_the_rest(self, store_path, fleet_result):
        with CampaignStore(store_path) as store:
            job_id, _ = store.submit(REQUEST)
            store.start(job_id, trace_hours=fleet_result.trace_hours)
            store.shard_done(job_id, _cells(fleet_result))
            store.finish(job_id, fleet_result)
        self._tamper(store_path, "MIN")  # the submit record itself is torn
        with CampaignStore(store_path) as reopened:
            # Everything from the first bad record onward is gone; a
            # half-written history never resurrects acknowledgements.
            assert reopened.records_dropped.value() == 4
            assert reopened.job(job_id) is None

    def test_malformed_shard_of_one_job_spares_the_others(
        self, store_path, fleet_result
    ):
        # A CRC-valid record whose payload is no cell frame survives the
        # torn-tail check; only a replay of its own job may trip over it.
        with CampaignStore(store_path) as store:
            broken, _ = store.submit(REQUEST)
            healthy, _ = store.submit(REQUEST)
            store.start(healthy, trace_hours=fleet_result.trace_hours)
        payload = struct.pack("<Q", 64) + b"{}"
        connection = sqlite3.connect(store_path)
        try:
            connection.execute(
                "INSERT INTO journal (job_id, kind, payload, crc, created_at) "
                "VALUES (?, 'shard_done', ?, ?, ?)",
                (broken, payload, zlib.crc32(payload), time.time()),
            )
            connection.commit()
        finally:
            connection.close()
        with CampaignStore(store_path) as reopened:
            assert reopened.records_dropped.value() == 0
            assert reopened.job(healthy).status == "running"
            with pytest.raises(StoreError, match="malformed"):
                reopened.job(broken)

    def test_unreadable_file_raises_store_error(self, tmp_path):
        path = tmp_path / "not-a-db.db"
        path.write_bytes(b"this is not a sqlite file, not even close...")
        with pytest.raises(StoreError, match="cannot open campaign store"):
            CampaignStore(str(path))

    def test_closed_store_raises_store_error(self, store_path):
        store = CampaignStore(store_path)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.submit(REQUEST)


# --- cell frame codec -----------------------------------------------------------
class TestCellCodec:
    def test_round_trip_is_bit_exact(self, fleet_result):
        cells = _cells(fleet_result)
        payload = encode_cells(cells)
        decoded = decode_cells(payload)
        assert encode_cells(decoded) == payload
        assert len(decoded) == len(cells)
        for (si, pi, original), (dsi, dpi, copy) in zip(cells, decoded):
            assert (si, pi) == (dsi, dpi)
            assert copy.policy_name == original.policy_name
            assert copy.alpha == original.alpha
            np.testing.assert_array_equal(
                copy.objective_values(), original.objective_values()
            )
            np.testing.assert_array_equal(
                copy.battery_charge_j, original.battery_charge_j
            )

    def test_level_6_journals_stay_readable(self, fleet_result, monkeypatch):
        # Journals written before the level became 1 deflated at 6;
        # inflating does not depend on the level.
        monkeypatch.setattr(metrics, "ZLIB_LEVEL", 6)
        payload = encode_cells(
            [(si, pi, metrics.CampaignResult.from_columns(
                cell.policy_name, cell.alpha, cell.columns,
                battery_charge_j=cell.battery_charge_j,
            )) for si, pi, cell in fleet_result]
        )
        monkeypatch.undo()
        assert payload != encode_cells(_cells(fleet_result))
        for si, pi, cell in decode_cells(payload):
            reference = fleet_result.result(pi, si)
            np.testing.assert_array_equal(
                cell.objective_values(), reference.objective_values()
            )
            np.testing.assert_array_equal(
                cell.battery_charge_j, reference.battery_charge_j
            )

    def test_decoded_cells_reencode_without_deflating(
        self, fleet_result, monkeypatch
    ):
        # The frames a payload was decoded from stay on its cells: the
        # journal re-frames them, and the f8/zlib stream splices them.
        payload = encode_cells(_cells(fleet_result))
        decoded = decode_cells(payload)

        def no_deflate(*_args, **_kwargs):
            raise AssertionError("decoded cells were deflated again")

        monkeypatch.setattr(metrics.CampaignColumns, "to_bytes", no_deflate)
        monkeypatch.setattr(metrics, "deflate_f8", no_deflate)
        assert encode_cells(decoded) == payload

    def test_truncated_payload_raises(self, fleet_result):
        payload = encode_cells(_cells(fleet_result))
        with pytest.raises(StoreError, match="truncated"):
            decode_cells(payload[: len(payload) - 7])
