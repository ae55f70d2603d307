"""Binary columnar wire-format tests (satellite of the kernels PR).

Covers the :meth:`CampaignColumns.to_bytes`/:meth:`from_bytes` codec
(byte-exact round-trips at both dtypes and codecs, rich ``ValueError``
diagnostics on malformed or truncated blobs), the length-prefixed
:meth:`FleetResult.to_binary_frames` stream, and the HTTP negotiation:
``GET /campaign/<id>/columns?format=binary`` must reproduce the local
fleet run to 1e-9 under both the zlib and the raw codec, unknown
``format``/``dtype`` values must map to the
service's 400 JSON error contract, and the NDJSON default must be
untouched.  The HTTP tests run twice: on an in-memory service, and on a
store-backed one whose f8/zlib stream splices the journaled frames.
"""

from __future__ import annotations

import http.client
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.table2 import table2_design_points
from repro.service.client import AllocationClient
from repro.service.client import main as client_main
from repro.service.requests import CampaignRequest
from repro.service.server import AllocationService, start_in_thread
from repro.service.store import CampaignStore
from repro.simulation import metrics
from repro.simulation.fleet import (
    CAMPAIGN_BINARY_MAGIC,
    FleetCampaign,
    FleetResult,
)
from repro.simulation.metrics import BINARY_FLOAT_DTYPES, CampaignColumns


@pytest.fixture(scope="module")
def points():
    return table2_design_points()


@pytest.fixture(scope="module")
def local_result(points):
    """One small closed-loop campaign shared by the codec tests."""
    request = CampaignRequest(hours=48, alphas=(1.0, 2.0), baselines=("DP1",))
    scenarios, labels, policies, trace, config = request.build()
    return FleetCampaign(scenarios, config, scenario_labels=labels).run(
        policies, trace
    )


@pytest.fixture(scope="module")
def columns(local_result):
    return local_result.result(0).columns


# ---------------------------------------------------------------------------
# CampaignColumns.to_bytes / from_bytes
# ---------------------------------------------------------------------------

class TestColumnsCodec:
    @pytest.mark.parametrize("compress", [True, False])
    def test_f8_round_trip_is_exact(self, columns, compress):
        blob = columns.to_bytes(dtype="<f8", compress=compress)
        decoded = CampaignColumns.from_bytes(blob)
        np.testing.assert_array_equal(decoded.period_index, columns.period_index)
        np.testing.assert_array_equal(
            decoded.windows_total, columns.windows_total
        )
        np.testing.assert_array_equal(
            decoded.objective_value, columns.objective_value
        )
        np.testing.assert_array_equal(
            decoded.energy_budget_j, columns.energy_budget_j
        )
        np.testing.assert_array_equal(
            decoded.times_by_design_point_s, columns.times_by_design_point_s
        )
        assert decoded.design_point_names == columns.design_point_names

    @pytest.mark.parametrize("compress", [True, False])
    def test_f4_round_trip_is_close(self, columns, compress):
        decoded = CampaignColumns.from_bytes(
            columns.to_bytes(dtype="<f4", compress=compress)
        )
        # Int columns never quantise; floats carry float32 precision.
        np.testing.assert_array_equal(decoded.period_index, columns.period_index)
        np.testing.assert_allclose(
            decoded.objective_value, columns.objective_value,
            rtol=1e-6, atol=1e-6,
        )
        np.testing.assert_allclose(
            decoded.energy_budget_j, columns.energy_budget_j,
            rtol=1e-6, atol=1e-5,
        )
        assert decoded.energy_budget_j.dtype == np.float64  # floats widen back

    def test_encoding_is_deterministic_and_reencodable(self, columns):
        # Byte-exactness: the same columns always serialise to the same
        # bytes (zlib at a fixed level is deterministic), and a decode/encode cycle
        # reproduces the original blob bit for bit.
        for dtype in BINARY_FLOAT_DTYPES:
            first = columns.to_bytes(dtype=dtype)
            second = columns.to_bytes(dtype=dtype)
            assert first == second
            decoded = CampaignColumns.from_bytes(first)
            assert decoded.to_bytes(dtype=dtype) == first

    def test_compression_shrinks_the_payload(self, columns):
        raw = columns.to_bytes(dtype="<f8", compress=False)
        packed = columns.to_bytes(dtype="<f8", compress=True)
        assert len(packed) < len(raw)

    def test_unknown_dtype_is_rejected(self, columns):
        with pytest.raises(ValueError, match="dtype"):
            columns.to_bytes(dtype="<f2")

    def test_malformed_blobs_raise_value_errors(self, columns):
        good = columns.to_bytes(dtype="<f8", compress=False)
        with pytest.raises(ValueError, match="header length"):
            CampaignColumns.from_bytes(b"\x01\x02")
        with pytest.raises(ValueError, match="header"):
            CampaignColumns.from_bytes(struct.pack("<Q", 10**6) + b"\x00" * 16)
        header_len = struct.unpack_from("<Q", good, 0)[0]
        with pytest.raises(ValueError, match="header"):
            CampaignColumns.from_bytes(
                struct.pack("<Q", header_len)
                + b"{" * header_len
                + good[8 + header_len:]
            )
        with pytest.raises(ValueError, match="truncated"):
            CampaignColumns.from_bytes(good[:-16])
        with pytest.raises(ValueError, match="trailing"):
            CampaignColumns.from_bytes(good + b"\x00")

    def test_tampered_header_fields_are_rejected(self, columns):
        good = columns.to_bytes(dtype="<f8", compress=False)
        header_len = struct.unpack_from("<Q", good, 0)[0]
        header = json.loads(good[8:8 + header_len].decode("utf-8"))
        payload = good[8 + header_len:]

        def rebuild(**overrides):
            tampered = dict(header, **overrides)
            blob = json.dumps(tampered).encode("utf-8")
            return struct.pack("<Q", len(blob)) + blob + payload

        with pytest.raises(ValueError, match="version"):
            CampaignColumns.from_bytes(rebuild(version=9))
        with pytest.raises(ValueError, match="dtype"):
            CampaignColumns.from_bytes(rebuild(dtype="<f2"))
        with pytest.raises(ValueError, match="codec"):
            CampaignColumns.from_bytes(rebuild(codec="lz9"))
        with pytest.raises(ValueError, match="num_periods"):
            CampaignColumns.from_bytes(rebuild(num_periods=-1))


# ---------------------------------------------------------------------------
# The FleetResult binary stream
# ---------------------------------------------------------------------------

class TestFleetResultBinaryStream:
    def test_round_trip_is_exact(self, local_result):
        blob = b"".join(local_result.to_binary_frames())
        assert blob.startswith(CAMPAIGN_BINARY_MAGIC)
        decoded = FleetResult.from_binary(blob)
        assert decoded.policy_names == local_result.policy_names
        assert decoded.scenario_labels == local_result.scenario_labels
        assert decoded.trace_hours == local_result.trace_hours
        for scenario_index, policy_index, cell in decoded:
            reference = local_result.result(policy_index, scenario_index)
            np.testing.assert_array_equal(
                np.asarray(cell.columns.energy_budget_j),
                np.asarray(reference.columns.energy_budget_j),
            )
            np.testing.assert_array_equal(
                np.asarray(cell.columns.energy_consumed_j),
                np.asarray(reference.columns.energy_consumed_j),
            )
            np.testing.assert_array_equal(
                np.asarray(cell.battery_charge_j),
                np.asarray(reference.battery_charge_j),
            )

    def test_bad_magic_is_rejected(self, local_result):
        blob = b"".join(local_result.to_binary_frames())
        with pytest.raises(ValueError, match="magic"):
            FleetResult.from_binary(b"NOTACOL1" + blob[8:])

    def test_truncated_stream_is_rejected(self, local_result):
        blob = b"".join(local_result.to_binary_frames())
        for cut in (len(CAMPAIGN_BINARY_MAGIC) + 3, len(blob) // 2, len(blob) - 5):
            with pytest.raises(ValueError):
                FleetResult.from_binary(blob[:cut])

    def test_trailing_garbage_is_rejected(self, local_result):
        blob = b"".join(local_result.to_binary_frames())
        with pytest.raises(ValueError, match="trailing"):
            FleetResult.from_binary(blob + b"\x00" * 12)

    @pytest.fixture(scope="class")
    def two_cell_stream(self):
        """A real 2-cell stream and the offsets of its JSON header bytes."""
        request = CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",))
        scenarios, labels, policies, trace, config = request.build()
        result = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        blob = b"".join(result.to_binary_frames())

        def parses(text: bytes) -> bool:
            try:
                json.loads(text)
            except ValueError:
                return False
            return True

        # Meta, cell and columns headers: flips there can still parse,
        # which is where a missing key or a wrong type comes from.
        headers = [
            offset
            for match in re.finditer(rb"\{[^{}]*\}", blob)
            if parses(match.group())
            for offset in range(match.start(), match.end())
        ]
        assert len(headers) > 100
        return blob, headers

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corruption_raises_only_value_error(self, two_cell_stream, data):
        # The stream comes off the network: truncations and byte flips
        # must decode or raise ValueError, never KeyError or TypeError.
        blob, headers = two_cell_stream
        if data.draw(st.booleans(), label="truncate"):
            corrupt = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            flipped = bytearray(blob)
            for _ in range(data.draw(st.integers(1, 4), label="flips")):
                offset = data.draw(
                    st.sampled_from(headers) | st.integers(0, len(blob) - 1)
                )
                flipped[offset] ^= data.draw(st.integers(1, 255))
            corrupt = bytes(flipped)
        try:
            decoded = FleetResult.from_binary(corrupt)
        except ValueError:
            return
        assert isinstance(decoded, FleetResult)


# ---------------------------------------------------------------------------
# HTTP negotiation
# ---------------------------------------------------------------------------

class TestBinaryColumnsHttp:
    REQUEST = CampaignRequest(hours=48, alphas=(1.0, 2.0), baselines=("DP1",))

    @pytest.fixture(scope="class")
    def store(self):
        return None  # in-memory service; see TestBinaryColumnsHttpStore

    @pytest.fixture(scope="class")
    def server(self, points, store):
        service = AllocationService(
            default_points=points, window_s=0.001, campaign_workers=2,
            store=store,
        )
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    @pytest.fixture(scope="class")
    def client(self, server):
        return AllocationClient(port=server.port, timeout_s=120.0)

    @pytest.fixture(scope="class")
    def finished(self, client):
        submitted = client.submit_campaign(self.REQUEST)
        client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
        return submitted

    @pytest.mark.parametrize("codec", ["zlib", "raw"])
    def test_binary_columns_match_local_run(
        self, client, finished, local_result, codec
    ):
        remote = client.campaign_result(
            finished.campaign_id, binary=True, codec=codec
        )
        assert remote.policy_names == local_result.policy_names
        for scenario_index, policy_index, cell in remote:
            reference = local_result.result(policy_index, scenario_index)
            np.testing.assert_allclose(
                cell.objective_values(), reference.objective_values(),
                atol=1e-9,
            )
            np.testing.assert_allclose(
                cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
            )

    def test_binary_equals_ndjson_to_the_last_bit(self, client, finished):
        # Both wire formats decode from the same float64 columns: the f8
        # binary path must agree with NDJSON exactly, not just to 1e-9.
        ndjson = client.campaign_result(finished.campaign_id)
        binary = client.campaign_result(finished.campaign_id, binary=True)
        for scenario_index, policy_index, cell in binary:
            reference = ndjson.result(policy_index, scenario_index)
            np.testing.assert_array_equal(
                np.asarray(cell.columns.energy_budget_j),
                np.asarray(reference.columns.energy_budget_j),
            )

    def test_f4_wire_is_close(self, client, finished):
        remote = client.campaign_result(
            finished.campaign_id, binary=True, dtype="f4"
        )
        reference = client.campaign_result(finished.campaign_id)
        for scenario_index, policy_index, cell in remote:
            local = reference.result(policy_index, scenario_index)
            np.testing.assert_allclose(
                cell.objective_values(), local.objective_values(),
                rtol=1e-6, atol=1e-6,
            )

    def test_binary_stream_is_chunked_octet_stream(self, server, finished):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0
        )
        try:
            connection.request(
                "GET",
                f"/v1/campaign/{finished.campaign_id}/columns?format=binary",
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Type") == "application/octet-stream"
            blob = response.read()
        finally:
            connection.close()
        assert blob.startswith(CAMPAIGN_BINARY_MAGIC)
        decoded = FleetResult.from_binary(blob)
        assert decoded.num_cells == self.REQUEST.num_cells

    def test_ndjson_stays_the_default(self, server, finished):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0
        )
        try:
            connection.request(
                "GET", f"/v1/campaign/{finished.campaign_id}/columns"
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "query", ["format=msgpack", "format=binary&dtype=f2"]
    )
    def test_unknown_negotiation_is_400_json_error(self, server, finished, query):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0
        )
        try:
            connection.request(
                "GET",
                f"/v1/campaign/{finished.campaign_id}/columns?{query}",
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Content-Type") == "application/json"
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert "error" in payload

    def test_truncated_binary_body_raises_client_side(self, client, finished):
        blob = client.campaign_columns_binary(finished.campaign_id)
        with pytest.raises(ValueError):
            FleetResult.from_binary(blob[: len(blob) - 20])

    def test_client_cli_binary_columns(self, server, finished, capsys):
        code = client_main(
            [
                "--port", str(server.port), "--timeout", "120",
                "campaign", "columns", finished.campaign_id, "--binary",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + self.REQUEST.num_cells
        meta = json.loads(lines[0])
        assert meta["trace_hours"] == 48


class TestBinaryColumnsHttpStore(TestBinaryColumnsHttp):
    """Every negotiation test above, on a durable service.

    Its campaigns journal one shard per campaign worker, and the f8/zlib
    stream splices the frames the workers deflated instead of encoding.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store = CampaignStore(str(tmp_path_factory.mktemp("store") / "jobs.db"))
        yield store
        store.close()

    @pytest.fixture()
    def deflate_refused(self, monkeypatch):
        """Fail any column or battery deflate until ``undo()``."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("a journaled cell was deflated again")

        monkeypatch.setattr(CampaignColumns, "to_bytes_chunks", refuse)
        monkeypatch.setattr(metrics, "deflate_f8", refuse)
        return monkeypatch

    @staticmethod
    def _reencoded(blob: bytes) -> bytes:
        """The stream's cells encoded from scratch (decoded, no frames)."""
        return b"".join(FleetResult.from_binary(blob).to_binary_frames())

    def test_one_shard_record_per_campaign_worker(self, server, store, finished):
        record = store.job(finished.campaign_id)
        assert record.status == "done"
        assert len(record.shard_seqs) == server.service.pool.campaign_workers

    def test_stream_splices_frames_byte_for_byte(
        self, client, finished, deflate_refused
    ):
        blob = client.campaign_columns_binary(finished.campaign_id)
        deflate_refused.undo()
        assert blob == self._reencoded(blob)

    def test_reloaded_result_splices_frames_byte_for_byte(
        self, client, store, finished, deflate_refused
    ):
        blob = client.campaign_columns_binary(finished.campaign_id)
        reloaded = b"".join(
            store.load_result(finished.campaign_id).to_binary_frames()
        )
        deflate_refused.undo()
        assert reloaded == blob == self._reencoded(blob)
