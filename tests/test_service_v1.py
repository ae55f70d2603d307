"""Tests for the versioned ``/v1`` service API surface.

Covers the uniform error envelope (``{"error": {"code", "message",
"detail"}}`` with stable codes), 404s for paths outside ``/v1``,
``Idempotency-Key`` replay on submission, the
explicit ``queued -> running -> done | failed | cancelled`` lifecycle
(including the cancel endpoint), the store-backed lookup that turns an
evicted campaign id into a cache miss instead of a 404, and the 503
``store_unavailable`` mapping when the journal goes away.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.client import AllocationClient, ServiceError
from repro.service.requests import CampaignRequest
from repro.service.server import AllocationService, start_in_thread

SMALL = CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",))


def _raw(server, method: str, path: str, body=None, headers=None):
    """One raw HTTP exchange: (status, headers, decoded JSON body)."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=30.0
    )
    try:
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        all_headers = {"Content-Type": "application/json"} if encoded else {}
        all_headers.update(headers or {})
        connection.request(method, path, body=encoded, headers=all_headers)
        response = connection.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode("utf-8")) if raw else None
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


# --- error envelope ----------------------------------------------------------------
class TestV1Envelope:
    @pytest.fixture(scope="class")
    def server(self):
        service = AllocationService(window_s=0.001, campaign_workers=1)
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    def test_v1_404_uses_the_envelope(self, server):
        status, _, payload = _raw(server, "GET", "/v1/campaign/nope")
        assert status == 404
        assert payload == {
            "error": {
                "code": "not_found",
                "message": payload["error"]["message"],
                "detail": None,
            }
        }
        assert "nope" in payload["error"]["message"]

    def test_v1_400_bad_request_code(self, server):
        status, _, payload = _raw(
            server, "POST", "/v1/campaign", body={"alphas": "not-a-list"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_v1_405_and_unknown_route(self, server):
        status, _, payload = _raw(server, "DELETE", "/v1/healthz")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        status, _, payload = _raw(server, "GET", "/v1/never-heard-of-it")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_unversioned_path_is_not_found(self, server):
        # Every route lives under /v1; the pre-v1 spellings are gone and
        # answer like any unknown path, in the envelope.
        status, headers, payload = _raw(server, "GET", "/healthz")
        assert status == 404
        assert payload == {
            "error": {
                "code": "not_found",
                "message": payload["error"]["message"],
                "detail": None,
            }
        }
        assert "/v1/" in payload["error"]["message"]
        assert "Deprecation" not in headers

    def test_v1_routes_are_not_deprecated(self, server):
        status, headers, payload = _raw(server, "GET", "/v1/healthz")
        assert status == 200
        assert "Deprecation" not in headers
        assert payload["status"] == "ok"
        assert "pid" in payload

    def test_client_surfaces_the_code(self, server):
        client = AllocationClient(port=server.port, timeout_s=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client.campaign_status("nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"


# --- lifecycle + idempotency + store-backed lookup ------------------------------
class TestDurableV1Service:
    @pytest.fixture()
    def server(self, tmp_path):
        # max_campaigns=1 makes eviction immediate: any second finished
        # job pushes the first out of memory, which must *not* 404.
        service = AllocationService(
            window_s=0.001,
            campaign_workers=1,
            max_campaigns=1,
            store=str(tmp_path / "jobs.db"),
        )
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    @pytest.fixture()
    def client(self, server):
        return AllocationClient(port=server.port, timeout_s=120.0)

    def test_lifecycle_queued_to_done(self, client):
        submitted = client.submit_campaign(SMALL)
        assert submitted.status in ("queued", "running")
        status = client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
        assert status.status == "done"

    def test_idempotency_key_replays_the_same_job(self, client):
        first = client.submit_campaign(SMALL, idempotency_key="retry-1")
        second = client.submit_campaign(SMALL, idempotency_key="retry-1")
        assert first.campaign_id == second.campaign_id
        third = client.submit_campaign(SMALL, idempotency_key="retry-2")
        assert third.campaign_id != first.campaign_id

    def test_idempotent_replay_after_completion_reports_done(self, client):
        first = client.submit_campaign(SMALL, idempotency_key="retry-1")
        client.wait_for_campaign(first.campaign_id, timeout_s=120)
        replay = client.submit_campaign(SMALL, idempotency_key="retry-1")
        assert replay.campaign_id == first.campaign_id
        assert replay.status == "done"

    def test_evicted_campaign_is_reserved_from_store(self, server, client):
        # Regression: before the store existed, an id evicted from the
        # in-memory map 404'd even though its columns had been computed.
        first = client.submit_campaign(SMALL)
        client.wait_for_campaign(first.campaign_id, timeout_s=120)
        second = client.submit_campaign(
            CampaignRequest(hours=24, alphas=(2.0,), baselines=("DP1",))
        )
        client.wait_for_campaign(second.campaign_id, timeout_s=120)
        # max_campaigns=1: the first job is gone from memory now.
        assert first.campaign_id not in server.service._campaigns
        status = client.campaign_status(first.campaign_id)
        assert status.status == "done"
        result = client.campaign_result(first.campaign_id)
        assert len(list(result)) == SMALL.num_cells

    def test_cancel_finished_campaign_is_conflict(self, client):
        submitted = client.submit_campaign(SMALL)
        client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel_campaign(submitted.campaign_id)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "conflict"

    def test_cancel_reaches_cancelled_state(self, server, client):
        # A long trace with several shards: the cancel lands at a shard
        # boundary well before the campaign could finish.
        submitted = client.submit_campaign(
            CampaignRequest(hours=600, alphas=(0.5, 1.0, 2.0),
                            baselines=("DP1", "DP3"))
        )
        response = client.cancel_campaign(submitted.campaign_id)
        assert response.status in ("queued", "running", "cancelled")
        status = client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
        assert status.status == "cancelled"
        # Cancelled is terminal: columns answer 409 job_running-style
        # conflicts, cancelling again is a conflict.
        with pytest.raises(ServiceError) as excinfo:
            client.cancel_campaign(submitted.campaign_id)
        assert excinfo.value.status == 409

    def test_columns_before_done_is_job_running(self, server, client):
        submitted = client.submit_campaign(
            CampaignRequest(hours=600, alphas=(0.5, 1.0, 2.0),
                            baselines=("DP1", "DP3"))
        )
        try:
            client.campaign_result(submitted.campaign_id)
        except ServiceError as error:
            assert error.status == 409
            assert error.code == "job_running"
            assert error.detail["campaign_id"] == submitted.campaign_id
        client.wait_for_campaign(submitted.campaign_id, timeout_s=120)

    def test_store_unavailable_maps_to_503(self, server, client):
        # Yank the journal out from under the service: every store-backed
        # route must answer 503 store_unavailable, not a 500 traceback.
        server.service.store.close()
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign(SMALL)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "store_unavailable"


# --- submission replay across restart -------------------------------------------
class TestStoreBackedRestart:
    def test_finished_job_survives_a_new_service(self, tmp_path):
        store_path = str(tmp_path / "jobs.db")
        service = AllocationService(
            window_s=0.001, campaign_workers=1, store=store_path
        )
        with start_in_thread(service) as handle:
            client = AllocationClient(port=handle.port, timeout_s=120.0)
            submitted = client.submit_campaign(SMALL)
            client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
            reference = client.campaign_result(submitted.campaign_id)
        service.close()

        fresh = AllocationService(
            window_s=0.001, campaign_workers=1, store=store_path
        )
        with start_in_thread(fresh) as handle:
            client = AllocationClient(port=handle.port, timeout_s=120.0)
            status = client.campaign_status(submitted.campaign_id)
            assert status.status == "done"
            reloaded = client.campaign_result(submitted.campaign_id)
        fresh.close()
        for si, pi, cell in reloaded:
            import numpy as np

            np.testing.assert_array_equal(
                cell.objective_values(),
                reference.result(pi, si).objective_values(),
            )


# --- journals and clients from before the kernel option was retired ----------
class TestRetiredKernelField:
    """Journals written before the ``backend`` field was retired carry it in
    every submit record, and older clients still send it: both must keep
    working, with the field ignored whatever its value."""

    def test_old_journal_replays_and_serves(self, tmp_path):
        import numpy as np

        from repro.service.store import CampaignStore
        from repro.simulation.fleet import FleetCampaign

        scenarios, labels, policies, trace, config = SMALL.build()
        local = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        store_path = str(tmp_path / "jobs.db")
        with CampaignStore(store_path) as store:
            legacy = {**SMALL.to_json_dict(), "backend": "float32"}
            store._append("c1", "submit", CampaignStore._json_payload(
                {"request": legacy, "idempotency_key": None}
            ))
            store.start("c1", trace_hours=local.trace_hours)
            store.shard_done("c1", [(si, pi, cell) for si, pi, cell in local])
            store.finish("c1", local)
        with CampaignStore(store_path) as store:
            record = store.job("c1")
            assert record.status == "done"
            assert record.request == SMALL
        service = AllocationService(
            window_s=0.001, campaign_workers=1, store=store_path
        )
        with start_in_thread(service) as handle:
            client = AllocationClient(port=handle.port, timeout_s=120.0)
            assert client.campaign_status("c1").status == "done"
            served = client.campaign_result("c1", binary=True)
        service.close()
        for si, pi, cell in served:
            np.testing.assert_array_equal(
                cell.objective_values(), local.result(pi, si).objective_values()
            )

    @pytest.fixture(scope="class")
    def server(self):
        service = AllocationService(window_s=0.001, campaign_workers=1)
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    def test_campaign_field_is_accepted_and_ignored(self, server):
        import numpy as np

        client = AllocationClient(port=server.port, timeout_s=120.0)
        results = []
        for body in (
            {**SMALL.to_json_dict(), "backend": "compiled"},
            SMALL.to_json_dict(),
        ):
            status, _, payload = _raw(server, "POST", "/v1/campaign", body=body)
            assert status == 200
            client.wait_for_campaign(payload["campaign_id"], timeout_s=120)
            results.append(client.campaign_result(payload["campaign_id"]))
        old, new = results
        for si, pi, cell in old:
            np.testing.assert_array_equal(
                cell.objective_values(), new.result(pi, si).objective_values()
            )
            np.testing.assert_array_equal(
                cell.battery_charge_j, new.result(pi, si).battery_charge_j
            )

    def test_allocate_field_is_ignored(self, server):
        body = {"energy_budget_j": 5.0, "alpha": 1.0}
        status, _, plain = _raw(server, "POST", "/v1/allocate", body=body)
        assert status == 200
        status, _, old = _raw(
            server, "POST", "/v1/allocate", body={**body, "backend": "numpy"}
        )
        assert status == 200
        assert old["cache_hit"]  # the same request, so the same cache key
        for field in ("times_s", "objective", "energy_j", "budget_feasible"):
            assert old[field] == plain[field]
