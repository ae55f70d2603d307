"""Tests for the allocation service subsystem (repro.service).

Covers the canonical problem encoding (permutation invariance, collision
freedom), the LRU result cache, the micro-batching coalescer (correctness
against the scalar allocator plus the edge cases: empty flush, lone request
on a window timeout, oversize burst splitting), the full HTTP round trip
client -> server -> BatchAllocator -> client with nothing beyond the
standard library, the protocol's error mapping (400 JSON bodies for
malformed requests, 404 for unknown endpoints -- never a 500 traceback)
and the campaign endpoints: submit over HTTP, poll, stream chunked
NDJSON columns back, equal to the local fleet run.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket

import numpy as np
import pytest

from repro.core.allocator import ReapAllocator
from repro.core.analytic import solve_analytic
from repro.core.batch import BatchAllocator
from repro.core.design_point import DesignPoint
from repro.data.table2 import table2_design_points
from repro.service import batcher as batcher_module
from repro.service.batcher import EngineRegistry, MicroBatcher, solve_batch
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import AllocationCache
from repro.service.client import AllocationClient, ServiceError
from repro.service.client import main as client_main
from repro.service.requests import (
    AllocationRequest,
    AllocationResponse,
    CampaignRequest,
    CampaignResponse,
)
from repro.service.server import AllocationService, start_in_thread
from repro.simulation.fleet import FleetCampaign, FleetResult
from repro.simulation.metrics import CampaignColumns


@pytest.fixture(scope="module")
def points():
    return tuple(table2_design_points())


def scalar_solve(request: AllocationRequest, points):
    """Reference answer: the scalar simplex on the same problem."""
    return ReapAllocator().solve(request.resolve(points).to_problem())


class TestCanonicalKeys:
    def test_permuted_design_points_hash_equal(self, points):
        shuffled = (points[3], points[0], points[4], points[2], points[1])
        a = AllocationRequest(5.0, alpha=2.0, design_points=points)
        b = AllocationRequest(5.0, alpha=2.0, design_points=shuffled)
        assert a.cache_key == b.cache_key
        assert a.engine_key == b.engine_key
        assert hash(a.cache_key) == hash(b.cache_key)

    def test_request_key_matches_problem_canonical_key(self, points):
        request = AllocationRequest(3.7, alpha=1.5, design_points=points)
        assert request.cache_key == request.to_problem().canonical_key()

    def test_engine_key_matches_batch_allocator(self, points):
        request = AllocationRequest(1.0, design_points=points)
        assert request.engine_key == BatchAllocator(points).engine_key()

    def test_distinct_budgets_never_collide(self, points):
        keys = {
            AllocationRequest(float(budget), design_points=points).cache_key
            for budget in np.linspace(0.0, 10.4, 400)
        }
        assert len(keys) == 400

    def test_distinct_alphas_never_collide(self, points):
        keys = {
            AllocationRequest(5.0, alpha=float(a), design_points=points).cache_key
            for a in np.linspace(0.25, 4.0, 100)
        }
        assert len(keys) == 100

    def test_period_off_power_and_dp_fields_distinguish(self, points):
        base = AllocationRequest(5.0, design_points=points)
        other_period = AllocationRequest(5.0, design_points=points, period_s=1800.0)
        other_off = AllocationRequest(5.0, design_points=points, off_power_w=1e-4)
        renamed = tuple(
            DesignPoint(name=f"X{i}", accuracy=dp.accuracy, power_w=dp.power_w)
            for i, dp in enumerate(points)
        )
        other_names = AllocationRequest(5.0, design_points=renamed)
        keys = {
            base.cache_key,
            other_period.cache_key,
            other_off.cache_key,
            other_names.cache_key,
        }
        assert len(keys) == 4

    def test_unresolved_and_explicit_default_share_registry_key(self, points):
        registry = EngineRegistry(points)
        implicit = AllocationRequest(5.0)
        explicit = AllocationRequest(5.0, design_points=points)
        assert registry.cache_key_of(implicit) == registry.cache_key_of(explicit)

    def test_unresolved_request_refuses_direct_key(self):
        with pytest.raises(ValueError, match="resolve"):
            AllocationRequest(5.0).cache_key

    def test_json_round_trip_preserves_key(self, points):
        request = AllocationRequest(4.2, alpha=2.0, design_points=points)
        decoded = AllocationRequest.from_json_dict(
            json.loads(json.dumps(request.to_json_dict()))
        )
        assert decoded.cache_key == request.cache_key


class TestAllocationCache:
    def test_lru_eviction_order(self):
        cache: AllocationCache[str] = AllocationCache(max_entries=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refreshes a
        cache.put("c", "C")           # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.evictions.value() == 1

    def test_counters(self):
        cache: AllocationCache[int] = AllocationCache(max_entries=8)
        assert cache.get("missing") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.lookups.value(result="hit") == 1
        assert cache.lookups.value(result="miss") == 1
        registry = MetricsRegistry()
        cache.register_metrics(registry)
        text = registry.render()
        assert 'repro_cache_lookups_total{result="hit"} 1' in text
        assert 'repro_cache_lookups_total{result="miss"} 1' in text
        assert "repro_cache_evictions_total 0" in text
        assert "repro_cache_entries 1" in text
        # /stats derives lookups and hit rate from the same two series.
        service = AllocationService()
        try:
            before = service.stats()["cache"]
            assert service.cache.get("missing") is None
            service.cache.put("k", 1)
            assert service.cache.get("k") == 1
            after = service.stats()["cache"]
        finally:
            service.close()
        assert (before["lookups"], before["hit_rate"]) == (0, 0.0)
        assert (after["hits"], after["misses"], after["lookups"]) == (1, 1, 2)
        assert after["hit_rate"] == 0.5

    def test_zero_capacity_disables_caching(self):
        cache: AllocationCache[int] = AllocationCache(max_entries=0)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_latency_recorder(self):
        service = AllocationService()
        try:
            service.allocation_seconds.observe(0.002, outcome="solve")
            service.allocation_seconds.observe(0.004, outcome="solve")
            snapshot = service.stats()["latency"]
        finally:
            service.close()
        assert snapshot["solves"] == 2
        assert snapshot["mean_ms"] == pytest.approx(3.0)
        assert snapshot["max_ms"] == pytest.approx(4.0)
        assert snapshot["by_outcome"]["solve"]["count"] == 2


class TestSolveBatch:
    def test_matches_scalar_allocator(self, points):
        registry = EngineRegistry(points)
        requests = [
            AllocationRequest(float(budget), alpha=alpha)
            for budget in np.linspace(0.1, 10.4, 23)
            for alpha in (0.5, 1.0, 2.0)
        ]
        responses = solve_batch(requests, registry)
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            reference = scalar_solve(request, points)
            assert response.objective == pytest.approx(
                reference.objective, abs=1e-9
            )
            assert response.expected_accuracy == pytest.approx(
                reference.expected_accuracy, abs=1e-9
            )
            assert response.budget_feasible == reference.budget_feasible

    def test_groups_by_design_point_set(self, points):
        registry = EngineRegistry(points)
        subset = points[:3]
        requests = [
            AllocationRequest(5.0),
            AllocationRequest(5.0, design_points=subset),
            AllocationRequest(2.0),
        ]
        responses = solve_batch(requests, registry)
        assert responses[0].batch_size == 2   # the two default-set requests
        assert responses[1].batch_size == 1   # the subset request is alone
        assert len(registry) == 2
        assert set(responses[1].times_s) == {dp.name for dp in subset}

    def test_registry_stops_at_its_engine_bound(self, points):
        registry = EngineRegistry(points)
        design_sets = [
            tuple(
                DesignPoint(name=dp.name, accuracy=dp.accuracy,
                            power_w=dp.power_w * (1.0 + index * 1e-4))
                for dp in points
            )
            for index in range(1_000)
        ]
        for design in design_sets:
            registry.engine_for(AllocationRequest(5.0, design_points=design))
        assert len(registry) == batcher_module._MAX_ENGINES
        # The first sets were evicted; serving them again rebuilds an
        # engine whose answers still equal the scalar optimum.
        requests = [
            AllocationRequest(budget, alpha=2.0, design_points=design_sets[0])
            for budget in (0.1, 2.5, 5.0, 9.0)
        ]
        for request, response in zip(requests, solve_batch(requests, registry)):
            reference = solve_analytic(request.to_problem())
            assert response.objective == pytest.approx(
                reference.objective, rel=0, abs=1e-9
            )
        assert len(registry) == batcher_module._MAX_ENGINES

    def test_empty_batch(self):
        assert solve_batch([], EngineRegistry()) == []


class TestMicroBatcher:
    def test_burst_coalesces_into_one_dispatch(self, points):
        async def scenario():
            batcher = MicroBatcher(EngineRegistry(points), window_s=0.005)
            requests = [
                AllocationRequest(float(b)) for b in np.linspace(0.2, 9.9, 32)
            ]
            responses = await batcher.solve_many(requests)
            return responses, batcher.batch_size.totals()

        responses, (batches, _, largest) = asyncio.run(scenario())
        assert batches == 1
        assert largest == 32
        assert all(response.batch_size == 32 for response in responses)
        reference = scalar_solve(AllocationRequest(float(responses[5].energy_budget_j)), points)
        assert responses[5].objective == pytest.approx(reference.objective, abs=1e-9)

    def test_window_timeout_with_single_request(self, points):
        async def scenario():
            batcher = MicroBatcher(EngineRegistry(points), window_s=0.001)
            response = await batcher.solve(AllocationRequest(5.0))
            return response, batcher.batch_size.count()

        response, batches = asyncio.run(scenario())
        assert batches == 1
        assert response.batch_size == 1
        reference = scalar_solve(AllocationRequest(5.0), points)
        assert response.objective == pytest.approx(reference.objective, abs=1e-9)

    def test_oversize_burst_splits_into_chunks(self, points):
        async def scenario():
            batcher = MicroBatcher(
                EngineRegistry(points), window_s=0.05, max_batch=8
            )
            requests = [
                AllocationRequest(float(b)) for b in np.linspace(0.2, 9.9, 20)
            ]
            responses = await batcher.solve_bulk(requests)
            return responses, batcher.batch_size.totals()

        responses, (batches, requests, largest) = asyncio.run(scenario())
        assert len(responses) == 20
        assert batches == 3            # 8 + 8 + 4
        assert largest == 8
        assert requests == 20
        for response in responses:
            reference = scalar_solve(
                AllocationRequest(response.energy_budget_j), points
            )
            assert response.objective == pytest.approx(
                reference.objective, abs=1e-9
            )

    def test_empty_flush_is_a_no_op(self, points):
        async def scenario():
            batcher = MicroBatcher(EngineRegistry(points))
            batcher.flush()
            assert batcher.num_pending == 0
            assert await batcher.solve_bulk([]) == []
            return batcher.batch_size.totals()

        batches, requests, _ = asyncio.run(scenario())
        assert batches == 0
        assert requests == 0

    def test_invalid_request_propagates_to_waiters(self, points):
        async def scenario():
            batcher = MicroBatcher(EngineRegistry(points), window_s=0.001)
            bad = AllocationRequest(5.0)
            object.__setattr__(bad, "energy_budget_j", -1.0)  # corrupt post-validation
            with pytest.raises(ValueError):
                await batcher.solve(bad)
            return batcher

        batcher = asyncio.run(scenario())
        # The failing chunk held the event loop, so it counts as busy time.
        assert batcher.solve_seconds.count() == 1
        assert batcher.batch_size.count() == 1
        assert batcher.totals()["busy_ms"] > 0


class TestAllocationService:
    def test_cache_hit_on_repeat(self, points):
        async def scenario():
            service = AllocationService(default_points=points, window_s=0.001)
            first = await service.allocate(AllocationRequest(5.0))
            second = await service.allocate(AllocationRequest(5.0))
            return first, second, service.stats()

        first, second, stats = asyncio.run(scenario())
        assert not first.cache_hit
        assert second.cache_hit
        assert second.objective == first.objective
        assert stats["cache"]["hits"] == 1
        assert stats["batcher"]["batches"] == 1

    def test_permuted_design_points_share_cache_entry(self, points):
        shuffled = tuple(reversed(points))

        async def scenario():
            service = AllocationService(default_points=points, window_s=0.001)
            await service.allocate(AllocationRequest(5.0, design_points=points))
            repeat = await service.allocate(
                AllocationRequest(5.0, design_points=shuffled)
            )
            return repeat

        assert asyncio.run(scenario()).cache_hit

    def test_allocate_many_mixes_hits_and_misses(self, points):
        async def scenario():
            service = AllocationService(default_points=points, window_s=0.001)
            await service.allocate(AllocationRequest(2.0))
            burst = [AllocationRequest(float(b)) for b in (2.0, 4.0, 6.0)]
            return await service.allocate_many(burst)

        responses = asyncio.run(scenario())
        assert [response.cache_hit for response in responses] == [
            True, False, False,
        ]


class TestHttpRoundTrip:
    @pytest.fixture(scope="class")
    def server(self, points):
        service = AllocationService(default_points=points, window_s=0.001)
        handle = start_in_thread(service)
        yield handle
        handle.stop()

    @pytest.fixture()
    def client(self, server):
        return AllocationClient(port=server.port)

    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["version"]
        assert payload["uptime_s"] >= 0.0
        assert payload["campaign_workers"] >= 1
        assert "backend" not in payload
        assert "workers" not in payload

    def test_allocate_matches_scalar_and_caches(self, client, points):
        request = AllocationRequest(5.0, alpha=1.0)
        reference = scalar_solve(request, points)
        first = client.allocate(request)
        assert first.objective == pytest.approx(reference.objective, abs=1e-9)
        assert first.active_time_s == pytest.approx(
            reference.active_time_s, abs=1e-9
        )
        assert set(first.times_s) == {dp.name for dp in points}
        second = client.allocate(request)
        assert second.cache_hit
        assert second.objective == first.objective

    def test_batch_endpoint_coalesces(self, client, points):
        budgets = np.linspace(0.3, 9.7, 16)
        responses = client.allocate_batch(
            [AllocationRequest(float(b), alpha=2.0) for b in budgets]
        )
        assert len(responses) == 16
        for budget, response in zip(budgets, responses):
            reference = scalar_solve(
                AllocationRequest(float(budget), alpha=2.0), points
            )
            assert response.objective == pytest.approx(
                reference.objective, abs=1e-9
            )
        fresh = [r for r in responses if not r.cache_hit]
        assert all(r.batch_size == len(fresh) for r in fresh)

    def test_stats_endpoint(self, client):
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["batcher"]["batches"] >= 1
        assert stats["latency"]["solves"] >= 1
        assert stats["engines"] >= 1

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/v1/allocate", {"alpha": 1.0})  # budget missing
        assert excinfo.value.status == 400

    def test_client_cli_round_trip(self, server, capsys):
        code = client_main(
            ["--port", str(server.port), "allocate", "--budget", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget_feasible"] is True
        assert client_main(["--port", str(server.port), "stats", "--json"]) == 0
        assert "cache" in json.loads(capsys.readouterr().out)
        assert client_main(["--port", str(server.port), "stats"]) == 0
        summary = capsys.readouterr().out
        assert "coalescing" in summary
        assert "hit" in summary

    def test_client_cli_reports_connection_failure(self, capsys):
        assert client_main(["--port", "1", "health"]) == 1
        assert "failed" in capsys.readouterr().err


class TestResponseCodec:
    def test_json_round_trip(self, points):
        responses = solve_batch(
            [AllocationRequest(5.0)], EngineRegistry(points)
        )
        decoded = AllocationResponse.from_json_dict(
            json.loads(json.dumps(responses[0].to_json_dict()))
        )
        assert decoded == responses[0]


class TestHttpErrorMapping:
    """Malformed traffic gets 400/404 JSON bodies, never a 500 traceback."""

    @pytest.fixture(scope="class")
    def server(self, points):
        service = AllocationService(default_points=points, window_s=0.001)
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    def _raw(self, server, payload: bytes):
        """Send raw bytes, return (status, decoded JSON body)."""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5.0
        ) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body.decode("utf-8"))

    def test_malformed_json_body_is_400_with_json_error(self, server):
        body = b'{"energy_budget_j": 5.0'  # truncated JSON
        payload = (
            b"POST /v1/allocate HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        status, error = self._raw(server, payload)
        assert status == 400
        assert "invalid JSON body" in error["error"]["message"]

    def test_body_shorter_than_content_length_is_400(self, server):
        body = b'{"energy_budget_j": 5.0}'
        payload = (
            b"POST /v1/allocate HTTP/1.1\r\n"
            + f"Content-Length: {len(body) + 64}\r\n\r\n".encode("ascii")
            + body
        )
        status, error = self._raw(server, payload)
        assert status == 400
        assert "Content-Length" in error["error"]["message"]

    def test_negative_content_length_is_400(self, server):
        payload = b"POST /v1/allocate HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
        status, error = self._raw(server, payload)
        assert status == 400
        assert "Content-Length" in error["error"]["message"]

    def test_non_object_json_body_is_400(self, server):
        body = b"[1, 2, 3]"
        payload = (
            b"POST /v1/allocate HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        status, error = self._raw(server, payload)
        assert status == 400
        assert "object" in error["error"]["message"]

    def test_unknown_endpoint_is_404_with_json_error(self, server):
        status, error = self._raw(server, b"GET /no/such/endpoint HTTP/1.1\r\n\r\n")
        assert status == 404
        assert "/no/such/endpoint" in error["error"]["message"]

    def test_malformed_request_line_is_400(self, server):
        status, error = self._raw(server, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert "error" in error


class TestCampaignCodecs:
    def test_campaign_request_round_trip(self):
        request = CampaignRequest(
            alphas=(1.0, 2.0), baselines=("DP1",), exposure_factors=(0.05,),
            month=3, seed=7, hours=24, use_battery=False,
        )
        decoded = CampaignRequest.from_json_dict(
            json.loads(json.dumps(request.to_json_dict()))
        )
        assert decoded == request
        assert decoded.num_cells == 4

    def test_campaign_request_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            CampaignRequest(alphas=())
        with pytest.raises(ValueError, match="exposure"):
            CampaignRequest(exposure_factors=(-0.1,))
        with pytest.raises(ValueError, match="month"):
            CampaignRequest(month=13)
        with pytest.raises(ValueError, match="hours"):
            CampaignRequest(hours=0)
        with pytest.raises(ValueError, match="unknown campaign request"):
            CampaignRequest.from_json_dict({"budget": 5.0})

    def test_campaign_response_round_trip(self):
        response = CampaignResponse(
            campaign_id="c9", status="done", cells=2, trace_hours=48,
            scenario_labels=("exposure=0.032",),
            policy_names=("REAP", "Static-DP1"), alphas=(1.0, 1.0),
            summary=({"policy": "REAP", "mean_objective": 0.5},),
        )
        decoded = CampaignResponse.from_json_dict(
            json.loads(json.dumps(response.to_json_dict()))
        )
        assert decoded == response
        assert decoded.finished

    def test_campaign_response_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="status"):
            CampaignResponse(
                campaign_id="c1", status="exploded", cells=1, trace_hours=1
            )

    def test_columns_json_round_trip_is_lossless(self):
        request = CampaignRequest(hours=24, alphas=(1.0,), baselines=())
        scenarios, labels, policies, trace, config = request.build()
        result = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        columns = result.result(0).columns
        decoded = CampaignColumns.from_json_dict(
            json.loads(json.dumps(columns.to_json_dict()))
        )
        np.testing.assert_array_equal(
            decoded.objective_value, columns.objective_value
        )
        np.testing.assert_array_equal(
            decoded.times_by_design_point_s, columns.times_by_design_point_s
        )
        assert decoded.design_point_names == columns.design_point_names
        assert np.array_equal(decoded.period_index, columns.period_index)


class TestCampaignHttp:
    """Submit over HTTP, poll, stream chunked columns, match the local run."""

    REQUEST = CampaignRequest(hours=48, alphas=(1.0, 2.0), baselines=("DP1",))

    @pytest.fixture(scope="class")
    def server(self, points):
        service = AllocationService(
            default_points=points, window_s=0.001, campaign_workers=2
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
        """One campaign driven to completion, shared by the tests below."""
        submitted = client.submit_campaign(self.REQUEST)
        status = client.wait_for_campaign(submitted.campaign_id, timeout_s=120)
        return submitted, status

    def test_submit_returns_pending_id(self, finished):
        submitted, _ = finished
        assert submitted.campaign_id
        assert submitted.status in ("queued", "running")
        assert submitted.cells == self.REQUEST.num_cells

    def test_polled_status_carries_summary(self, finished):
        _, status = finished
        assert status.status == "done"
        assert status.cells == self.REQUEST.num_cells
        assert status.trace_hours == 48
        assert len(status.summary) == status.cells
        assert {entry["policy"] for entry in status.summary} == {
            "REAP", "Static-DP1",
        }

    def test_streamed_columns_match_local_fleet_run(self, client, finished):
        submitted, _ = finished
        remote = client.campaign_result(submitted.campaign_id)
        scenarios, labels, policies, trace, config = self.REQUEST.build()
        local = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        assert remote.policy_names == local.policy_names
        for scenario_index, policy_index, cell in remote:
            reference = local.result(policy_index, scenario_index)
            np.testing.assert_allclose(
                cell.objective_values(),
                reference.objective_values(),
                atol=1e-9,
            )
            np.testing.assert_allclose(
                cell.battery_charge_j, reference.battery_charge_j, atol=1e-9
            )
            assert abs(
                cell.total_energy_consumed_j
                - reference.total_energy_consumed_j
            ) <= 1e-9

    def test_stream_is_chunked_ndjson(self, server, finished):
        submitted, _ = finished
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30.0
        )
        try:
            connection.request(
                "GET", f"/v1/campaign/{submitted.campaign_id}/columns"
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Type") == "application/x-ndjson"
            lines = [line for line in response if line.strip()]
        finally:
            connection.close()
        meta = json.loads(lines[0])
        assert meta["trace_hours"] == 48
        assert len(lines) == 1 + self.REQUEST.num_cells

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.campaign_status("nope")
        assert excinfo.value.status == 404

    def test_columns_before_done_is_409(self, client, points):
        # A fresh submission is queued/running for at least a moment.
        submitted = client.submit_campaign(
            CampaignRequest(hours=400, alphas=(1.0,), baselines=("DP1", "DP3"))
        )
        try:
            client.campaign_result(submitted.campaign_id)
        except ServiceError as error:
            assert error.status == 409
        else:  # pragma: no cover - tiny race, but the stream must be valid
            pass
        client.wait_for_campaign(submitted.campaign_id, timeout_s=120)

    def test_invalid_campaign_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("POST", "/v1/campaign", {"alphas": []})
        assert excinfo.value.status == 400

    def test_client_cli_campaign_round_trip(self, server, capsys):
        code = client_main(
            [
                "--port", str(server.port), "--timeout", "120",
                "campaign", "run", "--hours", "24",
                "--alphas", "1", "--baselines", "DP1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        assert payload["cells"] == 2
        code = client_main(
            [
                "--port", str(server.port), "--timeout", "120",
                "campaign", "columns", payload["campaign_id"],
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + payload["cells"]
        assert json.loads(lines[0])["trace_hours"] == 24

    def test_fleet_result_from_payloads_refuses_partial_grids(self):
        meta = {
            "scenario_labels": ["S0"], "policy_names": ["A", "B"],
            "alphas": [1.0, 1.0], "trace_hours": 4,
        }
        with pytest.raises(ValueError, match="unfilled"):
            FleetResult.from_payloads(meta, [])


class TestCampaignHousekeeping:
    def test_finished_campaigns_evicted_beyond_cap(self, points):
        async def scenario():
            service = AllocationService(
                default_points=points, campaign_workers=1, max_campaigns=2
            )
            request = CampaignRequest(hours=4, alphas=(1.0,), baselines=())
            jobs = []
            for _ in range(3):
                submitted = await service.submit_campaign(request)
                # Sequential completion keeps the eviction order
                # deterministic: the oldest finished job goes first.
                await service.campaign(submitted.campaign_id).task
                jobs.append(submitted)
            retained = [
                job.campaign_id for job in jobs
                if job.campaign_id in service._campaigns
            ]
            service.close()
            return jobs, retained

        jobs, retained = asyncio.run(scenario())
        assert retained == [jobs[1].campaign_id, jobs[2].campaign_id]

    def test_max_campaigns_validation(self, points):
        with pytest.raises(ValueError, match="max_campaigns"):
            AllocationService(default_points=points, max_campaigns=0)

    def test_campaign_simulates_the_service_design_points(self, points):
        subset = tuple(points[:3])  # DP1..DP3 hardware only

        async def scenario():
            service = AllocationService(
                default_points=subset, campaign_workers=1
            )
            submitted = await service.submit_campaign(
                CampaignRequest(hours=4, alphas=(1.0,), baselines=("DP2",))
            )
            await service.campaign(submitted.campaign_id).task
            job = service.campaign(submitted.campaign_id)
            assert job.status == "done", job.error
            result = job.result
            service.close()
            return result

        result = asyncio.run(scenario())
        columns = result.result(0).columns
        assert set(columns.design_point_names) == {dp.name for dp in subset}


class TestCampaignPlanningFields:
    def test_planning_fields_round_trip(self):
        request = CampaignRequest(
            alphas=(1.0,), baselines=("DP1",), hours=48,
            planners=("horizon", "mpc"), horizon_periods=12,
            forecast="noisy", forecast_noise=0.3, forecast_seed=9,
        )
        decoded = CampaignRequest.from_json_dict(
            json.loads(json.dumps(request.to_json_dict()))
        )
        assert decoded == request
        # One REAP + one baseline + two planners, at one alpha.
        assert decoded.num_policies == 4

    def test_planning_fields_are_validated(self):
        with pytest.raises(ValueError, match="planner"):
            CampaignRequest(planners=("oracle",))
        with pytest.raises(ValueError, match="forecast"):
            CampaignRequest(forecast="psychic")
        with pytest.raises(ValueError, match="horizon"):
            CampaignRequest(horizon_periods=0)
        with pytest.raises(ValueError, match="noise"):
            CampaignRequest(forecast_noise=-1.0)
        with pytest.raises(ValueError, match="battery"):
            # Planners without a battery would silently collapse to REAP.
            CampaignRequest(planners=("horizon",), use_battery=False)

    def test_build_materialises_planning_policies(self):
        request = CampaignRequest(
            alphas=(1.0,), baselines=(), hours=24,
            planners=("horizon", "mpc"), horizon_periods=6,
            forecast="persistence",
        )
        _, _, policies, _, _ = request.build()
        assert [policy.name for policy in policies] == [
            "REAP", "Horizon6-persistence", "MPC6-persistence",
        ]


class TestPlanningCampaignHttp:
    """A planning campaign over HTTP equals the local fleet run to 1e-9."""

    REQUEST = CampaignRequest(
        hours=48, alphas=(1.0,), baselines=("DP1",),
        planners=("horizon", "mpc"), horizon_periods=8,
        forecast="persistence",
    )

    def test_remote_planning_campaign_matches_local(self, points):
        service = AllocationService(
            default_points=points, campaign_workers=2
        )
        with start_in_thread(service) as handle:
            client = AllocationClient(port=handle.port, timeout_s=120.0)
            status, remote = client.run_campaign(self.REQUEST, timeout_s=120)
        service.close()
        assert status.status == "done"
        assert set(status.policy_names) == {
            "REAP", "Static-DP1", "Horizon8-persistence", "MPC8-persistence",
        }
        scenarios, labels, policies, trace, config = self.REQUEST.build(points)
        local = FleetCampaign(scenarios, config, scenario_labels=labels).run(
            policies, trace
        )
        for scenario_index, policy_index, cell in remote:
            reference = local.result(policy_index, scenario_index)
            np.testing.assert_allclose(
                cell.objective_values(),
                reference.objective_values(),
                rtol=0, atol=1e-9,
            )
            np.testing.assert_allclose(
                cell.battery_charge_j,
                reference.battery_charge_j,
                rtol=0, atol=1e-9,
            )


class TestCampaignDelete:
    """DELETE /campaign/<id>: finished jobs vanish; the id 404s afterward."""

    @pytest.fixture(scope="class")
    def server(self, points):
        service = AllocationService(default_points=points, campaign_workers=1)
        handle = start_in_thread(service)
        yield handle
        handle.stop()
        service.close()

    @pytest.fixture(scope="class")
    def client(self, server):
        return AllocationClient(port=server.port, timeout_s=60.0)

    def test_deleted_campaign_is_gone(self, client):
        request = CampaignRequest(hours=4, alphas=(1.0,), baselines=())
        submitted = client.submit_campaign(request)
        client.wait_for_campaign(submitted.campaign_id, timeout_s=60)
        payload = client.delete_campaign(submitted.campaign_id)
        assert payload == {
            "campaign_id": submitted.campaign_id, "deleted": True,
        }
        # Status, columns and a second delete all 404 now.
        for call in (
            lambda: client.campaign_status(submitted.campaign_id),
            lambda: list(client.campaign_payloads(submitted.campaign_id)),
            lambda: client.delete_campaign(submitted.campaign_id),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_delete_unknown_campaign_404s(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.delete_campaign("never-submitted")
        assert excinfo.value.status == 404

    def test_delete_refuses_unfinished_jobs(self, points):
        from repro.service.server import CampaignJob

        service = AllocationService(default_points=points)
        job = CampaignJob("c-running", CampaignRequest(hours=4))
        job.status = "running"
        service._campaigns[job.campaign_id] = job
        with pytest.raises(RuntimeError, match="running"):
            service.delete_campaign(job.campaign_id)
        assert service.campaign(job.campaign_id) is job  # still retained
        service.close()

    def test_delete_verb_on_the_client_cli(self, server, capsys):
        request = CampaignRequest(hours=4, alphas=(1.0,), baselines=())
        client = AllocationClient(port=server.port, timeout_s=60.0)
        submitted = client.submit_campaign(request)
        client.wait_for_campaign(submitted.campaign_id, timeout_s=60)
        exit_code = client_main([
            "--port", str(server.port), "campaign", "delete",
            submitted.campaign_id,
        ])
        assert exit_code == 0
        assert '"deleted": true' in capsys.readouterr().out
        exit_code = client_main([
            "--port", str(server.port), "campaign", "status",
            submitted.campaign_id,
        ])
        assert exit_code == 1  # 404 after deletion
