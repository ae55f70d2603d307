"""One stats source: ``/stats`` and ``/metrics`` read the same families.

Drives one :class:`AllocationService` through single allocates, an
``allocate_many`` burst with cache hits and a store-backed campaign, then
checks that the ``/stats`` document keeps its key tree, that every count
in it equals the matching sample of ``metrics.render()``, and that the
exposition still carries the 24 families (name, kind, label names) its
scrapers know.  Also covers the per-request accounting of bursts, the
event-loop busy time of the batcher and the cross-thread read of retained
campaign jobs.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import sys
import threading
import time

import pytest

from repro.data.table2 import table2_design_points
from repro.service.client import _proc_row, format_stats_summary
from repro.service.requests import AllocationRequest, CampaignRequest
from repro.service.server import AllocationService, CampaignJob

#: The families of ``/v1/metrics`` with their kind and sample label names
#: (``le`` aside), as scrapers and dashboards know them.
FAMILIES = {
    "repro_build_info": ("gauge", {"version", "python"}),
    "repro_frontend_up": ("gauge", {"proc"}),
    "repro_uptime_seconds": ("gauge", set()),
    "repro_requests_total": ("counter", {"endpoint", "status"}),
    "repro_request_duration_seconds": ("histogram", {"endpoint"}),
    "repro_allocations_total": ("counter", {"outcome"}),
    "repro_cache_lookups_total": ("counter", {"result"}),
    "repro_cache_evictions_total": ("counter", set()),
    "repro_cache_entries": ("gauge", set()),
    "repro_batcher_requests_total": ("counter", set()),
    "repro_batcher_batches_total": ("counter", set()),
    "repro_batcher_solve_seconds": ("histogram", set()),
    "repro_pool_workers": ("gauge", {"kind"}),
    "repro_engines": ("gauge", set()),
    "repro_campaigns": ("gauge", {"status"}),
    "repro_campaign_phase_seconds": ("histogram", {"phase"}),
    "repro_store_appends_total": ("counter", {"kind"}),
    "repro_store_append_bytes_total": ("counter", set()),
    "repro_store_leases_total": ("counter", {"event"}),
    "repro_store_jobs_recovered_total": ("counter", set()),
    "repro_store_records_dropped_total": ("counter", set()),
    "repro_slo_threshold_seconds": ("gauge", {"slo"}),
    "repro_slo_events_total": ("counter", {"slo", "outcome"}),
    "repro_slo_burn_rate": ("gauge", {"slo", "window"}),
}

_SAMPLE = re.compile(r'^([a-z_]+)(?:\{(.*)\})? (\S+)$')
_LABEL = re.compile(r'([a-z_]+)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """(kinds by family, label names by family, value by sample key)."""
    kinds, labelnames, values = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            kinds[name] = kind
            labelnames[name] = set()
            continue
        if not line or line.startswith("#"):
            continue
        name, labels, value = _SAMPLE.match(line).groups()
        labels = dict(_LABEL.findall(labels or ""))
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in kinds:
                family = name[: -len(suffix)]
        labelnames[family] |= set(labels) - {"le"}
        values[(name, frozenset(labels.items()))] = float(value)
    return kinds, labelnames, values


def sample(values, name, **labels):
    return values[(name, frozenset(labels.items()))]


def json_counts(stats):
    """Every count of a ``/stats`` document, as (path, value) pairs."""
    cache, batcher, latency, pool = (
        stats["cache"], stats["batcher"], stats["latency"], stats["pool"]
    )
    counts = [
        *(("cache." + key, cache[key]) for key in (
            "entries", "max_entries", "hits", "misses", "lookups", "evictions"
        )),
        *(("batcher." + key, batcher[key]) for key in (
            "requests", "batches", "largest_batch"
        )),
        ("latency.solves", latency["solves"]),
        *((f"latency.{outcome}", doc["count"])
          for outcome, doc in latency["by_outcome"].items()),
        *((f"endpoints.{label}", doc["count"])
          for label, doc in stats["endpoints"].items()),
        ("engines", stats["engines"]),
        *(("pool." + key, pool[key]) for key in (
            "campaign_workers", "campaigns"
        )),
        *((f"campaigns.{status}", count)
          for status, count in stats["campaigns"].items()),
        *((f"slo.{key}.{field}", doc[field])
          for key, doc in stats["slo"]["objectives"].items()
          for field in ("good", "total")),
    ]
    store = stats["store"]
    if store is not None:
        counts += [
            *((f"store.appends.{kind}", count)
              for kind, count in store["appends"].items()),
            *((f"store.leases.{event}", count)
              for event, count in store["leases"].items()),
            *(("store." + key, store[key]) for key in (
                "append_bytes", "records_dropped", "jobs_recovered",
                "results_reloaded", "snapshots_published", "spans_persisted",
            )),
        ]
    return counts


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One store-backed service after mixed traffic: (stats, render, service)."""
    points = tuple(table2_design_points())
    store_path = tmp_path_factory.mktemp("stats-source") / "jobs.db"

    async def traffic(service):
        await service.allocate(AllocationRequest(5.0))
        await service.allocate(AllocationRequest(5.0))
        burst = [AllocationRequest(5.0)] + [
            AllocationRequest(budget + 0.5) for budget in range(40)
        ]
        await service.allocate_many(burst)
        submitted = await service.submit_campaign(
            CampaignRequest(hours=24, alphas=(1.0,), baselines=("DP1",))
        )
        await service.campaign(submitted.campaign_id).task
        service.store.load_result(submitted.campaign_id)
        service.observe_request("POST /allocate", 0.002, 200)
        service.observe_request("POST /allocate/batch", 0.040, 200)

    service = AllocationService(
        default_points=points, window_s=0.001, campaign_workers=1,
        store=str(store_path),
    )
    try:
        asyncio.run(traffic(service))
        service.publish_observability()
        yield service.stats(), service.metrics.render(), service
    finally:
        service.close()


class TestOneStatsSource:
    def test_stats_key_tree_is_unchanged(self, observed):
        stats, _, _ = observed
        assert list(stats) == [
            "cache", "batcher", "latency", "endpoints", "engines", "pool",
            "campaigns", "slo", "store", "uptime_s",
        ]
        assert set(stats["cache"]) == {
            "entries", "max_entries", "hits", "misses", "lookups",
            "evictions", "hit_rate",
        }
        assert set(stats["batcher"]) == {
            "requests", "batches", "largest_batch", "mean_batch_size",
            "busy_ms", "max_solve_ms",
        }
        assert set(stats["latency"]) == {
            "solves", "mean_ms", "max_ms", "by_outcome",
        }
        assert set(stats["latency"]["by_outcome"]) == {"solve", "cache_hit"}
        for doc in stats["latency"]["by_outcome"].values():
            assert set(doc) == {"count", "mean_ms", "max_ms"}
        assert set(stats["endpoints"]) == {
            "POST /allocate", "POST /allocate/batch",
        }
        for doc in stats["endpoints"].values():
            assert set(doc) == {
                "count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms",
            }
        assert set(stats["pool"]) == {"campaign_workers", "campaigns"}
        assert stats["campaigns"] == {"done": 1}
        assert set(stats["slo"]) == {"target", "objectives"}
        for doc in stats["slo"]["objectives"].values():
            assert set(doc) == {
                "threshold_ms", "good", "total", "compliance",
                "burn_rate_5m", "burn_rate_1h",
            }
        assert set(stats["store"]) == {
            "path", "sync", "owner", "appends", "append_bytes",
            "records_dropped", "jobs_recovered", "results_reloaded",
            "leases", "snapshots_published", "spans_persisted",
        }
        assert set(stats["store"]["leases"]) == {
            "acquired", "stolen", "rejected",
        }

    def test_counts_are_json_integers(self, observed):
        stats, _, _ = observed
        for path, value in json_counts(stats):
            assert type(value) is int, (path, value)

    def test_every_count_equals_its_exposition_sample(self, observed):
        stats, text, service = observed
        _, _, values = parse_exposition(text)
        cache, batcher, latency, pool = (
            stats["cache"], stats["batcher"], stats["latency"], stats["pool"]
        )
        assert cache["hits"] == sample(
            values, "repro_cache_lookups_total", result="hit"
        )
        assert cache["misses"] == sample(
            values, "repro_cache_lookups_total", result="miss"
        )
        assert cache["evictions"] == sample(values, "repro_cache_evictions_total")
        assert cache["entries"] == sample(values, "repro_cache_entries")
        assert batcher["requests"] == sample(
            values, "repro_batcher_requests_total"
        ) == sample(values, "repro_batcher_batch_size_sum")
        assert batcher["batches"] == sample(
            values, "repro_batcher_batches_total"
        ) == sample(values, "repro_batcher_batch_size_count") == sample(
            values, "repro_batcher_solve_seconds_count"
        )
        assert batcher["busy_ms"] == pytest.approx(
            1000.0 * sample(values, "repro_batcher_solve_seconds_sum")
        )
        # The exposition has no max series; the family holds it.
        _, _, max_solve_s = service.batcher.solve_seconds.totals()
        assert batcher["max_solve_ms"] == 1000.0 * max_solve_s
        assert latency["solves"] == sample(
            values, "repro_allocations_total", outcome="solve"
        )
        for outcome, doc in latency["by_outcome"].items():
            assert doc["count"] == sample(
                values, "repro_allocations_total", outcome=outcome
            ) == sample(
                values, "repro_allocation_seconds_count", outcome=outcome
            )
        for endpoint, doc in stats["endpoints"].items():
            assert doc["count"] == sample(
                values, "repro_request_duration_seconds_count",
                endpoint=endpoint,
            )
        assert stats["engines"] == sample(values, "repro_engines")
        assert pool["campaign_workers"] == sample(
            values, "repro_pool_workers", kind="campaign"
        )
        assert pool["campaigns"] == sample(values, "repro_pool_campaigns_total")
        for status, count in stats["campaigns"].items():
            assert count == sample(values, "repro_campaigns", status=status)
        for key, doc in stats["slo"]["objectives"].items():
            good = sample(values, "repro_slo_events_total", slo=key,
                          outcome="good")
            bad = sample(values, "repro_slo_events_total", slo=key,
                         outcome="bad")
            assert (doc["good"], doc["total"]) == (good, good + bad)
        store = stats["store"]
        for kind, count in store["appends"].items():
            assert count == sample(values, "repro_store_appends_total",
                                   kind=kind)
        for event, count in store["leases"].items():
            assert count == sample(values, "repro_store_leases_total",
                                   event=event)
        for key in (
            "append_bytes", "records_dropped", "jobs_recovered",
            "results_reloaded", "snapshots_published", "spans_persisted",
        ):
            name = f"repro_store_{key}_total"
            assert store[key] == sample(values, name), key

    def test_the_traffic_was_counted(self, observed):
        stats, _, _ = observed
        # Both repeat lookups of 5.0 hit; 1 + 40 misses are solved.
        assert stats["cache"]["hits"] == 2
        assert stats["cache"]["lookups"] == 43
        assert stats["cache"]["hit_rate"] == 2 / 43
        assert stats["latency"]["by_outcome"]["cache_hit"]["count"] == 2
        assert stats["latency"]["solves"] == 41
        assert stats["batcher"]["requests"] == 41
        assert stats["batcher"]["largest_batch"] == 40
        assert stats["batcher"]["busy_ms"] > 0
        assert stats["pool"]["campaigns"] == 1
        assert stats["store"]["results_reloaded"] == 1
        assert stats["store"]["snapshots_published"] == 1
        assert stats["store"]["leases"]["acquired"] == 1

    def test_every_family_keeps_its_kind_and_labels(self, observed):
        _, text, _ = observed
        kinds, labelnames, _ = parse_exposition(text)
        for name, (kind, labels) in FAMILIES.items():
            assert kinds.get(name) == kind, name
            assert labelnames[name] == labels, name


class TestBurstAccounting:
    def test_burst_counts_every_request(self):
        async def scenario(service):
            warm = [AllocationRequest(float(budget)) for budget in range(1, 9)]
            await service.allocate_many(warm)
            fresh = [
                AllocationRequest(float(budget) + 0.5) for budget in range(8)
            ]
            await service.allocate_many(warm + fresh)

        service = AllocationService(window_s=0.0)
        try:
            asyncio.run(scenario(service))
            stats = service.stats()
            _, _, values = parse_exposition(service.metrics.render())
        finally:
            service.close()
        # 24 allocations: 8 + 8 misses solved, 8 hits.
        assert stats["latency"]["by_outcome"]["solve"]["count"] == 16
        assert stats["latency"]["by_outcome"]["cache_hit"]["count"] == 8
        assert sample(values, "repro_allocations_total", outcome="solve") == 16
        assert stats["batcher"]["requests"] == 16

    def test_each_hit_times_its_own_lookup(self, monkeypatch):
        requests = [AllocationRequest(float(budget)) for budget in range(1, 6)]
        service = AllocationService(window_s=0.0)
        try:
            asyncio.run(service.allocate_many(requests))
            ticks = itertools.count()
            monkeypatch.setattr(
                time, "perf_counter", lambda: float(next(ticks))
            )
            asyncio.run(service.allocate_many(requests))
            monkeypatch.undo()
            count, total, largest = service.allocation_seconds.totals(
                outcome="cache_hit"
            )
        finally:
            service.close()
        # One clock tick per lookup: the k-th hit does not carry the k - 1
        # lookups before it.
        assert (count, total, largest) == (5, 5.0, 1.0)


class TestBusyTime:
    def test_one_default_solve_records_busy_time(self):
        """At the default config the batcher solves inline, and its busy
        time is what ``/stats``, ``repro top`` and the summary read."""
        service = AllocationService()
        try:
            asyncio.run(service.allocate(AllocationRequest(5.0)))
            stats = service.stats()
        finally:
            service.close()
        batcher = stats["batcher"]
        assert batcher["batches"] == 1
        assert batcher["busy_ms"] > 0
        assert batcher["max_solve_ms"] == batcher["busy_ms"]
        assert _proc_row("self", stats)["util"] > 0
        assert (
            f"busy {batcher['busy_ms']:.1f}ms" in format_stats_summary(stats)
        )


class TestCrossThreadReads:
    def test_stats_survive_concurrent_campaign_inserts(self):
        """``stats()`` runs on executor threads while the loop inserts and
        evicts retained jobs; it must never see the dict change under it."""
        service = AllocationService()
        request = CampaignRequest(hours=24, alphas=(1.0,))
        errors = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                try:
                    service.stats()
                    service._campaign_counts()
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)
                    return

        interval = sys.getswitchinterval()
        reader = threading.Thread(target=read, name="stats-reader")
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            deadline = time.monotonic() + 5.0
            for index in range(20_000):
                job = CampaignJob(f"c{index}", request)
                job.status = "done"
                service._campaigns[job.campaign_id] = job
                service._evict_finished_campaigns()
                if errors or time.monotonic() > deadline:
                    break
        finally:
            stop.set()
            reader.join(timeout=10.0)
            sys.setswitchinterval(interval)
            service.close()
        assert not reader.is_alive()
        assert errors == []
