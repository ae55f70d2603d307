"""Tests of the benchmark's own code (not of the program it measures).

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probes  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.service.cache import AllocationCache  # noqa: E402
from repro.simulation.fleet import FleetCampaign, FleetResult  # noqa: E402


def test_allocate_single_never_repeats_a_cache_key():
    workload = workloads.AllocateSingle(seed=7)
    keys = [
        (request.energy_budget_j, request.alpha)
        for phase, count in ((workloads.WARMUP, 3000), (workloads.TIMED, 20000))
        for request in (workload.next_input(phase) for _ in range(count))
    ]
    assert len(set(keys)) == len(keys)
    low, high = workloads.BUDGET_RANGE_J
    assert all(low <= budget <= high and alpha == 1.0 for budget, alpha in keys)


def test_allocate_single_inputs_depend_only_on_the_seed():
    first, second = workloads.AllocateSingle(3), workloads.AllocateSingle(3)
    draws = [first.next_budget(workloads.TIMED) for _ in range(50)]
    assert draws == [second.next_budget(workloads.TIMED) for _ in range(50)]
    assert draws != [workloads.AllocateSingle(4).next_budget(workloads.TIMED) for _ in range(50)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_allocate_batch_hit_ratio_against_a_4096_entry_lru(seed):
    # Replays the workload's key stream through the server's cache the way
    # AllocationService.allocate_many uses it: look every key up, then
    # store the misses.
    workload = workloads.AllocateBatch(seed)
    cache = AllocationCache(4096)

    def replay(phase, ops):
        hits = lookups = 0
        for _ in range(ops):
            indices = workload.next_indices(phase)
            missed = [index for index in indices if cache.get(index) is None]
            for index in missed:
                cache.put(index, True)
            hits += len(indices) - len(missed)
            lookups += len(indices)
        return hits / lookups

    replay(workloads.WARMUP, 1000)
    assert 0.4 <= replay(workloads.TIMED, 4000) <= 0.6


def test_campaign_seed_comes_from_the_workload_seed():
    requests = workloads.Campaign(5).requests
    assert requests == workloads.Campaign(5).requests
    assert requests[workloads.WARMUP].seed != requests[workloads.TIMED].seed
    assert requests[workloads.TIMED].seed != workloads.Campaign(6).requests[workloads.TIMED].seed
    assert requests[workloads.TIMED].num_cells == 16


def test_allocate_checks_reject_wrong_answers():
    batch = workloads.AllocateBatch(1)
    indices = batch.next_indices(workloads.TIMED)
    right = np.array([
        (budget, alpha, workloads.reference_objective(budget, alpha))
        for budget, alpha in (batch.keys[index] for index in indices)
    ])
    wrong_objective, wrong_key = right.copy(), right.copy()
    wrong_objective[5, 2] += 1e-6
    wrong_key[7, 0] += 0.5
    assert batch.verify([
        (indices, right), (indices, wrong_objective), (indices, wrong_key), (indices, right[:-1]),
    ]) == [True, False, False, False]
    objective = workloads.reference_objective(1.0, 1.0)
    assert workloads.AllocateSingle(1).verify([
        (1.0, 1.0, objective), (1.0, 1.0, objective + 1e-7), (1.0, 2.0, objective),
    ]) == [True, False, False]


def test_campaign_check_rejects_a_perturbed_column():
    request = dataclasses.replace(workloads.Campaign(1).requests[workloads.TIMED], hours=48)
    scenarios, labels, policies, trace, config = request.build()
    local = FleetCampaign(scenarios, config, scenario_labels=labels).run(policies, trace)
    blob = b"".join(bytes(frame) for frame in local.to_binary_frames())
    assert workloads.same_fleet(FleetResult.from_binary(blob), local)
    local.result(3, 1).columns.objective_value[10] += 1e-6
    assert not workloads.same_fleet(FleetResult.from_binary(blob), local)


@pytest.mark.parametrize("count", [10, 11, 50, 105, 199, 200, 999, 1000, 1001, 8600])
def test_tail_rule_keeps_ten_samples_beyond_the_percentile(count):
    q = report.tail_percentile(count)
    if q is None:
        assert all(report.samples_beyond(count, c) < 10 for c in report.TAIL_CANDIDATES)
        return
    latencies = [float(value) for value in range(count)]
    cut = report.percentile(latencies, q)
    assert sum(value > cut for value in latencies) >= report.TAIL_MIN_BEYOND
    higher = [c for c in report.TAIL_CANDIDATES if c > q]
    assert all(report.samples_beyond(count, c) < report.TAIL_MIN_BEYOND for c in higher)


def test_tail_rule_picks_the_highest_supported_percentile():
    assert report.tail_percentile(105) == 90
    assert report.tail_percentile(300) == 95
    assert report.tail_percentile(1010) == 99
    assert report.tail_percentile(50) is None


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert report.percentile(values, 50) == 3.0
    assert report.percentile(values, 90) == 5.0
    assert report.percentile(values, 1) == 1.0


@pytest.mark.parametrize(
    "children",
    [
        [],
        [(1.0, 2.0)],
        [(1.0, 3.0), (2.0, 4.0)],  # overlapping
        [(-5.0, 1.0), (9.0, 20.0)],  # sticking out of the parent
        [(0.0, 10.0), (2.0, 3.0)],  # covering all of it
        [(4.0, 4.0)],  # empty
    ],
)
def test_self_time_is_never_negative(children):
    remaining = probes.self_time(0.0, 10.0, children)
    assert 0.0 <= remaining <= 10.0
    if children == [(1.0, 3.0), (2.0, 4.0)]:
        assert remaining == pytest.approx(7.0)


def synthetic_trace():
    """Two ops, each one HTTP request with decode, service call and encode.

    Op intervals contain their request intervals, which contain their
    children, as on a real server; the service calls of the two requests
    overlap each other the way concurrent requests do.
    """
    recorder = probes.Recorder()
    ops = [(0.0, 0.0050), (0.0010, 0.0062)]
    requests = [(0.0004, 0.0046), (0.0014, 0.0058)]
    children = [
        [(0.0005, 0.0006), (0.0006, 0.0040), (0.0041, 0.0042)],
        [(0.0015, 0.0016), (0.0016, 0.0052), (0.0053, 0.0054)],
    ]
    for (start, end), parts in zip(requests, children):
        recorder.add("server.request:POST /allocate", end - start)
        recorder.add("server.http:POST /allocate", probes.self_time(start, end, parts))
        recorder.add("requests.decode", parts[0][1] - parts[0][0])
        recorder.add("server.allocate", parts[1][1] - parts[1][0])
        recorder.add("requests.encode", parts[2][1] - parts[2][0])
        # The batcher call is the service call; one shared solve served both.
        recorder.add("batcher.wait", probes.self_time(*parts[1], [(0.0038, 0.0039)]))
        recorder.add("cache.get")
    return ops, recorder.snapshot()


def test_residuals_are_non_negative_on_a_synthetic_trace():
    ops, server = synthetic_trace()
    values = report.layer_values(
        ops=len(ops),
        op_seconds=sum(end - start for start, end in ops),
        endpoints=("POST /allocate",),
        server=server,
        server_totals=server,
        client={},
        profiles=[],
        overhead_ms=0.0,
    )
    for name in ("server.http_ms", "client.outside_ms", "batcher.wait_ms"):
        assert values[name] >= 0.0, name
    assert values["server.request_ms"] == pytest.approx(4.3)
    assert values["client.outside_ms"] == pytest.approx(5.1 - 4.3)
    # request = http residual + decode + service call + encode
    assert values["server.http_ms"] == pytest.approx(4.3 - 0.1 - 3.5 - 0.1)
    assert values["cache.lookups"] == 1.0
    assert values["cache.hit_ratio"] == 0.0


def test_layer_values_cover_every_per_layer_metric():
    ops, server = synthetic_trace()
    values = report.layer_values(
        ops=len(ops), op_seconds=0.01, endpoints=(), server=server,
        server_totals=server, client={}, profiles=[{"harvest": 0.004}], overhead_ms=0.5,
    )
    assert set(values) == {metric.name for metric in report.PER_LAYER}
    assert values["fleet.harvest_ms"] == pytest.approx(2.0)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in report.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in report.PER_LAYER
    ]


def test_recorder_switches_off_in_a_forked_child():
    recorder = probes.Recorder()
    recorder.add("x", 1.0)
    pid = os.fork()
    if pid == 0:  # child: the inherited recorder must neither block nor record
        recorder.add("x", 1.0)
        os._exit(0 if recorder.snapshot() == {"x": [1, 1.0]} else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
