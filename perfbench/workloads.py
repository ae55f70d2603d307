"""The three closed-loop workloads: their inputs, one op, and its check.

Inputs come only from the workload seed.  Each workload draws its warm-up
inputs from one seeded stream and its timed inputs from another, so the
timed phase never replays what the warm-up left in the server's caches
unless the workload means it to (``allocate-batch`` shares one key pool
between the phases on purpose: its cache is meant to be warm).

Every op is checked after the timed phase against a reference computed
here, never against the server's own answers:

- allocations against the scalar vertex-enumeration solver
  (``repro.core.analytic.solve_analytic``), objective within 1e-9;
- campaigns against a local ``FleetCampaign`` run of the same
  ``CampaignRequest.build()``, every column within 1e-9.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.analytic import solve_analytic
from repro.core.problem import ReapProblem
from repro.data.table2 import table2_design_points
from repro.service.client import AllocationClient
from repro.service.requests import AllocationRequest, CampaignRequest
from repro.simulation.fleet import FleetCampaign, FleetResult

#: Seed streams of a workload's inputs.
WARMUP, TIMED = 0, 1

#: Allocation budgets are drawn uniformly from this range (joules).
BUDGET_RANGE_J = (0.2, 10.4)

#: Largest allowed deviation from the reference, relative above 1.
TOLERANCE = 1e-9

#: Longest one op may take before it counts as failed.
OP_TIMEOUT_S = 60.0

#: The server's default design points, which every allocate op uses.
DESIGN_POINTS = tuple(table2_design_points())


class WrongAnswer(RuntimeError):
    """The server answered, but not what the op asked for."""


def close(value: float, reference: float) -> bool:
    """``value`` within :data:`TOLERANCE` of ``reference``."""
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


def stream(seed: int, phase: int, salt: int = 0) -> np.random.Generator:
    """The seeded random stream of one workload phase."""
    return np.random.default_rng([seed, phase, salt])


def reference_objective(budget_j: float, alpha: float) -> float:
    """Objective of the optimal allocation, by scalar vertex enumeration."""
    return solve_analytic(ReapProblem(DESIGN_POINTS, budget_j, alpha=alpha)).objective


class Workload:
    """What the runner needs of a workload; defaults suit the allocate ones."""

    name = ""
    #: Closed-loop clients, each on its own thread.
    clients = 1
    #: The fixed tail percentile: the highest of p99/p95/p90 with at least
    #: ten samples beyond it that repeats within a tenth at 25 s runs.
    tail_percentile = 95
    #: Endpoint labels (as the server's metrics spell them) of an op.
    endpoints: Tuple[str, ...] = ()
    work_unit = "allocations"

    def serve_args(self, workdir: str) -> List[str]:
        """``repro serve`` options besides the port."""
        return []

    def next_input(self, phase: int) -> Any:
        """The next op's input, built before the op's clock starts."""
        raise NotImplementedError

    def call(self, client: AllocationClient, op_input: Any) -> Any:
        """One op; returns what :meth:`verify` checks."""
        raise NotImplementedError

    def after(self, client: AllocationClient, outcome: Any) -> Any:
        """Untimed follow-up of an answered op; returns the outcome to keep."""
        return outcome

    def work(self, outcome: Any) -> int:
        """Units of work one answered op delivered."""
        return 1

    def profile(self, outcome: Any) -> Dict[str, float]:
        """Per-phase seconds the server reported for the op, if any."""
        return {}

    def verify(self, outcomes: Sequence[Any]) -> List[bool]:
        """One verdict per outcome, against a reference computed here."""
        raise NotImplementedError


class AllocateSingle(Workload):
    """One allocation per op, from two clients; no cache key ever repeats."""

    name = "allocate-single"
    clients = 2
    endpoints = ("POST /allocate",)

    def __init__(self, seed: int) -> None:
        self._streams = {phase: stream(seed, phase) for phase in (WARMUP, TIMED)}
        self._used: set = set()
        self._lock = threading.Lock()

    def next_budget(self, phase: int) -> float:
        """A budget no earlier op of either phase has asked for."""
        with self._lock:
            while True:
                budget = float(self._streams[phase].uniform(*BUDGET_RANGE_J))
                if budget not in self._used:
                    self._used.add(budget)
                    return budget

    def next_input(self, phase: int) -> AllocationRequest:
        return AllocationRequest(energy_budget_j=self.next_budget(phase), alpha=1.0)

    def call(self, client: AllocationClient, request: AllocationRequest):
        response = client.allocate(request)
        return request.energy_budget_j, response.energy_budget_j, response.objective

    def verify(self, outcomes: Sequence[Any]) -> List[bool]:
        return [
            asked == answered and close(objective, reference_objective(asked, 1.0))
            for asked, answered, objective in outcomes
        ]


class AllocateBatch(Workload):
    """16 allocations per op, drawn from 8192 keys against a 4096-entry LRU.

    The keys are a seeded pool of 4096 budgets crossed with alpha 1 and 2;
    mixed alphas take the engine's grid path.  Uniform draws from twice as
    many keys as the cache holds give a hit ratio near one half.

    The batch is small on purpose.  On a shared 2-vCPU VM the host's CPU
    speed switches between two levels about 1.5x apart for minutes at a
    time; a 256-item op is almost all CPU, so its median moved with the
    level (12.2-19.0 ms over ten 25 s runs, an IQR of 34% of the median).
    A 16-item op also waits out the 2 ms batcher window, which damps that.
    """

    name = "allocate-batch"
    #: p95 read 5.1-5.4 ms in eight of ten runs and 7.0-7.7 ms in two.
    tail_percentile = 90
    endpoints = ("POST /allocate/batch",)
    batch_size = 16
    pool_size = 4096
    alphas = (1.0, 2.0)

    def __init__(self, seed: int) -> None:
        budgets = stream(seed, TIMED, salt=1).uniform(*BUDGET_RANGE_J, self.pool_size)
        self.keys: List[Tuple[float, float]] = [
            (float(budget), alpha) for alpha in self.alphas for budget in budgets
        ]
        self._requests = [
            AllocationRequest(energy_budget_j=budget, alpha=alpha)
            for budget, alpha in self.keys
        ]
        self._streams = {phase: stream(seed, phase) for phase in (WARMUP, TIMED)}

    def next_indices(self, phase: int) -> np.ndarray:
        """Key indices of the next op's batch."""
        return self._streams[phase].integers(0, len(self.keys), self.batch_size)

    def next_input(self, phase: int):
        indices = self.next_indices(phase)
        return indices, [self._requests[index] for index in indices]

    def call(self, client: AllocationClient, op_input):
        indices, requests = op_input
        responses = client.allocate_batch(requests)
        answers = np.array(
            [(r.energy_budget_j, r.alpha, r.objective) for r in responses], dtype=float
        ).reshape(-1, 3)
        return indices, answers

    def work(self, outcome: Any) -> int:
        return self.batch_size

    def verify(self, outcomes: Sequence[Any]) -> List[bool]:
        references: Dict[int, float] = {}
        verdicts = []
        for indices, answers in outcomes:
            ok = len(answers) == len(indices)
            for index, (budget, alpha, objective) in zip(indices, answers):
                if index not in references:
                    references[index] = reference_objective(*self.keys[index])
                if (budget, alpha) != self.keys[index] or not close(
                    objective, references[index]
                ):
                    ok = False
                    break
            verdicts.append(ok)
        return verdicts


class Campaign(Workload):
    """One month-long 16-cell fleet study per op, on the durable store.

    An op submits the study, polls its status every 10 ms and fetches the
    binary columns (float64, zlib) decoded with ``FleetResult.from_binary``;
    the campaign is then deleted outside the op's time.
    """

    name = "campaign"
    tail_percentile = 90
    endpoints = ("POST /campaign", "GET /campaign/*", "GET /campaign/*/columns")
    work_unit = "campaign cells"
    exposure_factors = (0.032, 0.05)
    poll_s = 0.01

    def __init__(self, seed: int) -> None:
        self.requests = {
            phase: CampaignRequest(
                exposure_factors=self.exposure_factors,
                seed=int(stream(seed, phase).integers(1, 2**31)),
            )
            for phase in (WARMUP, TIMED)
        }
        self._blobs: Dict[bytes, bytes] = {}

    def serve_args(self, workdir: str) -> List[str]:
        return ["--store", f"{workdir}/jobs.db", "--campaign-workers", "2"]

    def next_input(self, phase: int) -> CampaignRequest:
        return self.requests[phase]

    def call(self, client: AllocationClient, request: CampaignRequest):
        deadline = time.perf_counter() + OP_TIMEOUT_S
        status = client.submit_campaign(request)
        campaign_id = status.campaign_id
        while not status.finished:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"campaign {campaign_id} still {status.status}")
            time.sleep(self.poll_s)
            status = client.campaign_status(campaign_id)
        if status.status != "done":
            raise WrongAnswer(f"campaign {campaign_id} {status.status}: {status.error}")
        blob = client.campaign_columns_binary(campaign_id)
        FleetResult.from_binary(blob)
        return request, status, blob

    def after(self, client: AllocationClient, outcome: Any) -> Any:
        """Delete the campaign; keep one copy of each distinct columns blob."""
        request, status, blob = outcome
        client.delete_campaign(status.campaign_id)
        return request, status, self._blobs.setdefault(blob, blob)

    def work(self, outcome: Any) -> int:
        return outcome[1].cells

    def profile(self, outcome: Any) -> Dict[str, float]:
        return outcome[1].profile or {}

    def verify(self, outcomes: Sequence[Any]) -> List[bool]:
        references: Dict[CampaignRequest, FleetResult] = {}
        blob_verdicts: Dict[bytes, bool] = {}
        verdicts = []
        for request, status, blob in outcomes:
            if request not in references:
                scenarios, labels, policies, trace, config = request.build()
                references[request] = FleetCampaign(
                    scenarios, config, scenario_labels=labels
                ).run(policies, trace)
            reference = references[request]
            if blob not in blob_verdicts:
                blob_verdicts[blob] = same_fleet(FleetResult.from_binary(blob), reference)
            verdicts.append(
                status.cells == request.num_cells
                and status.trace_hours == reference.trace_hours
                and blob_verdicts[blob]
            )
        return verdicts


def same_fleet(result: FleetResult, reference: FleetResult) -> bool:
    """Every cell's columns and battery trajectory within tolerance."""
    if (
        result.scenario_labels != reference.scenario_labels
        or result.policy_names != reference.policy_names
        or result.alphas != reference.alphas
    ):
        return False
    for scenario_index, policy_index, cell in result:
        expected = reference.result(policy_index, scenario_index)
        pairs = [(cell.battery_charge_j, expected.battery_charge_j)]
        columns, expected_columns = cell.columns, expected.columns
        for name in (
            "period_index", "energy_budget_j", "energy_consumed_j", "active_time_s",
            "off_time_s", "windows_total", "windows_observed", "windows_correct",
            "objective_value", "expected_accuracy", "times_by_design_point_s",
        ):
            pairs.append((getattr(columns, name), getattr(expected_columns, name)))
        for got, want in pairs:
            if (got is None) != (want is None):
                return False
            if got is None:
                continue
            got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            if got.shape != want.shape or not np.all(
                np.abs(got - want) <= TOLERANCE * np.maximum(1.0, np.abs(want))
            ):
                return False
    return True


WORKLOADS = {cls.name: cls for cls in (AllocateSingle, AllocateBatch, Campaign)}
