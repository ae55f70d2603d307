"""Experiment harness: one runner per table / figure of the paper.

Every runner returns an :class:`ExperimentResult` whose rows mirror what the
paper reports (the same columns / series), so the benchmarks can simply print
them and ``EXPERIMENTS.md`` can quote paper-vs-measured values side by side.

Experiments that exercise the HAR substrate (Table 2, Figure 3) synthesise a
user study and train classifiers, which takes tens of seconds at full size;
their ``num_windows`` argument allows smaller, faster runs.  Experiments that
exercise only the runtime optimiser (Figures 5-7) use the published Table 2
design points by default, exactly like the paper's evaluation does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table, rows_to_csv
from repro.analysis.sweep import EnergySweep, SweepResult, default_budget_grid
from repro.core.allocator import AllocatorConfig, ReapAllocator
from repro.core.batch import BatchAllocator
from repro.core.design_point import DesignPoint
from repro.core.pareto import pareto_front, select_pareto_subset
from repro.core.problem import ReapProblem
from repro.core.simplex import PivotRule
from repro.data.paper_constants import (
    ACTIVITY_PERIOD_S,
    DP1_FULL_HOUR_ENERGY_J,
    MIN_OFF_ENERGY_J,
    PaperClaims,
)
from repro.data.table2 import TABLE2_ROWS, table2_design_points
from repro.energy.accounting import hourly_breakdown_from_characterization
from repro.energy.ble import BLEModel, offloading_comparison
from repro.energy.power_model import DesignPointEnergyModel
from repro.har.classifier.train import TrainingConfig
from repro.har.config import HARConfig
from repro.har.design_space import (
    DESIGN_SPACE_SPECS,
    DesignSpaceExplorer,
    table2_specs,
)
from repro.har.features.pipeline import FeatureExtractor
from repro.har.synthesis import generate_study_dataset
from repro.harvesting.solar import SyntheticSolarModel
from repro.harvesting.solar_cell import HarvestScenario, SolarCellModel
from repro.harvesting.traces import SolarTrace
from repro.simulation.fleet import FleetCampaign
from repro.simulation.metrics import compare_campaigns
from repro.simulation.policies import PlanningPolicy, ReapPolicy, StaticPolicy
from repro.simulation.simulator import CampaignConfig, HarvestingCampaign


@dataclass
class ExperimentResult:
    """Tabular result of one experiment."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    extras: Dict[str, object] = field(default_factory=dict)

    def to_text(self, precision: int = 3) -> str:
        """Render the result as an aligned plain-text table."""
        return format_table(self.headers, self.rows, precision=precision, title=self.name)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Serialise the rows as CSV (optionally written to ``path``)."""
        return rows_to_csv(self.headers, self.rows, path)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


# ---------------------------------------------------------------------------
# Table 2 and Figure 3: design-space characterisation on the HAR substrate
# ---------------------------------------------------------------------------

def _default_training_config(fast: bool = True) -> TrainingConfig:
    """Training settings: a faster schedule for benchmark-sized datasets."""
    if fast:
        return TrainingConfig(max_epochs=80, patience=15)
    return TrainingConfig()


def run_table2_experiment(
    num_windows: int = 1400,
    num_users: int = 14,
    seed: int = 2019,
    training_config: Optional[TrainingConfig] = None,
) -> ExperimentResult:
    """Reproduce Table 2: characterise the five Pareto design points.

    Trains one classifier per design point on the synthetic user study and
    evaluates the analytical energy model, reporting measured values next to
    the published ones.
    """
    dataset = generate_study_dataset(
        num_users=num_users, num_windows=num_windows, seed=seed
    )
    explorer = DesignSpaceExplorer(
        dataset, training_config=training_config or _default_training_config()
    )
    characterized = explorer.characterize_all(table2_specs())
    paper = {row.name: row for row in TABLE2_ROWS}

    headers = [
        "DP",
        "accuracy_%",
        "paper_accuracy_%",
        "exec_ms",
        "paper_exec_ms",
        "energy_mJ",
        "paper_energy_mJ",
        "power_mW",
        "paper_power_mW",
    ]
    rows: List[List[object]] = []
    for item in characterized:
        reference = paper[item.name]
        rows.append(
            [
                item.name,
                item.test_accuracy * 100.0,
                reference.accuracy_percent,
                item.characterization.execution.total_ms,
                reference.total_exec_ms,
                item.characterization.total_energy_mj,
                reference.energy_mj,
                item.characterization.average_power_mw,
                reference.power_mw,
            ]
        )
    design_points = [item.to_design_point() for item in characterized]
    return ExperimentResult(
        name="Table 2: Pareto-optimal design point characterisation",
        headers=headers,
        rows=rows,
        extras={
            "design_points": design_points,
            "dataset_windows": len(dataset),
            "num_users": dataset.num_users,
        },
    )


def run_figure3_experiment(
    num_windows: int = 1400,
    num_users: int = 14,
    seed: int = 2019,
    training_config: Optional[TrainingConfig] = None,
    specs: Sequence[Tuple[str, HARConfig]] = DESIGN_SPACE_SPECS,
) -> ExperimentResult:
    """Reproduce Figure 3: energy/accuracy of all 24 DPs and the Pareto front."""
    dataset = generate_study_dataset(
        num_users=num_users, num_windows=num_windows, seed=seed
    )
    explorer = DesignSpaceExplorer(
        dataset, training_config=training_config or _default_training_config()
    )
    characterized = explorer.characterize_all(specs)
    design_points = [item.to_design_point() for item in characterized]
    front_names = {dp.name for dp in pareto_front(design_points)}

    headers = ["design_point", "energy_per_activity_mJ", "accuracy_%", "pareto_optimal"]
    rows = [
        [
            dp.name,
            dp.energy_per_activity_mj,
            dp.accuracy_percent,
            dp.name in front_names,
        ]
        for dp in sorted(design_points, key=lambda d: d.energy_per_activity_mj)
    ]
    return ExperimentResult(
        name="Figure 3: design-space energy/accuracy trade-off",
        headers=headers,
        rows=rows,
        extras={
            "design_points": design_points,
            "pareto_names": sorted(front_names),
            "num_design_points": len(design_points),
        },
    )


# ---------------------------------------------------------------------------
# Figure 4: energy breakdown of DP1 over a one-hour activity period
# ---------------------------------------------------------------------------

def run_figure4_experiment(period_s: float = ACTIVITY_PERIOD_S) -> ExperimentResult:
    """Reproduce Figure 4: DP1's hourly energy breakdown (~9.9 J total)."""
    dp1_name, dp1_config = table2_specs()[0]
    extractor = FeatureExtractor(dp1_config.features)
    characterization = DesignPointEnergyModel().characterize(
        dp1_config, num_features=extractor.num_features
    )
    breakdown = hourly_breakdown_from_characterization(characterization, period_s)

    headers = ["component", "energy_J", "fraction"]
    fractions = breakdown.fractions()
    rows = [
        ["accelerometer sensor", breakdown.accel_sensor_j, fractions["accel_sensor_j"]],
        ["stretch sensor", breakdown.stretch_sensor_j, fractions["stretch_sensor_j"]],
        ["MCU feature/classifier compute", breakdown.mcu_compute_j, fractions["mcu_compute_j"]],
        ["MCU sensor acquisition", breakdown.mcu_acquisition_j, fractions["mcu_acquisition_j"]],
        ["MCU system/sleep", breakdown.mcu_system_j, fractions["mcu_system_j"]],
        ["BLE communication", breakdown.communication_j, fractions["communication_j"]],
    ]
    return ExperimentResult(
        name="Figure 4: DP1 energy breakdown over one hour",
        headers=headers,
        rows=rows,
        extras={
            "total_j": breakdown.total_j,
            "paper_total_j": DP1_FULL_HOUR_ENERGY_J,
            "sensor_fraction": fractions["accel_sensor_j"] + fractions["stretch_sensor_j"],
            "design_point": dp1_name,
        },
    )


# ---------------------------------------------------------------------------
# Figures 5 and 6: energy sweeps
# ---------------------------------------------------------------------------

def _sweep(
    design_points: Optional[Sequence[DesignPoint]],
    alpha: float,
    num_budgets: int,
) -> SweepResult:
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    sweep = EnergySweep(points, alpha=alpha)
    budgets = default_budget_grid(points, num_points=num_budgets)
    return sweep.run(budgets)


def run_budget_alpha_grid_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    num_budgets: int = 200,
    alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
) -> ExperimentResult:
    """REAP's optimal objective over a full budget x alpha grid.

    This is the fleet-scale view behind Figures 5 and 6: every (budget,
    alpha) scenario solved in a single vectorized pass through
    :class:`repro.core.batch.BatchAllocator`.  One row per budget, one
    objective column per alpha.
    """
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    budgets = default_budget_grid(points, num_points=num_budgets)
    grid = BatchAllocator(points).solve_grid(budgets, alphas=[float(a) for a in alphas])
    headers = ["budget_J"] + [f"J_alpha_{float(a):g}" for a in grid.alphas]
    rows = [
        [float(budget)] + [float(v) for v in grid.objective[:, budget_index]]
        for budget_index, budget in enumerate(grid.budgets_j)
    ]
    return ExperimentResult(
        name=f"Budget x alpha grid: {grid.num_budgets} budgets x {grid.num_alphas} alphas",
        headers=headers,
        rows=rows,
        extras={"grid": grid, "num_problems": grid.num_budgets * grid.num_alphas},
    )


def run_figure5a_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    num_budgets: int = 40,
) -> ExperimentResult:
    """Figure 5(a): expected accuracy vs allocated energy (alpha = 1)."""
    result = _sweep(design_points, alpha=1.0, num_budgets=num_budgets)
    headers = ["budget_J", "REAP_%"] + [f"{name}_%" for name in result.static_names]
    rows = []
    for index, budget in enumerate(result.budgets_j):
        row = [float(budget), result.reap.expected_accuracy[index] * 100.0]
        row.extend(
            result.static(name).expected_accuracy[index] * 100.0
            for name in result.static_names
        )
        rows.append(row)
    return ExperimentResult(
        name="Figure 5(a): expected accuracy vs allocated energy (alpha=1)",
        headers=headers,
        rows=rows,
        extras={"sweep": result, "reap_dominates": result.reap_dominates_everywhere()},
    )


def run_figure5b_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    num_budgets: int = 40,
) -> ExperimentResult:
    """Figure 5(b): active time of each static DP normalised to REAP."""
    result = _sweep(design_points, alpha=1.0, num_budgets=num_budgets)
    headers = ["budget_J"] + [f"{name}_norm_active" for name in result.static_names]
    normalized = {
        name: result.normalized_active_time(name) for name in result.static_names
    }
    rows = []
    for index, budget in enumerate(result.budgets_j):
        row = [float(budget)]
        row.extend(float(normalized[name][index]) for name in result.static_names)
        rows.append(row)
    return ExperimentResult(
        name="Figure 5(b): active time normalised to REAP (alpha=1)",
        headers=headers,
        rows=rows,
        extras={"sweep": result},
    )


def run_figure6_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    alpha: float = 2.0,
    num_budgets: int = 40,
) -> ExperimentResult:
    """Figure 6: objective of static DPs normalised to REAP at alpha = 2."""
    result = _sweep(design_points, alpha=alpha, num_budgets=num_budgets)
    headers = ["budget_J"] + [f"{name}_norm_J" for name in result.static_names]
    rows = []
    for index, budget in enumerate(result.budgets_j):
        row = [float(budget)]
        row.extend(
            float(result.normalized_objective(name)[index])
            for name in result.static_names
        )
        rows.append(row)
    return ExperimentResult(
        name=f"Figure 6: normalised objective value (alpha={alpha})",
        headers=headers,
        rows=rows,
        extras={"sweep": result, "reap_dominates": result.reap_dominates_everywhere()},
    )


# ---------------------------------------------------------------------------
# Figure 7: month-long solar case study
# ---------------------------------------------------------------------------

def run_figure7_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    alphas: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0),
    month: int = 9,
    seed: int = 2015,
    baselines: Sequence[str] = ("DP1", "DP3", "DP5"),
    use_battery: bool = False,
    engine: str = "fleet",
) -> ExperimentResult:
    """Figure 7: REAP's objective normalised to static DPs over a solar month.

    Ratios are computed on per-day objective totals; the mean, minimum and
    maximum across the days of the month correspond to the bars and error
    bars of the figure.  Each alpha's policy line-up runs as one fleet
    campaign (one shared battery scan when ``use_battery``); pass
    ``engine="scalar"`` for the hour-by-hour reference loop.
    """
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    trace = SyntheticSolarModel(seed=seed).generate_month(month)
    scenario = HarvestScenario()
    campaign = HarvestingCampaign(
        scenario, CampaignConfig(use_battery=use_battery), engine=engine
    )

    headers = ["alpha"]
    for name in baselines:
        headers.extend([f"vs_{name}_mean", f"vs_{name}_min", f"vs_{name}_max"])

    rows: List[List[object]] = []
    detail: Dict[float, Dict[str, Dict[str, float]]] = {}
    for alpha in alphas:
        policies = [ReapPolicy(points, alpha=alpha)] + [
            StaticPolicy(points, name, alpha=alpha) for name in baselines
        ]
        results = campaign.run_many(policies, trace)
        reap_result = results["REAP"]
        row: List[object] = [alpha]
        detail[alpha] = {}
        for name in baselines:
            comparison = compare_campaigns(reap_result, results[f"Static-{name}"])
            detail[alpha][name] = comparison
            row.extend(
                [comparison["mean_ratio"], comparison["min_ratio"], comparison["max_ratio"]]
            )
        rows.append(row)
    return ExperimentResult(
        name=f"Figure 7: REAP vs static DPs over a synthetic month {month:02d} solar trace",
        headers=headers,
        rows=rows,
        extras={
            "detail": detail,
            "trace_hours": len(trace),
            "month": month,
            "use_battery": use_battery,
            "engine": engine,
        },
    )


def run_fleet_campaign_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    alphas: Sequence[float] = (1.0, 2.0),
    baselines: Sequence[str] = ("DP1", "DP3", "DP5"),
    exposure_factors: Sequence[float] = (0.032,),
    month: int = 9,
    seed: int = 2015,
    hours: Optional[int] = None,
    use_battery: bool = True,
    planners: Sequence[str] = (),
    horizon_periods: int = 24,
    forecast: str = "perfect",
    forecast_noise: float = 0.2,
    forecast_seed: int = 7,
) -> ExperimentResult:
    """Fleet study: (scenario x policy x alpha) campaign grid in one run.

    Sweeps wearable exposure-factor scenario variants against the REAP
    policy plus static baselines at every alpha, all simulated by the
    vectorized :class:`~repro.simulation.fleet.FleetCampaign` engine --
    closed-loop cells share a single lockstep battery scan.  ``planners``
    adds one forecast-driven
    :class:`~repro.simulation.policies.PlanningPolicy` per named planner
    (``"horizon"`` / ``"mpc"``) at every alpha, all using the given
    lookahead and forecast provider.  One row per (scenario, policy) cell.
    """
    if planners and not use_battery:
        # Open-loop budgets are the harvest itself -- a planning policy
        # would silently collapse to plain REAP and mislabel its rows.
        raise ValueError(
            "planning policies need a battery to plan against; drop the "
            "planners or run the fleet study closed-loop"
        )
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    trace = SyntheticSolarModel(seed=seed).generate_month(month)
    if hours is not None:
        if not 1 <= hours <= len(trace):
            raise ValueError(
                f"hours must be in [1, {len(trace)}], got {hours}"
            )
        trace = SolarTrace(trace.hours[:hours], name=trace.name)

    scenarios = [
        HarvestScenario(cell=SolarCellModel(exposure_factor=factor))
        for factor in exposure_factors
    ]
    labels = [f"exposure={factor:g}" for factor in exposure_factors]
    policies: List[object] = []
    for alpha in alphas:
        policies.append(ReapPolicy(points, alpha=alpha))
        policies.extend(
            StaticPolicy(points, name, alpha=alpha) for name in baselines
        )
        policies.extend(
            PlanningPolicy(
                points,
                planner=planner,
                horizon_periods=horizon_periods,
                forecast=forecast,
                forecast_noise=forecast_noise,
                forecast_seed=forecast_seed,
                alpha=alpha,
            )
            for planner in planners
        )

    fleet = FleetCampaign(
        scenarios,
        CampaignConfig(use_battery=use_battery),
        scenario_labels=labels,
    )
    result = fleet.run(policies, trace)

    return fleet_experiment_result(
        result,
        name=(
            f"Fleet campaign: {len(scenarios)} scenario(s) x "
            f"{len(policies)} policies over {len(trace)} hours "
            f"({'battery-backed' if use_battery else 'open loop'})"
        ),
        use_battery=use_battery,
    )


def fleet_experiment_result(
    result,
    name: str,
    use_battery: bool = True,
) -> ExperimentResult:
    """Tabulate a :class:`~repro.simulation.fleet.FleetResult` as a report.

    One row per (scenario, policy) cell, built from
    :meth:`~repro.simulation.fleet.FleetResult.cell_summaries` -- the same
    payload the allocation service's campaign-status endpoint serves, so a
    remote campaign (``repro fleet --remote``) prints the identical table a
    local run does.
    """
    headers = [
        "scenario",
        "policy",
        "alpha",
        "mean_objective",
        "mean_expected_accuracy_%",
        "active_hours",
        "energy_J",
        "recognition_%",
        "final_battery_J",
    ]
    rows: List[List[object]] = []
    for cell in result.cell_summaries():
        final_battery = cell["final_battery_j"]
        rows.append(
            [
                cell["scenario"],
                cell["policy"],
                cell["alpha"],
                cell["mean_objective"],
                cell["mean_expected_accuracy"] * 100.0,
                cell["active_hours"],
                cell["energy_j"],
                cell["recognition_rate"] * 100.0,
                float("nan") if final_battery is None else final_battery,
            ]
        )
    return ExperimentResult(
        name=name,
        headers=headers,
        rows=rows,
        extras={
            "fleet_result": result,
            "num_cells": result.num_cells,
            "trace_hours": result.trace_hours,
            "use_battery": use_battery,
        },
    )


def run_plan_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    planner: str = "horizon",
    horizon_periods: int = 24,
    forecasts: Sequence[str] = ("perfect", "persistence", "noisy"),
    forecast_noise: float = 0.2,
    forecast_seed: int = 7,
    alpha: float = 1.0,
    exposure_factor: float = 0.032,
    month: int = 9,
    seed: int = 2015,
    hours: Optional[int] = None,
    battery_capacity_j: float = 60.0,
) -> ExperimentResult:
    """Single-device horizon study: planned vs harvest-following budgets.

    Runs one closed-loop scenario with one
    :class:`~repro.simulation.policies.PlanningPolicy` per forecast kind
    (so forecast-error sensitivity reads off one table) next to the
    harvest-following REAP baseline, all sharing one vectorized fleet run.
    One row per policy.
    """
    if not forecasts:
        raise ValueError("plan study needs at least one forecast kind")
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    trace = SyntheticSolarModel(seed=seed).generate_month(month)
    if hours is not None:
        if not 1 <= hours <= len(trace):
            raise ValueError(f"hours must be in [1, {len(trace)}], got {hours}")
        trace = SolarTrace(trace.hours[:hours], name=trace.name)
    scenario = HarvestScenario(cell=SolarCellModel(exposure_factor=exposure_factor))
    policies: List[object] = [
        PlanningPolicy(
            points,
            planner=planner,
            horizon_periods=horizon_periods,
            forecast=kind,
            forecast_noise=forecast_noise,
            forecast_seed=forecast_seed,
            alpha=alpha,
        )
        for kind in forecasts
    ]
    policies.append(ReapPolicy(points, alpha=alpha))
    fleet = FleetCampaign(
        scenario,
        CampaignConfig(use_battery=True, battery_capacity_j=battery_capacity_j),
        scenario_labels=[f"exposure={exposure_factor:g}"],
    )
    result = fleet.run(policies, trace)
    return fleet_experiment_result(
        result,
        name=(
            f"Planning study: {planner} planner, {horizon_periods}-period "
            f"lookahead, {len(forecasts)} forecast(s) vs harvest-following "
            f"REAP over {len(trace)} hours"
        ),
        use_battery=True,
    )


# ---------------------------------------------------------------------------
# Headline claims, offloading, solver scaling
# ---------------------------------------------------------------------------

def run_headline_claims_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    num_budgets: int = 60,
) -> ExperimentResult:
    """Check the paper's headline quantitative claims (Sections 1 and 5.2).

    * 46% higher expected accuracy than DP1 averaged over the budget range,
    * 66% longer active time than DP1 averaged over the budget range,
    * up to 2.3x more active time than DP1 in the energy-constrained region,
    * the DP4/DP5 time split (42%/58%) at a 5 J budget,
    * DP5 saturating near 4.3 J and DP1 near 9.9 J.
    """
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    claims = PaperClaims()
    sweep = EnergySweep(points, alpha=1.0)
    # Sweep only the non-saturated range (up to DP1's full-hour budget), as
    # the paper's averages are over the region where the budget binds.
    floor = MIN_OFF_ENERGY_J
    ceiling = max(dp.power_w for dp in points) * ACTIVITY_PERIOD_S
    budgets = np.linspace(floor, ceiling, num_budgets)
    result = sweep.run(budgets)

    dp1 = result.static("DP1")
    reap = result.reap
    accuracy_gain = reap.expected_accuracy.mean() / max(dp1.expected_accuracy.mean(), 1e-12) - 1.0
    active_gain = reap.active_time_s.mean() / max(dp1.active_time_s.mean(), 1e-12) - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        active_ratio = np.where(dp1.active_time_s > 0, reap.active_time_s / dp1.active_time_s, 0.0)
    region1_gain = float(np.nanmax(active_ratio))

    allocator = ReapAllocator()
    problem = ReapProblem(points, energy_budget_j=5.0, alpha=1.0)
    allocation_5j = allocator.solve(problem)
    dp4_share = allocation_5j.share_for("DP4") if "DP4" in allocation_5j.as_dict() else 0.0
    dp5_share = allocation_5j.share_for("DP5") if "DP5" in allocation_5j.as_dict() else 0.0

    dp5_saturation = result.saturation_budget_j("DP5")
    dp1_saturation = result.saturation_budget_j("DP1")

    headers = ["claim", "paper", "measured"]
    rows = [
        ["expected accuracy gain vs DP1 (mean over sweep)", claims.accuracy_gain_vs_dp1, float(accuracy_gain)],
        ["active time gain vs DP1 (mean over sweep)", claims.active_time_gain_vs_dp1, float(active_gain)],
        ["max active-time ratio vs DP1 (Region 1)", claims.region1_active_time_gain_vs_dp1, region1_gain],
        ["DP4 share of active time at 5 J", claims.dp4_share_at_5j, float(dp4_share)],
        ["DP5 share of active time at 5 J", claims.dp5_share_at_5j, float(dp5_share)],
        ["budget where DP5 saturates (J)", claims.dp5_full_hour_budget_j, dp5_saturation],
        ["budget where DP1 saturates (J)", claims.dp1_full_hour_budget_j, dp1_saturation],
    ]
    return ExperimentResult(
        name="Headline claims (Sections 1 and 5.2)",
        headers=headers,
        rows=rows,
        extras={"sweep": result, "allocation_at_5j": allocation_5j},
    )


def run_offloading_experiment(ble: Optional[BLEModel] = None) -> ExperimentResult:
    """Section 4.2: transmit-label vs raw-offload energy comparison."""
    comparison = offloading_comparison(ble or BLEModel())
    headers = ["strategy", "energy_mJ", "paper_energy_mJ"]
    rows = [
        ["transmit recognised label", comparison["label_energy_mj"], comparison["paper_label_energy_mj"]],
        ["offload raw sensor data", comparison["raw_offload_energy_mj"], comparison["paper_raw_offload_energy_mj"]],
    ]
    return ExperimentResult(
        name="Offloading comparison (Section 4.2)",
        headers=headers,
        rows=rows,
        extras={"offload_penalty_factor": comparison["offload_penalty_factor"]},
    )


def _random_design_points(count: int, rng: np.random.Generator) -> List[DesignPoint]:
    """Random Pareto-ish design points used by the solver-scaling experiment."""
    powers = np.sort(rng.uniform(0.4e-3, 4.0e-3, count))
    accuracies = np.sort(rng.uniform(0.5, 0.98, count))
    return [
        DesignPoint(name=f"R{i}", accuracy=float(a), power_w=float(p))
        for i, (a, p) in enumerate(zip(accuracies, powers))
    ]


def run_solver_scaling_experiment(
    sizes: Sequence[int] = (5, 10, 20, 50, 100),
    repeats: int = 20,
    seed: int = 17,
) -> ExperimentResult:
    """Section 3.3: solve-time scaling with the number of design points.

    The paper reports ~1.5 ms for 5 design points and ~8 ms for 100 on the
    CC2650; on a workstation the absolute numbers are much smaller, but the
    sub-linear growth with N is the property of interest.
    """
    rng = np.random.default_rng(seed)
    allocator = ReapAllocator()
    headers = ["num_design_points", "mean_solve_ms", "max_solve_ms", "mean_iterations"]
    rows = []
    for size in sizes:
        points = _random_design_points(size, rng)
        times = []
        iterations = []
        for _ in range(repeats):
            budget = float(rng.uniform(0.5, 0.9) * max(p.power_w for p in points) * ACTIVITY_PERIOD_S)
            problem = ReapProblem(tuple(points), energy_budget_j=budget, alpha=1.0)
            start = time.perf_counter()
            allocator.solve(problem)
            times.append((time.perf_counter() - start) * 1e3)
            iterations.append(allocator.last_iterations)
        rows.append(
            [size, float(np.mean(times)), float(np.max(times)), float(np.mean(iterations))]
        )
    return ExperimentResult(
        name="Solver scaling (Section 3.3)",
        headers=headers,
        rows=rows,
        extras={"repeats": repeats},
    )


# ---------------------------------------------------------------------------
# Ablations (extensions beyond the paper)
# ---------------------------------------------------------------------------

def run_pareto_subset_ablation(
    design_points: Optional[Sequence[DesignPoint]] = None,
    subset_sizes: Sequence[int] = (2, 3, 5),
    alpha: float = 1.0,
    num_budgets: int = 40,
) -> ExperimentResult:
    """How much of REAP's gain survives with fewer runtime design points."""
    points = list(design_points) if design_points else list(table2_design_points())
    budgets = default_budget_grid(points, num_points=num_budgets)
    headers = ["num_design_points", "mean_objective", "mean_expected_accuracy", "mean_active_fraction"]
    rows = []
    for size in subset_sizes:
        subset = select_pareto_subset(points, size)
        sweep = EnergySweep(subset, alpha=alpha)
        result = sweep.run(budgets)
        rows.append(
            [
                len(subset),
                float(result.reap.objective.mean()),
                float(result.reap.expected_accuracy.mean()),
                float(result.reap.active_time_s.mean() / ACTIVITY_PERIOD_S),
            ]
        )
    return ExperimentResult(
        name="Ablation: number of runtime design points",
        headers=headers,
        rows=rows,
        extras={"subset_sizes": list(subset_sizes)},
    )


def run_pivot_rule_ablation(
    design_points: Optional[Sequence[DesignPoint]] = None,
    num_budgets: int = 40,
) -> ExperimentResult:
    """Dantzig vs Bland pivot rule: identical optima, different pivot counts."""
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    budgets = default_budget_grid(points, num_points=num_budgets)
    headers = ["pivot_rule", "mean_iterations", "max_iterations", "mean_objective"]
    rows = []
    objectives = {}
    for rule in (PivotRule.DANTZIG, PivotRule.BLAND):
        allocator = ReapAllocator(AllocatorConfig(pivot_rule=rule))
        iteration_counts = []
        values = []
        for budget in budgets:
            problem = ReapProblem(points, energy_budget_j=float(budget), alpha=1.0)
            allocation = allocator.solve(problem)
            iteration_counts.append(allocator.last_iterations)
            values.append(allocation.objective)
        objectives[rule.value] = np.array(values)
        rows.append(
            [
                rule.value,
                float(np.mean(iteration_counts)),
                int(np.max(iteration_counts)),
                float(np.mean(values)),
            ]
        )
    return ExperimentResult(
        name="Ablation: simplex pivot rule",
        headers=headers,
        rows=rows,
        extras={"objective_gap": float(np.max(np.abs(objectives["dantzig"] - objectives["bland"])))},
    )


def run_alpha_sensitivity_experiment(
    design_points: Optional[Sequence[DesignPoint]] = None,
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    budget_j: float = 5.0,
) -> ExperimentResult:
    """How the chosen operating mix shifts with alpha at a fixed budget.

    All alphas are solved in one call to the vectorized batch engine (a
    1-budget x A-alpha grid) instead of one scalar LP per alpha.
    """
    points = tuple(design_points) if design_points else tuple(table2_design_points())
    grid = BatchAllocator(points).solve_grid([budget_j], alphas=[float(a) for a in alphas])
    headers = ["alpha", "expected_accuracy", "active_fraction"] + [dp.name + "_share" for dp in points]
    rows = []
    for alpha_index, alpha in enumerate(grid.alphas):
        allocation = grid.allocation(alpha_index, 0)
        row: List[object] = [
            float(alpha),
            allocation.expected_accuracy,
            allocation.active_fraction,
        ]
        row.extend(allocation.share_for(dp.name) for dp in points)
        rows.append(row)
    return ExperimentResult(
        name=f"Ablation: alpha sensitivity at {budget_j} J",
        headers=headers,
        rows=rows,
        extras={"budget_j": budget_j, "grid": grid},
    )


__all__ = [
    "ExperimentResult",
    "fleet_experiment_result",
    "run_alpha_sensitivity_experiment",
    "run_budget_alpha_grid_experiment",
    "run_figure3_experiment",
    "run_figure4_experiment",
    "run_figure5a_experiment",
    "run_figure5b_experiment",
    "run_figure6_experiment",
    "run_figure7_experiment",
    "run_fleet_campaign_experiment",
    "run_headline_claims_experiment",
    "run_offloading_experiment",
    "run_pareto_subset_ablation",
    "run_pivot_rule_ablation",
    "run_solver_scaling_experiment",
    "run_table2_experiment",
]
