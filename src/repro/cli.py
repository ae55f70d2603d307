"""Command-line interface for the REAP reproduction.

Exposes the experiment harness without writing any Python::

    python -m repro list                      # available experiments
    python -m repro run figure4               # regenerate one table/figure
    python -m repro run figure7 --csv out.csv # also write the rows as CSV
    python -m repro allocate --budget 5 --alpha 1   # solve one period
    python -m repro sweep --alpha 2 --points 30     # Figure 5/6 style sweep
    python -m repro sweep --alphas 0.5 1 2 --points 200   # batched alpha grid
    python -m repro run grid --points 200           # budget x alpha grid CSV
    python -m repro fleet --alphas 1 2 --exposures 0.032 0.05   # fleet study
    python -m repro serve --port 8734               # JSON-over-HTTP allocation service

Heavyweight experiments (``table2``, ``figure3``) accept ``--windows`` to
control the size of the synthetic user study they train on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.experiments import (
    ExperimentResult,
    run_alpha_sensitivity_experiment,
    run_budget_alpha_grid_experiment,
    run_figure3_experiment,
    run_figure4_experiment,
    run_figure5a_experiment,
    run_figure5b_experiment,
    run_figure6_experiment,
    run_figure7_experiment,
    run_fleet_campaign_experiment,
    run_headline_claims_experiment,
    run_offloading_experiment,
    run_pareto_subset_ablation,
    run_pivot_rule_ablation,
    run_plan_experiment,
    run_solver_scaling_experiment,
    run_table2_experiment,
)
from repro.analysis.reporting import format_table
from repro.analysis.sweep import EnergySweep, default_budget_grid
from repro.core.allocator import ReapAllocator
from repro.core.batch import BatchAllocator
from repro.core.problem import ReapProblem
from repro.data.table2 import table2_design_points
from repro.har.classifier.train import TrainingConfig
from repro.planning import FORECAST_KINDS, PLANNER_KINDS


#: Registry of named experiments runnable from the command line.  Each entry
#: maps the CLI name to a callable taking the parsed arguments.
EXPERIMENTS: Dict[str, str] = {
    "table2": "Table 2: Pareto design-point characterisation (trains classifiers)",
    "figure3": "Figure 3: 24-point design-space trade-off (trains classifiers)",
    "figure4": "Figure 4: DP1 hourly energy breakdown",
    "figure5a": "Figure 5(a): expected accuracy vs allocated energy",
    "figure5b": "Figure 5(b): active time normalised to REAP",
    "figure6": "Figure 6: normalised objective at alpha=2",
    "figure7": "Figure 7: month-long solar case study",
    "grid": "Budget x alpha grid solved by the vectorized batch engine",
    "claims": "Headline claims (Sections 1 and 5.2)",
    "offloading": "Offloading comparison (Section 4.2)",
    "solver": "Solver-scaling study (Section 3.3)",
    "ablation-subsets": "Ablation: number of runtime design points",
    "ablation-pivot": "Ablation: simplex pivot rule",
    "ablation-alpha": "Ablation: alpha sensitivity of the chosen mix",
}


def _dispatch_experiment(name: str, args: argparse.Namespace) -> ExperimentResult:
    """Run the named experiment with CLI-provided sizes."""
    training = TrainingConfig(max_epochs=args.epochs, patience=max(5, args.epochs // 5))
    if name == "table2":
        return run_table2_experiment(num_windows=args.windows, training_config=training)
    if name == "figure3":
        return run_figure3_experiment(num_windows=args.windows, training_config=training)
    if name == "figure4":
        return run_figure4_experiment()
    if name == "figure5a":
        return run_figure5a_experiment(num_budgets=args.points)
    if name == "figure5b":
        return run_figure5b_experiment(num_budgets=args.points)
    if name == "figure6":
        return run_figure6_experiment(alpha=args.alpha, num_budgets=args.points)
    if name == "figure7":
        return run_figure7_experiment(month=args.month, seed=args.seed)
    if name == "grid":
        return run_budget_alpha_grid_experiment(num_budgets=args.points)
    if name == "claims":
        return run_headline_claims_experiment(num_budgets=max(args.points, 40))
    if name == "offloading":
        return run_offloading_experiment()
    if name == "solver":
        return run_solver_scaling_experiment()
    if name == "ablation-subsets":
        return run_pareto_subset_ablation(num_budgets=args.points)
    if name == "ablation-pivot":
        return run_pivot_rule_ablation(num_budgets=args.points)
    if name == "ablation-alpha":
        return run_alpha_sensitivity_experiment()
    raise KeyError(f"unknown experiment {name!r}")


#: Non-experiment commands, shown by ``repro list`` below the experiments.
COMMANDS: Dict[str, str] = {
    "allocate": "solve a single one-hour allocation",
    "sweep": "objective sweep over budgets (batch or scalar engine)",
    "fleet": "closed-loop fleet study; --planners adds forecast-driven "
             "planning policies, --remote HOST:PORT submits it to a service "
             "(--binary fetches compact binary columns), --profile "
             "writes per-phase timings to JSON",
    "plan": "single-device horizon study: forecast-driven planning "
            "(horizon-average or MPC) vs harvest-following REAP",
    "serve": "run the JSON-over-HTTP allocation service (micro-batching + "
             "cache + worker pool + versioned /v1 campaign endpoints); "
             "columns stream as NDJSON or binary (?format=binary), "
             "--slo-ms sets latency "
             "objectives (/metrics, /trace/<id>, --log-format json for "
             "traced logs), --store journals campaigns durably (restart "
             "resumes unfinished shards), --procs N shares the port "
             "across N processes via SO_REUSEPORT",
    "top": "live refreshing dashboard of a running service: per-process "
           "RPS/p95/utilization rows, cluster SLO burn gauges, active "
           "jobs with shard progress, recent lease steals (--once prints "
           "a single frame)",
}


def _command_list(_: argparse.Namespace) -> int:
    rows = [[name, description] for name, description in EXPERIMENTS.items()]
    print(format_table(["experiment", "description"], rows))
    print()
    print(format_table(
        ["command", "description"],
        [[name, description] for name, description in COMMANDS.items()],
    ))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"run 'python -m repro list' to see the options",
            file=sys.stderr,
        )
        return 2
    result = _dispatch_experiment(args.experiment, args)
    print(result.to_text())
    if args.csv:
        result.to_csv(args.csv)
        print(f"\nrows written to {args.csv}")
    return 0


def _command_allocate(args: argparse.Namespace) -> int:
    points = tuple(table2_design_points())
    problem = ReapProblem(points, energy_budget_j=args.budget, alpha=args.alpha)
    allocation = ReapAllocator().solve(problem)
    rows = [
        [dp.name, dp.accuracy_percent, dp.power_mw, allocation.time_for(dp.name) / 60.0]
        for dp in points
    ]
    rows.append(["off", "-", "-", allocation.off_time_s / 60.0])
    print(format_table(
        ["design point", "accuracy %", "power mW", "minutes"],
        rows,
        title=f"REAP allocation for {args.budget} J at alpha={args.alpha}",
    ))
    print(
        f"\nexpected accuracy {allocation.expected_accuracy:.1%}, "
        f"active time {allocation.active_time_s / 60:.1f} min, "
        f"energy {allocation.energy_j:.2f} J"
    )
    return 0


def _command_fleet_remote(args: argparse.Namespace) -> int:
    """Run the fleet study on a remote allocation service over HTTP."""
    # Imported lazily: local fleet runs never touch the service client.
    from repro.analysis.experiments import fleet_experiment_result
    from repro.service.client import AllocationClient, ServiceError
    from repro.service.requests import CampaignRequest

    host, _, port = args.remote.rpartition(":")
    try:
        port_number = int(port)
    except ValueError:
        print(
            f"--remote expects HOST:PORT, got {args.remote!r}", file=sys.stderr
        )
        return 2
    request = CampaignRequest(
        alphas=tuple(args.alphas),
        baselines=tuple(args.baselines),
        exposure_factors=tuple(args.exposures),
        month=args.month,
        seed=args.seed,
        hours=args.hours,
        use_battery=not args.open_loop,
        planners=tuple(args.planners),
        horizon_periods=args.horizon,
        forecast=args.forecast,
        forecast_noise=args.forecast_noise,
        forecast_seed=args.forecast_seed,
    )
    client = AllocationClient(host=host or "127.0.0.1", port=port_number)
    try:
        status, fleet_result = client.run_campaign(request, binary=args.binary)
    except (ServiceError, OSError, TimeoutError) as error:
        print(f"remote fleet campaign failed: {error}", file=sys.stderr)
        return 1
    result = fleet_experiment_result(
        fleet_result,
        name=(
            f"Fleet campaign (remote {args.remote}, campaign "
            f"{status.campaign_id}): {len(fleet_result.scenario_labels)} "
            f"scenario(s) x {fleet_result.num_policies} policies over "
            f"{fleet_result.trace_hours} hours"
        ),
        use_battery=not args.open_loop,
    )
    print(result.to_text())
    wire = "binary columnar frames" if args.binary else "chunked NDJSON"
    print(
        f"\n{fleet_result.num_cells} campaign cells simulated remotely; "
        f"columns streamed back as {wire}"
    )
    try:
        stats = client.stats()
    except (ServiceError, OSError, TimeoutError):
        stats = None
    if stats:
        cache = stats.get("cache", {})
        batcher = stats.get("batcher", {})
        pool = stats.get("pool", {})
        batches = int(batcher.get("batches", 0))
        coalescing = (
            int(batcher.get("requests", 0)) / batches if batches else 0.0
        )
        print(
            "service: cache {rate:.1f}% hit rate, batcher {co:.1f}x "
            "coalescing, busy {busy:.0f}ms, {cw} campaign "
            "workers".format(
                rate=100.0 * float(cache.get("hit_rate", 0.0)),
                co=coalescing,
                busy=float(batcher.get("busy_ms", 0.0)),
                cw=int(pool.get("campaign_workers", 0)),
            )
        )
    if args.profile:
        _write_profile(args.profile, dict(status.profile or {}))
    if args.csv:
        result.to_csv(args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _write_profile(path: str, phases: Dict[str, float]) -> None:
    """Write ``repro fleet --profile`` per-phase timings as JSON."""
    import json

    payload = {
        "phases": {name: float(seconds) for name, seconds in phases.items()},
        "total_s": float(sum(phases.values())),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    summary = ", ".join(
        f"{name} {seconds * 1000.0:.1f}ms" for name, seconds in phases.items()
    )
    print(f"phase profile written to {path} ({summary or 'no phases'})")


def _command_fleet(args: argparse.Namespace) -> int:
    if args.planners and args.open_loop:
        print(
            "--planners needs the closed-loop battery to plan against; "
            "drop --open-loop or the planners",
            file=sys.stderr,
        )
        return 2
    if args.remote:
        return _command_fleet_remote(args)
    if args.binary:
        print(
            "--binary picks the wire format for --remote columns; "
            "local runs never serialise (drop --binary or add --remote)",
            file=sys.stderr,
        )
        return 2
    result = run_fleet_campaign_experiment(
        alphas=args.alphas,
        baselines=args.baselines,
        exposure_factors=args.exposures,
        month=args.month,
        seed=args.seed,
        hours=args.hours,
        use_battery=not args.open_loop,
        planners=args.planners,
        horizon_periods=args.horizon,
        forecast=args.forecast,
        forecast_noise=args.forecast_noise,
        forecast_seed=args.forecast_seed,
    )
    print(result.to_text())
    print(
        f"\n{result.extras['num_cells']} campaign cells simulated by the "
        "fleet engine"
    )
    if args.profile:
        _write_profile(
            args.profile,
            dict(result.extras["fleet_result"].phase_timings),
        )
    if args.csv:
        result.to_csv(args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    result = run_plan_experiment(
        planner=args.planner,
        horizon_periods=args.horizon,
        forecasts=args.forecasts,
        forecast_noise=args.forecast_noise,
        forecast_seed=args.forecast_seed,
        alpha=args.alpha,
        exposure_factor=args.exposure,
        month=args.month,
        seed=args.seed,
        hours=args.hours,
        battery_capacity_j=args.battery,
    )
    print(result.to_text())
    print(
        f"\n{result.extras['num_cells']} closed-loop cells simulated by the "
        "planning scan (last row: harvest-following REAP baseline)"
    )
    if args.csv:
        result.to_csv(args.csv)
        print(f"rows written to {args.csv}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    points = tuple(table2_design_points())
    budgets = default_budget_grid(points, num_points=args.points)
    if args.alphas and args.engine == "scalar":
        print(
            "--alphas grids are solved by the batch engine; "
            "drop --engine scalar or use a single --alpha",
            file=sys.stderr,
        )
        return 2
    if args.alphas:
        # Multi-alpha grid: one batched solve over the whole budget x alpha
        # plane, one REAP objective column per alpha.
        grid = BatchAllocator(points).solve_grid(budgets, alphas=args.alphas)
        headers = ["budget_J"] + [f"alpha_{float(a):g}" for a in grid.alphas]
        rows = [
            [float(budget)] + [float(v) for v in grid.objective[:, index]]
            for index, budget in enumerate(grid.budgets_j)
        ]
        title = f"REAP objective grid over {len(args.alphas)} alphas"
    else:
        sweep = EnergySweep(points, alpha=args.alpha, engine=args.engine)
        result = sweep.run(budgets)
        headers = ["budget_J", "REAP"] + result.static_names
        rows = []
        for index, budget in enumerate(result.budgets_j):
            row = [float(budget), result.reap.objective[index]]
            row.extend(
                result.static(name).objective[index] for name in result.static_names
            )
            rows.append(row)
        title = f"Objective J(t) sweep at alpha={args.alpha} ({args.engine} engine)"
    print(format_table(headers, rows, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REAP (DAC 2019) reproduction command-line interface",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment name (see 'list')")
    run_parser.add_argument("--csv", default=None, help="also write rows to this CSV file")
    run_parser.add_argument("--windows", type=int, default=1200,
                            help="synthetic study size for table2/figure3")
    run_parser.add_argument("--epochs", type=int, default=60,
                            help="training epochs for table2/figure3")
    run_parser.add_argument("--points", type=int, default=40,
                            help="number of budgets in sweep experiments")
    run_parser.add_argument("--alpha", type=float, default=2.0,
                            help="alpha for figure6")
    run_parser.add_argument("--month", type=int, default=9, help="month for figure7")
    run_parser.add_argument("--seed", type=int, default=2015, help="solar seed for figure7")

    allocate_parser = subparsers.add_parser(
        "allocate", help="solve a single one-hour allocation"
    )
    allocate_parser.add_argument("--budget", type=float, required=True,
                                 help="energy budget in joules")
    allocate_parser.add_argument("--alpha", type=float, default=1.0)

    sweep_parser = subparsers.add_parser("sweep", help="objective sweep over budgets")
    sweep_parser.add_argument("--alpha", type=float, default=1.0)
    sweep_parser.add_argument("--points", type=int, default=25)
    sweep_parser.add_argument(
        "--alphas", type=float, nargs="+", default=None,
        help="solve a budget x alpha grid with the batch engine "
             "(one REAP objective column per alpha; overrides --alpha, "
             "incompatible with --engine scalar)",
    )
    sweep_parser.add_argument(
        "--engine", choices=("auto", "batch", "scalar"), default="auto",
        help="sweep engine: vectorized batch (default) or the scalar reference",
    )

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="closed-loop fleet study: scenarios x policies x alphas in one "
             "vectorized run (the kernels jit when Numba is installed)",
    )
    fleet_parser.add_argument(
        "--alphas", type=float, nargs="+", default=[1.0, 2.0],
        help="alpha values; each gets a REAP policy plus the static baselines",
    )
    fleet_parser.add_argument(
        "--baselines", nargs="*", default=["DP1", "DP3", "DP5"],
        help="static design-point baselines to include",
    )
    fleet_parser.add_argument(
        "--exposures", type=float, nargs="+", default=[0.032],
        help="wearable exposure factors, one harvest scenario per value",
    )
    fleet_parser.add_argument("--month", type=int, default=9,
                              help="calendar month of the synthetic trace")
    fleet_parser.add_argument("--seed", type=int, default=2015,
                              help="solar trace seed")
    fleet_parser.add_argument(
        "--hours", type=int, default=None,
        help="truncate the trace to this many hours (default: whole month)",
    )
    fleet_parser.add_argument(
        "--open-loop", action="store_true",
        help="spend-what-you-harvest budgets instead of the battery scan",
    )
    fleet_parser.add_argument(
        "--planners", nargs="*", choices=PLANNER_KINDS, default=[],
        metavar="PLANNER",
        help="forecast-driven planning policies to add at every alpha "
             f"(closed loop only; choices: {', '.join(PLANNER_KINDS)})",
    )
    fleet_parser.add_argument(
        "--horizon", type=int, default=24,
        help="lookahead window of the planning policies, in periods",
    )
    fleet_parser.add_argument(
        "--forecast", choices=FORECAST_KINDS, default="perfect",
        help="forecast provider feeding the planning policies",
    )
    fleet_parser.add_argument(
        "--forecast-noise", type=float, default=0.2,
        help="noise scale of the noisy-oracle forecast",
    )
    fleet_parser.add_argument(
        "--forecast-seed", type=int, default=7,
        help="RNG seed of the noisy-oracle forecast",
    )
    fleet_parser.add_argument(
        "--remote", default=None, metavar="HOST:PORT",
        help="submit the study to a running allocation service instead of "
             "simulating locally (POST /campaign; columns stream back as "
             "chunked NDJSON)",
    )
    fleet_parser.add_argument(
        "--binary", action="store_true",
        help="with --remote: fetch the columns as the compact binary "
             "columnar wire format instead of NDJSON",
    )
    fleet_parser.add_argument(
        "--profile", nargs="?", const="profile.json", default=None,
        metavar="PATH",
        help="write per-phase campaign timings (harvest, cell solve, scan "
             "settle, merge, ...) as JSON to PATH "
             "(default: profile.json); works locally and with --remote",
    )
    fleet_parser.add_argument("--csv", default=None,
                              help="also write rows to this CSV file")

    plan_parser = subparsers.add_parser(
        "plan",
        help="single-device horizon study: forecast-driven planning vs "
             "harvest-following REAP",
    )
    plan_parser.add_argument(
        "--planner", choices=PLANNER_KINDS, default="horizon",
        help="budget planner: closed-form horizon average or receding-"
             "horizon MPC",
    )
    plan_parser.add_argument(
        "--horizon", type=int, default=24,
        help="lookahead window in periods",
    )
    plan_parser.add_argument(
        "--forecasts", nargs="+", choices=FORECAST_KINDS,
        default=list(FORECAST_KINDS),
        help="forecast providers to compare (one policy per provider)",
    )
    plan_parser.add_argument(
        "--forecast-noise", type=float, default=0.2,
        help="noise scale of the noisy-oracle forecast",
    )
    plan_parser.add_argument(
        "--forecast-seed", type=int, default=7,
        help="RNG seed of the noisy-oracle forecast",
    )
    plan_parser.add_argument("--alpha", type=float, default=1.0)
    plan_parser.add_argument(
        "--exposure", type=float, default=0.032,
        help="wearable exposure factor of the harvest scenario",
    )
    plan_parser.add_argument("--month", type=int, default=9,
                             help="calendar month of the synthetic trace")
    plan_parser.add_argument("--seed", type=int, default=2015,
                             help="solar trace seed")
    plan_parser.add_argument(
        "--hours", type=int, default=None,
        help="truncate the trace to this many hours (default: whole month)",
    )
    plan_parser.add_argument(
        "--battery", type=float, default=60.0,
        help="battery capacity in joules",
    )
    plan_parser.add_argument("--csv", default=None,
                             help="also write rows to this CSV file")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the allocation service (JSON over HTTP, micro-batched "
             "concurrent solves, LRU result cache; the kernels jit when "
             "Numba is installed)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8734,
        help="TCP port (0 binds an ephemeral port; see --port-file)",
    )
    serve_parser.add_argument(
        "--port-file", default=None,
        help="write the bound port to this file once listening "
             "(for scripts using --port 0)",
    )
    serve_parser.add_argument(
        "--window-ms", type=float, default=2.0,
        help="micro-batching window: how long a request may wait to coalesce",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=1024,
        help="flush a batch as soon as this many requests are pending",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=4096,
        help="LRU result-cache capacity (0 disables caching)",
    )
    serve_parser.add_argument(
        "--campaign-workers", type=int, default=1,
        help="process workers for POST /campaign fleet studies (1 runs "
             "each campaign in the serving process)",
    )
    serve_parser.add_argument(
        "--log-format", choices=["text", "json"], default="text",
        help="request/span log lines: human-readable text or one JSON "
             "object per line (each carries the trace_id)",
    )
    serve_parser.add_argument(
        "--slo-ms", default=None, metavar="SPEC",
        help="per-endpoint latency objectives as KEY=MS pairs, e.g. "
             "'allocate=5,campaign=500'; burn rates show up in /metrics "
             "and /stats (default: allocate=25, campaign=5000)",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="durable campaign store (SQLite journal): submissions are "
             "persisted before they are acked, and on restart unfinished "
             "campaigns resume from their last journaled shard",
    )
    serve_parser.add_argument(
        "--store-sync", choices=["normal", "full"], default="normal",
        help="store durability: normal fsyncs on WAL checkpoints "
             "(survives process kill), full fsyncs every record "
             "(survives power loss)",
    )
    serve_parser.add_argument(
        "--procs", type=int, default=1,
        help="independent server processes sharing the port via "
             "SO_REUSEPORT; above 1 requires --store (the processes "
             "coordinate only through the shared journal)",
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live dashboard of a running service (cluster scope when the "
             "server has a store; falls back to the one answering process)",
    )
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument("--port", type=int, default=8734)
    top_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds",
    )
    top_parser.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (no screen clearing; for scripts)",
    )

    return parser


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily so plain experiment runs never touch the service layer.
    from repro.obs.slo import parse_slo_spec
    from repro.service.frontend import FrontendConfig, run_frontend

    slo_ms = None
    if args.slo_ms:
        try:
            slo_ms = parse_slo_spec(args.slo_ms)
        except ValueError as error:
            print(f"--slo-ms: {error}", file=sys.stderr)
            return 2
    if args.procs < 1:
        print("--procs must be at least 1", file=sys.stderr)
        return 2
    config = FrontendConfig(
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        procs=args.procs,
        store=args.store,
        store_sync=args.store_sync,
        cache_size=args.cache_size,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        campaign_workers=args.campaign_workers,
        log_format=args.log_format,
        slo_ms=dict(slo_ms) if slo_ms else None,
    )
    return run_frontend(config)


def _command_top(args: argparse.Namespace) -> int:
    # Imported lazily so plain experiment runs never touch the service layer.
    from repro.service.client import AllocationClient, ServiceError, run_top

    client = AllocationClient(host=args.host, port=args.port)
    try:
        return run_top(client, interval_s=args.interval, once=args.once)
    except (ServiceError, OSError, TimeoutError) as error:
        print(f"repro top failed: {error}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "list": _command_list,
        "run": _command_run,
        "allocate": _command_allocate,
        "sweep": _command_sweep,
        "fleet": _command_fleet,
        "plan": _command_plan,
        "serve": _command_serve,
        "top": _command_top,
    }
    if args.command is None:
        parser.print_help()
        return 1
    return commands[args.command](args)


__all__ = ["COMMANDS", "EXPERIMENTS", "build_parser", "main"]
