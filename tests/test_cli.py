"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "figure4"])
        assert args.experiment == "figure4"
        assert args.windows == 1200
        assert args.points == 40


class TestRunCommands:
    def test_run_figure4(self, capsys):
        assert main(["run", "figure4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "accelerometer sensor" in output

    def test_run_offloading_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "offloading.csv"
        assert main(["run", "offloading", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "strategy" in csv_path.read_text()
        assert "rows written" in capsys.readouterr().out

    def test_run_figure5a_with_few_points(self, capsys):
        assert main(["run", "figure5a", "--points", "8"]) == 0
        output = capsys.readouterr().out
        assert "REAP_%" in output

    def test_run_ablation_alpha(self, capsys):
        assert main(["run", "ablation-alpha"]) == 0
        assert "alpha" in capsys.readouterr().out


class TestAllocateAndSweep:
    def test_allocate_command(self, capsys):
        assert main(["allocate", "--budget", "5", "--alpha", "1"]) == 0
        output = capsys.readouterr().out
        assert "DP4" in output and "DP5" in output
        assert "expected accuracy" in output

    def test_allocate_requires_budget(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate"])

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--alpha", "2", "--points", "6"]) == 0
        output = capsys.readouterr().out
        assert "REAP" in output
        assert "budget_J" in output

    def test_sweep_scalar_engine(self, capsys):
        assert main(["sweep", "--points", "5", "--engine", "scalar"]) == 0
        assert "scalar engine" in capsys.readouterr().out

    def test_sweep_alpha_grid(self, capsys):
        assert main(["sweep", "--points", "6", "--alphas", "0.5", "1", "2"]) == 0
        output = capsys.readouterr().out
        assert "alpha_0.5" in output
        assert "alpha_2" in output

    def test_sweep_alpha_grid_rejects_scalar_engine(self, capsys):
        assert main(["sweep", "--alphas", "1", "2", "--engine", "scalar"]) == 2
        assert "batch engine" in capsys.readouterr().err

    def test_run_grid_experiment(self, capsys):
        assert main(["run", "grid", "--points", "12"]) == 0
        output = capsys.readouterr().out
        assert "Budget x alpha grid" in output
        assert "J_alpha_1" in output


class TestFleetCommand:
    def test_fleet_closed_loop_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fleet.csv"
        assert main([
            "fleet", "--hours", "48", "--alphas", "1.0", "2.0",
            "--exposures", "0.032", "0.05", "--csv", str(csv_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "Fleet campaign" in output
        assert "16 campaign cells" in output
        assert "exposure=0.05" in output
        assert csv_path.exists()
        assert "final_battery_J" in csv_path.read_text()

    def test_fleet_open_loop(self, capsys):
        assert main([
            "fleet", "--hours", "24", "--alphas", "1.0",
            "--baselines", "DP1", "--open-loop",
        ]) == 0
        assert "open loop" in capsys.readouterr().out

    def test_fleet_rejects_bad_hours(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            main(["fleet", "--hours", "0"])


class TestServeAndRemoteFleet:
    def test_serve_parser_worker_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.campaign_workers == 1
        assert not hasattr(args, "workers")
        args = build_parser().parse_args(["serve", "--campaign-workers", "2"])
        assert args.campaign_workers == 2

    def test_fleet_remote_rejects_jobs(self, capsys):
        assert main([
            "fleet", "--remote", "127.0.0.1:1", "--jobs", "2",
        ]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_fleet_remote_rejects_bad_address(self, capsys):
        assert main(["fleet", "--remote", "nocolonhere"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_fleet_remote_reports_connection_failure(self, capsys):
        assert main(["fleet", "--remote", "127.0.0.1:1", "--hours", "24"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_fleet_remote_round_trip(self, tmp_path, capsys):
        from repro.service.server import AllocationService, start_in_thread

        service = AllocationService(window_s=0.001, campaign_workers=1)
        csv_path = tmp_path / "remote.csv"
        with start_in_thread(service) as server:
            code = main([
                "fleet", "--remote", f"127.0.0.1:{server.port}",
                "--hours", "24", "--alphas", "1.0", "--baselines", "DP1",
                "--csv", str(csv_path),
            ])
        service.close()
        assert code == 0
        output = capsys.readouterr().out
        assert "simulated remotely" in output
        assert "REAP" in output
        assert csv_path.read_text().count("\n") == 3  # header + 2 cells


class TestPlanCommand:
    def test_plan_command_prints_the_study(self, tmp_path, capsys):
        csv_path = tmp_path / "plan.csv"
        assert main([
            "plan", "--hours", "48", "--horizon", "8",
            "--forecasts", "perfect", "persistence",
            "--csv", str(csv_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "Planning study" in output
        assert "Horizon8-perfect" in output
        assert "Horizon8-persistence" in output
        assert "harvest-following REAP baseline" in output
        assert csv_path.exists()

    def test_plan_command_mpc(self, capsys):
        assert main([
            "plan", "--planner", "mpc", "--hours", "24", "--horizon", "6",
            "--forecasts", "perfect",
        ]) == 0
        assert "MPC6-perfect" in capsys.readouterr().out

    def test_plan_parser_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.planner == "horizon"
        assert args.horizon == 24
        assert args.forecasts == ["perfect", "persistence", "noisy"]

    def test_list_mentions_plan(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "plan" in output
        assert "forecast-driven" in output


class TestFleetPlanningFlags:
    def test_fleet_with_planners(self, capsys):
        assert main([
            "fleet", "--hours", "24", "--alphas", "1.0",
            "--baselines", "DP1", "--planners", "horizon", "mpc",
            "--horizon", "6", "--forecast", "noisy",
        ]) == 0
        output = capsys.readouterr().out
        assert "Horizon6-noisy" in output
        assert "MPC6-noisy" in output
        assert "4 campaign cells" in output

    def test_fleet_remote_with_planners(self, capsys):
        from repro.service.server import AllocationService, start_in_thread

        service = AllocationService(window_s=0.001, campaign_workers=1)
        with start_in_thread(service) as server:
            code = main([
                "fleet", "--remote", f"127.0.0.1:{server.port}",
                "--hours", "24", "--alphas", "1.0", "--baselines", "DP1",
                "--planners", "horizon", "--horizon", "6",
            ])
        service.close()
        assert code == 0
        output = capsys.readouterr().out
        assert "Horizon6-perfect" in output
        assert "simulated remotely" in output

    def test_fleet_rejects_planners_with_open_loop(self, capsys):
        assert main([
            "fleet", "--hours", "24", "--open-loop", "--planners", "horizon",
        ]) == 2
        assert "closed-loop" in capsys.readouterr().err
