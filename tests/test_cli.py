"""Tests for the command-line interface."""

import pytest

from repro.analysis.validate import DEFAULT_CASES
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_delay_accepts_inf(self):
        args = build_parser().parse_args(
            ["optimize", "--q", "0.05", "--c", "0.01",
             "--update-cost", "10", "--poll-cost", "1", "--max-delay", "inf"]
        )
        assert args.max_delay == float("inf")

    def test_delay_accepts_int(self):
        args = build_parser().parse_args(
            ["optimize", "--q", "0.05", "--c", "0.01",
             "--update-cost", "10", "--poll-cost", "1", "--max-delay", "3"]
        )
        assert args.max_delay == 3


class TestOptimizeCommand:
    def test_reproduces_table2_row(self, capsys):
        code = main(
            ["optimize", "--model", "2d-exact", "--q", "0.05", "--c", "0.01",
             "--update-cost", "100", "--poll-cost", "10", "--max-delay", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal d*:       2" in out
        assert "1.335" in out

    def test_annealing_method(self, capsys):
        code = main(
            ["optimize", "--model", "1d", "--q", "0.05", "--c", "0.01",
             "--update-cost", "20", "--poll-cost", "10", "--max-delay", "1",
             "--method", "annealing", "--d-max", "30"]
        )
        assert code == 0
        assert "optimal d*" in capsys.readouterr().out

    def test_parameter_error_exit_code(self, capsys):
        code = main(
            ["optimize", "--q", "2.0", "--c", "0.01",
             "--update-cost", "10", "--poll-cost", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_comma_list_axes(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--model", "2d-approx", "--vary", "U=20,50",
             "--vary", "m=1,inf", "--d-max", "15", "--no-cache",
             "--csv", str(csv_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 x 2 = 4 points" in out
        assert "serial solve" in out
        assert csv_path.exists()
        assert len(csv_path.read_text().strip().splitlines()) == 5

    def test_range_spec_and_cache(self, capsys, tmp_path):
        argv = ["sweep", "--model", "1d", "--vary", "q=0.05:0.2:4",
                "--d-max", "12", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "serial solve" in capsys.readouterr().out
        assert main(argv) == 0
        assert "source: cache" in capsys.readouterr().out

    def test_log_range_spec(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--vary", "U=10:1000:3:log",
             "--d-max", "12", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "100.000" in out

    def test_deep_sweep_solves_past_dense_overflow(self, capsys):
        # The dense recursion overflows near d ~ 760; the default solver
        # cuts over to the banded LU, so no flag is needed at d_max 1000.
        code = main(
            ["sweep", "--model", "2d-exact", "--vary", "U=20,100",
             "--d-max", "1000", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 = 2 points, d_max=1000" in out

    def test_bad_vary_spec_exit_code(self, capsys):
        code = main(["sweep", "--vary", "U", "--no-cache"])
        assert code == 2
        assert "PARAM=SPEC" in capsys.readouterr().err

    def test_duplicate_axis_exit_code(self, capsys):
        code = main(
            ["sweep", "--vary", "q=0.1", "--vary", "q=0.2", "--no-cache"]
        )
        assert code == 2
        assert "more than once" in capsys.readouterr().err

    def test_exhaustive_scalar_optimize_method(self, capsys):
        code = main(
            ["optimize", "--model", "2d-exact", "--q", "0.05", "--c", "0.01",
             "--update-cost", "100", "--poll-cost", "10", "--max-delay", "3",
             "--method", "exhaustive-scalar", "--d-max", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal d*:       2" in out
        assert "1.335" in out


class TestTableCommands:
    def test_table1_output_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "t1.csv"
        code = main(["table1", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "0.527" in out  # U=20, delay 1
        assert csv_path.exists()
        assert len(csv_path.read_text().splitlines()) == 29  # header + 28 rows


class TestFigureCommands:
    def test_fig4_small(self, capsys):
        code = main(["fig4", "--dimensions", "1", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure4a" in out
        assert "max delay = 1" in out

    def test_fig5_no_plot(self, capsys, tmp_path):
        csv_path = tmp_path / "f5.csv"
        code = main(
            ["fig5", "--dimensions", "2", "--points", "4",
             "--no-plot", "--csv", str(csv_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "figure5b" in out
        assert "(log x)" not in out
        assert csv_path.exists()


class TestValidateCommand:
    def test_small_campaign_renders_every_case(self, capsys):
        code = main(["validate", "--slots", "3000", "--replications", "2"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "Model-vs-simulation validation campaign"
        assert "95% CI" in lines[1]
        rows = lines[3:]
        assert [row.split()[0] for row in rows] == [
            case.label for case in DEFAULT_CASES
        ]
        # Exit 1 exactly when some case disagrees at this tiny budget.
        assert code == (1 if any(row.split()[-1] == "NO" for row in rows) else 0)


class TestSimulateCommand:
    def test_simulate_runs(self, capsys):
        code = main(
            ["simulate", "--dimensions", "1", "--q", "0.1", "--c", "0.02",
             "--threshold", "2", "--slots", "5000", "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean C_T" in out

    def test_workers_do_not_change_output(self, capsys):
        base_args = [
            "simulate", "--dimensions", "1", "--q", "0.1", "--c", "0.02",
            "--threshold", "2", "--slots", "3000", "--replications", "3",
            "--seed", "5",
        ]
        assert main(base_args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(base_args + ["--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert pooled_out == serial_out

    def test_bad_worker_count_is_parameter_error(self, capsys):
        code = main(
            ["simulate", "--dimensions", "1", "--q", "0.1", "--c", "0.02",
             "--threshold", "2", "--slots", "100", "--replications", "2",
             "--workers", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFleetCommand:
    BASE = [
        "fleet", "--terminals", "250", "--shards", "4", "--slots", "40",
        "--workers", "1", "--seed", "9", "--population-seed", "3",
    ]

    def test_runs_and_reports(self, capsys):
        code = main(self.BASE)
        out = capsys.readouterr().out
        assert code == 0
        assert "250 terminals, 4 shards" in out
        assert "mean C_T / slot:" in out
        assert "Per-profile breakdown" in out
        assert "within budget" in out

    def test_shard_count_does_not_change_output(self, capsys):
        assert main(self.BASE) == 0
        sharded = capsys.readouterr().out
        assert main(
            [arg if arg != "4" else "1" for arg in self.BASE]
        ) == 0
        single = capsys.readouterr().out
        # Timing and shard-count lines differ; the physics must not.
        pick = [
            line for line in sharded.splitlines()
            if line.startswith(("mean C_", "  mean C_", "mean page"))
        ]
        assert pick == [
            line for line in single.splitlines()
            if line.startswith(("mean C_", "  mean C_", "mean page"))
        ]

    def test_json_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        code = main(self.BASE + ["--json", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["config"]["terminals"] == 250
        assert report["rss_within_budget"] is True
        assert "wrote JSON report" in capsys.readouterr().out

    def test_bad_shard_count_is_parameter_error(self, capsys):
        code = main(self.BASE + ["--shards", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_thresholds_past_the_code_tables_exit_2(self, capsys):
        # Costs this lopsided drive the profiles' optimal thresholds to
        # 188, 960 and 1100: plan rows of 2203**2 packed codes each.
        code = main(self.BASE + [
            "--update-cost", "1e300", "--poll-cost", "1e-300", "--d-max", "1100",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "packed cell codes" in err
        assert "give the fleet smaller or fewer distinct thresholds" in err
        assert "SimulationEngine" not in err


class TestSpeedCommand:
    def test_reports_throughput_and_json(self, capsys, tmp_path):
        path = tmp_path / "speed.json"
        code = main(
            ["speed", "--dimensions", "2", "--engine-slots", "500",
             "--vector-slots", "100", "--terminals", "32",
             "--json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "per-cell engine:" in out
        assert "speedup:" in out
        import json

        payload = json.loads(path.read_text())
        assert payload["speedup"] > 0
        assert payload["vectorized"]["terminals"] == 32


class TestSoftDelayCommand:
    def test_runs_and_reports(self, capsys):
        code = main(
            ["soft-delay", "--model", "2d-exact", "--q", "0.1", "--c", "0.02",
             "--update-cost", "50", "--poll-cost", "5", "--penalty", "10",
             "--d-max", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "partition:" in out
        assert "delay cost:" in out

    def test_square_model_available(self, capsys):
        code = main(
            ["soft-delay", "--model", "square-exact", "--q", "0.1", "--c", "0.02",
             "--update-cost", "20", "--poll-cost", "2", "--penalty", "1",
             "--d-max", "15"]
        )
        assert code == 0


class TestCompareCommand:
    def test_single_point_tournament(self, capsys):
        code = main(
            ["compare", "--model", "2d-exact", "--q", "0.05", "--c", "0.01",
             "--update-cost", "50", "--poll-cost", "2", "--d-max", "25",
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scheme tournament" in out
        for scheme in ("distance", "movement", "timer", "location-area",
                       "jointly-optimal"):
            assert scheme in out
        assert "wins:" in out

    def test_grid_with_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "tournament.json"
        csv_path = tmp_path / "tournament.csv"
        code = main(
            ["compare", "--model", "1d", "--vary", "U=20,100",
             "--vary", "m=1,2", "--q", "0.2", "--c", "0.02", "--d-max", "25",
             "--no-cache", "--json", str(json_path), "--csv", str(csv_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 x 2 = 4 points" in out
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert len(payload["points"]) == 4
        assert sum(payload["winner_counts"].values()) == 4
        header = csv_path.read_text().splitlines()[0]
        assert "winner" in header

    def test_scheme_subset(self, capsys):
        code = main(
            ["compare", "--model", "1d", "--q", "0.2", "--c", "0.02",
             "--d-max", "20", "--no-cache", "--schemes", "timer,movement"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "location-area" not in out
        assert "timer" in out

    def test_bad_vary_spec_is_an_error(self, capsys):
        code = main(
            ["compare", "--model", "1d", "--vary", "bogus",
             "--q", "0.2", "--c", "0.02", "--no-cache"]
        )
        assert code == 2

    def test_non_numeric_axis_value_is_an_error(self, capsys):
        code = main(
            ["compare", "--model", "1d", "--vary", "U=20,nope",
             "--q", "0.2", "--c", "0.02", "--no-cache"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestShowCommand:
    def test_rings(self, capsys):
        code = main(["show", "rings", "--threshold", "2"])
        out = capsys.readouterr().out
        assert code == 0
        body = "\n".join(out.splitlines()[1:])  # drop the header line
        assert body.count("0") == 1
        assert body.count("2") == 12

    def test_paging(self, capsys):
        code = main(["show", "paging", "--threshold", "3", "--max-delay", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Polling cycle" in out
        assert "1" in out and "2" in out

    def test_occupancy(self, capsys):
        code = main(["show", "occupancy", "--threshold", "3", "--q", "0.2", "--c", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "@" in out


class TestMetricsCommand:
    def test_reports_all_quantities(self, capsys):
        code = main(
            ["metrics", "--model", "2d-exact", "--q", "0.05", "--c", "0.01",
             "--threshold", "2", "--max-delay", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for field in (
            "update rate", "mean fix gap", "register staleness",
            "cells polled per call", "polling cycles per call",
        ):
            assert field in out

    def test_unbounded_delay(self, capsys):
        code = main(
            ["metrics", "--model", "1d", "--q", "0.1", "--c", "0.02",
             "--threshold", "4", "--max-delay", "inf"]
        )
        assert code == 0


class TestPolicyCommand:
    def test_stdout_json(self, capsys):
        code = main(
            ["policy", "--model", "2d-exact", "--q", "0.05", "--c", "0.01",
             "--update-cost", "100", "--poll-cost", "10", "--max-delay", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        import json

        payload = json.loads(out)
        assert payload["threshold"] == 2  # Table 2, U=100, delay 3
        assert payload["topology"] == "hex"

    def test_file_output_roundtrips(self, capsys, tmp_path):
        from repro import Policy

        path = tmp_path / "p.json"
        code = main(
            ["policy", "--model", "1d", "--q", "0.05", "--c", "0.01",
             "--update-cost", "20", "--poll-cost", "10", "--max-delay", "2",
             "--output", str(path)]
        )
        assert code == 0
        policy = Policy.load(path)
        assert policy.threshold == 1  # Table 1, U=20, delay 2


class TestFaultsCommand:
    def test_reports_degradation_vs_baseline(self, capsys):
        code = main(
            ["faults", "--loss", "0.2", "--outage-rate", "0.01",
             "--slots", "4000", "--replications", "2", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault-free" in out and "faulted" in out
        assert "UpdateLoss(probability=0.2)" in out
        assert "recovery_pagings" in out

    def test_json_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "faults.json"
        code = main(
            ["faults", "--loss", "0.3", "--slots", "3000",
             "--replications", "2", "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["config"]["faults"]
        assert payload["faulted"]["mean_total_cost"] > 0
        assert payload["degradation"]["cost"] is not None

    def test_fault_free_run_is_flat(self, capsys):
        # No fault flags: the faulted campaign IS the baseline.
        code = main(
            ["faults", "--slots", "3000", "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults:            none" in out

    @pytest.mark.parametrize("replications", ["0", "-1"])
    def test_fewer_than_one_replication_exits_2(self, capsys, replications):
        assert main(["faults", "--slots", "100", "--replications", replications]) == 2
        assert "replications must be >= 1" in capsys.readouterr().err


class TestSweepErrorPaths:
    def test_range_count_below_two(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--vary", "q=0.1:0.2:1", "--no-cache"]
        )
        assert code == 2
        assert "count >= 2" in capsys.readouterr().err

    def test_malformed_range_spec(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--vary", "q=0.1:0.2:3:cubic",
             "--no-cache"]
        )
        assert code == 2
        assert "bad range spec" in capsys.readouterr().err

    def test_log_range_rejects_nonpositive_endpoints(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--vary", "U=0:100:3:log",
             "--no-cache"]
        )
        assert code == 2
        assert "positive endpoints" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize(
        "spec, detail",
        [
            ("m=1:inf:3", "finite endpoints"),
            ("m=1:2:5", "repeated delay bounds [1, 2]"),
            ("m=1.5", "got '1.5'"),
        ],
    )
    def test_delay_axis_takes_positive_integers_or_inf(
        self, capsys, command, spec, detail
    ):
        code = main(
            [command, "--model", "1d", "--vary", spec, "--d-max", "10",
             "--no-cache"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "axis 'm' takes positive integers or inf" in err
        assert detail in err

    def test_empty_value_list(self, capsys):
        code = main(
            ["sweep", "--model", "1d", "--vary", "q=, ,", "--no-cache"]
        )
        assert code == 2
        assert "empty value list" in capsys.readouterr().err

    def test_cache_schema_version_mismatch_is_refused(self, capsys, tmp_path):
        import json as json_module

        argv = ["sweep", "--model", "1d", "--vary", "q=0.05,0.1",
                "--d-max", "12", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        (cache_file,) = tmp_path.glob("grid-*.json")
        payload = json_module.loads(cache_file.read_text())
        payload["fingerprint"]["version"] = -1
        cache_file.write_text(json_module.dumps(payload))
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "schema version" in err
        assert "--no-cache" in err

    def test_unpicklable_plan_factory_with_workers(self):
        from repro.analysis.sweep import grid_sweep
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="picklable plan_factory"):
            grid_sweep(
                "1d",
                {"q": [0.05, 0.1]},
                d_max=10,
                workers=2,
                plan_factory=lambda d, m: None,
            )


class TestObservabilityFlags:
    SIMULATE = [
        "simulate", "--dimensions", "1", "--q", "0.1", "--c", "0.02",
        "--threshold", "2", "--slots", "1000", "--replications", "2",
        "--seed", "3",
    ]

    def test_metrics_out_writes_provenance_stamped_artifact(
        self, capsys, tmp_path
    ):
        from repro.observability import read_artifact

        path = tmp_path / "m.json"
        code = main(self.SIMULATE + ["--metrics-out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean C_T" in out
        assert f"wrote metrics artifact to {path}" in out
        artifact = read_artifact(path)
        assert artifact["provenance"]["command"] == "simulate"
        assert artifact["provenance"]["seed"] == 3
        assert artifact["provenance"]["params_fingerprint"]
        names = {record["name"] for record in artifact["metrics"]}
        assert "updates_total" in names
        assert "update_cost_total" in names
        assert any(span.name == "simulate.replication"
                   for span in artifact["spans"])

    def test_metrics_out_does_not_change_simulate_output(self, capsys,
                                                         tmp_path):
        assert main(self.SIMULATE) == 0
        plain = capsys.readouterr().out
        assert main(
            self.SIMULATE + ["--metrics-out", str(tmp_path / "m.json")]
        ) == 0
        observed = capsys.readouterr().out
        assert plain in observed

    def test_trace_prints_span_table(self, capsys):
        code = main(self.SIMULATE + ["--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Trace spans" in out
        assert "simulate.run_replicated" in out

    def test_sweep_metrics_out(self, capsys, tmp_path):
        from repro.observability import read_artifact

        path = tmp_path / "sweep-metrics.json"
        code = main(
            ["sweep", "--model", "1d", "--vary", "q=0.05,0.1",
             "--d-max", "12", "--no-cache", "--metrics-out", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        artifact = read_artifact(path)
        assert artifact["provenance"]["command"] == "sweep"
        names = {record["name"] for record in artifact["metrics"]}
        assert "sweep_cache_misses_total" not in names  # --no-cache skips it
        assert "analytic_solves_total" in names

    def test_metrics_summarize_renders_artifact(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        assert main(self.SIMULATE + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        code = main(["metrics", "summarize", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Provenance" in out
        assert "Metrics" in out
        assert "updates_total" in out

    def test_metrics_summarize_missing_file(self, capsys, tmp_path):
        code = main(["metrics", "summarize", str(tmp_path / "missing.json")])
        assert code == 2
        assert "unreadable" in capsys.readouterr().err

    def test_metrics_without_flags_or_subcommand_errors(self, capsys):
        code = main(["metrics"])
        assert code == 2
        assert "metrics summarize" in capsys.readouterr().err


class TestConformanceCommand:
    # Approximate chains draw no simulation configs, so this scope
    # keeps the command purely analytic (fast).
    FAST = ["conformance", "--suite", "quick", "--models", "2d-approx", "--seed", "3"]

    def test_quick_suite_passes(self, capsys):
        code = main(self.FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "Conformance suite 'quick'" in out
        assert "0 failed" in out
        assert "approx-tracks-exact" in out

    def test_report_artifact_written(self, capsys, tmp_path):
        from repro.conformance import read_report

        path = tmp_path / "conformance.jsonl"
        code = main(self.FAST + ["--report", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote conformance report" in out
        artifact = read_report(path)
        assert artifact["provenance"]["command"] == "conformance"
        assert artifact["provenance"]["seed"] == 3
        assert {c["params"]["model"] for c in artifact["checks"]} == {"2d-approx"}

    def test_unknown_model_is_a_parameter_error(self, capsys):
        code = main(["conformance", "--models", "tesseract"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conformance", "--suite", "leisurely"])
