"""Tests for the CLI mobility surface: simulate --mobility and approx."""

import json

import pytest

from repro.cli import build_parser, main


class TestSimulateMobilityFlags:
    def test_mobility_defaults_to_uniform(self):
        args = build_parser().parse_args(
            ["simulate", "--q", "0.2", "--c", "0.02", "--threshold", "2"]
        )
        assert args.mobility == "uniform"
        assert args.drift == pytest.approx(0.4)

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--q", "0.2", "--c", "0.02",
                 "--threshold", "2", "--mobility", "levy-flight"]
            )

    def test_ctrw_requires_two_dimensions(self, capsys):
        code = main(
            ["simulate", "--dimensions", "1", "--q", "0.2", "--c", "0.02",
             "--threshold", "2", "--mobility", "ctrw-exp",
             "--slots", "100", "--replications", "1"]
        )
        assert code == 2
        assert "dimensions 2" in capsys.readouterr().err

    def test_ctrw_per_cell_backend(self, capsys):
        code = main(
            ["simulate", "--q", "0.2", "--c", "0.02", "--threshold", "2",
             "--mobility", "ctrw-hyper", "--slots", "400",
             "--replications", "2", "--warmup", "50"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mobility:         ctrw-hyper" in out
        assert "mean C_T" in out

    def test_uniform_output_unchanged(self, capsys):
        code = main(
            ["simulate", "--q", "0.2", "--c", "0.02", "--threshold", "2",
             "--slots", "400", "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mobility:" not in out


class TestApproxCommand:
    def test_table_and_convergence_column(self, capsys):
        code = main(
            ["approx", "--slots", "600", "--terminals", "64",
             "--warmup", "100", "--models", "uniform,ctrw-exp"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "uniform" in out
        assert "ctrw-exp" in out
        assert "converges" in out

    def test_rejects_unknown_model(self, capsys):
        code = main(
            ["approx", "--slots", "200", "--terminals", "32",
             "--models", "uniform,teleport"]
        )
        assert code != 0

    def test_zero_slots_is_an_error(self, capsys):
        code = main(["approx", "--slots", "0", "--terminals", "32"])
        captured = capsys.readouterr()
        assert code == 2
        assert "slots must be >= 1" in captured.err
        assert "converges" not in captured.out

    def test_invalid_chain_exits_2_before_simulating(self, monkeypatch, capsys):
        from repro.simulation import vectorized

        def refuse(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(vectorized, "VectorizedDistanceEngine", refuse)
        code = main(["approx", "--q", "0.7", "--slots", "50", "--terminals", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "'ctrw-fixed'" in captured.err and "q <= 2/3" in captured.err
        assert "converges" not in captured.out

    def test_repeated_model_is_an_error(self, capsys):
        code = main(
            ["approx", "--slots", "50", "--terminals", "16",
             "--models", "uniform,uniform"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "more than once" in captured.err
        assert "converges" not in captured.out

    def test_report_artifact_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "approx.jsonl"
        code = main(
            ["approx", "--slots", "400", "--terminals", "48",
             "--warmup", "50", "--models", "uniform,ctrw-fixed",
             "--report", str(path)]
        )
        assert code == 0
        from repro.observability.export import read_artifact

        loaded = read_artifact(path)
        rows = loaded["approximations"]
        assert [r["mobility"] for r in rows] == ["uniform", "ctrw-fixed"]
        for row in rows:
            # read_artifact dispatches on (and strips) the "kind" field.
            assert row["exact_cost"] > 0
        raw_kinds = {json.loads(line)["kind"] for line in path.read_text().splitlines()}
        assert "approximation" in raw_kinds
        assert loaded["provenance"]["command"] == "approx"

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "approx.csv"
        code = main(
            ["approx", "--slots", "300", "--terminals", "32",
             "--warmup", "50", "--models", "uniform", "--csv", str(path)]
        )
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert "mobility" in header
        assert "deviation" in header
