"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_select_args(self):
        args = build_parser().parse_args(
            ["select", "--dataset", "german", "--algorithm", "seqsel",
             "--alpha", "0.05", "--seed", "3"])
        assert args.dataset == "german"
        assert args.algorithm == "seqsel"
        assert args.alpha == 0.05
        assert args.seed == 3

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "--dataset", "nope"])

    def test_select_tester_and_subsets_flags(self):
        args = build_parser().parse_args(
            ["select", "--dataset", "german", "--tester", "gtest",
             "--subsets", "greedy"])
        assert args.tester == "gtest"
        assert args.subsets == "greedy"
        # Defaults preserve the historical behaviour.
        args = build_parser().parse_args(["select", "--dataset", "german"])
        assert args.tester == "adaptive"
        assert args.subsets is None

    def test_unknown_tester_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["select", "--dataset", "german", "--tester", "nope"])

    def test_stream_args(self):
        args = build_parser().parse_args(
            ["stream", "--dataset", "german", "--batches", "4",
             "--rows-per-batch", "50", "--delta", "off",
             "--tester", "gtest"])
        assert args.dataset == "german"
        assert args.batches == 4
        assert args.rows_per_batch == 50
        assert args.delta == "off"

    def test_stream_delta_defaults_to_column(self):
        args = build_parser().parse_args(["stream", "--dataset", "german"])
        assert args.delta == "column"
        assert args.rows_per_batch is None

    def test_stream_unknown_delta_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", "--dataset", "german", "--delta", "sometimes"])

    def test_suite_args(self):
        args = build_parser().parse_args(
            ["suite", "--datasets", "german", "compas",
             "--algorithms", "grpsel", "seqsel",
             "--classifiers", "logistic", "tree",
             "--jobs", "3", "--store", "cache-dir"])
        assert args.datasets == ["german", "compas"]
        assert args.algorithms == ["grpsel", "seqsel"]
        assert args.classifiers == ["logistic", "tree"]
        assert args.jobs == 3
        assert args.store == "cache-dir"

    def test_suite_jobs_default_inline(self):
        args = build_parser().parse_args(["suite", "--datasets", "german"])
        assert args.jobs == 1

    @pytest.mark.parametrize("command", ["select", "evaluate", "stream"])
    def test_jobs_is_suite_only(self, command, capsys):
        """CI batches shard through REPRO_CI_EXECUTOR/REPRO_CI_JOBS, not
        a per-command flag that never reached a pool."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--dataset", "german", "--jobs", "2"])
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("german", "compas", "adult", "meps1", "meps2"):
            assert name in out

    def test_select_german(self, capsys):
        assert main(["select", "--dataset", "german"]) == 0
        out = capsys.readouterr().out
        assert "GrpSel" in out
        assert "selected" in out
        assert "rejected" in out

    def test_select_seqsel(self, capsys):
        assert main(["select", "--dataset", "german",
                     "--algorithm", "seqsel"]) == 0
        assert "SeqSel" in capsys.readouterr().out

    def test_evaluate_prints_method_table(self, capsys):
        assert main(["evaluate", "--dataset", "german",
                     "--n-train", "1000"]) == 0
        out = capsys.readouterr().out
        for method in ("GrpSel", "SeqSel", "ALL", "Hamlet"):
            assert method in out
        assert "accuracy" in out

    def test_select_with_tester_and_subsets(self, capsys):
        assert main(["select", "--dataset", "german", "--tester", "gtest",
                     "--subsets", "marginal+full"]) == 0
        assert "GrpSel" in capsys.readouterr().out

    def test_stream_prints_per_batch_table(self, capsys):
        assert main(["stream", "--dataset", "german", "--batches", "3",
                     "--tester", "gtest"]) == 0
        out = capsys.readouterr().out
        assert "delta=column" in out
        for column in ("batch", "n_ci_tests", "cache_hits", "rows"):
            assert column in out
        assert "OnlineSeqSel" in out

    def test_stream_with_row_growth_and_store(self, capsys, tmp_path):
        argv = ["stream", "--dataset", "german", "--batches", "4",
                "--rows-per-batch", "50", "--tester", "gtest",
                "--delta", "off", "--store", str(tmp_path / "runs")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "delta=off" in out
        assert "4 batches" in out
        # A warm rerun over the same store answers every query from it.
        assert main(argv) == 0
        assert "delta=off" in capsys.readouterr().out

    def test_stream_rejects_impossible_row_budget(self):
        with pytest.raises(SystemExit, match="rows"):
            main(["stream", "--dataset", "german", "--batches", "4",
                  "--rows-per-batch", "100000", "--tester", "gtest"])

    def test_suite_runs_legs_and_reports_table(self, capsys, tmp_path):
        argv = ["suite", "--datasets", "german", "compas",
                "--algorithms", "grpsel", "seqsel", "--tester", "gtest",
                "--n-train", "150", "--n-test", "60",
                "--jobs", "1", "--store", str(tmp_path / "suite")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 legs" in out
        for cell in ("german", "compas", "GrpSel", "SeqSel", "n_ci_tests"):
            assert cell in out
        # A warm rerun over the same store reports the same table while
        # executing nothing (recorded selections replay).
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "4 legs" in warm
