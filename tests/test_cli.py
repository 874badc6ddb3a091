"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "fig7", "--scale", "tiny", "--seed", "3"]
        )
        assert args.figure == "fig7"
        assert args.scale == "tiny"
        assert args.seed == 3

    def test_run_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 10
        assert args.policy == "ig-el"

    @pytest.mark.parametrize("command", ["run", "compare", "batch", "validate"])
    def test_engine_flags_everywhere(self, command):
        argv = [command, "--engine", "persistent", "--workers", "3", "--verbose"]
        if command == "run":
            argv.insert(1, "fig7")
        args = build_parser().parse_args(argv)
        assert args.engine == "persistent"
        assert args.workers == 3
        assert args.verbose is True

    def test_engine_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7", "--engine", "warp"])


class TestCommands:
    def test_figures_lists_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "fig14" in out

    def test_policies_lists_all(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "ig-eg" in out and "no-redistribution" in out

    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--n", "4",
                "--p", "16",
                "--mtbf-years", "0.02",
                "--m-inf", "6000",
                "--m-sup", "10000",
                "--policy", "stf-el",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_simulate_fault_free(self, capsys):
        code = main(
            [
                "simulate",
                "--n", "3",
                "--p", "12",
                "--m-inf", "6000",
                "--m-sup", "10000",
                "--fault-free",
            ]
        )
        assert code == 0
        assert "failures=0" in capsys.readouterr().out

    def test_simulate_gantt_and_exports(self, capsys, tmp_path):
        json_path = tmp_path / "run.json"
        csv_path = tmp_path / "events.csv"
        code = main(
            [
                "simulate",
                "--n", "3",
                "--p", "12",
                "--mtbf-years", "0.02",
                "--m-inf", "6000",
                "--m-sup", "10000",
                "--gantt",
                "--json", str(json_path),
                "--trace-csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=" in out  # gantt header
        assert json_path.exists()
        assert csv_path.read_text().startswith("time,kind,task,detail")

    def test_run_with_plot_and_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        json_path = tmp_path / "fig.json"
        code = main(
            [
                "run", "fig12",
                "--scale", "tiny",
                "--plot",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out  # the ASCII chart was drawn
        assert csv_path.exists() and json_path.exists()

    def test_pack_partitions(self, capsys):
        code = main(
            [
                "pack",
                "--n", "8",
                "--p", "8",
                "--k", "2",
                "--mtbf-years", "0.5",
                "--m-inf", "5000",
                "--m-sup", "20000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "first-fit" in out and "oracle's choice" in out

    def test_pack_execute(self, capsys):
        code = main(
            [
                "pack",
                "--n", "6",
                "--p", "8",
                "--k", "2",
                "--mtbf-years", "0.5",
                "--m-inf", "5000",
                "--m-sup", "20000",
                "--execute",
            ]
        )
        assert code == 0
        assert "packs" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        code = main(
            [
                "validate",
                "--n", "2",
                "--p", "8",
                "--mtbf-years", "0.05",
                "--m-inf", "5000",
                "--m-sup", "10000",
                "--samples", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault-free projection: OK" in out
        assert "envelope assumptions: OK" in out

    def test_batch_campaign(self, capsys):
        code = main(
            [
                "batch",
                "--n", "5",
                "--p", "8",
                "--mtbf-years", "0.5",
                "--m-inf", "4000",
                "--m-sup", "12000",
                "--mean-interarrival", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch[all]" in out and "batch 0:" in out

    def test_batch_fixed_size(self, capsys):
        code = main(
            [
                "batch",
                "--n", "4",
                "--p", "8",
                "--mtbf-years", "0.5",
                "--m-inf", "4000",
                "--m-sup", "12000",
                "--batch-size", "2",
            ]
        )
        assert code == 0
        assert "batch[fixed]" in capsys.readouterr().out

    def test_batch_replicates_through_engine(self, capsys):
        code = main(
            [
                "batch",
                "--n", "4",
                "--p", "8",
                "--mtbf-years", "0.5",
                "--m-inf", "4000",
                "--m-sup", "12000",
                "--mean-interarrival", "0",
                "--replicates", "2",
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replicate 0:" in out and "replicate 1:" in out
        assert "campaign makespan over 2 fault draws" in out
        assert "engine[serial]:" in out and "tasks submitted: 2" in out

    def test_run_verbose_prints_engine_stats(self, capsys):
        code = main(
            ["run", "fig10", "--scale", "tiny", "--verbose"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine[serial]:" in out
        assert "reused workloads" in out
        assert "columns evaluated:" in out
        assert "window extensions:" in out

    def test_validate_with_engine(self, capsys):
        code = main(
            [
                "validate",
                "--n", "2",
                "--p", "8",
                "--mtbf-years", "0.05",
                "--m-inf", "5000",
                "--m-sup", "10000",
                "--samples", "60",
                "--engine", "serial",
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Eq.(4) task 0: OK" in out
        assert "engine[serial]:" in out

    def test_ratios(self, capsys):
        code = main(
            [
                "ratios",
                "--n", "4",
                "--p", "12",
                "--mtbf-years", "0.1",
                "--m-inf", "5000",
                "--m-sup", "15000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio=" in out and "best policy" in out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--n", "4",
                "--p", "12",
                "--mtbf-years", "0.02",
                "--m-inf", "4000",
                "--m-sup", "10000",
                "--replicates", "3",
                "--policies", "ig-el", "stf-el",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy comparison" in out and "sign-test p" in out
