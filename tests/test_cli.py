import json
import math

import pytest

from auglag import cli, outer


class TestSolveCommand:
    def test_solve_writes_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["solve", "--problem", "simplex-cos-8", "--eps", "1e-3",
             "--inner", "gd-fixed", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["kkt"]["is_eps_kkt"] is True
        summary = capsys.readouterr().out
        assert "terminated=EpsKKT" in summary

    def test_eps_out_of_range(self):
        assert cli.main(["solve", "--problem", "simplex-cos-8", "--eps", "2"]) == cli.EXIT_USAGE

    def test_unknown_problem(self):
        assert cli.main(["solve", "--problem", "no-such"]) == cli.EXIT_USAGE

    def test_format_both(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(
            ["solve", "--problem", "eq-qp-analytic", "--eps", "1e-4",
             "--format", "both", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "run.json").exists() and (tmp_path / "run.csv").exists()

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.25, "max_outer": 500, "inner": "gd-backtracking"}))
        out = tmp_path / "run"
        code = cli.main(
            ["solve", "--problem", "eq-qp-analytic", "--eps", "1e-4", "--gamma", "0.75",
             "--inner", "cubic-newton", "--config", str(cfg), "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        data = json.loads((tmp_path / "run.json").read_text())
        # the file beats the flags, except for the inner solver
        assert data["config"]["gamma"] == 0.25
        assert data["config"]["max_outer"] == 500
        assert data["config"]["inner"] == "cubic-newton"

    def test_monitor_violation_exit_code(self, tmp_path, monkeypatch):
        def boom(problem, config):
            raise outer.MonitorViolation("forced")

        monkeypatch.setattr(cli.outer, "solve", boom)
        for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
            code = cli.main(
                command + ["--problem", "eq-qp-analytic", "--out", str(tmp_path / "r")]
            )
            assert code == cli.EXIT_MONITOR, command
            assert not (tmp_path / "r.json").exists()

    def test_inner_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(problem, config):
            raise outer.InnerFailure("forced")

        monkeypatch.setattr(cli.outer, "solve", boom)
        code = cli.main(
            ["solve", "--problem", "eq-qp-analytic", "--out", str(tmp_path / "r")]
        )
        assert code == cli.EXIT_SOLVER_FAILURE

    @pytest.mark.parametrize(
        "problem,inner",
        [("dup-eq-8", "cubic-newton"), ("simplex-cos-8", "cubic-newton"),
         ("eq-rosenbrock-8", "gd-fixed")],
    )
    def test_unsupported_inner_is_usage_error(self, tmp_path, caplog, problem, inner):
        code = cli.main(
            ["solve", "--problem", problem, "--inner", inner, "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_USAGE
        assert "usage error" in caplog.text
        assert not (tmp_path / "run.json").exists()

    def test_solve_from_file(self, tmp_path):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({
            "name": "file-eq-cos", "n": 8,
            "objective": {"kind": "quadratic+cos"},
            "A": [[1.0] * 8], "b": [1.0], "m_e": 1, "x0": [0.125] * 8,
            "f_low": -8.0, "L1": 17.0, "L2": 64.0,
        }))
        out = tmp_path / "run"
        code = cli.main(
            ["solve", "--problem", str(prob), "--eps", "1e-3", "--out", str(out)]
        )
        assert code == cli.EXIT_OK

    def test_fixed_step_on_mixed_sign_rows(self, tmp_path, capsys, mixed_sign_file):
        code = cli.main(
            ["solve", "--problem", mixed_sign_file, "--inner", "gd-fixed",
             "--monitor", "strict", "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_OK
        assert "terminated=EpsKKT" in capsys.readouterr().out

    def test_lower_bound_above_start_is_usage_error(self, tmp_path, caplog):
        prob = tmp_path / "prob.json"
        prob.write_text(json.dumps({
            "name": "high-f-low", "n": 2, "objective": {"kind": "quadratic+cos"},
            "A": [[1.0, 1.0]], "b": [1.0], "m_e": 1, "x0": [0.5, 0.5], "f_low": 100,
        }))
        out = tmp_path / "run"
        code = cli.main(["solve", "--problem", str(prob), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert "violates declared lower bound 100" in caplog.text
        assert not (tmp_path / "run.json").exists()


class TestSweepCommand:
    def test_sweep_with_fits(self, tmp_path):
        out = tmp_path / "sw"
        code = cli.main(
            ["sweep", "--problem", "eq-qp-analytic", "--inner", "cubic-newton",
             "--eps-grid", "1e-2,1e-3,1e-4", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        data = json.loads((tmp_path / "sw.json").read_text())
        assert len(data["rows"]) == 3
        assert "fits" in data and "PowerLaw" in data["fits"]

    def test_bad_grid(self):
        code = cli.main(
            ["sweep", "--problem", "eq-qp-analytic", "--eps-grid", "2.0,1e-2"]
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--jobs", "--seed"])
    def test_removed_flag_rejected(self, flag):
        code = cli.main(
            ["sweep", "--problem", "eq-qp-analytic", "--eps-grid", "1e-2", flag, "2"]
        )
        assert code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "overrides,named",
    [
        ({"gama": 0.25}, "'gama'"),
        ({"inner_eps": 1e-4}, "'inner_eps'"),
        ({"require_theta_half": True}, "'require_theta_half'"),
        ({"alpha": "3"}, "'alpha'"),
        ({"max_outer": 10.5}, "'max_outer'"),
        ({"sigma0": True}, "'sigma0'"),
        ({"monitor": 1}, "'monitor'"),
        ([0.25], "JSON object"),
        ({"alpha": math.nan}, "alpha"),
        ({"sigma0": math.nan}, "sigma0"),
        ({"alpha": math.inf}, "alpha"),
        ({"penalty_policy": "linear"}, "penalty_policy"),
    ],
    ids=["unknown", "inner_eps", "require_theta_half", "str-for-float", "float-for-int",
         "bool-for-float", "int-for-str", "not-an-object", "nan-alpha", "nan-sigma0",
         "inf-alpha", "unknown-policy"],
)
def test_bad_config_file_is_usage_error(tmp_path, caplog, overrides, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))  # NaN and Infinity as Python's json writes them
    out = tmp_path / "run"
    for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
        caplog.clear()
        code = cli.main(
            command + ["--problem", "eq-qp-analytic", "--eps", "1e-4",
                       "--config", str(cfg), "--out", str(out)]
        )
        assert code == cli.EXIT_USAGE, command
        assert named in caplog.text, command
        assert not (tmp_path / "run.json").exists()


def test_config_inner_is_checked_under_an_explicit_inner_flag(tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inner": 5}))
    for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
        caplog.clear()
        code = cli.main(
            command + ["--problem", "eq-qp-analytic", "--inner", "gd-fixed",
                       "--config", str(cfg), "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_USAGE, command
        assert "'inner'" in caplog.text, command


def test_flag_defaults_are_the_solver_config_defaults():
    args = cli.build_parser().parse_args(["solve", "--problem", "eq-qp-analytic"])
    for key in outer.CONFIG_KEYS:
        want = "auto" if key == "inner" else getattr(outer.SolverConfig, key)
        assert getattr(args, key) == want, key


def test_sigma_overflow_exits_1(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--problem", "eq-qp-analytic", "--sigma0", "1e17", "--out", str(out)])
    assert code == cli.EXIT_SOLVER_FAILURE
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["terminated"] == "SigmaOverflow" and data["T_outer"] == 0
    code = cli.main(["sweep", "--problem", "eq-qp-analytic", "--sigma0", "1e17",
                     "--eps-grid", "1e-2,1e-3", "--out", str(tmp_path / "sw")])
    assert code == cli.EXIT_SOLVER_FAILURE
    rows = json.loads((tmp_path / "sw.json").read_text())["rows"]
    assert len(rows) == 2 and all(r["failed"] for r in rows)


@pytest.mark.parametrize("flag", ["--problem", "--config"])
def test_directory_as_input_is_usage_error(tmp_path, caplog, flag):
    args = {"--problem": "eq-qp-analytic", flag: str(tmp_path)}
    for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
        caplog.clear()
        argv = command + [item for pair in args.items() for item in pair]
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_USAGE, command
        assert "usage error" in caplog.text and str(tmp_path) in caplog.text, command


class TestCheckCommand:
    def test_corpus_problem_passes(self, capsys):
        code = cli.main(["check", "--problem", "simplex-cos-8", "--samples", "5"])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "feasible_start: pass" in text
        assert "inner cubic-newton: pass" in text


class TestListAndUsage:
    def test_list_problems(self, capsys):
        assert cli.main(["list-problems"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "eq-cos-8" in text and "simplex-cos-8" in text

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert cli.main(["solve", "--problem", "eq-cos-8", "--bogus"]) == cli.EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK


class TestParserReuse:
    def test_one_process_runs_error_solve_and_help(self, tmp_path, capsys):
        assert cli.main(["solve", "--problem", "eq-qp-analytic", "--bogus"]) == cli.EXIT_USAGE
        out = tmp_path / "run"
        code = cli.main(["solve", "--problem", "eq-qp-analytic", "--eps", "1e-4", "--out", str(out)])
        assert code == cli.EXIT_OK
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["problem"] == "eq-qp-analytic" and data["config"]["eps"] == 1e-4
        assert data["kkt"]["is_eps_kkt"] is True
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "usage: auglag" in capsys.readouterr().out

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestReportWriteFailure:
    @pytest.mark.parametrize("command", [
        ["solve", "--problem", "eq-qp-analytic"],
        ["sweep", "--problem", "eq-qp-analytic", "--eps-grid", "1e-2,1e-3"],
    ])
    def test_directory_in_the_way_is_usage_error(self, tmp_path, caplog, capsys, command):
        (tmp_path / "x.json").mkdir()
        code = cli.main(command + ["--out", str(tmp_path / "x")])
        assert code == cli.EXIT_USAGE
        assert str(tmp_path / "x.json") in caplog.text
