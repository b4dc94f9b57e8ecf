import contextlib
import dataclasses
import io
import json
import logging
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from auglag import cli, inner, outer, problems

from conftest import GD_FIXED_REFUSED

# a numpy warning that escapes cli.main would reach the user's stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_out_with_a_report_suffix_names_both_reports(self, tmp_path, suffix):
        code = cli.main(
            ["solve", "--problem", "eq-qp-analytic", "--format", "both", "--out", str(tmp_path / f"run{suffix}")]
        )
        assert code == cli.EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json"]

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
        def boom(*args, **kwargs):
            raise outer.MonitorViolation("forced")

        monkeypatch.setattr(cli.outer, "solve", boom)
        for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
            code = cli.main(
                command + ["--problem", "eq-qp-analytic", "--out", str(tmp_path / "r")]
            )
            assert code == cli.EXIT_MONITOR, command
            assert not (tmp_path / "r.json").exists()

    def test_evaluation_mismatch_exit_code(self, tmp_path, caplog, capsys, monkeypatch):
        # an inner solve whose last evaluation is not at its final iterate
        monkeypatch.setattr(cli.core.Penalty, "last_evaluation", lambda pen: None)
        for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
            caplog.clear()
            code = cli.main(
                command + ["--problem", "eq-qp-analytic", "--out", str(tmp_path / "r")]
            )
            assert code == cli.EXIT_MONITOR, command
            assert "evaluation mismatch" in caplog.text, command
            assert "Traceback" not in capsys.readouterr().err, command
            assert not (tmp_path / "r.json").exists()

    def test_form_disagreement_exit_code(self, tmp_path, caplog, capsys, skewed_forms):
        for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
            caplog.clear()
            code = cli.main(
                command + ["--problem", "eq-qp-analytic", "--out", str(tmp_path / "r")]
            )
            assert code == cli.EXIT_MONITOR, command
            assert "P form disagreement" in caplog.text, command
            assert "Traceback" not in capsys.readouterr().err, command
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
        "problem,inner,extra",
        [
            pytest.param("dup-eq-8", "cubic-newton", [], id="dup-eq-8-cubic-newton"),
            pytest.param("simplex-cos-8", "cubic-newton", [], id="simplex-cos-8-cubic-newton"),
            pytest.param("eq-rosenbrock-8", "gd-fixed", [], id="eq-rosenbrock-8-gd-fixed"),
            # no inner solve runs under these options, and the solver is refused all the same
            pytest.param("simplex-cos-8", "cubic-newton", ["--max-outer", "0"], id="simplex-cos-8-cubic-newton-max-outer-0"),
            pytest.param("simplex-cos-8", "cubic-newton", ["--sigma0", "1e17"], id="simplex-cos-8-cubic-newton-sigma0-1e17"),
            pytest.param("eq-rosenbrock-8", "gd-fixed", ["--max-outer", "0"], id="eq-rosenbrock-8-gd-fixed-max-outer-0"),
        ],
    )
    def test_unsupported_inner_is_usage_error(self, tmp_path, caplog, problem, inner, extra):
        code = cli.main(
            ["solve", "--problem", problem, "--inner", inner, *extra, "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_USAGE
        assert "usage error" in caplog.text
        assert not (tmp_path / "run.json").exists()

    def test_unsupported_inner_fails_every_sweep_row(self, tmp_path):
        code = cli.main(
            ["sweep", "--problem", "simplex-cos-8", "--inner", "cubic-newton", "--eps-grid", "1e-2,1e-3",
             "--out", str(tmp_path / "sweep")]
        )
        assert code == cli.EXIT_SOLVER_FAILURE
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [(r["failed"], r["error"]) for r in rows] == [
            (True, "cubic Newton requires equality-only linear constraints")
        ] * 2

    def test_cubic_newton_without_a_hessian_is_usage_error(self, tmp_path, caplog, monkeypatch):
        # eq-cos-8 has linear equality constraints only, which cubic Newton accepts, but no Hessian here
        real = problems.corpus_problem

        def without_hessian(name):
            p = real(name)
            return dataclasses.replace(p, objective=dataclasses.replace(p.objective, hess_fn=None))

        monkeypatch.setattr(cli.problems, "corpus_problem", without_hessian)
        code = cli.main(
            ["solve", "--problem", "eq-cos-8", "--inner", "cubic-newton", "--out", str(tmp_path / "run")]
        )
        assert code == cli.EXIT_USAGE
        assert "usage error: cubic Newton requires a Hessian oracle" in caplog.text
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

    def test_fit_undefined_on_zero_inner_rows_is_skipped(self, tmp_path, caplog):
        # x0 = 0 is already an eps-KKT point: every row runs 0 inner iterations,
        # so PowerLaw's log(total_inner) is undefined and only LogLinear is fitted
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"name": "zero", "n": 2, "objective": {"kind": "quadratic+cos", "omega": 0.5},
                                    "A": [[1, 1]], "b": [0], "m_e": 1, "x0": [0, 0], "f_low": -2, "L1": 2}))
        code = cli.main(["sweep", "--problem", str(path), "--eps-grid", "1e-1,1e-2,1e-3",
                         "--out", str(tmp_path / "sw")])
        assert code == cli.EXIT_OK
        data = json.loads((tmp_path / "sw.json").read_text())
        assert [row["total_inner"] for row in data["rows"]] == [0, 0, 0]
        assert list(data["fits"]) == ["LogLinear"]
        assert "PowerLaw fit skipped" in caplog.text

    def test_bad_grid(self):
        code = cli.main(
            ["sweep", "--problem", "eq-qp-analytic", "--eps-grid", "2.0,1e-2"]
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--jobs", "--seed", "--penalty-policy"])
    def test_removed_flag_rejected(self, capsys, flag):
        code = cli.main(
            ["sweep", "--problem", "eq-qp-analytic", "--eps-grid", "1e-2", flag, "2"]
        )
        assert code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,named",
    [
        ({"gama": 0.25}, "gama is unknown in --config file"),
        ({"inner_eps": 1e-4}, "inner_eps is unknown in --config file"),
        ({"require_theta_half": True}, "require_theta_half is unknown in --config file"),
        ({"alpha": "3"}, "'alpha'"),
        ({"max_outer": 10.5}, "'max_outer'"),
        ({"sigma0": True}, "'sigma0'"),
        ({"monitor": 1}, "'monitor'"),
        ([0.25], "JSON object"),
        ({"alpha": math.nan}, "alpha"),
        ({"sigma0": math.nan}, "sigma0"),
        ({"alpha": math.inf}, "alpha"),
        ({"penalty_policy": "polynomial"}, "penalty_policy is unknown in --config file"),
    ],
    ids=["unknown", "inner_eps", "require_theta_half", "str-for-float", "float-for-int",
         "bool-for-float", "int-for-str", "not-an-object", "nan-alpha", "nan-sigma0",
         "inf-alpha", "removed-policy-key"],
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


@pytest.mark.parametrize("flag", ["--problem", "--config"])
def test_too_deeply_nested_input_is_usage_error(tmp_path, caplog, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    args = {"--problem": "eq-qp-analytic", flag: str(deep)}
    for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3"]):
        caplog.clear()
        argv = command + [item for pair in args.items() for item in pair]
        assert cli.main(argv + ["--out", str(tmp_path / "run")]) == cli.EXIT_USAGE, command
        assert "nests too deeply to parse" in caplog.text, command
        assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


@pytest.mark.parametrize("name", ["../escaped", {"a": 1}], ids=["escaping-path", "object"])
def test_problem_name_that_is_no_plain_file_name_writes_no_report(tmp_path, monkeypatch, caplog, name):
    # without --out the report stem is the problem's name, so "../escaped" would write outside the working directory
    work = tmp_path / "work" / "sub"
    work.mkdir(parents=True)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "name": name, "n": 2, "objective": {"kind": "quadratic+cos"},
        "A": [[1.0, 1.0]], "b": [1.0], "m_e": 1, "x0": [0.5, 0.5], "f_low": -2.0, "L1": 17.0,
    }))
    monkeypatch.chdir(work)
    for command in (["solve"], ["sweep", "--eps-grid", "1e-2,1e-3,1e-4"]):
        caplog.clear()
        code = cli.main(command + ["--problem", str(prob), "--format", "both"])
        assert code == cli.EXIT_USAGE, command
        assert "usage error: name = " in caplog.text, command
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "prob.json", "work", "work/sub",
    ]


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


@pytest.mark.parametrize("problem, flags", [
    ("eq-qp-analytic", ["--alpha", "1e54"]),
    ("simplex-cos-8", ["--alpha", "2000", "--gamma", "0.01"]),
])
def test_overflowing_penalty_growth_ends_sigma_overflow(tmp_path, capsys, problem, flags):
    # (k+1)^alpha passes the largest double at k + 1 = 2: sigma becomes inf, and the cap ends the run
    code = cli.main(["solve", "--problem", problem, *flags, "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_SOLVER_FAILURE
    assert "Traceback" not in capsys.readouterr().err
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["terminated"] == "SigmaOverflow" and data["trace"][-1]["sigma"] == math.inf
    code = cli.main(["sweep", "--problem", problem, *flags, "--eps-grid", "1e-2,1e-3",
                     "--out", str(tmp_path / "sw")])
    assert code == cli.EXIT_SOLVER_FAILURE
    rows = json.loads((tmp_path / "sw.json").read_text())["rows"]
    assert all("cannot certify a run terminated 'SigmaOverflow'" in r["error"] for r in rows if r["failed"])


@pytest.mark.parametrize("eps", ["1e-155", "1e-300", "5e-324"])
def test_gd_fixed_at_a_tiny_eps_runs_to_the_oracle_budget(tmp_path, capsys, monkeypatch, eps):
    # no double-precision gradient norm reaches these eps, and every step passes the descent lemma,
    # so only the oracle budget ends the solve
    monkeypatch.setattr(inner, "ORACLE_BUDGET", 2_000)
    argv = ["solve", "--problem", "simplex-cos-8", "--inner", "gd-fixed", "--eps", eps,
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_SOLVER_FAILURE
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "run.json").read_text())["terminated"] == "OracleBudget"


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
        for name in ("gradient_finite_difference", "hessian_finite_difference", "hessian_lipschitz_secant"):
            assert f"{name}: pass" in text
        for name in outer.INNER_SOLVERS:
            assert f"inner {name}: pass" in text


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

    @pytest.mark.parametrize("value", ["debug", "TRACE", "quite"])
    def test_an_unknown_log_setting_warns_and_runs(self, monkeypatch, caplog, capsys, value):
        monkeypatch.setenv("AUGLAG_LOG", value)
        assert cli.main(["list-problems"]) == cli.EXIT_OK
        assert caplog.messages == [f"AUGLAG_LOG={value!r} is not one of quiet, info, trace; logging at info"]

    @pytest.mark.parametrize("value", ["quiet", "info", "trace"])
    def test_a_known_log_setting_logs_nothing_of_itself(self, monkeypatch, caplog, capsys, value):
        monkeypatch.setenv("AUGLAG_LOG", value)
        assert cli.main(["list-problems"]) == cli.EXIT_OK
        assert caplog.messages == []


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


_SMALL = {"name": "small", "n": 2, "objective": {"kind": "quadratic+cos"},
          "A": [[1.0, 1.0]], "b": [1.0], "m_e": 1, "x0": [0.5, 0.5]}


@pytest.mark.parametrize(
    "changes,code",
    [
        ({"objective": {"kind": "quadratic+cos", "omega": 1e300}}, cli.EXIT_USAGE),
        ({"A": [[1e200, 1e200]], "b": [1e200]}, cli.EXIT_USAGE),  # A^T A overflows: L = inf
        ({"A": [], "b": [], "m_e": 0, "L1": 0.0}, cli.EXIT_USAGE),  # L = 0
        ({"L1": 1e300}, cli.EXIT_SOLVER_FAILURE),  # the step 1/L cannot move x
        ({"f_low": -1e308}, cli.EXIT_OK),  # a gap f(x0) - f_low near the largest double
    ],
    ids=["omega-cubed-overflows", "gram-overflows", "zero-L", "huge-L", "huge-gap"],
)
def test_extreme_values_exit_cleanly(tmp_path, capsys, changes, code):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_SMALL, **changes)))
    argv = ["solve", "--problem", str(path), "--inner", "gd-fixed", "--eps", "0.1",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("changes, inner", [
    ({"A": [[1e300, 1e300]], "b": [-1], "m_e": 0, "x0": [1e10, 1e10]}, "gd-backtracking"),  # c(x0) = +inf >= 0
    ({"L1": 17, "A": [[1e200, 1e200]], "b": [1e200]}, "gd-fixed"),  # A^T A overflows: L is not finite
], ids=["infinite-c-at-x0", "infinite-L"])
@pytest.mark.parametrize("max_outer", [[], ["--max-outer", "0"]], ids=["run", "no-outer-iteration"])
def test_an_input_no_solve_can_use_exits_2_with_no_report(tmp_path, capsys, changes, inner, max_outer):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_SMALL, **changes)))
    argv = ["solve", "--problem", str(path), "--inner", inner, "--out", str(tmp_path / "run"), *max_outer]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not (tmp_path / "run.json").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name, code", [("zero-L", cli.EXIT_OK), ("nan-L", cli.EXIT_SOLVER_FAILURE),
                                        ("inf-L-at-sigma0", cli.EXIT_SOLVER_FAILURE)])
def test_auto_falls_back_where_gd_fixed_is_a_usage_error(tmp_path, name, code):
    doc, flags = GD_FIXED_REFUSED[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", "--problem", str(path), "--out", str(tmp_path / "run"), *flags]
    assert _main_logged(argv)[0] == code
    fixed, logged = _main_logged([*argv, "--inner", "gd-fixed"])
    assert fixed == cli.EXIT_USAGE and "is not finite and positive" in logged


def test_auto_runs_zero_L_with_backtracking(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(GD_FIXED_REFUSED["zero-L"][0]))
    assert cli.main(["solve", "--problem", str(path), "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert json.loads((tmp_path / "run.json").read_text())["config"]["inner"] == "gd-backtracking"
    argv = ["sweep", "--problem", str(path), "--eps-grid", "1e-2,1e-3", "--out", str(tmp_path / "sweep")]
    assert cli.main(argv) == cli.EXIT_OK


def test_auto_takes_sigma0_from_the_config_file(tmp_path):
    doc, _ = GD_FIXED_REFUSED["inf-L-at-sigma0"]
    path, cfg = tmp_path / "problem.json", tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", "--problem", str(path), "--config", str(cfg), "--out", str(tmp_path / "run")]
    cfg.write_text(json.dumps({"sigma0": 1e10, "max_outer": 0}))
    assert cli.main(argv) == cli.EXIT_SOLVER_FAILURE
    assert json.loads((tmp_path / "run.json").read_text())["config"]["inner"] == "gd-backtracking"
    cfg.write_text(json.dumps({"sigma0": "1e10"}))  # a sigma0 of text is refused before auto reads it
    code, logged = _main_logged(argv)
    assert code == cli.EXIT_USAGE and "'sigma0' must be a real number" in logged


def test_check_fails_an_infinite_c_at_x0(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_SMALL, A=[[1e300, 1e300]], b=[-1], m_e=0, x0=[1e10, 1e10])))
    assert cli.main(["check", "--problem", str(path), "--samples", "1"]) == cli.EXIT_SOLVER_FAILURE
    assert "feasible_start: FAIL (worst error inf)" in capsys.readouterr().out


def test_check_fails_a_declared_L2_below_a_hessian_secant(tmp_path, capsys):
    # the quadratic+cos Hessian is |omega|^3 = 64-Lipschitz; sampled pairs near x0 show L2 = 1 wrong
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_SMALL, L2=1.0)))
    assert cli.main(["check", "--problem", str(path)]) == cli.EXIT_SOLVER_FAILURE
    out = capsys.readouterr().out
    assert "hessian_finite_difference: pass" in out
    assert "hessian_lipschitz_secant: FAIL" in out and "exceeds the declared L2 = 1.0" in out


@pytest.mark.parametrize("L1, code", [(2.0, cli.EXIT_SOLVER_FAILURE), (8.0, cli.EXIT_SOLVER_FAILURE),
                                      (17.0, cli.EXIT_OK)])
def test_a_declared_L1_below_the_true_constant_is_caught(tmp_path, capsys, caplog, L1, code):
    # simplex-cos-8's data, whose true L1 is 1 + omega^2 = 17: a fixed step under a smaller
    # declared L1 misses the descent lemma before the solve reaches eps
    p = problems.corpus_problem("simplex-cos-8")
    cons = p.constraints
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "name": "simplex-cos-8-file", "n": p.n, "objective": {"kind": "quadratic+cos"},
        "A": cons.A.tolist(), "b": cons.b.tolist(), "m_e": cons.m_e, "x0": p.x0.tolist(),
        "f_low": p.objective.f_low, "L1": L1,
    }))
    argv = ["solve", "--problem", str(path), "--inner", "gd-fixed", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == code
    assert "Traceback" not in capsys.readouterr().err
    if code == cli.EXIT_OK:
        assert json.loads((tmp_path / "run.json").read_text())["terminated"] == "EpsKKT"
    else:
        # the failure names the declared L1 as well as the penalty's L = L1 + sigma lambda_max(A^T A)
        assert "L is too small" in caplog.text and f"declared L1 = {L1!r}" in caplog.text


def test_float_warnings_are_debug_events(tmp_path, capsys, caplog):
    # A^T A overflows while the problem loads; numpy's defaults hold again after main
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(_SMALL, A=[[1e200, 1e200]], b=[1e200])))
    before = np.geterr()
    with caplog.at_level("DEBUG", logger="auglag"):
        argv = ["solve", "--problem", str(path), "--inner", "gd-fixed", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_USAGE
    assert "numpy floating-point error: overflow" in caplog.text
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert np.geterr() == before and np.geterrcall() is None


def test_overflowing_line_search_trial_exits_cleanly(tmp_path, capsys, caplog, monkeypatch):
    # f(x0) = 1e122 is finite; the first Armijo trial overflows f and must halve t
    monkeypatch.setattr(inner, "ORACLE_BUDGET", 20_000)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "n": 2, "objective": {"kind": "rosenbrock"},
                                "A": [[1, 1]], "b": [1e30], "m_e": 1, "x0": [1e30, 1]}))
    argv = ["solve", "--problem", str(path), "--inner", "gd-backtracking", "--eps", "0.1",
            "--out", str(tmp_path / "run")]
    start = time.perf_counter()
    with np.errstate(over="ignore"):
        code = cli.main(argv)
    assert time.perf_counter() - start < 5.0  # P stays near 5e59 while x drifts, up to the budget
    assert code in (cli.EXIT_OK, cli.EXIT_SOLVER_FAILURE)
    assert "Traceback" not in capsys.readouterr().err
    assert "non-finite" not in caplog.text  # the overflow was a rejected trial, not the failure


@pytest.mark.parametrize("eps", ["1e-14", "1e-16"])
def test_armijo_steps_that_repeat_a_cycle_exit_1(tmp_path, capsys, caplog, eps):
    # both eps lie below the gradient norm reachable in double precision on eq-cos-8: the
    # Armijo steps repeat a cycle of points with P unchanged
    argv = ["solve", "--problem", "eq-cos-8", "--inner", "gd-backtracking", "--eps", eps,
            "--out", str(tmp_path / "run")]
    start = time.perf_counter()
    assert cli.main(argv) == cli.EXIT_SOLVER_FAILURE
    assert time.perf_counter() - start < 10.0
    assert "Traceback" not in capsys.readouterr().err
    assert "Armijo steps repeat a cycle" in caplog.text


def test_oracle_budget_ends_the_solve_with_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(inner, "ORACLE_BUDGET", 40)
    argv = ["solve", "--problem", "eq-rosenbrock-8", "--inner", "gd-backtracking",
            "--format", "both", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_SOLVER_FAILURE
    assert capsys.readouterr().out.startswith("terminated=OracleBudget T_outer=0 ")
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["terminated"] == "OracleBudget" and "max_oracle_calls" not in data["config"]
    assert data["total_oracle_calls"] == 1 and len(data["trace"]) == 1


# the values a wrong-typed field gets: JSON of every other type, and numbers
# that are non-finite or of the wrong kind
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-5, 5),
    st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.one_of(st.floats(-10.0, 10.0), st.booleans(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-5, 5), max_size=2),
)
_FIELDS = ("name", "n", "objective", "A", "b", "m_e", "x0", "f_low", "L1", "L2")
_ARRAYS = ("A", "b", "x0")


@st.composite
def problem_documents(draw):
    """A small feasible linear problem as a JSON document, perhaps broken in one way."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    m_e = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    x0 = rng.uniform(0.0, 1.0, n)
    slack = rng.uniform(0.0, 1.0, m)
    slack[:m_e] = 0.0
    doc = {
        "name": "fuzz", "n": n,
        "objective": {"kind": draw(st.sampled_from(["quadratic+cos", "rosenbrock"]))},
        "A": A.tolist(), "b": (A @ x0 - slack).tolist(), "m_e": m_e, "x0": x0.tolist(),
    }
    for key, values in (("f_low", st.floats(-100.0, 10.0)), ("L1", st.floats(0.0, 50.0)),
                        ("L2", st.floats(0.0, 50.0))):
        if draw(st.booleans()):
            doc[key] = draw(values)
    if draw(st.booleans()):
        doc["objective"]["omega"] = draw(st.floats(0.0, 5.0))
    how = draw(st.sampled_from(["valid", "missing", "wrong-type", "wrong-shape", "non-finite",
                                "extreme", "not-an-object"]))
    if how == "missing":
        key = draw(st.sampled_from(_FIELDS[:7] + ("objective.kind",)))
        if key == "objective.kind":
            del doc["objective"]["kind"]
        else:
            del doc[key]
    elif how == "wrong-type":
        key = draw(st.sampled_from(_FIELDS + ("objective.kind", "objective.omega")))
        if key.startswith("objective."):
            doc["objective"][key.split(".")[1]] = draw(_JUNK)
        else:
            doc[key] = draw(_JUNK)
    elif how == "wrong-shape":
        key = draw(st.sampled_from(_ARRAYS))
        value = doc[key]
        doc[key] = draw(st.sampled_from([value + [0.5], value[:-1], [value], value[1:] + [[1.0]]]))
    elif how in ("non-finite", "extreme"):
        key = draw(st.sampled_from(_ARRAYS + ("f_low", "L1", "L2", "objective.omega")))
        if how == "non-finite":
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:  # finite, but its square or cube overflows or underflows
            bad = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.sampled_from([-300, 110, 160, 300]))
        if key in _ARRAYS:
            flat = np.array(doc[key], dtype=float)
            if flat.size:
                flat.flat[draw(st.integers(0, flat.size - 1))] = bad
            doc[key] = flat.tolist()
        elif key == "objective.omega":
            doc["objective"]["omega"] = bad
        else:
            doc[key] = bad
    elif how == "not-an-object":
        doc = draw(_JUNK)
    return doc


class TestProblemFileFuzz:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=problem_documents(), inner=st.sampled_from(("auto",) + outer.INNER_SOLVERS))
    def test_solve_exits_0_1_or_2_without_a_traceback(self, tmp_path_factory, doc, inner):
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "problem.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--problem", str(path), "--inner", inner,
                             "--max-outer", "3", "--eps", "0.1", "--out", str(work / "run")])
        assert code in (cli.EXIT_OK, cli.EXIT_SOLVER_FAILURE, cli.EXIT_USAGE)
        assert "Traceback" not in err.getvalue()


def _main_logged(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and the messages it logged, its stdout dropped."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log = logging.getLogger("auglag")
    log.addHandler(handler)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        log.removeHandler(handler)
    return code, "\n".join(r.getMessage() for r in records)


class TestUsageVerdictFuzz:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=problem_documents(), inner=st.sampled_from(("auto",) + outer.INNER_SOLVERS))
    @example(doc=dict(_SMALL, L1=17, A=[[1e200, 1e200]], b=[1e200]), inner="gd-fixed")
    @example(doc=dict(_SMALL, n=1, A=[], b=[], m_e=0, x0=[0.5], L1=0.0), inner="gd-fixed")  # L = 0
    def test_a_usage_error_does_not_wait_for_the_solve(self, tmp_path_factory, doc, inner):
        # a bad input exits 2 whether or not an outer iteration runs; only an f below
        # the declared f_low waits for the iterate whose evaluation shows it
        work = tmp_path_factory.mktemp("verdict")
        path = work / "problem.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        usage = []
        for max_outer in ("0", "3"):
            code, logged = _main_logged(["solve", "--problem", str(path), "--inner", inner, "--max-outer",
                                         max_outer, "--eps", "0.1", "--out", str(work / "run")])
            usage.append(code == cli.EXIT_USAGE)
        assert usage[0] == usage[1] or (usage[1] and "violates declared lower bound" in logged)


class TestAutoVerdictFuzz:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=problem_documents(), sigma0=st.sampled_from(["1", "1e300"]))
    @example(doc=dict(_SMALL, L1=17, A=[[1e200, 1e200]], b=[1e200]), sigma0="1")
    @example(doc=dict(_SMALL, n=1, A=[], b=[], m_e=0, x0=[0.5], L1=0.0), sigma0="1")  # L = 0
    @example(doc=GD_FIXED_REFUSED["zero-L"][0], sigma0="1")
    @example(doc=GD_FIXED_REFUSED["nan-L"][0], sigma0="1")
    @example(doc=GD_FIXED_REFUSED["inf-L-at-sigma0"][0], sigma0="1e10")
    def test_auto_is_a_usage_error_only_where_every_solver_is(self, tmp_path_factory, doc, sigma0):
        # no outer iteration runs, so a solver's verdict is its start check alone
        work = tmp_path_factory.mktemp("auto")
        path = work / "problem.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        usage = {}
        for inner in ("auto",) + outer.INNER_SOLVERS:
            code, _ = _main_logged(["solve", "--problem", str(path), "--inner", inner, "--sigma0", sigma0,
                                    "--max-outer", "0", "--out", str(work / "run")])
            usage[inner] = code == cli.EXIT_USAGE
        assert usage.pop("auto") == all(usage.values()), usage


# every value a JSON --config file can hold: numbers across the whole double
# range (NaN and the infinities too) and beyond it, and every other JSON type
_CONFIG_VALUES = st.one_of(
    st.floats(), st.integers(), st.integers(-3, 3), st.sampled_from([10**308, 10**400, -(10**400)]),
    st.sampled_from([5e-324, 1e-300, 1e-155, 1e-3, 0.5, 2.0, 1e54, 1e300, 1.7e308, -1.0, -1e300]),
    st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(("auto",) + outer.INNER_SOLVERS + outer.MONITOR_MODES),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)
# each key's valid values, to their extremes, so that most files reach the solver
_VALID_CONFIG_VALUES = {
    "eps": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "alpha": st.one_of(st.floats(1.0, exclude_min=True, allow_infinity=False), st.integers(2, 10**308)),
    "gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "sigma0": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "inner": st.sampled_from(outer.INNER_SOLVERS),
    "max_outer": st.one_of(st.integers(0, 5), st.integers(0)),
    "monitor": st.sampled_from(outer.MONITOR_MODES),
}


@st.composite
def config_files(draw):
    """A --config object over CONFIG_KEYS and one unknown key; three values in four are valid."""
    keys = draw(st.lists(st.sampled_from(outer.CONFIG_KEYS + ("unknown",)), unique=True, max_size=4))
    return {key: draw(_VALID_CONFIG_VALUES[key] if key in _VALID_CONFIG_VALUES and
                      (draw(st.booleans()) or draw(st.booleans())) else _CONFIG_VALUES)
            for key in keys}


_TERMINATED = (outer.TERMINATED_KKT, outer.TERMINATED_MAX_OUTER,
               outer.TERMINATED_SIGMA_OVERFLOW, outer.TERMINATED_ORACLE_BUDGET)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=config_files())
@example(overrides={"alpha": 1.8e54})
@example(overrides={"inner": "gd-fixed", "eps": 1e-155})
@example(overrides={"sigma0": 5e-324, "eps": 5e-324})
@example(overrides={"sigma0": 10**400, "alpha": 10**400})
def test_fuzzed_config_files_exit_cleanly(tmp_path_factory, overrides):
    """solve and a two-eps sweep end with exit 0, 1 or 2, no traceback, and a documented status."""
    work = tmp_path_factory.mktemp("config")
    path = work / "config.json"
    path.write_text(json.dumps(overrides))  # NaN and Infinity as Python's json writes them
    commands = {"run": ["solve"], "sweep": ["sweep", "--eps-grid", "1e-2,1e-3"]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inner, "ORACLE_BUDGET", 2_000)
        for stem, command in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command, "--problem", "eq-qp-analytic", "--config", str(path),
                                 "--out", str(work / stem)])
            assert code in (cli.EXIT_OK, cli.EXIT_SOLVER_FAILURE, cli.EXIT_USAGE), overrides
            assert "Traceback" not in err.getvalue()
            report = work / f"{stem}.json"
            if report.exists():
                data = json.loads(report.read_text())
                if stem == "run":
                    assert data["terminated"] in _TERMINATED
                else:  # a row whose solve failed leaves its status empty
                    assert all(r["terminated"] in _TERMINATED + ("",) for r in data["rows"])
