import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auglag import complexity, core, inner, outer
from auglag.complexity import (
    BoundInputs,
    LOG_LINEAR,
    POWER_LAW,
    REGIME_BOUNDED,
    REGIME_GROWING,
    SweepResult,
    SweepRow,
    bound_T_bounded,
    bound_T_unbounded,
    certify_run,
    fit_growth,
    sweep,
)
from auglag.outer import SolverConfig, solve
from auglag.problems import ValidationError, corpus_problem, load_problem

from conftest import count_oracles


def _bounded_oracle(mu0_sq, gap, gamma, alpha, eps, sigma_max):
    """Independent transcription of the bounded-regime threshold formula."""
    s = mu0_sq + 4.0 * gap
    log_part = (0.5 * math.log(s) + math.log(2.0) + abs(math.log(eps))) / math.log(1.0 / gamma)
    return sigma_max ** (1.0 / alpha) + 2.0 + log_part


def _unbounded_oracle(mu0_sq, gap, gamma, alpha, eps):
    s = mu0_sq + 4.0 * gap
    log_part = (0.5 * math.log(s) + math.log(2.0) + abs(math.log(eps))) / math.log(1.0 / gamma)
    return 4.0 + (4.0 * s) ** (1.0 / (alpha - 1.0)) * eps ** (-2.0 / (alpha - 1.0)) + log_part


class TestBoundFormulas:
    def test_bounded_unit_log_case(self):
        inp = BoundInputs(
            mu0_norm_sq=0.0, f0_gap=0.25, gamma=math.exp(-1.0), alpha=2.0,
            eps=math.exp(-1.0), sigma_max=1.0,
        )
        assert bound_T_bounded(inp) == pytest.approx(3.0 + math.log(2.0) + 1.0, abs=1e-12)

    def test_unbounded_hand_case(self):
        inp = BoundInputs(
            mu0_norm_sq=0.0, f0_gap=0.25, gamma=math.exp(-1.0), alpha=3.0, eps=0.1
        )
        assert bound_T_unbounded(inp) == pytest.approx(4.0 + 20.0 + math.log(20.0), abs=1e-12)

    def test_log_eps_linearity(self):
        base = dict(mu0_norm_sq=1.0, f0_gap=2.0, gamma=0.5, alpha=3.0, sigma_max=4.0)
        b1 = bound_T_bounded(BoundInputs(eps=1e-2, **base))
        b2 = bound_T_bounded(BoundInputs(eps=1e-4, **base))
        # doubling |log eps| adds exactly |log eps| / log(1/gamma)
        assert b2 - b1 == pytest.approx(abs(math.log(1e-2)) / math.log(2.0), rel=1e-12)

    def test_log_term_vanishes_at_eps_one(self):
        inp = BoundInputs(mu0_norm_sq=0.0, f0_gap=0.25, gamma=math.exp(-1.0), alpha=2.0, eps=1.0)
        assert bound_T_bounded(inp) == pytest.approx(3.0 + math.log(2.0), abs=1e-12)

    def test_larger_alpha_shrinks_power_term(self):
        kw = dict(mu0_norm_sq=1.0, f0_gap=1.0, gamma=0.5, eps=1e-3)
        assert bound_T_unbounded(BoundInputs(alpha=5.0, **kw)) < bound_T_unbounded(
            BoundInputs(alpha=3.0, **kw)
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(mu0_norm_sq=0.0, f0_gap=-1.0, gamma=0.5, alpha=3.0, eps=0.1)
        with pytest.raises(ValueError):
            BoundInputs(mu0_norm_sq=0.0, f0_gap=1.0, gamma=1.5, alpha=3.0, eps=0.1)

    def test_matches_duplicate_oracle_on_run_inputs(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner="gd-fixed"))
        inp = complexity._bound_inputs_from(report, p)
        got = bound_T_bounded(inp)
        want = _bounded_oracle(
            inp.mu0_norm_sq, inp.f0_gap, inp.gamma, inp.alpha, inp.eps, inp.sigma_max
        )
        assert abs(got - want) <= 1e-12
        got_u = bound_T_unbounded(inp)
        want_u = _unbounded_oracle(inp.mu0_norm_sq, inp.f0_gap, inp.gamma, inp.alpha, inp.eps)
        assert abs(got_u - want_u) <= 1e-12

    def test_log_term_is_never_negative(self):
        # 2 sqrt(s) = 2e-5 < eps: no gamma-contraction is needed, and none is counted
        inp = BoundInputs(mu0_norm_sq=0.0, f0_gap=1e-10, gamma=0.5, alpha=3.0, eps=0.1)
        assert bound_T_bounded(inp) == 3.0


class TestCertifyRun:
    def test_bounded_regime_certified(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner="gd-fixed"))
        cert = certify_run(report, p, report.config)
        assert cert.certified
        assert cert.regime in (REGIME_BOUNDED, REGIME_GROWING)

    def test_growing_regime_certified(self):
        p = corpus_problem("dup-eq-8")
        cfg = SolverConfig(eps=1e-3, gamma=0.01, alpha=3.0, inner="gd-fixed")
        report = solve(p, cfg)
        cert = certify_run(report, p, cfg)
        assert cert.regime == REGIME_GROWING
        assert cert.certified
        assert cert.exceedance_prefix < cert.bound_T

    def test_local_lipschitz_problem_not_certified(self):
        p = corpus_problem("eq-rosenbrock-8")
        assert p.objective.local_lipschitz_only
        report = solve(p, SolverConfig(eps=1e-2, inner="gd-backtracking"))
        cert = certify_run(report, p, report.config)
        assert not cert.certified
        assert cert.reason == complexity.REASON_LOCAL_LIPSCHITZ
        # the bound is still reported; the run is within it
        assert cert.regime == REGIME_BOUNDED and cert.bound_T == pytest.approx(15.65, abs=0.01)
        assert cert.first_theta_ok <= math.ceil(cert.bound_T)
        rows = sweep(p, report.config, [1e-2, 1e-3, 1e-4]).rows
        assert not any(r.failed or r.certified for r in rows)

    def test_reason_says_why_not_certified(self, monkeypatch):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner="gd-fixed"))
        cert = certify_run(report, p, report.config)
        assert cert.certified and cert.reason == ""
        monkeypatch.setattr(complexity, "bound_T_bounded", lambda inputs: 0.0)
        monkeypatch.setattr(complexity, "bound_T_unbounded", lambda inputs: 0.0)
        cert = certify_run(report, p, report.config)
        assert not cert.certified and cert.reason == complexity.REASON_BOUND_EXCEEDED

    def test_unfinished_run_rejected(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, max_outer=0))
        with pytest.raises(ValueError):
            certify_run(report, p, report.config)

    def test_mismatched_config_rejected(self):
        p = corpus_problem("simplex-cos-8")
        report = solve(p, SolverConfig(eps=1e-3, inner="gd-fixed"))
        other = dataclasses.replace(report.config, eps=1e-2)
        with pytest.raises(ValueError, match="config"):
            certify_run(report, p, other)
        # an equal config built separately is accepted
        assert certify_run(report, p, dataclasses.replace(report.config)).certified


class TestCertifyEdgeCases:
    """Runs that end eps-KKT get a verdict, however small the start's gap or alpha - 1."""

    @staticmethod
    def _convex_at_min(tmp_path, f_low):
        """A convex f whose minimizer, f = 2, is the feasible x0."""
        path = tmp_path / "convex-at-min.json"
        path.write_text(json.dumps({
            "name": "convex-at-min", "n": 2, "objective": {"kind": "quadratic+cos", "omega": 0.5},
            "A": [[1, 1]], "b": [0], "m_e": 1, "x0": [0, 0], "f_low": f_low,
        }))
        return load_problem(str(path))

    @pytest.mark.parametrize("kind", outer.INNER_SOLVERS)
    def test_a_start_at_f_low_gets_a_verdict(self, tmp_path, kind):
        # lambda0 = 0 and f(x0) = f_low, so s = ||mu0||^2 + 4(f0 - f_low) = 0
        p = self._convex_at_min(tmp_path, 2.0)
        cfg = SolverConfig(eps=1e-3, inner=kind)
        report = solve(p, cfg)
        assert report.terminated == outer.TERMINATED_KKT and report.T_outer == 1
        assert report.trace[0].f == p.objective.f_low
        cert = certify_run(report, p, cfg)
        assert cert.certified and cert.regime == REGIME_BOUNDED and cert.bound_T == 3.0
        rows = sweep(p, cfg, [1e-2, 1e-3]).rows
        assert all(r.certified and not r.failed for r in rows)

    def test_rosenbrock_at_its_minimizer_is_refused_for_its_lipschitz_class(self):
        p = dataclasses.replace(corpus_problem("eq-rosenbrock-8"), x0=np.ones(8))
        report = solve(p, SolverConfig(eps=1e-3, inner="gd-backtracking"))
        assert report.trace[0].f == p.objective.f_low
        cert = certify_run(report, p, report.config)
        assert not cert.certified and cert.reason == complexity.REASON_LOCAL_LIPSCHITZ
        assert cert.bound_T == 3.0

    def test_a_start_within_f_tolerance_below_f_low_gets_a_verdict(self, tmp_path):
        p = self._convex_at_min(tmp_path, 2.0 + 1e-13)
        report = solve(p, SolverConfig(eps=1e-3))
        assert report.trace[0].f < p.objective.f_low  # accepted by f's 1e-12 tolerance
        cert = certify_run(report, p, report.config)
        assert cert.certified and cert.bound_T == 3.0
        with pytest.raises(ValueError, match="nonnegative"):  # a truly negative gap is still refused
            BoundInputs(mu0_norm_sq=0.0, f0_gap=report.trace[0].f - p.objective.f_low,
                        gamma=0.5, alpha=3.0, eps=1e-3)

    @pytest.mark.parametrize("name", ["simplex-cos-8", "dup-eq-8", "eq-cos-8"])
    def test_an_overflowing_power_term_gives_an_infinite_bound(self, name):
        p = corpus_problem(name)
        cfg = SolverConfig(eps=1e-3, alpha=1.01, gamma=0.01, inner="gd-fixed")
        report = solve(p, cfg)
        cert = certify_run(report, p, cfg)
        assert cert.regime == REGIME_GROWING and cert.bound_T == math.inf
        assert not cert.certified and cert.reason == complexity.REASON_BOUND_INFINITE


class TestSweep:
    def test_three_point_grid(self):
        p = corpus_problem("simplex-cos-8")
        cfg = SolverConfig(eps=1e-2, inner="gd-fixed")
        result = sweep(p, cfg, [1e-2, 1e-3, 1e-4])
        rows = result.successful()
        assert len(rows) == 3 and all(r.certified for r in rows)
        eps_seen = [r.eps for r in rows]
        assert eps_seen == sorted(eps_seen, reverse=True)
        t = [r.T_outer for r in rows]
        assert all(a <= b for a, b in zip(t, t[1:]))

    def test_singleton_grid(self):
        p = corpus_problem("eq-qp-analytic")
        result = sweep(p, SolverConfig(eps=1e-2, inner="cubic-newton"), [1e-3])
        assert len(result.rows) == 1 and not result.rows[0].failed

    def test_grid_validation(self):
        p = corpus_problem("eq-qp-analytic")
        cfg = SolverConfig(eps=1e-2)
        with pytest.raises(ValueError):
            sweep(p, cfg, [1.0, 1e-2])
        with pytest.raises(ValueError):
            sweep(p, cfg, [])

    def test_row_failure_isolation(self):
        # an inner solver mismatched to the problem fails per-row, not globally
        p = corpus_problem("simplex-cos-8")
        cfg = SolverConfig(eps=1e-2, inner="cubic-newton")  # inequalities present
        result = sweep(p, cfg, [1e-2, 1e-3])
        assert all(r.failed and r.error for r in result.rows)

    def test_form_disagreement_ends_the_sweep(self, monkeypatch, skewed_forms):
        # an implementation bug propagates instead of becoming a failed row; the
        # shared descent meets it first, and no row solves alone
        solves = []
        monkeypatch.setattr(outer, "solve", lambda *args, **kwargs: solves.append(args))
        p = corpus_problem("simplex-cos-8")
        with pytest.raises(core.FormDisagreementError):
            sweep(p, SolverConfig(eps=1e-2), [1e-2, 1e-3])
        assert solves == []

    def test_refused_certification_keeps_the_run_counts(self):
        # one outer iteration ends the runs at MaxOuter, which certify_run refuses
        p = corpus_problem("simplex-cos-8")
        cfg = SolverConfig(eps=1e-2, max_outer=1)
        result = sweep(p, cfg, [1e-2, 1e-3])
        for row in result.rows:
            report = solve(p, dataclasses.replace(cfg, eps=row.eps))
            assert row.failed
            assert row.error == f"cannot certify a run terminated {outer.TERMINATED_MAX_OUTER!r}"
            assert not row.certified and math.isnan(row.bound_T)
            assert (row.T_outer, row.total_inner, row.total_oracle_calls, row.sigma_final) == (
                report.T_outer, report.total_inner, report.total_oracle_calls,
                report.trace[-1].sigma,
            )
            assert row.T_outer == 1 and row.total_inner > 0
            assert row.terminated == outer.TERMINATED_MAX_OUTER and row.reason == ""

    def test_rows_carry_the_status_and_the_certification_reason(self):
        cfg = SolverConfig(eps=1e-2, inner="gd-backtracking")
        certified = sweep(corpus_problem("eq-qp-analytic"), cfg, [1e-2, 1e-3]).rows
        local = sweep(corpus_problem("eq-rosenbrock-8"), cfg, [1e-2, 1e-3]).rows
        for row in certified + local:
            assert not row.failed and row.terminated == outer.TERMINATED_KKT
        assert all(row.certified and row.reason == "" for row in certified)
        assert all(not row.certified and row.reason == complexity.REASON_LOCAL_LIPSCHITZ for row in local)

    def test_failed_solve_has_no_status(self):
        p = corpus_problem("simplex-cos-8")
        row = sweep(p, SolverConfig(eps=1e-2, inner="cubic-newton"), [1e-2]).rows[0]
        assert row.failed and row.terminated == "" and row.reason == ""

    @pytest.mark.parametrize("grid", [[1e-3], [1e-1, 1e-2], [1e-2, 1e-3, 1e-4]])
    @pytest.mark.parametrize("name,kind", [
        ("eq-qp-analytic", "gd-fixed"), ("eq-qp-analytic", "gd-backtracking"),
        ("eq-qp-analytic", "cubic-newton"), ("simplex-cos-8", "gd-fixed"),
        ("simplex-cos-8", "gd-backtracking"), ("eq-rosenbrock-8", "gd-backtracking"),
        ("eq-cos-8", "cubic-newton"),
        ("simplex-cos-8", "cubic-newton"),  # every row fails: inequality rows
    ])
    def test_rows_equal_their_solves_alone(self, name, kind, grid):
        p = corpus_problem(name)
        cfg = SolverConfig(eps=grid[0], inner=kind)
        assert repr(sweep(p, cfg, grid).rows) == repr(_rows_alone(p, cfg, grid))

    @pytest.mark.parametrize("kind", outer.INNER_SOLVERS)
    def test_rows_refused_certification_equal_their_solves_alone(self, kind):
        p = corpus_problem("eq-qp-analytic")
        cfg = SolverConfig(eps=1e-2, inner=kind, max_outer=1)
        rows = sweep(p, cfg, [1e-2, 1e-3, 1e-4]).rows
        assert all(r.failed and r.T_outer == 1 for r in rows)
        assert repr(rows) == repr(_rows_alone(p, cfg, [1e-2, 1e-3, 1e-4]))

    def test_a_failed_shared_descent_leaves_each_row_to_its_own_solve(self, monkeypatch):
        # with the cap at the iterations of the row at 1e-2, the shared descent
        # fails, and each row alone fails just where its first descent needs more
        p = corpus_problem("eq-rosenbrock-8")
        cfg = SolverConfig(eps=1e-2, inner="gd-backtracking")
        grid = [1e-2, 1e-3, 1e-4]
        iters = [r.iterations for r in outer.first_inner_results(p, cfg, grid)]
        assert iters[0] < iters[-1] and all(solve(p, dataclasses.replace(cfg, eps=e)).T_outer == 1 for e in grid)
        monkeypatch.setattr(inner, "_BACKTRACK_CAP", iters[0])
        with pytest.raises(inner.IterationCapExceeded):
            outer.first_inner_results(p, cfg, grid)
        rows = sweep(p, cfg, grid).rows
        assert [r.failed for r in rows] == [i > iters[0] for i in iters]
        assert repr(rows) == repr(_rows_alone(p, cfg, grid))

    @pytest.mark.parametrize("name,kind", [
        ("simplex-cos-8", "gd-fixed"), ("eq-rosenbrock-8", "gd-backtracking"),
        ("eq-cos-8", "cubic-newton"),
    ])
    def test_shared_results_equal_the_first_inner_results_alone(self, name, kind):
        p = corpus_problem(name)
        cfg = SolverConfig(eps=1e-2, inner=kind)
        grid = [1e-1, 1e-2, 1e-2, 1e-4]  # a repeated eps gets an equal result
        shared = outer.first_inner_results(p, cfg, grid)
        assert len(shared) == len(grid)
        for eps, got in zip(grid, shared):
            want = solve(p, dataclasses.replace(cfg, eps=eps)).trace[1].inner_stats
            assert np.array_equal(got.x_final, want.x_final)
            assert dataclasses.replace(got, x_final=None) == dataclasses.replace(want, x_final=None)
        assert shared[1].x_final is not shared[2].x_final  # copies, not views of the descent

    @pytest.mark.parametrize("name,kind", [
        ("simplex-cos-8", "gd-fixed"), ("eq-rosenbrock-8", "gd-backtracking"),
        ("eq-cos-8", "cubic-newton"),
    ])
    def test_the_public_entries_see_every_inner_descent(self, monkeypatch, name, kind):
        # wrapped by module attribute, as the benchmark's tracer wraps them to count inner work
        p = corpus_problem(name)
        cfg = SolverConfig(eps=1e-2, inner=kind)
        grid = [1e-2, 1e-3, 1e-4]
        firsts = [solve(p, dataclasses.replace(cfg, eps=e)).trace[1].inner_stats.iterations
                  for e in grid]
        seen = []
        for entry in ("gd_solve", "cubic_newton_solve"):
            def counted(*args, _entry=getattr(inner, entry)):
                res = _entry(*args)
                seen.append(res.iterations)
                return res
            monkeypatch.setattr(inner, entry, counted)
        rows = sweep(p, cfg, grid).rows
        assert not any(r.failed for r in rows)
        # the work performed: each row's counts, less the k = 0 descents the rows share,
        # which the descent to the smallest eps performs once
        assert sum(seen) == sum(r.total_inner for r in rows) - sum(firsts[:-1])

    def test_no_shared_descent_without_an_outer_iteration(self):
        p = corpus_problem("eq-qp-analytic")
        assert outer.first_inner_results(p, SolverConfig(max_outer=0), [1e-2, 1e-3]) is None
        assert outer.first_inner_results(p, SolverConfig(sigma0=1e17), [1e-2, 1e-3]) is None

    def test_the_shared_descent_adds_one_evaluation_at_x0(self, monkeypatch):
        p = corpus_problem("eq-rosenbrock-8")
        cfg = SolverConfig(eps=1e-2, inner="gd-backtracking")
        first_alone = solve(p, cfg).trace[1].inner_stats.oracle_calls
        outside, inside = count_oracles(monkeypatch)
        solve(p, dataclasses.replace(cfg, eps=1e-3))
        last_alone = outside + inside
        outside.clear()
        inside.clear()
        rows = sweep(p, cfg, [1e-2, 1e-3]).rows
        assert all(r.T_outer == 1 for r in rows)
        # the row at 1e-3 descends through the row at 1e-2's stopping point, and
        # the descent evaluates x0 once for its start
        f_calls = outside["value"] + inside["value"]
        assert f_calls == sum(r.total_oracle_calls for r in rows) - first_alone + 1
        # so the sweep is the row at 1e-3 alone, plus c, f, grad f and J once
        # each at x0 for the row at 1e-2 and once for the descent
        once = Counter(dict.fromkeys(("value", "gradient", "c", "jac"), 1))
        assert outside + inside == last_alone + once + once

    def test_an_infeasible_start_fails_the_shared_descent_and_every_row(self):
        p = dataclasses.replace(corpus_problem("eq-cos-8"), x0=np.zeros(8))
        cfg = SolverConfig(eps=1e-2)
        grid = [1e-2, 1e-3]
        with pytest.raises(ValidationError, match="starting point infeasible"):
            outer.first_inner_results(p, cfg, grid)
        rows = sweep(p, cfg, grid).rows
        assert all(r.failed and "starting point infeasible" in r.error for r in rows)
        assert repr(rows) == repr(_rows_alone(p, cfg, grid))

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["eq-qp-analytic", "simplex-cos-8"]),
        exponents=st.lists(st.floats(1.0, 4.0), min_size=1, max_size=3),
    )
    def test_fuzz_rows_equal_their_solves_alone(self, name, exponents):
        grid = [10.0 ** -e for e in exponents]
        p = corpus_problem(name)
        cfg = SolverConfig(eps=grid[0], inner="gd-fixed")
        assert repr(sweep(p, cfg, grid).rows) == repr(_rows_alone(p, cfg, grid))

    def test_save_outputs(self, tmp_path):
        p = corpus_problem("eq-qp-analytic")
        result = sweep(p, SolverConfig(eps=1e-2, inner="cubic-newton"), [1e-2, 1e-3, 1e-4])
        result.rows.append(SweepRow(
            eps=1e-5, T_outer=0, total_inner=0, total_oracle_calls=0,
            sigma_final=float("nan"), bound_T=float("nan"), certified=False,
            failed=True, error="forced",
        ))
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        result.save_csv(str(csv_path))
        coeff, slope, r2 = fit_growth(result, LOG_LINEAR)
        fits = {"LogLinear": {"slope": slope}}
        result.save_json(str(json_path), fits=fits)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == SweepResult.CSV_COLUMNS
        assert len(lines) == 4  # the failed row is left out of the CSV
        data = json.loads(json_path.read_text())
        assert data["problem"] == "eq-qp-analytic"
        assert "fits" in data and len(data["rows"]) == 4  # ...but kept in the JSON
        assert data["rows"][-1]["failed"] is True and data["rows"][-1]["error"] == "forced"
        fields = {f.name for f in dataclasses.fields(SweepRow)}
        assert all(set(row) == fields for row in data["rows"])
        payload = {
            "problem": result.problem,
            "rows": [dataclasses.asdict(r) for r in result.rows],
            "fits": fits,
        }
        assert json_path.read_text(encoding="utf-8") == (
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )


def _rows_alone(problem, base_config, grid):
    """The rows ``sweep`` returns, each from its own solve with nothing shared."""
    return [complexity._solve_row(problem, dataclasses.replace(base_config, eps=e))
            for e in sorted(grid, reverse=True)]


def _synthetic_result(rows):
    return SweepResult(problem="synthetic", rows=rows)


def _row(eps, T=1, inner=1):
    return SweepRow(
        eps=eps, T_outer=T, total_inner=inner, total_oracle_calls=inner,
        sigma_final=1.0, bound_T=float("inf"), certified=True,
    )


class TestFitGrowth:
    def test_exact_log_linear(self):
        # T = 3 + 2|log eps| at eps = e^-1, e^-2, e^-3
        rows = [
            _row(math.exp(-1.0), T=5),
            _row(math.exp(-2.0), T=7),
            _row(math.exp(-3.0), T=9),
        ]
        coeff, slope, r2 = fit_growth(_synthetic_result(rows), LOG_LINEAR)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert coeff == pytest.approx(3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_power_law(self):
        rows = [_row(e, inner=int(round(5.0 * e**-2))) for e in (1e-1, 1e-2, 1e-3)]
        coeff, expo, r2 = fit_growth(_synthetic_result(rows), POWER_LAW)
        assert expo == pytest.approx(2.0, abs=1e-9)
        assert coeff == pytest.approx(5.0, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            fit_growth(_synthetic_result([_row(1e-1), _row(1e-2)]), LOG_LINEAR)

    def test_unknown_model(self):
        rows = [_row(e) for e in (1e-1, 1e-2, 1e-3)]
        with pytest.raises(ValueError):
            fit_growth(_synthetic_result(rows), "Exponential")

    def test_degenerate_design(self):
        rows = [_row(1e-2) for _ in range(3)]
        with pytest.raises(ValueError):
            fit_growth(_synthetic_result(rows), LOG_LINEAR)

    def test_power_law_undefined_on_a_row_without_inner_iterations(self):
        rows = [_row(1e-1, inner=0), _row(1e-2), _row(1e-3)]
        with pytest.raises(ValueError, match=r"rows at eps \[0\.1\] ran no inner iteration"):
            fit_growth(_synthetic_result(rows), POWER_LAW)
        assert fit_growth(_synthetic_result(rows), LOG_LINEAR)[2] == 1.0
