import dataclasses
import json
import math

import numpy as np
import pytest

from auglag import complexity, core, outer
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
from auglag.problems import corpus_problem


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

    def test_geometric_growth_not_certified(self):
        p = corpus_problem("simplex-cos-8")
        config = SolverConfig(eps=1e-3, inner="gd-fixed", penalty_policy=core.GEOMETRIC_GROWTH)
        report = solve(p, config)
        assert [st.sigma for st in report.trace[:3]] == [1.0, 1.0, 16.0]  # 4^(k+1), k = 1
        cert = certify_run(report, p, config)
        assert cert.regime == REGIME_GROWING
        assert not cert.certified and cert.reason == complexity.REASON_GEOMETRIC_GROWTH
        # the polynomial bound is still reported
        assert cert.bound_T == bound_T_unbounded(complexity._bound_inputs_from(report, p))

    def test_geometric_run_with_bounded_sigma_certified(self):
        p = corpus_problem("simplex-cos-8")
        config = SolverConfig(eps=1e-2, inner="gd-fixed", sigma0=100.0,
                              penalty_policy=core.GEOMETRIC_GROWTH)
        report = solve(p, config)
        assert report.T_outer >= 2 and {st.sigma for st in report.trace} == {100.0}
        cert = certify_run(report, p, config)
        assert cert.regime == REGIME_BOUNDED and cert.certified and cert.reason == ""

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

    def test_form_disagreement_ends_the_sweep(self, skewed_forms):
        # an implementation bug propagates instead of becoming a failed row
        p = corpus_problem("simplex-cos-8")
        with pytest.raises(core.FormDisagreementError):
            sweep(p, SolverConfig(eps=1e-2), [1e-2, 1e-3])

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
