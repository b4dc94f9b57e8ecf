"""Acceptance suite: twelve certified end-to-end properties.

Each test prints one PASS/FAIL line with its measured quantities.  The
criteria cover formula agreement between the two augmented-Lagrangian forms,
derivative correctness against finite differences, the per-iteration lemma
monitors, the dual-residual guarantee, convergence to an analytic KKT pair,
both outer-iteration-bound certifications, the inner-solver iteration
budgets, growth-law fits over an eps sweep, cubic-subproblem oracle
equivalence, Lipschitz-bound validity, and byte-level determinism.
"""
import json
import math
import time

import numpy as np
import pytest

from auglag import cli, complexity, core, problems
from auglag.complexity import bound_T_bounded, certify_run, fit_growth, sweep
from auglag.inner import solve_cubic_model
from auglag.outer import (
    MONITOR_RECORD,
    SolverConfig,
    TERMINATED_KKT,
    default_inner_for,
    solve,
)
from auglag.problems import corpus, corpus_problem, finite_difference_gradient

EPS_GRID = (1e-2, 1e-3, 1e-4)


def _verdict(num, label, ok, detail=""):
    line = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _random_tuple(rng, p):
    x = rng.uniform(-2.0, 3.0, p.n)
    lam = np.concatenate(
        [rng.normal(0.0, 3.0, p.constraints.m_e),
         np.abs(rng.normal(0.0, 3.0, p.constraints.m - p.constraints.m_e))]
    )
    sigma = float(10.0 ** rng.uniform(-1.0, 3.0))
    return x, lam, sigma


@pytest.fixture(scope="module")
def corpus_runs():
    """Full solver runs over the whole corpus at three tolerances."""
    runs = {}
    for p in corpus():
        for eps in EPS_GRID:
            cfg = SolverConfig(eps=eps, inner=default_inner_for(p), monitor=MONITOR_RECORD)
            runs[(p.name, eps)] = (p, solve(p, cfg))
    return runs


@pytest.fixture(scope="module")
def theta_runs():
    """Runs continued until theta reaches eps/2, for bound certification."""
    runs = {}
    for name in ("simplex-cos-8", "eq-cos-8"):
        p = corpus_problem(name)
        for eps in EPS_GRID:
            cfg = SolverConfig(
                eps=eps, inner=default_inner_for(p), monitor=MONITOR_RECORD,
                require_theta_half=True,
            )
            runs[(name, eps)] = (p, solve(p, cfg))
    return runs


def test_01_formula_agreement():
    p = corpus_problem("simplex-cos-8")
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        x, lam, sigma = _random_tuple(rng, p)
        f = p.objective.value(x)
        c = p.constraints.c(x)
        _, branch_sum, shifted_sum = core.Penalty(p, lam, sigma)._sums(c)
        pb, ps = f + branch_sum, f + shifted_sum
        rel = abs(pb - ps) / max(1.0, abs(pb), abs(ps))
        worst = max(worst, rel)
    dt = time.perf_counter() - t0
    _verdict(
        1, "penalty-form agreement over 10000 tuples",
        worst <= 1e-10 and dt < 5.0,
        f"worst rel diff {worst:.2e}, {dt:.2f}s",
    )


def test_02_derivative_correctness():
    p = corpus_problem("simplex-cos-8")
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_p = worst_l = 0.0
    checked = 0
    while checked < 1000:
        x = rng.uniform(-1.5, 1.5, 8)
        lam = np.concatenate([rng.normal(0, 2, 1), np.abs(rng.normal(0, 2, 8))])
        sigma = float(10.0 ** rng.uniform(-1.0, 1.7))
        c = p.constraints.c(x)
        if float(np.min(np.abs(c[1:] - lam[1:] / sigma))) < 1e-4:
            continue  # too close to a branch seam for finite differences
        pen = core.Penalty(p, lam, sigma)
        g = pen.grad(x)
        fd = finite_difference_gradient(pen.value, x)
        worst_p = max(worst_p, float(np.max(np.abs(fd - g) / np.maximum(1.0, np.abs(g)))))

        gl = core.lagrangian_grad(p.objective.gradient(x), p.constraints.jac(x), lam)
        fdl = finite_difference_gradient(
            lambda z: p.objective.fn(z) - float(lam @ p.constraints.c(z)), x
        )
        worst_l = max(worst_l, float(np.max(np.abs(fdl - gl) / np.maximum(1.0, np.abs(gl)))))
        checked += 1
    dt = time.perf_counter() - t0
    _verdict(
        2, "gradients match finite differences on 1000 points",
        worst_p <= 1e-6 and worst_l <= 1e-6 and dt < 10.0,
        f"worst rel err grad_P {worst_p:.2e}, Lagrangian {worst_l:.2e}, {dt:.2f}s",
    )


def test_03_invariant_monitors(corpus_runs):
    expected = {
        "mu_growth", "penalized_residual", "penalized_theta",
        "inner_decrease", "feasible_upper_bound", "penalty_lower_bound",
        "dual_identity",
    }
    failures = []
    seen = set()
    for (name, eps), (p, report) in corpus_runs.items():
        if report.terminated != TERMINATED_KKT:
            failures.append(f"{name}@{eps}: terminated {report.terminated}")
        for e in report.monitor_log:
            seen.add(e.check)
            if not e.passed:
                failures.append(f"{name}@{eps} iter {e.iteration}: {e.check}")
    missing = expected - seen
    _verdict(
        3, "per-iteration invariant monitors over the corpus",
        not failures and not missing,
        f"{len(corpus_runs)} runs, {sum(len(r.monitor_log) for _, r in corpus_runs.values())} "
        f"checks, violations {failures[:3]}, missing {sorted(missing)}",
    )


def test_04_dual_residual_guarantee(corpus_runs):
    bad = []
    worst_ident = 0.0
    for (name, eps), (p, report) in corpus_runs.items():
        for st in report.trace[1:]:
            if st.kkt.dual_inf > eps:
                bad.append(f"{name}@{eps} k={st.k}: dual_inf {st.kkt.dual_inf:.2e}")
        for e in report.monitor_log:
            if e.check == "dual_identity":
                worst_ident = max(worst_ident, e.lhs)
                if e.lhs > 1e-12:
                    bad.append(f"{name}@{eps} iter {e.iteration}: identity {e.lhs:.2e}")
    _verdict(
        4, "dual residual <= eps with gradient identity <= 1e-12",
        not bad, f"worst identity gap {worst_ident:.2e}, violations {bad[:3]}",
    )


def test_05_analytic_convergence():
    p = corpus_problem("eq-qp-analytic")
    x_star = np.full(4, 0.25)
    t0 = time.perf_counter()
    errs = []
    for inner_kind in ("gd-fixed", "cubic-newton"):
        report = solve(p, SolverConfig(eps=1e-6, inner=inner_kind))
        ex = float(np.max(np.abs(report.x_final - x_star)))
        el = abs(float(report.lambda_final[0]) - 0.25)
        errs.append((inner_kind, ex, el, report.terminated))
    dt = time.perf_counter() - t0
    ok = all(t == TERMINATED_KKT and ex <= 1e-5 and el <= 1e-5 for _, ex, el, t in errs) and dt < 5.0
    _verdict(
        5, "analytic KKT pair reached by both inner solvers",
        ok, "; ".join(f"{k}: |x-x*| {ex:.1e}, |lam-1/4| {el:.1e}" for k, ex, el, _ in errs) + f", {dt:.2f}s",
    )


def test_06_bounded_regime_certification(theta_runs):
    details = []
    ok = True
    for (name, eps), (p, report) in theta_runs.items():
        if report.terminated != TERMINATED_KKT:
            ok = False
            details.append(f"{name}@{eps}: terminated {report.terminated}")
            continue
        inputs = complexity._bound_inputs_from(report, p)
        bound = bound_T_bounded(inputs)
        first_ok = next(
            (st.k for st in report.trace[1:] if st.theta is not None and st.theta <= eps / 2.0),
            None,
        )
        good = first_ok is not None and first_ok <= math.ceil(bound)
        good = good and all(e.passed for e in report.monitor_log)
        ok = ok and good
        details.append(f"{name}@{eps}: first crossing {first_ok} vs ceil({bound:.1f})")
    _verdict(6, "bounded-penalty outer-iteration bound holds", ok, "; ".join(details))


def test_07_growing_regime_certification():
    p = corpus_problem("dup-eq-8")
    details = []
    ok = True
    for eps in (1e-2, 1e-3):
        cfg = SolverConfig(
            eps=eps, gamma=0.01, alpha=3.0, inner=default_inner_for(p), monitor=MONITOR_RECORD
        )
        report = solve(p, cfg)
        cert = certify_run(report, p, cfg)
        good = (
            report.terminated == TERMINATED_KKT
            and cert.regime == complexity.REGIME_GROWING
            and cert.certified
        )
        ok = ok and good
        details.append(
            f"eps={eps}: exceedance prefix {cert.exceedance_prefix} vs bound {cert.bound_T:.1f}"
        )
    _verdict(7, "growing-penalty exceedance count within bound", ok, "; ".join(details))


def test_08_inner_iteration_budgets(corpus_runs):
    bad = []
    n_first = n_second = 0
    for (name, eps), (p, report) in corpus_runs.items():
        kind = report.config.inner
        if kind not in ("gd-fixed", "cubic-newton"):
            continue
        mu0_sq = report.trace[0].mu_norm_sq
        gap = report.trace[0].f - p.objective.f_low
        for k, st in enumerate(report.trace[1:]):
            stats = st.inner_stats
            p_low = p.objective.f_low - 0.5 * mu0_sq - gap * k
            decrease = stats.start_value - p_low
            if kind == "gd-fixed":
                L = core.lipschitz_bound_for(p, report.trace[k].sigma)
                budget = 4.0 * L * decrease * eps**-2
                n_first += 1
                if stats.iterations > budget:
                    bad.append(f"{name}@{eps} k={k}: {stats.iterations} > {budget:.0f}")
            else:
                budget = 10.0 * math.sqrt(p.objective.L2) * decrease * eps**-1.5
                n_second += 1
                if p.objective.L2 > 0 and stats.accepted_steps > budget:
                    bad.append(f"{name}@{eps} k={k}: {stats.accepted_steps} > {budget:.0f}")
    _verdict(
        8, "inner solves within first/second-order budgets",
        not bad, f"{n_first} first-order and {n_second} second-order solves checked; {bad[:3]}",
    )


def test_09_growth_law_fits():
    grid = list(np.geomspace(1e-1, 3e-4, 6))
    t0 = time.perf_counter()
    p1 = corpus_problem("simplex-cos-8")
    res1 = sweep(p1, SolverConfig(eps=1e-2, inner="gd-fixed"), grid)
    _, expo1, r2_1 = fit_growth(res1, complexity.POWER_LAW)
    p2 = corpus_problem("eq-cos-8")
    res2 = sweep(p2, SolverConfig(eps=1e-2, inner="cubic-newton"), grid)
    _, expo2, r2_2 = fit_growth(res2, complexity.POWER_LAW)
    dt = time.perf_counter() - t0
    ok = (
        len(res1.successful()) == 6 and len(res2.successful()) == 6
        and expo1 <= 2.3 and r2_1 >= 0.9
        and expo2 <= 1.8 and r2_2 >= 0.9
        and dt < 300.0
    )
    _verdict(
        9, "total-inner-work growth exponents within theory",
        ok,
        f"first-order exponent {expo1:.3f} (R^2 {r2_1:.3f}), "
        f"second-order exponent {expo2:.3f} (R^2 {r2_2:.3f}), {dt:.1f}s",
    )


def _grid_search_cubic(g, H, M, half=3.0, rounds=10):
    """Brute-force minimizer of the cubic model by iterated grid refinement."""
    n = len(g)
    center = np.zeros(n)
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, 41) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        norms = np.linalg.norm(pts, axis=1)
        vals = pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, H, pts) + (M / 6.0) * norms**3
        center = pts[int(np.argmin(vals))]
        half = 4.0 * half / 40.0  # keep two grid spacings of safety margin
    return center


def test_10_cubic_subproblem_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(1, 4))
        B = rng.standard_normal((n, n))
        H = 0.25 * (B + B.T)
        g = rng.normal(0.0, 0.5, n)
        M = float(rng.uniform(2.0, 4.0))
        s_exact = solve_cubic_model(g, H, M)
        assert float(np.linalg.norm(s_exact)) <= 2.5, "instance leaves the search box"
        s_grid = _grid_search_cubic(g, H, M)
        worst = max(worst, float(np.linalg.norm(s_exact - s_grid)))
    _verdict(
        10, "cubic-subproblem solution matches grid search on 20 instances",
        worst <= 1e-3, f"worst argument distance {worst:.2e}",
    )


def test_11_lipschitz_bound_validity(mixed_sign):
    sigmas = [0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 20.0, 50.0, 75.0, 100.0]
    worst_ratio = 0.0
    # simplex-cos-8's inequality rows are nonnegative; mixed_sign's have both signs
    for p in (corpus_problem("simplex-cos-8"), mixed_sign):
        rng = np.random.default_rng(5)
        m_e, m_i = p.constraints.m_e, p.constraints.m - p.constraints.m_e
        for sigma in sigmas:
            lam = np.concatenate([rng.normal(0, 2, m_e), np.abs(rng.normal(0, 2, m_i))])
            bound = core.lipschitz_bound_for(p, sigma)
            pen = core.Penalty(p, lam, sigma)
            xs = rng.uniform(-2.0, 2.0, (1000, p.n))
            ys = rng.uniform(-2.0, 2.0, (1000, p.n))
            for x, y in zip(xs, ys):
                num = float(np.linalg.norm(pen.grad(x) - pen.grad(y)))
                den = float(np.linalg.norm(x - y))
                if den > 0:
                    worst_ratio = max(worst_ratio, num / (den * bound))
    _verdict(
        11, "gradient difference quotients within Lipschitz bound",
        worst_ratio <= 1.0 + 1e-12,
        f"worst quotient/bound ratio {worst_ratio:.4f} over 2 problems x 10 settings x 1000 pairs",
    )


def test_12_determinism(tmp_path):
    args = ["solve", "--problem", "simplex-cos-8", "--eps", "1e-3",
            "--inner", "gd-fixed", "--format", "both"]
    code_a = cli.main(args + ["--out", str(tmp_path / "a")])
    code_b = cli.main(args + ["--out", str(tmp_path / "b")])
    same_json = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    same_csv = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _verdict(
        12, "repeated runs produce byte-identical data files",
        code_a == 0 and code_b == 0 and same_json and same_csv,
        f"exit codes ({code_a},{code_b}), json identical {same_json}, csv identical {same_csv}",
    )
