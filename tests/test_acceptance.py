"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Growth orders hold only asymptotically, so each exponent check
fits over a window where its order shows: 2b over s in [1e-180, 1e-40],
and 2e over s in [1e-4, 1e-2] on the log values of a WL-to-SP output
that leaves double range there.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from ratecalc import (
    CapError,
    Constant,
    ExpPower,
    InversePower,
    LogPower,
    PolyPower,
    SolverConfig,
    Tabulated,
    TransformConfig,
    brute_force_oracle,
    build_birth_death,
    certify_inequality,
    dominates,
    empirical_rate,
    entropy,
    fit_exponent,
    level_data,
    log_grid,
    optimal_value,
    sl_from_sp,
    sp_from_sl,
    sp_from_wl,
    spectral_gap,
    truncation_sequence,
    wl_from_sp,
    xi1,
    xi2,
)
from ratecalc import optconst
from ratecalc.cli import main as cli_main

from conftest import make_fixture_forms, random_form


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


CFG = TransformConfig()


class TestCriterion1Kernels:
    def test_kernel_exactness(self):
        t0 = time.perf_counter()
        inv = InversePower(a=1.0, p=1.0)
        worst1 = 0.0
        for t in np.geomspace(1e-3, 1e3, 20):
            v = xi1(inv, float(t)).value
            worst1 = max(worst1, abs(v - 4 * t) / (4 * t))
        worst2 = 0.0
        for t in np.geomspace(1.0, 1e3, 20):
            v = xi2(inv, float(t)).value
            worst2 = max(worst2, abs(v - 4 / t**2) / (4 / t**2))
        elapsed = time.perf_counter() - t0
        ok = worst1 < 1e-4 and worst2 < 1e-4 and elapsed < 1.0
        _report(
            "1 (kernel exactness)",
            ok,
            f"xi1 rel err {worst1:.2e}, xi2 rel err {worst2:.2e}, {elapsed:.2f}s",
        )
        assert worst1 < 1e-4
        assert worst2 < 1e-4
        assert elapsed < 1.0


class TestCriterion2Exponents:
    def test_2a_sp2sl_theta_half(self):
        t0 = time.perf_counter()
        out = sl_from_sp(
            ExpPower(C=1.0, theta=0.5),
            log_grid(1e-5, 1e-2, 60),
            TransformConfig(N_max=200_000),
        )
        fitted = fit_exponent(list(out.points), "log-log-power", (1e-5, 1e-2))
        elapsed = time.perf_counter() - t0
        ok = abs(fitted - 1.0) <= 0.15 and elapsed < 30.0
        _report("2a (sp2sl theta=1/2)", ok, f"fitted {fitted:.4f} vs 1.0 +-0.15, {elapsed:.1f}s")
        assert abs(fitted - 1.0) <= 0.15
        assert elapsed < 30.0

    def test_2b_sp2wl_theta_two(self):
        # Fitted log-log-log exponent 0.5 +- 0.15 for ExpPower{C=1, theta=2}.
        # The order (theta-1)/theta holds only asymptotically.  Over
        # s in [1e-8, 1e-4] the admissible k*(s) spans just 9..16, and the
        # running sup from n0 = 4 keeps the kernel value at n = 4 (3.997)
        # until k = 15, so the output is nearly flat there (fit 0.0100).
        # The fit window is therefore the deep one example11 uses, still
        # well inside double range.
        t0 = time.perf_counter()
        out = wl_from_sp(ExpPower(C=1.0, theta=2.0), log_grid(1e-180, 1e-40, 60), CFG)
        fitted = fit_exponent(list(out.points), "log-log-log", (1e-180, 1e-40))
        elapsed = time.perf_counter() - t0
        ok = abs(fitted - 0.5) <= 0.15 and elapsed < 30.0
        _report(
            "2b (sp2wl theta=2)",
            ok,
            f"fitted {fitted:.4f} vs 0.5 +-0.15 over [1e-180,1e-40], {elapsed:.1f}s",
        )
        assert abs(fitted - 0.5) <= 0.15, (
            f"fitted exponent {fitted:.4f} is outside 0.5 +- 0.15 over s in [1e-180, 1e-40]"
        )
        assert elapsed < 30.0

    def test_2c_sp2wl_theta_one_bounded(self):
        t0 = time.perf_counter()
        out = wl_from_sp(ExpPower(C=1.0, theta=1.0), log_grid(1e-8, 1e-4, 60), CFG)
        vals = [v for _, v in out.points]
        spread = max(vals) / min(vals)
        elapsed = time.perf_counter() - t0
        ok = spread < 3.0 and elapsed < 30.0
        _report("2c (sp2wl theta=1 bounded)", ok, f"spread factor {spread:.3f} < 3, {elapsed:.1f}s")
        assert spread < 3.0
        assert elapsed < 30.0

    def test_2d_sl2sp_p_one(self):
        t0 = time.perf_counter()
        out = sp_from_sl(PolyPower(C=1.0, p=1.0), log_grid(1e-4, 1e-2, 60), CFG)
        fitted = fit_exponent(list(out.points), "log-of-log", (1e-4, 1e-2))
        elapsed = time.perf_counter() - t0
        ok = abs(fitted - 0.5) <= 0.15 and elapsed < 30.0
        _report("2d (sl2sp p=1)", ok, f"fitted {fitted:.4f} vs 0.5 +-0.15, {elapsed:.1f}s")
        assert abs(fitted - 0.5) <= 0.15
        assert elapsed < 30.0

    def test_2e_wl2sp_q_half(self):
        # Slope of log(log beta_SP) vs log(1/s) = 2.0 +- 0.15 for
        # LogPower{q=1/2} over s in [1e-4, 1e-2].  The condition sequence
        # is beta_WL(delta^-n n^-1)/n ~ C*sqrt(n*log(delta))/n, so
        # k*(s) ~ C^2*log(delta)/s^2 and log beta_SP = k*(s)*log(delta):
        # slope 1/(1-q) = 2, the order example11 predicts.  k*(1e-4) is
        # about 1.4e8, far past double range for beta_SP itself, so the
        # fit reads the table's log values; the map walks the index window
        # in blocks.
        t0 = time.perf_counter()
        cfg = TransformConfig(k_max=150_000_000, N_max=150_000_000)
        out = sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(1e-4, 1e-2, 60), cfg)
        fitted = fit_exponent(list(out.log_points), "log-log-power", (1e-4, 1e-2))
        elapsed = time.perf_counter() - t0
        ok = abs(fitted - 2.0) <= 0.15 and elapsed < 30.0
        _report("2e (wl2sp q=1/2)", ok, f"fitted {fitted:.4f} vs 2.0 +-0.15, {elapsed:.1f}s")
        assert abs(fitted - 2.0) <= 0.15
        assert elapsed < 30.0


class TestCriterion3Gating:
    def test_condition_gate(self, tmp_path):
        runner = CliRunner()
        rf1 = tmp_path / "theta1.json"
        rf1.write_text(json.dumps({"family": "exp_power", "C": 1.0, "theta": 1.0}))
        rf06 = tmp_path / "theta06.json"
        rf06.write_text(json.dumps({"family": "exp_power", "C": 1.0, "theta": 0.6}))

        res1 = runner.invoke(
            cli_main,
            ["transform", "--direction", "sp2sl", "--ratefn", str(rf1), "--s-grid", "0.2,1,8", "--out", str(tmp_path / "a")],
        )
        res2 = runner.invoke(
            cli_main,
            ["transform", "--direction", "sp2sl", "--ratefn", str(rf06), "--s-grid", "0.2,1,8", "--out", str(tmp_path / "b")],
        )
        verdict2 = json.loads((tmp_path / "b" / "verdict.json").read_text())
        ok = res1.exit_code == 4 and res2.exit_code == 0 and verdict2["status"] == "holds_empirically"
        _report(
            "3 (condition gating)",
            ok,
            f"theta=1 exit {res1.exit_code} (want 4), theta=0.6 exit {res2.exit_code} "
            f"with verdict {verdict2['status']}",
        )
        assert res1.exit_code == 4
        assert res2.exit_code == 0
        assert verdict2["status"] == "holds_empirically"


class TestCriterion4OracleEquivalence:
    def test_solver_matches_oracle(self):
        t0 = time.perf_counter()
        forms = make_fixture_forms()
        cfg = SolverConfig(seed=3)
        worst = 0.0
        worst_at = ""
        checked = 0
        for name, form in forms.items():
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.01, 0.1, 1.0):
                    sol = optimal_value(form, kind, s, cfg)
                    ora = brute_force_oracle(form, kind, s, 1e-3)
                    rel = abs(sol - ora) / max(abs(ora), 1e-9)
                    checked += 1
                    if rel > worst:
                        worst, worst_at = rel, f"{name}/{kind}/s={s}"
        elapsed = time.perf_counter() - t0
        ok = worst < 0.01 and elapsed < 120.0
        _report(
            "4 (oracle equivalence)",
            ok,
            f"{checked} combos, worst rel dev {worst:.2e} at {worst_at}, {elapsed:.0f}s",
        )
        assert worst < 0.01, f"worst deviation {worst:.3e} at {worst_at}"
        assert elapsed < 120.0


class TestCriterion5Properties:
    def test_energy_sum_bound(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            form = random_form(rng)
            f = rng.standard_normal(form.n) * rng.uniform(0.2, 8.0)
            delta = float(rng.uniform(2.01, 8.0))
            fmax = max(float(np.max(np.abs(f))), 1.0)
            n_cap = int(math.ceil(2 * math.log(fmax) / math.log(delta))) + 2
            total = sum(form.energy(truncation_sequence(f, delta, n)) for n in range(n_cap + 1))
            assert total <= form.energy(f) * (1 + 1e-10) + 1e-12
        _report("5 (energy-sum bound)", True, "200 random (form, f, delta) cases")

    def test_markov_level_bound(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            f = rng.standard_normal(n) * rng.uniform(0.2, 10.0)
            delta = float(rng.uniform(2.01, 6.0))
            m2 = float(mu @ (f * f))
            data = level_data(f, mu, delta, 25)
            for lvl, mass in enumerate(data.masses_Bc):
                assert mass <= delta**-lvl * m2 + 1e-12
        _report("5 (Markov level bound)", True, "200 random cases, all levels")

    def test_entropy_homogeneity_and_nonnegativity(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            g = np.abs(rng.standard_normal(n)) ** 2
            if rng.uniform() < 0.3:
                g[rng.integers(0, n)] = 0.0
            c = float(rng.uniform(1e-4, 1e4))
            ent = entropy(mu, g)
            assert ent >= 0.0
            assert entropy(mu, c * g) == pytest.approx(c * ent, rel=1e-9, abs=1e-12)
        _report("5 (entropy homogeneity)", True, "200 random cases incl. exact zeros")

    def test_entropy_variational_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            f = rng.standard_normal(n)
            phi = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
            phi = phi - math.log(float(mu @ np.exp(phi)))  # mu(e^phi) = 1
            lhs = entropy(mu, f * f)
            rhs = float(mu @ ((f * f) * phi))
            assert lhs >= rhs - 1e-10
        _report("5 (entropy variational bound)", True, "200 normalised random phi")

    def test_centering_bound(self):
        rng = np.random.default_rng(104)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            f = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
            fhat = f - float(mu @ f)
            lhs = entropy(mu, f * f)
            rhs = entropy(mu, fhat * fhat) + 2.0 * float(mu @ (fhat * fhat))
            assert lhs <= rhs + 1e-10
        _report("5 (centering bound)", True, "200 random functions")

    def test_kernel_monotonicity(self):
        rng = np.random.default_rng(105)
        families = [
            lambda r: ExpPower(C=r.uniform(0.2, 2.0), theta=r.uniform(0.5, 2.5)),
            lambda r: PolyPower(C=r.uniform(0.2, 2.0), p=r.uniform(0.3, 2.0)),
            lambda r: InversePower(a=r.uniform(0.2, 3.0), p=r.uniform(0.3, 2.0)),
            lambda r: Constant(B=r.uniform(0.5, 5.0)),
        ]
        checked = 0
        for _ in range(200):
            beta = families[int(rng.integers(0, len(families)))](rng)
            t1, t2 = sorted(rng.uniform(1e-6, 2.0, 2))
            v1, v2 = xi1(beta, float(t1)), xi1(beta, float(t2))
            if v1.is_finite and v2.is_finite:
                assert v1.value <= v2.value * (1 + 1e-6) + 1e-12
                checked += 1
            u1, u2 = sorted(rng.uniform(0.5, 1e4, 2))
            w1, w2 = xi2(beta, float(u1)), xi2(beta, float(u2))
            if w1.is_finite and w2.is_finite:
                assert w2.value <= w1.value * (1 + 1e-6) + 1e-12
                checked += 1
        assert checked >= 200
        _report("5 (kernel monotonicity)", True, f"{checked} finite kernel pairs ordered")

    def test_transform_output_monotonicity(self):
        rng = np.random.default_rng(106)
        checked = 0
        for _ in range(50):
            delta = float(rng.uniform(2.1, 6.0))
            cfg = TransformConfig(delta=delta, C1=float(rng.uniform(0.5, 2.0)))
            grid = log_grid(0.05, 1.0, 12)
            outs = []
            outs.append(wl_from_sp(InversePower(a=float(rng.uniform(0.5, 2.0)), p=1.0), grid, cfg))
            outs.append(sl_from_sp(InversePower(a=float(rng.uniform(0.5, 2.0)), p=1.0), grid, cfg))
            outs.append(sp_from_sl(PolyPower(C=float(rng.uniform(0.5, 2.0)), p=1.0), grid, cfg))
            outs.append(sp_from_wl(Constant(B=float(rng.uniform(0.5, 3.0))), grid, cfg))
            for out in outs:
                vals = np.array([v for _, v in out.points])
                assert np.all(np.diff(vals) <= 1e-12 * np.maximum(vals[:-1], 1.0))
                checked += 1
        assert checked == 200
        _report("5 (transform monotonicity)", True, f"{checked} randomized transform outputs")

    def test_empirical_sp_at_least_one(self, monkeypatch):
        rng = np.random.default_rng(107)
        monkeypatch.setattr(optconst, "_MAX_ITERS", 120)
        quick = SolverConfig(restarts=5, seed=1)
        for _ in range(200):
            form = random_form(rng, n_max=4)
            s = float(rng.uniform(1e-3, 10.0))
            assert optimal_value(form, "SP", s, quick) >= 1.0
        _report("5 (empirical SP >= 1)", True, "200 random (form, s) pairs")

    def test_inequality_certification(self):
        forms = make_fixture_forms()
        cfg = SolverConfig(seed=3)
        count = 0
        for name, form in forms.items():
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.01, 0.1, 1.0):
                    beta = optimal_value(form, kind, s, cfg)
                    ok, worst = certify_inequality(form, kind, s, beta, n_samples=1000, seed=17)
                    assert ok, f"{name}/{kind}/s={s}: worst margin {worst:.3e}"
                    count += 1
        _report("5 (inequality certification)", True, f"{count} solver outputs x 1000 random f")


class TestCriterion6EndToEnd:
    def test_birth_death_dominations(self):
        t0 = time.perf_counter()
        chain = build_birth_death(kappa=4.0, c0=1.0, half_width=2.0, n=41)
        grid = log_grid(1e-3, 1.0, 12)
        solver_cfg = SolverConfig(seed=7)
        emp = {
            kind: empirical_rate(chain, kind, grid, solver_cfg)
            for kind in ("SP", "SL", "WL")
        }
        tab_sp = emp["SP"].to_tabulated()

        trans_sl = sl_from_sp(tab_sp, grid, CFG)
        dom_sl = dominates(emp["SL"], trans_sl)

        trans_wl = wl_from_sp(tab_sp, grid, CFG)
        dom_wl = dominates(emp["WL"], trans_wl)

        elapsed = time.perf_counter() - t0
        ok = dom_sl.passed and dom_wl.passed and elapsed < 600.0
        _report(
            "6 (end-to-end dominations)",
            ok,
            f"SL constant {dom_sl.fitted_constant:.4g} (worst s {dom_sl.worst_s:g}), "
            f"WL constant {dom_wl.fitted_constant:.4g} (worst s {dom_wl.worst_s:g}), "
            f"{elapsed:.0f}s",
        )
        assert dom_sl.passed and math.isfinite(dom_sl.fitted_constant)
        assert dom_wl.passed and math.isfinite(dom_wl.fitted_constant)
        assert elapsed < 600.0


class TestCriterion7SpectralSanity:
    def test_spectral_values(self, fixture_forms, two_point_uniform):
        gap2 = spectral_gap(two_point_uniform).gap
        gauss = build_birth_death(kappa=2.0, c0=0.5, half_width=8.0, n=201)
        gapg = spectral_gap(gauss).gap
        cfg = SolverConfig(seed=3)
        worst = 0.0
        for form in fixture_forms.values():
            wp = optimal_value(form, "WP", 1e-8, cfg)
            ref = spectral_gap(form).poincare_constant
            worst = max(worst, abs(wp - ref) / ref)
        ok = abs(gap2 - 4.0) <= 1e-10 and abs(gapg - 1.0) <= 0.25 and worst <= 0.02
        _report(
            "7 (spectral sanity)",
            ok,
            f"two-point gap {gap2:.12f}, Gaussian gap {gapg:.5f}, worst WP dev {worst:.2e}",
        )
        assert abs(gap2 - 4.0) <= 1e-10
        assert abs(gapg - 1.0) <= 0.25
        assert worst <= 0.02


class TestCriterion8Determinism:
    def test_verify_byte_identical(self, tmp_path):
        runner = CliRunner()
        args = ["verify", "--birth-death", "4,1,2,21", "--s-grid", "1e-3,1,8", "--seed", "7"]
        res_a = runner.invoke(cli_main, args + ["--out", str(tmp_path / "a")])
        res_b = runner.invoke(cli_main, args + ["--out", str(tmp_path / "b")])
        assert res_a.exit_code == 0 and res_b.exit_code == 0

        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b

        mismatched = []
        for name in names_a:
            a_bytes = (tmp_path / "a" / name).read_bytes()
            b_bytes = (tmp_path / "b" / name).read_bytes()
            if name == "manifest.json":
                # The manifest records the wall clock; every other field
                # must agree exactly.
                ma = json.loads(a_bytes)
                mb = json.loads(b_bytes)
                ma.pop("wall_clock_seconds")
                mb.pop("wall_clock_seconds")
                if ma != mb:
                    mismatched.append(name)
            elif a_bytes != b_bytes:
                mismatched.append(name)
        ok = not mismatched
        _report(
            "8 (determinism)",
            ok,
            f"{len(names_a)} artifacts byte-identical"
            + ("" if ok else f"; mismatches: {mismatched}"),
        )
        assert not mismatched
