import math
import tracemalloc

import numpy as np
import pytest

from ratecalc import (
    ConfigError,
    FiniteDirichletForm,
    SolverConfig,
    Tabulated,
    brute_force_oracle,
    certify_inequality,
    dominates,
    empirical_rate,
    optimal_sl,
    optimal_sp,
    optimal_value,
    optimal_wl,
    optimal_wp,
    optconst,
    spectral_gap,
)

CFG = SolverConfig(seed=3)


class TestOptimalSp:
    def test_single_state_is_one(self):
        form = FiniteDirichletForm(mu=np.array([1.0]), weights=np.zeros((1, 1)))
        for s in (0.01, 1.0, 100.0):
            assert optimal_sp(form, s, CFG) == 1.0

    def test_large_s_forces_constant_optimum(self, two_point_uniform):
        assert optimal_sp(two_point_uniform, 10.0, CFG) == pytest.approx(1.0, abs=1e-6)

    def test_matches_oracle_small_s(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        for s in (0.01, 0.1, 1.0):
            sol = optimal_sp(form, s, CFG)
            ora = brute_force_oracle(form, "SP", s, 1e-3)
            assert sol == pytest.approx(ora, rel=0.01)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(21)
        from conftest import random_form

        quick = SolverConfig(restarts=5, max_iters=120, seed=1)
        for _ in range(25):
            form = random_form(rng, n_max=4)
            s = float(rng.uniform(1e-3, 10.0))
            assert optimal_sp(form, s, quick) >= 1.0


class TestOptimalSl:
    def test_large_s_is_zero(self, two_point_uniform):
        assert optimal_sl(two_point_uniform, 100.0, CFG) == pytest.approx(0.0, abs=1e-6)

    def test_nonincreasing_in_s(self, fixture_forms):
        form = fixture_forms["tri_skewed"]
        vals = [optimal_sl(form, s, CFG) for s in (0.01, 0.1, 1.0)]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_matches_oracle(self, fixture_forms):
        form = fixture_forms["path3_uniform"]
        for s in (0.01, 0.1):
            sol = optimal_sl(form, s, CFG)
            ora = brute_force_oracle(form, "SL", s, 1e-3)
            assert sol == pytest.approx(ora, rel=0.01, abs=1e-9)


class TestOptimalWl:
    def test_zero_above_log_inverse_min_mass(self, fixture_forms):
        for name in ("two_uniform", "path3_uniform"):
            form = fixture_forms[name]
            s = math.log(1.0 / float(np.min(form.mu))) + 0.05
            assert brute_force_oracle(form, "WL", s, 1e-3) == pytest.approx(0.0, abs=1e-9)
            assert optimal_wl(form, s, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_matches_oracle_small_s(self, two_point_uniform):
        sol = optimal_wl(two_point_uniform, 0.01, CFG)
        ora = brute_force_oracle(two_point_uniform, "WL", 0.01, 1e-3)
        assert sol == pytest.approx(ora, rel=0.01)

    def test_nonincreasing_in_s(self, fixture_forms):
        form = fixture_forms["tri_uniform"]
        vals = [optimal_wl(form, s, CFG) for s in (0.001, 0.01, 0.1)]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9


class TestOptimalWp:
    def test_zero_for_s_at_least_one(self, two_point_uniform):
        assert optimal_wp(two_point_uniform, 1.0, CFG) == 0.0

    def test_oracle_quarter_on_two_point(self, two_point_uniform):
        # Var/E = 1/4 for every nonconstant f on this form, even at s = 0.
        assert brute_force_oracle(two_point_uniform, "WP", 0.0, 1e-3) == pytest.approx(0.25, rel=1e-4)

    def test_small_s_recovers_poincare_constant(self, fixture_forms):
        for form in fixture_forms.values():
            wp = optimal_wp(form, 1e-8, CFG)
            assert wp == pytest.approx(spectral_gap(form).poincare_constant, rel=0.02)


class TestOracle:
    def test_rejects_large_forms(self):
        rng = np.random.default_rng(30)
        from conftest import random_form

        form = random_form(rng, n_max=8)
        while form.n <= 4:
            form = random_form(rng, n_max=8)
        with pytest.raises(ConfigError):
            brute_force_oracle(form, "SP", 0.1, 1e-2)

    def test_rejects_coarse_resolution(self, two_point_uniform):
        with pytest.raises(ConfigError):
            brute_force_oracle(two_point_uniform, "SP", 0.1, 0.5)

    def test_single_state_sp(self):
        form = FiniteDirichletForm(mu=np.array([1.0]), weights=np.zeros((1, 1)))
        assert brute_force_oracle(form, "SP", 0.1, 1e-2) == 1.0

    @pytest.mark.parametrize("block", [None, 997])
    def test_streamed_directions_match_meshgrid(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(optconst, "_ORACLE_BLOCK", block)
        res = 1e-2
        for n in (2, 3):
            for signed in (False, True):
                spans = [math.pi / 2] * (n - 1) if not signed else [math.pi] * (n - 2) + [2 * math.pi]
                axes = [np.linspace(0.0, sp, int(round(sp / res)) + 1) for sp in spans]
                phis = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
                grid = np.empty((phis.shape[0], n))
                sin_prod = np.ones(phis.shape[0])
                for i in range(n - 1):
                    grid[:, i] = sin_prod * np.cos(phis[:, i])
                    sin_prod = sin_prod * np.sin(phis[:, i])
                grid[:, n - 1] = sin_prod
                streamed = np.concatenate(list(optconst._direction_blocks(n, res, signed)))
                assert np.array_equal(streamed, grid), (n, signed)

    def test_memory_bounded_by_block(self, fixture_forms):
        # The signed 3-state grid at 2e-3 has 1572 * 3143 directions:
        # 4.9M x 3 floats, about 118 MB if it were held at once.
        grid_bytes = 1572 * 3143 * 3 * 8
        tracemalloc.start()
        try:
            brute_force_oracle(fixture_forms["tri_skewed"], "WP", 0.1, 2e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 2

    def test_resolution_self_consistency(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        for kind in ("SP", "SL", "WL", "WP"):
            a = brute_force_oracle(form, kind, 0.05, 2e-3)
            b = brute_force_oracle(form, kind, 0.05, 1e-3)
            assert a == pytest.approx(b, rel=5e-3, abs=1e-9)


class TestEmpiricalRate:
    def test_values_envelope_and_floor(self, fixture_forms):
        form = fixture_forms["two_skewed"]
        emp = empirical_rate(form, "SP", np.geomspace(1e-3, 1.0, 8), CFG)
        vals = np.array(emp.values)
        assert np.all(vals >= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert emp.envelope_applied

    def test_envelope_close_to_raw(self, fixture_forms):
        form = fixture_forms["path3_uniform"]
        emp = empirical_rate(form, "SL", np.geomspace(1e-3, 0.5, 8), CFG)
        raw = np.array(emp.stats["raw_values"])
        env = np.array(emp.values)
        scale = np.maximum(np.abs(raw), 1e-9)
        assert np.max((env - raw) / scale) < 0.02

    def test_more_restarts_never_lower(self, fixture_forms):
        form = fixture_forms["tri_skewed"]
        grid = np.geomspace(1e-3, 0.5, 5)
        lo = empirical_rate(form, "SL", grid, SolverConfig(restarts=10, seed=5))
        hi = empirical_rate(form, "SL", grid, SolverConfig(restarts=20, seed=5))
        assert all(h >= l - 1e-12 for h, l in zip(hi.values, lo.values))

    def test_deterministic(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        grid = np.geomspace(1e-3, 0.5, 5)
        a = empirical_rate(form, "WL", grid, SolverConfig(seed=11))
        b = empirical_rate(form, "WL", grid, SolverConfig(seed=11))
        assert a.values == b.values

    def test_to_tabulated(self, fixture_forms):
        emp = empirical_rate(fixture_forms["two_uniform"], "SP", np.geomspace(1e-3, 1.0, 6), CFG)
        tab = emp.to_tabulated()
        assert tab.eval(1e-3) == emp.values[0]


class TestDominates:
    def test_equal_reference(self):
        emp = empirical_rate(
            FiniteDirichletForm(mu=np.array([0.5, 0.5]), weights=np.array([[0.0, 1.0], [1.0, 0.0]])),
            "SP",
            np.geomspace(1e-2, 1.0, 6),
            CFG,
        )
        ref = emp.to_tabulated()
        rep = dominates(emp, ref)
        assert rep.passed and rep.fitted_constant == pytest.approx(1.0, rel=1e-12)

    def test_double_reference_halves_constant(self):
        from ratecalc import EmpiricalRateFunction

        tab = Tabulated(points=((0.01, 4.0), (1.0, 2.0)))
        emp = EmpiricalRateFunction(
            kind="SP",
            s_grid=(0.01, 1.0),
            values=(8.0, 4.0),
            restarts=1,
            seed=0,
            envelope_applied=True,
        )
        rep = dominates(emp, tab)
        assert rep.fitted_constant == pytest.approx(2.0, rel=1e-12)
        assert rep.passed


class TestCertification:
    def test_solver_outputs_certified(self, fixture_forms):
        for name in ("two_uniform", "path3_skewed"):
            form = fixture_forms[name]
            for kind in ("SP", "SL", "WL", "WP"):
                for s in (0.05, 0.5):
                    beta = optimal_value(form, kind, s, CFG)
                    ok, worst = certify_inequality(form, kind, s, beta, n_samples=500, seed=9)
                    assert ok, f"{name} {kind} s={s}: margin {worst}"

    def test_too_small_beta_rejected(self, two_point_uniform):
        ok, worst = certify_inequality(two_point_uniform, "SP", 0.01, 0.5, n_samples=500, seed=9)
        assert not ok
