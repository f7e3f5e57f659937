import math
import tracemalloc

import numpy as np
import pytest

from ratecalc import (
    ConfigError,
    FiniteDirichletForm,
    MathDomainError,
    SolverConfig,
    Tabulated,
    brute_force_oracle,
    build_birth_death,
    certify_inequality,
    dominates,
    empirical_rate,
    entropy,
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


# ---------------------------------------------------------------------------
# Batched ascent against a one-start-at-a-time reference
# ---------------------------------------------------------------------------


def _ref_ent_log_term(f, m2):
    f2 = f * f
    logs = np.log(np.maximum(f2, 1e-300)) - math.log(max(m2, 1e-300))
    return np.where(f2 > 1e-300, f * logs, 0.0)


class _ScalarObjective:
    """One test function at a time: the serial solver's projection, value
    and gradient, with BLAS products, kept as a reference."""

    def __init__(self, kind, form, s):
        self.kind, self.form, self.s = kind, form, float(s)
        self.mu, self.lap = form.mu, form.laplacian
        wmax = float(np.max(form.weights)) if form.n > 1 else 0.0
        self.e_floor = 1e-14 * max(wmax, 1e-30)

    def project(self, f):
        if self.kind in ("SP", "SL"):
            f = np.maximum(f, 0.0)
            nrm = math.sqrt(float(self.mu @ (f * f)))
            return None if nrm < 1e-150 else f / nrm
        f = np.clip(f, 0.0 if self.kind == "WL" else -1.0, 1.0)
        return None if float(np.max(np.abs(f))) < 1e-12 else f

    def value(self, f):
        mu, s = self.mu, self.s
        if self.kind == "SP":
            m1 = float(mu @ np.abs(f))
            if m1 <= 0.0:
                return -math.inf
            return (float(mu @ (f * f)) - s * self.form.energy(f)) / (m1 * m1)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            if m2 <= 0.0:
                return -math.inf
            return (entropy(mu, f * f) - s * self.form.energy(f)) / m2
        e = self.form.energy(f)
        if e <= self.e_floor * float(np.max(np.abs(f))) ** 2:
            return -math.inf
        if self.kind == "WL":
            top = entropy(mu, f * f) - s * float(np.max(f)) ** 2
        else:
            m = float(mu @ f)
            top = float(mu @ ((f - m) ** 2)) - s * float(np.max(np.abs(f))) ** 2
        return top / e

    def gradient(self, f):
        mu, s = self.mu, self.s
        lf = self.lap @ f
        if self.kind == "SP":
            m1 = float(mu @ np.abs(f))
            num = float(mu @ (f * f)) - s * self.form.energy(f)
            den = m1 * m1
            gnum = 2.0 * mu * f - 2.0 * s * lf
            gden = 2.0 * m1 * mu * np.sign(f)
            return (gnum * den - num * gden) / max(den * den, 1e-300)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * self.form.energy(f)
            gnum = 2.0 * mu * _ref_ent_log_term(f, m2) - 2.0 * s * lf
            return (gnum * m2 - num * 2.0 * mu * f) / max(m2 * m2, 1e-300)
        e = self.form.energy(f)
        if self.kind == "WL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * float(np.max(f)) ** 2
            gnum = 2.0 * mu * _ref_ent_log_term(f, m2)
            am = int(np.argmax(f))
        else:
            m = float(mu @ f)
            num = float(mu @ ((f - m) ** 2)) - s * float(np.max(np.abs(f))) ** 2
            gnum = 2.0 * mu * (f - m)
            am = int(np.argmax(np.abs(f)))
        gnum[am] -= 2.0 * s * f[am]
        return (gnum * e - num * 2.0 * lf) / max(e * e, 1e-300)


def _ref_ascend(obj, f0, cfg):
    f = obj.project(np.asarray(f0, dtype=float))
    if f is None:
        return None
    val = obj.value(f)
    if not math.isfinite(val):
        return None
    step, stall, iters = cfg.step_init, 0, 0
    for iters in range(1, cfg.max_iters + 1):
        g = obj.gradient(f)
        gnorm2 = float(g @ g)
        if not math.isfinite(gnorm2) or gnorm2 < 1e-300:
            break
        alpha, accepted = step, False
        for _ in range(60):
            cand = obj.project(f + alpha * g)
            if cand is not None:
                cval = obj.value(cand)
                if cval > val + cfg.armijo * alpha * gnorm2:
                    accepted = True
                    break
            alpha *= 0.5
            if alpha < cfg.step_min:
                break
        if not accepted:
            break
        gain = cval - val
        f, val = cand, cval
        step = min(alpha * 2.0, 1e6)
        if gain <= cfg.rel_tol * (1.0 + abs(val)):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    return val, f, iters


def _starts(form, kind, s, cfg):
    obj = optconst._Objective(kind, form, s)
    return obj, optconst._start_block(obj, cfg)


def _ref_optimal_value(form, kind, s, cfg):
    """(value, iterations) of the serial solver: one start at a time."""
    _, starts = _starts(form, kind, s, cfg)
    obj = _ScalarObjective(kind, form, s)
    best, iters = -math.inf, 0
    for f0 in starts:
        res = _ref_ascend(obj, f0, cfg)
        if res is not None:
            iters += res[2]
            best = max(best, res[0])
    return max(best, optconst._FLOOR[kind]), iters


def _assert_agrees_with_reference(form, grid, cfg, rel):
    iters_ref = iters_new = 0
    for kind in ("SP", "SL", "WL", "WP"):
        for s in grid:
            ref, it_ref = _ref_optimal_value(form, kind, s, cfg)
            val, _, it_new = optimal_value(form, kind, s, cfg, return_vector=True)
            assert val == pytest.approx(ref, rel=rel, abs=1e-12), (kind, s)
            iters_ref += it_ref
            iters_new += it_new
    assert iters_new == pytest.approx(iters_ref, rel=0.01)


class TestBatchedAscent:
    def test_agrees_with_serial_reference_on_fixtures(self, fixture_forms):
        for form in fixture_forms.values():
            _assert_agrees_with_reference(form, (0.01, 0.1, 1.0), CFG, 1e-9)

    def test_agrees_with_serial_reference_on_chain(self):
        # The verify grid of the n = 41 chain.  WP at the smallest s runs
        # its restarts to max_iters, where rounding parts the two paths
        # (1e-5 relative at s = 4e-3); elsewhere they agree to ~1e-14.
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        grid = [float(s) for s in np.geomspace(1e-3, 1.0, 6)]
        _assert_agrees_with_reference(chain, grid, SolverConfig(seed=7), 1e-4)

    @staticmethod
    def _assert_rows_batch_invariant(form, kind, s, cfg):
        obj, F0 = _starts(form, kind, s, cfg)
        vals, F, iters, ok = optconst._ascend_block(obj, F0, cfg)
        assert ok.all()
        rev = optconst._ascend_block(obj, F0[::-1], cfg)
        for i in range(F0.shape[0]):
            v1, f1, it1, ok1 = optconst._ascend_block(obj, F0[i : i + 1], cfg)
            assert (v1[0], it1[0], ok1[0]) == (vals[i], iters[i], ok[i]), (kind, i)
            assert np.array_equal(f1[0], F[i]), (kind, i)
            j = F0.shape[0] - 1 - i
            assert (rev[0][j], rev[2][j]) == (vals[i], iters[i]) and np.array_equal(rev[1][j], F[i])
        return iters

    @pytest.mark.parametrize("kind", ["SP", "SL", "WL", "WP"])
    def test_rows_batch_invariant_on_chain(self, kind):
        chain = build_birth_death(4.0, 1.0, 2.0, 41)
        self._assert_rows_batch_invariant(chain, kind, 0.25, SolverConfig(seed=7))

    def test_rows_batch_invariant_on_three_states(self, fixture_forms):
        for kind in ("SP", "SL", "WL", "WP"):
            iters = self._assert_rows_batch_invariant(fixture_forms["tri_skewed"], kind, 0.1, CFG)
            # Rows stop at different iterations, so the block shrinks.
            assert len(set(iters.tolist())) > 1, kind

    def test_best_row_first_of_ties(self, fixture_forms):
        # Several rows of WP on two_skewed at s = 0.1 reach the same value
        # from different vectors; the solver keeps the first of them.
        form = fixture_forms["two_skewed"]
        obj, F0 = _starts(form, "WP", 0.1, CFG)
        vals, F, _, _ = optconst._ascend_block(obj, F0, CFG)
        ties = np.flatnonzero(vals == vals.max())
        assert ties.size > 1 and not all(np.array_equal(F[ties[0]], F[j]) for j in ties[1:])
        value, f, _ = optimal_value(form, "WP", 0.1, CFG, return_vector=True)
        assert value == vals[ties[0]] and np.array_equal(f, F[ties[0]])

    def test_inadmissible_rows_ignored(self, fixture_forms):
        form = fixture_forms["path3_skewed"]
        obj, F0 = _starts(form, "SP", 0.1, CFG)
        block = np.vstack([-np.ones((1, form.n)), F0])
        vals, F, iters, ok = optconst._ascend_block(obj, block, CFG)
        assert not ok[0] and vals[0] == -math.inf and iters[0] == 0
        alone = optconst._ascend_block(obj, F0, CFG)
        assert np.array_equal(vals[1:], alone[0]) and np.array_equal(iters[1:], alone[2])


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("step_init", 0.0),
            ("step_init", -1.0),
            ("step_init", math.nan),
            ("step_init", math.inf),
            ("step_min", 0.0),
            ("step_min", 2.0),
            ("step_min", math.nan),
            ("armijo", -5.0),
            ("armijo", 1.0),
            ("armijo", math.nan),
            ("rel_tol", -1e-10),
            ("rel_tol", math.nan),
            ("rel_tol", math.inf),
        ],
    )
    def test_rejects_settings_that_stop_the_ascent(self, field, bad):
        with pytest.raises(ConfigError):
            SolverConfig(**{field: bad})

    def test_accepts_boundary_settings(self):
        SolverConfig(step_init=1e-18, step_min=1e-18, armijo=0.0, rel_tol=0.0)


def _ref_certify_worst(form, kind, s, beta, n_samples, seed, inflation=1e-9):
    """Worst margin of certify_inequality, one sample at a time."""
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFF, optconst._KIND_ID[kind], n_samples))
    mu, b = form.mu, beta * (1.0 + inflation)
    worst = math.inf
    for _ in range(n_samples):
        f = rng.standard_normal(form.n)
        e = form.energy(f)
        if kind == "SP":
            lhs, rhs = float(mu @ (f * f)), s * e + b * float(mu @ np.abs(f)) ** 2
        elif kind == "SL":
            lhs, rhs = entropy(mu, f * f), s * e + b * float(mu @ (f * f))
        elif kind == "WL":
            lhs, rhs = entropy(mu, f * f), b * e + s * float(np.max(np.abs(f))) ** 2
        else:
            m = float(mu @ f)
            lhs, rhs = float(mu @ ((f - m) ** 2)), b * e + s * float(np.max(np.abs(f))) ** 2
        worst = min(worst, (rhs - lhs) / max(1.0, abs(lhs)))
    return worst


class TestCertifyInequality:
    def test_matches_sample_loop(self, fixture_forms):
        for form in fixture_forms.values():
            for kind in ("SP", "SL", "WL", "WP"):
                for s, beta in ((0.05, 0.3), (0.5, 2.0)):
                    ok, worst = certify_inequality(form, kind, s, beta, n_samples=300, seed=4)
                    ref = _ref_certify_worst(form, kind, s, beta, 300, 4)
                    assert worst == pytest.approx(ref, rel=1e-12, abs=1e-12), (kind, s)
                    assert ok == (ref >= -1e-12)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, two_point_uniform, beta):
        with pytest.raises(MathDomainError):
            certify_inequality(two_point_uniform, "SP", 0.01, beta)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_no_samples(self, two_point_uniform, n_samples):
        with pytest.raises(ConfigError):
            certify_inequality(two_point_uniform, "SP", 0.5, 10.0, n_samples=n_samples)

    def test_non_finite_margin_fails(self, two_point_uniform):
        ok, worst = certify_inequality(two_point_uniform, "SP", math.nan, 10.0, n_samples=50)
        assert not ok and math.isnan(worst)
