import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratecalc import (
    CapError,
    ConditionFailedError,
    Constant,
    ConfigError,
    ExpPower,
    GridSpec,
    InversePower,
    LogPower,
    LogTabulated,
    MathDomainError,
    PolyPower,
    RateFunction,
    Tabulated,
    TransformConfig,
    check_vanishing,
    fit_exponent,
    log_grid,
    n_zero,
    sl_from_sp,
    sp2sl_condition,
    sp_from_sl,
    sp_from_wl,
    wl2sp_condition,
    wl_from_sp,
    xi1,
    xi2,
)
from ratecalc import transforms
from ratecalc.errors import DegenerateTransformError
from ratecalc.ratefn import ExtendedValue

CFG = TransformConfig()


def dense_xi1(beta_eval, t, lo=1e-10, hi=1e10, count=2_000_001):
    """Independent dense-grid oracle for the SP kernel."""
    r = np.geomspace(lo, hi, count)
    den = 1.0 - t * beta_eval(r)
    ok = den > 0
    if not ok.any():
        return None
    return float(np.min(r[ok] / den[ok]))


def dense_xi2(beta_eval, t, lo=1e-10, hi=1e10, count=2_000_001):
    r = np.geomspace(lo, hi, count)
    den = t - beta_eval(r)
    ok = den > 0
    if not ok.any():
        return None
    return float(np.min(r[ok] / den[ok]))


class _Scaled(RateFunction):
    """lam * base, for the scaling monotonicity properties."""

    def __init__(self, base, lam):
        self.base, self.lam = base, lam

    def eval_many(self, s):
        return self.lam * self.base.eval_many(s)

    def limit_at_zero(self):
        return self.lam * self.base.limit_at_zero()

    def limit_at_inf(self):
        return self.lam * self.base.limit_at_inf()

    def to_json_dict(self):
        return {"family": "scaled"}


class TestKernels:
    def test_xi1_inverse_power_closed_form(self):
        inv = InversePower(a=1.0, p=1.0)
        v = xi1(inv, 0.5, CFG).value
        assert v == pytest.approx(2.0, rel=1e-4)
        oracle = dense_xi1(lambda r: 1.0 / r, 0.5)
        assert v == pytest.approx(oracle, rel=1e-5)

    def test_xi1_constant_vanishing_infimum(self):
        v = xi1(Constant(B=2.0), 0.25, CFG)
        assert v.is_finite and v.value == 0.0

    def test_xi1_constant_empty_feasible_set(self):
        assert xi1(Constant(B=2.0), 1.0, CFG).is_undefined

    def test_xi2_inverse_power_closed_form(self):
        inv = InversePower(a=1.0, p=1.0)
        v = xi2(inv, 2.0, CFG).value
        assert v == pytest.approx(1.0, rel=1e-4)
        oracle = dense_xi2(lambda r: 1.0 / r, 2.0)
        assert v == pytest.approx(oracle, rel=1e-5)

    def test_xi2_constant_undefined(self):
        assert xi2(Constant(B=5.0), 4.0, CFG).is_undefined

    def test_xi1_exp_power_log_order(self):
        # For beta(r) = exp(C(1+r**-theta)) the kernel is bounded above
        # and below by multiples of log(1+1/t)**(-1/theta).
        beta = ExpPower(C=1.0, theta=0.5)
        ratios = []
        for t in np.geomspace(1e-8, 1e-3, 15):
            v = xi1(beta, float(t), CFG).value
            ratios.append(v * math.log1p(1.0 / t) ** 2)
        assert 1.0 < min(ratios) <= max(ratios) < 4.0
        assert max(ratios) / min(ratios) < 2.5

    def test_xi2_poly_power_power_order(self):
        beta = PolyPower(C=1.0, p=1.0)
        ratios = []
        for t in np.geomspace(100.0, 1e5, 15):
            v = xi2(beta, float(t), CFG).value
            ratios.append(v * t**2)
        assert 3.9 < min(ratios) <= max(ratios) < 4.2

    def test_xi1_nondecreasing_in_t(self):
        rng = np.random.default_rng(11)
        betas = [
            ExpPower(C=1.0, theta=1.0),
            PolyPower(C=1.0, p=1.0),
            InversePower(a=2.0, p=0.5),
            Tabulated(points=((0.01, 50.0), (1.0, 5.0), (100.0, 1.5))),
        ]
        for beta in betas:
            for _ in range(25):
                t1, t2 = sorted(rng.uniform(1e-6, 0.3, 2))
                v1, v2 = xi1(beta, float(t1), CFG), xi1(beta, float(t2), CFG)
                if v1.is_finite and v2.is_finite:
                    assert v1.value <= v2.value * (1 + 1e-6) + 1e-12

    def test_xi2_nonincreasing_in_t(self):
        rng = np.random.default_rng(12)
        betas = [PolyPower(C=1.0, p=1.0), InversePower(a=1.0, p=2.0), Constant(B=0.5)]
        for beta in betas:
            for _ in range(25):
                t1, t2 = sorted(rng.uniform(1.0, 1e4, 2))
                v1, v2 = xi2(beta, float(t1), CFG), xi2(beta, float(t2), CFG)
                if v1.is_finite and v2.is_finite:
                    assert v2.value <= v1.value * (1 + 1e-6) + 1e-12

    def test_scaling_up_sp_raises_xi1(self):
        base = PolyPower(C=1.0, p=1.0)
        scaled = _Scaled(base, 2.0)
        for t in (1e-4, 1e-3, 1e-2):
            v1, v2 = xi1(base, t, CFG), xi1(scaled, t, CFG)
            if v1.is_finite and v2.is_finite:
                assert v2.value >= v1.value * (1 - 1e-6) - 1e-12

    def test_scaling_down_sl_lowers_xi2(self):
        base = PolyPower(C=1.0, p=1.0)
        scaled = _Scaled(base, 0.5)
        for t in (10.0, 100.0, 1e3):
            v1, v2 = xi2(base, t, CFG), xi2(scaled, t, CFG)
            if v1.is_finite and v2.is_finite:
                assert v2.value <= v1.value * (1 + 1e-6) + 1e-12

    def test_grid_refinement_stability(self):
        fine = TransformConfig(r_grid=GridSpec(count=1200))
        inv = InversePower(a=1.0, p=1.0)
        exp = ExpPower(C=1.0, theta=0.5)
        for t in np.geomspace(1e-3, 1e3, 8):
            a = xi1(inv, float(t), CFG).value
            b = xi1(inv, float(t), fine).value
            assert abs(a - b) <= 0.01 * abs(b)
        for t in np.geomspace(1e-6, 1e-3, 5):
            a = xi1(exp, float(t), CFG).value
            b = xi1(exp, float(t), fine).value
            assert abs(a - b) <= 0.01 * abs(b)
        for t in np.geomspace(10.0, 1e3, 5):
            a = xi2(PolyPower(C=1.0, p=1.0), float(t), CFG).value
            b = xi2(PolyPower(C=1.0, p=1.0), float(t), fine).value
            assert abs(a - b) <= 0.01 * abs(b)

    def test_bad_t_rejected(self):
        with pytest.raises(MathDomainError):
            xi1(Constant(B=1.0), 0.0, CFG)
        with pytest.raises(MathDomainError):
            xi2(Constant(B=1.0), -1.0, CFG)


def dense_grid_pass(beta, log_ts, r, kind):
    """Reference row minima: the full (rows x r-grid) sweep.

    Returns (min value per row, leftmost argmin per row); rows with no
    finite grid value get +inf / -1.
    """
    log_b = beta.log_eval_many(r)
    if kind == "xi1":
        u = log_ts[:, None] + log_b[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            denom = -np.expm1(u)
            vals = np.where(u < 0.0, r[None, :] / denom, np.inf)
    else:
        v = log_b[None, :] - log_ts[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            denom = -np.expm1(v)
            scaled = np.exp(np.log(r)[None, :] - log_ts[:, None])
            vals = np.where(v < 0.0, scaled / denom, np.inf)
    vals = np.where(np.isnan(vals), np.inf, vals)
    best = vals.min(axis=1)
    idx = np.where(np.isfinite(best), vals.argmin(axis=1), -1)
    return best, idx


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


FAMILIES = [
    ExpPower(C=1.0, theta=0.5),
    ExpPower(C=0.5, theta=2.0),
    PolyPower(C=1.0, p=1.0),
    PolyPower(C=1.0, p=3.0),
    LogPower(C=1.0, q=0.5),
    InversePower(a=1.3, p=1.0),
    Constant(B=2.0),
    # flat stretches: equal beta over whole runs of grid points
    Tabulated(points=((1e-3, 40.0), (0.01, 40.0), (0.1, 6.0), (1.0, 6.0), (1e3, 1.5))),
    LogTabulated(log_points=((1e-4, 30.0), (1e-2, 3.0), (1.0, 3.0), (1e2, 0.1))),
]

# log t ranges that cover feasible, partly feasible and infeasible rows
LOG_T_RANGE = {"xi1": (-60.0, 6.0), "xi2": (-6.0, 60.0)}


class TestMonotoneRowMinima:
    """The divide-and-conquer row minima against the full sweep, bit for bit."""

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    @pytest.mark.parametrize("beta", FAMILIES, ids=lambda b: type(b).__name__ + repr(b.to_json_dict())[:30])
    def test_grid_pass_matches_dense(self, beta, kind):
        rng = np.random.default_rng(5)
        r = CFG.r_grid.points()
        log_ts = rng.uniform(*LOG_T_RANGE[kind], 3000)
        log_ts = np.concatenate([log_ts, log_ts[:300], np.full(7, log_ts[0])])  # duplicates
        rng.shuffle(log_ts)
        for rows in (log_ts, log_ts[:1], log_ts[::-1]):
            best, idx = transforms._grid_pass(beta, rows, r, kind)
            want_best, want_idx = dense_grid_pass(beta, rows, r, kind)
            _assert_same_bits(best, want_best)
            _assert_same_bits(idx, want_idx)

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    def test_infeasible_rows(self, kind):
        # Constant{2}: xi1 is infeasible for t >= 1/2, xi2 for t <= 2.
        beta = Constant(B=2.0)
        r = CFG.r_grid.points()
        log_ts = np.log(np.array([0.1, 0.6, 5.0, 0.3, 1.0, 2.0, 0.5, 7.0, 30.0]))
        best, idx = transforms._grid_pass(beta, log_ts, r, kind)
        want_best, want_idx = dense_grid_pass(beta, log_ts, r, kind)
        assert np.any(want_idx == -1) and np.any(want_idx >= 0)
        _assert_same_bits(best, want_best)
        _assert_same_bits(idx, want_idx)
        for one in log_ts:
            _assert_same_bits(transforms._grid_pass(beta, np.array([one]), r, kind)[1],
                              dense_grid_pass(beta, np.array([one]), r, kind)[1])

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    @pytest.mark.parametrize("beta", FAMILIES, ids=lambda b: type(b).__name__ + repr(b.to_json_dict())[:30])
    def test_kernel_min_matches_dense(self, beta, kind, monkeypatch):
        rng = np.random.default_rng(6)
        log_ts = np.concatenate([rng.uniform(*LOG_T_RANGE[kind], 400), [LOG_T_RANGE[kind][0]] * 3])
        rng.shuffle(log_ts)
        got = transforms._kernel_min(beta, log_ts, CFG, kind)
        single = [transforms._kernel_min(beta, log_ts[i : i + 1], CFG, kind)[0] for i in range(0, 400, 37)]
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        _assert_same_bits(got, transforms._kernel_min(beta, log_ts, CFG, kind))
        _assert_same_bits(single, got[0:400:37])

    def test_grid_extensions_match_dense(self, monkeypatch):
        # xi1 of ExpPower{1, 1/2} at t = 4^-(n-1) has its minimiser below
        # r_min for large n; xi1 of InversePower{1, 1} (minimiser 2t) and
        # xi2 of InversePower{1, 1} (minimiser 2/t) leave the grid at the top.
        cases = [
            (ExpPower(C=1.0, theta=0.5), -np.arange(1, 3001) * math.log(4.0), "xi1"),
            (InversePower(a=1.0, p=1.0), np.log(np.geomspace(1e-12, 1e14, 300)), "xi1"),
            (InversePower(a=1.0, p=1.0), np.log(np.geomspace(1e-14, 1e12, 300)), "xi2"),
        ]
        grids = []
        real = transforms._grid_pass

        def recording(beta, log_ts, r, kind):
            grids.append((r[0], r[-1]))
            return real(beta, log_ts, r, kind)

        monkeypatch.setattr(transforms, "_grid_pass", recording)
        got = [transforms._kernel_min(beta, lts, CFG, kind) for beta, lts, kind in cases]
        assert any(hi == CFG.r_grid.r_min for _, hi in grids)  # a left extension ran
        assert any(lo == CFG.r_grid.r_max for lo, _ in grids)  # a right extension ran
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        for (beta, lts, kind), values in zip(cases, got):
            _assert_same_bits(values, transforms._kernel_min(beta, lts, CFG, kind))

    def test_benchmark_inputs_match_dense(self, monkeypatch):
        # transform sp2sl on ExpPower{1, 1/2} with N_max = 2e5, and
        # xi --kernel xi1 on InversePower{a, 1} over t in [1e-3, 1e3].
        beta = ExpPower(C=1.0, theta=0.5)
        cfg = TransformConfig(N_max=200_000)
        n0 = transforms._auto_n0_xi1(beta, cfg)
        ts = np.log(np.geomspace(1e-3, 1e3, 40))
        inverse = [InversePower(a=a, p=1.0) for a in (0.5, 0.83, 1.37, 2.0)]
        ns, seq = transforms._sp_kernel_sequence(beta, cfg, n0, cfg.N_max)
        xis = [transforms._kernel_min(b, ts, CFG, "xi1") for b in inverse]
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        _assert_same_bits(seq, transforms._sp_kernel_sequence(beta, cfg, n0, cfg.N_max)[1])
        for b, got in zip(inverse, xis):
            _assert_same_bits(got, transforms._kernel_min(b, ts, CFG, "xi1"))

    @settings(max_examples=150, deadline=None)
    @given(
        knots=st.lists(
            st.tuples(st.floats(-25.0, 25.0), st.sampled_from([0.05, 0.5, 1.0, 2.0, 7.0, 40.0, 1e3])),
            min_size=1,
            max_size=8,
            unique_by=lambda k: round(k[0], 6),
        ),
        log_ts=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=60),
        kind=st.sampled_from(["xi1", "xi2"]),
    )
    def test_random_tables_match_dense(self, knots, log_ts, kind):
        knots = sorted(knots)
        table = Tabulated(points=tuple((math.exp(x), v) for x, v in knots))
        r = np.geomspace(1e-12, 1e12, 160)
        lts = np.array(log_ts + log_ts[:3])
        best, idx = transforms._grid_pass(table, lts, r, kind)
        want_best, want_idx = dense_grid_pass(table, lts, r, kind)
        _assert_same_bits(best, want_best)
        _assert_same_bits(idx, want_idx)

    def test_work_count(self, monkeypatch):
        cells = []
        real = transforms._cells

        def counting(log_ts, r, log_b, kind):
            cells.append(np.size(log_b))
            return real(log_ts, r, log_b, kind)

        monkeypatch.setattr(transforms, "_cells", counting)
        beta = ExpPower(C=1.0, theta=0.5)
        log_ts = -np.arange(1, 200_001) * math.log(4.0)
        r = CFG.r_grid.points()
        transforms._grid_pass(beta, log_ts, r, "xi1")
        rows, cols = log_ts.size, r.size
        assert sum(cells) < cols * (math.log2(rows) + 2) + 2 * rows
        assert len(cells) <= math.ceil(math.log2(rows + 1))  # one flat gather per level


class TestConfig:
    def test_delta_must_exceed_two(self):
        with pytest.raises(ConfigError):
            TransformConfig(delta=2.0)

    def test_n0_lower_bound(self):
        with pytest.raises(ConfigError):
            TransformConfig(n0=1)

    def test_grid_count_minimum(self):
        with pytest.raises(ConfigError):
            GridSpec(count=50)

    def test_json_round_trip(self):
        cfg = TransformConfig(delta=3.0, n0=2, s0=0.5, C1=2.0, k_max=100)
        back = TransformConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TransformConfig.from_json_dict({"delta": 4.0, "bogus": 1})


class TestCheckVanishing:
    def test_one_over_n_holds(self):
        ns = np.arange(2, 401)
        verdict = check_vanishing((ns, 1.0 / ns), CFG)
        assert verdict.status == "holds_empirically"
        assert verdict.trend_slope == pytest.approx(-1.0, abs=1e-6)

    def test_constant_fails(self):
        ns = np.arange(2, 401)
        verdict = check_vanishing((ns, np.ones_like(ns, dtype=float)), CFG)
        assert verdict.status == "fails_empirically"

    def test_undefined_entry_fails(self):
        ns = np.arange(2, 101)
        vals = 1.0 / ns
        vals[10] = np.nan
        verdict = check_vanishing((ns, vals), CFG)
        assert verdict.status == "fails_empirically"

    def test_exact_zero_tail_holds(self):
        ns = np.arange(2, 101)
        vals = np.where(ns < 10, 1.0 / ns, 0.0)
        verdict = check_vanishing((ns, vals), CFG)
        assert verdict.status == "holds_empirically"

    def test_slow_flattening_fails(self):
        # decreasing but converging to a positive limit
        ns = np.arange(2, 401)
        vals = 0.7 + 1.0 / ns
        verdict = check_vanishing((ns, vals), CFG)
        assert verdict.status == "fails_empirically"

    def test_exp_power_theta_one_kernel_sequence_fails(self):
        verdict = sp2sl_condition(ExpPower(C=1.0, theta=1.0), CFG)
        assert verdict.status == "fails_empirically"

    def test_exp_power_theta_small_holds(self):
        for theta in (0.5, 0.6):
            verdict = sp2sl_condition(ExpPower(C=1.0, theta=theta), CFG)
            assert verdict.status == "holds_empirically"

    def test_mapping_input_accepted(self):
        seq = {n: ExtendedValue.finite(1.0 / n) for n in range(2, 50)}
        assert check_vanishing(seq, CFG).status == "holds_empirically"

    def test_blocks_match_whole_sequence(self):
        # A staircase that only decreases from one block to the next.
        ns = np.arange(2, 402)
        vals = 1.0 / ((ns - 2) // 7 + 1)
        whole = check_vanishing((ns, vals), CFG)
        blocks = [(ns[i : i + 7], vals[i : i + 7]) for i in range(0, ns.size, 7)]
        verdict = transforms._vanishing_verdict(blocks, ns.size, 2, 401, CFG)
        assert whole.status == "holds_empirically"
        assert verdict.status == whole.status
        assert verdict.sequence_tail == whole.sequence_tail
        assert verdict.trend_slope == pytest.approx(whole.trend_slope, rel=1e-12)

    def test_window_too_short_rejected(self):
        ns = np.arange(10, 16)
        with pytest.raises(ConfigError):
            check_vanishing((ns, 1.0 / ns), CFG)


class TestNZero:
    CFG2 = TransformConfig(n0=2)

    def test_enumeration(self):
        # n * xi1(4**(-n+1)) = n * 4**(2-n) for beta = 1/r:
        # 2, 0.75, 0.25, 0.078125, 0.0234375 at n = 2..6
        inv = InversePower(a=1.0, p=1.0)
        assert n_zero(inv, 0.1, self.CFG2) == 4

    def test_fallback_to_n0(self):
        inv = InversePower(a=1.0, p=1.0)
        assert n_zero(inv, 3.0, self.CFG2) == 2

    def test_middle_threshold(self):
        inv = InversePower(a=1.0, p=1.0)
        assert n_zero(inv, 0.5, self.CFG2) == 3

    def test_cap_error_when_set_reaches_n_max(self):
        inv = InversePower(a=1.0, p=1.0)
        cfg = TransformConfig(n0=2, N_max=5)
        with pytest.raises(CapError):
            n_zero(inv, 1e-9, cfg)

    def test_gate_enforced(self):
        with pytest.raises(ConditionFailedError):
            n_zero(ExpPower(C=1.0, theta=1.0), 0.1, CFG)


class TestSequenceReuse:
    BETA = ExpPower(C=1.0, theta=0.6)
    CFG = TransformConfig(N_max=3000)
    GRID = log_grid(5e-3, 0.5, 20)

    def test_verdict_lends_its_sequence(self, kernel_rows):
        verdict = sp2sl_condition(self.BETA, self.CFG)
        built = sum(r.size for r in kernel_rows)
        out = sl_from_sp(self.BETA, self.GRID, self.CFG, verdict=verdict)
        assert built == self.CFG.N_max - int(verdict.sequence.ns[0]) + 1
        assert sum(r.size for r in kernel_rows) == built
        assert out.points == sl_from_sp(self.BETA, self.GRID, self.CFG).points

    @pytest.mark.parametrize("other", [TransformConfig(N_max=3000, delta=5.0), TransformConfig(N_max=2000)])
    def test_foreign_sequence_not_reused(self, kernel_rows, other):
        verdict = sp2sl_condition(self.BETA, other)
        kernel_rows.clear()
        out = sl_from_sp(self.BETA, self.GRID, self.CFG, verdict=verdict)
        assert sum(r.size for r in kernel_rows) == 3000 - transforms._auto_n0_xi1(self.BETA, self.CFG) + 1
        assert out.points == sl_from_sp(self.BETA, self.GRID, self.CFG).points


class TestSp2slWindow:
    BETA = ExpPower(C=1.0, theta=0.6)

    def test_window_from_sequence(self):
        cfg = TransformConfig(N_max=3000)
        verdict = sp2sl_condition(self.BETA, cfg)
        lo, hi = transforms.sp2sl_window(verdict, cfg, 100, 2000)
        seq = verdict.sequence
        assert lo == 1.02 * float(seq.values[2000 - seq.ns[0]])
        assert hi == float(seq.values[100 - seq.ns[0]])
        assert n_zero(self.BETA, lo, cfg) < 2000

    def test_failing_verdict_is_refused(self):
        cfg = TransformConfig(N_max=3000, slope_tol=50.0)
        verdict = sp2sl_condition(self.BETA, cfg)
        assert verdict.fails
        with pytest.raises(ConditionFailedError):
            transforms.sp2sl_window(verdict, cfg, 100, 2000)

    @pytest.mark.filterwarnings("ignore:vanishing condition")
    def test_indices_past_the_sequence_give_config_error(self):
        cfg = TransformConfig(n0=1500, N_max=3000)
        verdict = sp2sl_condition(self.BETA, cfg)
        with pytest.raises(ConfigError, match="no s-window"):
            transforms.sp2sl_window(verdict, cfg, 100, 1000)


class TestSlFromSp:
    def test_closed_form_value(self):
        inv = InversePower(a=1.0, p=1.0)
        cfg = TransformConfig(n0=2)
        out = sl_from_sp(inv, [0.05, 0.1, 0.5, 1.0], cfg)
        # N0(0.1) = 4 so the value there is log(4) * 5
        assert out.eval(0.1) == pytest.approx(math.log(4.0) * 5, rel=1e-9)

    def test_monotone_output(self):
        out = sl_from_sp(InversePower(a=1.0, p=1.0), log_grid(1e-3, 1.0, 30), TransformConfig(n0=2))
        vals = np.array([v for _, v in out.points])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_gate_blocks_theta_one(self):
        with pytest.raises(ConditionFailedError):
            sl_from_sp(ExpPower(C=1.0, theta=1.0), log_grid(0.1, 1.0, 12), CFG)

    def test_poly_order_for_theta_half(self):
        # beta_SP = exp(1 + 1/sqrt(s)) maps to an SL rate of order 1/s.
        out = sl_from_sp(
            ExpPower(C=1.0, theta=0.5),
            log_grid(1e-5, 1e-2, 60),
            TransformConfig(N_max=200_000),
        )
        fit = fit_exponent(list(out.points), "log-log-power", (1e-5, 1e-2))
        assert fit == pytest.approx(1.0, abs=0.15)

    def test_s0_clamping(self):
        inv = InversePower(a=1.0, p=1.0)
        cfg = TransformConfig(n0=2, s0=0.2)
        out = sl_from_sp(inv, [0.05, 0.1, 0.5, 1.0], cfg)
        assert out.eval(0.5) == out.eval(0.2)
        assert out.eval(1.0) == out.eval(0.2)


class TestWlFromSp:
    def test_closed_form_value(self):
        inv = InversePower(a=1.0, p=1.0)
        cfg = TransformConfig(n0=2)
        out = wl_from_sp(inv, [0.125, 0.3, 0.7, 1.0], cfg)
        for s in (0.125, 0.3, 0.7, 1.0):
            assert out.eval(s) == pytest.approx(2.0, rel=1e-4)

    def test_theta_one_gives_bounded_rate(self):
        out = wl_from_sp(ExpPower(C=1.0, theta=1.0), log_grid(1e-8, 1e-4, 40), CFG)
        vals = [v for _, v in out.points]
        assert max(vals) / min(vals) < 3.0

    def test_deep_window_recovers_order(self):
        # The log-power order (theta-1)/theta emerges once log(1/s) is in
        # the hundreds (still well inside doubles).
        out = wl_from_sp(ExpPower(C=1.0, theta=2.0), log_grid(1e-180, 1e-40, 60), CFG)
        fit = fit_exponent(list(out.points), "log-log-log", (1e-180, 1e-40))
        assert fit == pytest.approx(0.5, abs=0.15)

    def test_monotone_output(self):
        out = wl_from_sp(ExpPower(C=1.0, theta=2.0), log_grid(1e-8, 1e-4, 30), CFG)
        vals = np.array([v for _, v in out.points])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_cap_error(self):
        cfg = TransformConfig(n0=2, k_max=5)
        with pytest.raises(CapError):
            wl_from_sp(InversePower(a=1.0, p=1.0), [1e-8], cfg)

    def test_degenerate_window_flagged(self):
        # A bounded SP rate below 1/t for every window index: all kernel
        # values vanish, so the map has no weak log-Sobolev content.
        tab = Tabulated(points=((0.001, 1.8), (1.0, 1.2)))
        with pytest.raises(DegenerateTransformError):
            wl_from_sp(tab, log_grid(1e-3, 1.0, 12), CFG)


class TestSpFromWl:
    def test_constant_rate_exact_indices(self):
        cb = Constant(B=2.0)
        cfg = TransformConfig(n0=2)
        out = sp_from_wl(cb, [0.11, 0.3], cfg)
        # suffix sup of 2/n at k is 2/k; smallest admissible k = ceil(2/s)
        assert out.eval(0.3) == pytest.approx(4.0 ** math.ceil(2 / 0.3), rel=1e-12)
        assert out.eval(0.11) == pytest.approx(4.0 ** math.ceil(2 / 0.11), rel=1e-12)

    def test_constant_rate_exp_order(self):
        cb = Constant(B=2.0)
        out = sp_from_wl(cb, log_grid(0.02, 0.5, 40), CFG)
        fit = fit_exponent(list(out.points), "log-of-log", (0.02, 0.5))
        assert fit == pytest.approx(1.0, abs=0.15)

    def test_monotone_output(self):
        out = sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(0.1, 0.8, 20), CFG)
        vals = np.array([v for _, v in out.points])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_gate_blocks_nonvanishing(self):
        # beta_WL growing like a power of 1/s makes the condition sequence blow up.
        with pytest.raises(ConditionFailedError):
            sp_from_wl(ExpPower(C=1.0, theta=1.0), [0.1, 0.5], CFG)

    def test_overflow_capped(self):
        with pytest.raises(CapError):
            sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(1e-4, 1e-2, 12), CFG)

    def test_log_values_past_double_range(self):
        # k* = ceil(2/s) reaches 2000 at s = 1e-3, where 4^k* overflows.
        cfg = TransformConfig(n0=2, k_max=5000, N_max=5000)
        out = sp_from_wl(Constant(B=2.0), [1e-3, 0.3], cfg)
        assert [v for _, v in out.log_points] == [2000 * math.log(4.0), 7 * math.log(4.0)]
        with pytest.raises(CapError):
            out.points

    def test_unbounded_input_past_underflow(self):
        # delta^-n n^-theta underflows doubles from n ~ 510 on.
        cfg = TransformConfig(k_max=20_000, N_max=20_000)
        out = sp_from_wl(LogPower(C=1.0, q=0.5), [0.02, 0.05], cfg)
        ns = np.arange(2, 20_001)
        g = (1.0 + np.sqrt(ns * math.log(4.0) + np.log(ns))) / ns
        sup = np.maximum.accumulate(g[::-1])[::-1]
        for s, log_beta in out.log_points:
            assert log_beta == int(ns[np.flatnonzero(sup <= s)[0]]) * math.log(4.0)

    @pytest.mark.parametrize(
        "beta",
        [
            LogPower(C=1.0, q=0.5),
            Constant(B=2.0),
            ExpPower(C=1.0, theta=1.0),
            # a step in beta_WL puts a bump into the condition sequence near n = 47
            Tabulated(points=((1e-30, 50.0), (1e-29, 1.0))),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_block_walk_matches_one_block(self, beta, monkeypatch):
        cfg = TransformConfig(k_max=3000, N_max=3000)
        grid = log_grid(0.03, 0.5, 25)

        def run():
            verdict = wl2sp_condition(beta, cfg)
            sup = np.concatenate([b for _, b in transforms._wl_suffix_sup(beta, cfg, 2)][::-1])
            try:
                out = sp_from_wl(beta, grid, cfg, verdict=verdict).log_points
            except ConditionFailedError:
                out = None
            return verdict, sup, out

        whole_verdict, whole_sup, whole = run()
        monkeypatch.setattr(transforms, "_BLOCK", 7)
        verdict, sup, blocked = run()
        np.testing.assert_array_equal(sup, whole_sup)
        assert blocked == whole
        assert verdict.status == whole_verdict.status
        assert verdict.sequence_tail == whole_verdict.sequence_tail
        assert verdict.trend_slope == pytest.approx(whole_verdict.trend_slope, rel=1e-12, nan_ok=True)


class TestSpFromSl:
    def test_exact_exponent_indices(self):
        # With delta = e the admissible index is ceil(2/sqrt(s)).
        inv = InversePower(a=1.0, p=1.0)
        cfg = TransformConfig(delta=math.e, n0=2)
        out = sp_from_sl(inv, [0.035, 0.17, 0.3], cfg)
        for s in (0.035, 0.17, 0.3):
            k = max(2, math.ceil(2.0 / math.sqrt(s)))
            assert out.eval(s) == pytest.approx(math.e**k, rel=1e-9)

    def test_poly_power_exp_order(self):
        out = sp_from_sl(PolyPower(C=1.0, p=1.0), log_grid(1e-4, 1e-2, 60), CFG)
        fit = fit_exponent(list(out.points), "log-of-log", (1e-4, 1e-2))
        assert fit == pytest.approx(0.5, abs=0.15)

    def test_monotone_output(self):
        out = sp_from_sl(PolyPower(C=1.0, p=1.0), log_grid(1e-3, 0.5, 25), CFG)
        vals = np.array([v for _, v in out.points])
        assert np.all(np.diff(vals) <= 1e-12)

    def test_cap_error(self):
        cfg = TransformConfig(k_max=4)
        with pytest.raises(CapError):
            sp_from_sl(PolyPower(C=1.0, p=1.0), [1e-6], cfg)


class TestConditionHelpers:
    def test_wl2sp_condition_log_power_holds(self):
        verdict = wl2sp_condition(LogPower(C=1.0, q=0.5), CFG)
        assert verdict.status == "holds_empirically"

    def test_wl2sp_condition_constant_holds(self):
        verdict = wl2sp_condition(Constant(B=3.0), CFG)
        assert verdict.status == "holds_empirically"

    def test_verdict_json(self):
        verdict = wl2sp_condition(Constant(B=3.0), CFG)
        d = verdict.to_json_dict()
        assert d["status"] == "holds_empirically"
        assert isinstance(d["sequence_tail"], list)
