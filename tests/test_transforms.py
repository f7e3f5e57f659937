import dataclasses
import inspect
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratecalc import (
    CapError,
    ConditionFailedError,
    Constant,
    ConfigError,
    ExpPower,
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
from ratecalc import ratefn, transforms
from ratecalc.errors import DegenerateTransformError
from conftest import MANY_CORES

CFG = TransformConfig()
R_GRID = np.geomspace(transforms._R_MIN, transforms._R_MAX, transforms._R_COUNT)  # the kernels' base grid


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
        v = xi1(inv, 0.5).value
        assert v == pytest.approx(2.0, rel=1e-4)
        oracle = dense_xi1(lambda r: 1.0 / r, 0.5)
        assert v == pytest.approx(oracle, rel=1e-5)

    def test_xi1_constant_vanishing_infimum(self):
        v = xi1(Constant(B=2.0), 0.25)
        assert v.is_finite and v.value == 0.0

    def test_xi1_constant_empty_feasible_set(self):
        assert xi1(Constant(B=2.0), 1.0).is_undefined

    def test_xi2_inverse_power_closed_form(self):
        inv = InversePower(a=1.0, p=1.0)
        v = xi2(inv, 2.0).value
        assert v == pytest.approx(1.0, rel=1e-4)
        oracle = dense_xi2(lambda r: 1.0 / r, 2.0)
        assert v == pytest.approx(oracle, rel=1e-5)

    def test_xi2_constant_undefined(self):
        assert xi2(Constant(B=5.0), 4.0).is_undefined

    def test_xi1_exp_power_log_order(self):
        # For beta(r) = exp(C(1+r**-theta)) the kernel is bounded above
        # and below by multiples of log(1+1/t)**(-1/theta).
        beta = ExpPower(C=1.0, theta=0.5)
        ratios = []
        for t in np.geomspace(1e-8, 1e-3, 15):
            v = xi1(beta, float(t)).value
            ratios.append(v * math.log1p(1.0 / t) ** 2)
        assert 1.0 < min(ratios) <= max(ratios) < 4.0
        assert max(ratios) / min(ratios) < 2.5

    def test_xi2_poly_power_power_order(self):
        beta = PolyPower(C=1.0, p=1.0)
        ratios = []
        for t in np.geomspace(100.0, 1e5, 15):
            v = xi2(beta, float(t)).value
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
                v1, v2 = xi1(beta, float(t1)), xi1(beta, float(t2))
                if v1.is_finite and v2.is_finite:
                    assert v1.value <= v2.value * (1 + 1e-6) + 1e-12

    def test_xi2_nonincreasing_in_t(self):
        rng = np.random.default_rng(12)
        betas = [PolyPower(C=1.0, p=1.0), InversePower(a=1.0, p=2.0), Constant(B=0.5)]
        for beta in betas:
            for _ in range(25):
                t1, t2 = sorted(rng.uniform(1.0, 1e4, 2))
                v1, v2 = xi2(beta, float(t1)), xi2(beta, float(t2))
                if v1.is_finite and v2.is_finite:
                    assert v2.value <= v1.value * (1 + 1e-6) + 1e-12

    def test_scaling_up_sp_raises_xi1(self):
        base = PolyPower(C=1.0, p=1.0)
        scaled = _Scaled(base, 2.0)
        for t in (1e-4, 1e-3, 1e-2):
            v1, v2 = xi1(base, t), xi1(scaled, t)
            if v1.is_finite and v2.is_finite:
                assert v2.value >= v1.value * (1 - 1e-6) - 1e-12

    def test_scaling_down_sl_lowers_xi2(self):
        base = PolyPower(C=1.0, p=1.0)
        scaled = _Scaled(base, 0.5)
        for t in (10.0, 100.0, 1e3):
            v1, v2 = xi2(base, t), xi2(scaled, t)
            if v1.is_finite and v2.is_finite:
                assert v2.value <= v1.value * (1 + 1e-6) + 1e-12

    def test_grid_refinement_stability(self, monkeypatch):
        inv = InversePower(a=1.0, p=1.0)
        exp = ExpPower(C=1.0, theta=0.5)
        cases = [(xi1, inv, t) for t in np.geomspace(1e-3, 1e3, 8)]
        cases += [(xi1, exp, t) for t in np.geomspace(1e-6, 1e-3, 5)]
        cases += [(xi2, PolyPower(C=1.0, p=1.0), t) for t in np.geomspace(10.0, 1e3, 5)]
        base = [xi(beta, float(t)).value for xi, beta, t in cases]
        monkeypatch.setattr(transforms, "_R_COUNT", 1200)
        fine = [xi(beta, float(t)).value for xi, beta, t in cases]
        assert base != fine  # the count took effect
        for a, b in zip(base, fine):
            assert abs(a - b) <= 1e-4 * abs(b)

    @pytest.mark.parametrize(
        "fn, params",
        [
            (xi1, ["beta_sp", "t"]),
            (xi2, ["beta_sl", "t"]),
            (transforms._kernel_min, ["beta", "log_ts", "kind"]),
            (transforms._kernel_block, ["beta", "log_ts", "kind"]),
        ],
        ids=["xi1", "xi2", "_kernel_min", "_kernel_block"],
    )
    def test_kernels_take_beta_and_t_alone(self, fn, params):
        # As the paper writes them, with no config; a tracer reads xi1's
        # arguments by the names beta_sp and t.
        assert list(inspect.signature(fn).parameters) == params

    def test_base_grid_is_the_former_default(self, monkeypatch):
        # 600 points log-spaced over [1e-8, 1e8], the default of the grid
        # setting the constants replaced, so no kernel value moved.
        grids = []
        real = transforms._grid_pass

        def recording(beta, log_ts, r, kind):
            grids.append(np.array(r))
            return real(beta, log_ts, r, kind)

        monkeypatch.setattr(transforms, "_grid_pass", recording)
        xi2(PolyPower(C=1.0, p=1.0), 10.0)
        _assert_same_bits(grids[0], np.geomspace(1e-8, 1e8, 600))

    def test_bad_t_rejected(self):
        with pytest.raises(MathDomainError):
            xi1(Constant(B=1.0), 0.0)
        with pytest.raises(MathDomainError):
            xi2(Constant(B=1.0), -1.0)


def dense_grid_pass(beta, log_ts, r, kind):
    """Reference row minima: the full (rows x r-grid) sweep.

    Returns (min value per row, leftmost argmin per row); rows with no
    finite grid value get +inf / -1.
    """
    log_b = beta.log_eval_many(r)
    if kind == "xi1":
        u = log_ts[:, None] + log_b[None, :]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            denom = -np.expm1(u)
            vals = np.where(u < 0.0, r[None, :] / denom, np.inf)
    else:
        v = log_b[None, :] - log_ts[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


def mirrored_extension_sweeps(grid_pass, beta, lts, kind):
    """The (log t, r-grid) of every extension sweep of _kernel_block, as
    two mirrored loops, left edge then right edge, built them."""
    T = transforms
    base = np.geomspace(T._R_MIN, T._R_MAX, T._R_COUNT)
    per_decade = (T._R_COUNT - 1) / math.log10(T._R_MAX / T._R_MIN)
    vals, argm = grid_pass(beta, lts, base, kind)
    found = np.isfinite(vals)
    left_rows = np.flatnonzero((argm == 0) & found)
    right_rows = np.flatnonzero(((argm == base.size - 1) & found) | ~found)
    sweeps = []

    lo_edge = T._R_MIN
    while left_rows.size and lo_edge > T._R_ABS_MIN:
        new_lo = max(lo_edge * 10.0 ** (-T._EXT_DECADES), T._R_ABS_MIN)
        count = max(int(math.ceil(math.log10(lo_edge / new_lo) * per_decade)) + 1, 8)
        grid = np.geomspace(new_lo, lo_edge, count)
        sweeps.append((lts[left_rows], grid))
        vals, argm = grid_pass(beta, lts[left_rows], grid, kind)
        left_rows = left_rows[(argm == 0) & np.isfinite(vals)]
        lo_edge = new_lo

    hi_edge = T._R_MAX
    while right_rows.size and hi_edge < T._R_ABS_MAX:
        new_hi = min(hi_edge * 10.0 ** T._EXT_DECADES, T._R_ABS_MAX)
        count = max(int(math.ceil(math.log10(new_hi / hi_edge) * per_decade)) + 1, 8)
        grid = np.geomspace(hi_edge, new_hi, count)
        sweeps.append((lts[right_rows], grid))
        vals, argm = grid_pass(beta, lts[right_rows], grid, kind)
        feasible = np.isfinite(vals)
        found[right_rows] |= feasible
        right_rows = right_rows[((argm == grid.size - 1) & feasible) | ~found[right_rows]]
        hi_edge = new_hi
    return sweeps


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
        r = R_GRID
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
        r = R_GRID
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
        got = transforms._kernel_min(beta, log_ts, kind)
        single = [transforms._kernel_min(beta, log_ts[i : i + 1], kind)[0] for i in range(0, 400, 37)]
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        _assert_same_bits(got, transforms._kernel_min(beta, log_ts, kind))
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
        got = [transforms._kernel_min(beta, lts, kind) for beta, lts, kind in cases]
        assert any(hi == transforms._R_MIN for _, hi in grids)  # a left extension ran
        assert any(lo == transforms._R_MAX for lo, _ in grids)  # a right extension ran
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        for (beta, lts, kind), values in zip(cases, got):
            _assert_same_bits(values, transforms._kernel_min(beta, lts, kind))

    @pytest.mark.parametrize(
        "beta, log_ts, kind",
        [
            # argmins below _R_ABS_MIN: the left extension stops there
            (LogPower(C=1.0, q=0.5), -np.arange(1, 3001) * math.log(4.0), "xi1"),
            (InversePower(a=1.0, p=1.0), np.log(np.geomspace(1e-12, 1e14, 300)), "xi1"),
            (InversePower(a=1.0, p=1.0), np.log(np.geomspace(1e-14, 1e12, 300)), "xi2"),
            # feasible only past r = 1e20 .. 1e140: rows stay in the right loop infeasible
            (InversePower(a=1.0, p=0.1), np.log(np.geomspace(1e-14, 1e-2, 50)), "xi2"),
        ],
        ids=["LogPower-xi1", "InversePower-xi1", "InversePower-xi2", "InversePower-p0.1-xi2"],
    )
    def test_extension_loop_builds_the_mirrored_loops_sweeps(self, beta, log_ts, kind, monkeypatch):
        # _kernel_block extends the base grid at both edges in one loop; it
        # must sweep the same rows over the same grids, bit for bit, as the
        # two mirrored loops it replaced.
        sweeps = []
        real = transforms._grid_pass

        def recording(beta, lts, r, kind):
            sweeps.append((np.array(lts), np.array(r)))
            return real(beta, lts, r, kind)

        monkeypatch.setattr(transforms, "_grid_pass", recording)
        transforms._kernel_block(beta, log_ts, kind)
        (lts, base), *extensions = sweeps
        want = mirrored_extension_sweeps(real, beta, lts, kind)
        assert extensions and len(extensions) == len(want)
        for (got_lts, got_grid), (want_lts, want_grid) in zip(extensions, want):
            _assert_same_bits(got_lts, want_lts)
            _assert_same_bits(got_grid, want_grid)

    def test_benchmark_inputs_match_dense(self, monkeypatch):
        # transform sp2sl on ExpPower{1, 1/2} with N_max = 2e5, and
        # xi --kernel xi1 on InversePower{a, 1} over t in [1e-3, 1e3].
        beta = ExpPower(C=1.0, theta=0.5)
        cfg = TransformConfig(N_max=200_000)
        n0 = transforms._auto_n0_xi1(beta, cfg)
        ts = np.log(np.geomspace(1e-3, 1e3, 40))
        inverse = [InversePower(a=a, p=1.0) for a in (0.5, 0.83, 1.37, 2.0)]
        ns = np.arange(n0, cfg.N_max + 1)
        seq = transforms._xi1_terms(beta, cfg, ns)
        xis = [transforms._kernel_min(b, ts, "xi1") for b in inverse]
        monkeypatch.setattr(transforms, "_grid_pass", dense_grid_pass)
        _assert_same_bits(seq, transforms._xi1_terms(beta, cfg, ns))
        for b, got in zip(inverse, xis):
            _assert_same_bits(got, transforms._kernel_min(b, ts, "xi1"))

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
        r = R_GRID
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

    def test_fractional_n0_refused(self):
        # The maps' sums run over integers n >= n0; n0 = 2.5 used to build a table on n = 2.5, 3.5, ...
        with pytest.raises(ConfigError, match="config field 'n0' must be an integer, got 2.5"):
            sl_from_sp(ExpPower(C=1, theta=0.5), [1e-2, 1e-1], TransformConfig(n0=2.5))

    def test_json_round_trip(self):
        cfg = TransformConfig(delta=3.0, n0=2, s0=0.5, C1=2.0, k_max=100)
        back = TransformConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    @pytest.mark.parametrize("cfg", [TransformConfig(), TransformConfig(n0=3, s0=0.5, k_max=1000)])
    def test_json_dict_holds_every_field(self, cfg):
        # The manifest's resolved_config, as the field-by-field dict wrote it.
        assert cfg.to_json_dict() == {
            "delta": cfg.delta, "n0": cfg.n0, "s0": cfg.s0, "C1": cfg.C1, "C2": cfg.C2, "C3": cfg.C3,
            "C4": cfg.C4, "C5": cfg.C5, "C6": cfg.C6, "theta_cond": cfg.theta_cond,
            "k_max": cfg.k_max, "N_max": cfg.N_max,
        }

    @pytest.mark.parametrize(
        "grid",
        [{}, {"count": 600}, {"count": 99}, {"count": 10**400}, {"r_min": math.inf}, {"r_max": math.inf}, {"count": math.inf}],
        ids=["empty", "count-600", "count-99", "count-10**400", "r_min-inf", "r_max-inf", "count-inf"],
    )
    def test_r_grid_refused_as_unknown_key(self, grid):
        # The kernels' r-grid is no setting: a config that holds r_grid, even
        # the former default written out, is refused by the key alone.
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['r_grid']")):
            TransformConfig.from_json_dict({"delta": 4.0, "r_grid": grid})

    def test_r_grid_is_no_field(self):
        assert "r_grid" not in [f.name for f in dataclasses.fields(TransformConfig)]
        with pytest.raises(TypeError, match="r_grid"):
            TransformConfig(r_grid={"count": 600})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TransformConfig.from_json_dict({"delta": 4.0, "bogus": 1})

    @pytest.mark.parametrize("value", [0.1, 50.0, math.inf], ids=["0.1", "50", "inf"])
    def test_slope_tol_refused_as_unknown_key(self, value):
        # The verdict's slope threshold is the constant _SLOPE_TOL, no setting.
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['slope_tol']")):
            TransformConfig.from_json_dict({"slope_tol": value})

    def test_slope_tol_is_no_field(self):
        assert "slope_tol" not in [f.name for f in dataclasses.fields(TransformConfig)]
        with pytest.raises(TypeError, match="slope_tol"):
            TransformConfig(slope_tol=0.1)

    @pytest.mark.parametrize(
        "d,field",
        [({"delta": 10**400}, "'delta'"), ({"C4": -(10**400)}, "'C4'"), ({"N_max": 10**400}, "'N_max'")],
    )
    def test_integer_past_double_range_rejected(self, d, field):
        with pytest.raises(ConfigError, match=f"{field} out of range: an integer past double range"):
            TransformConfig.from_json_dict(d)

    def test_integers_in_range_kept_as_given(self):
        cfg = TransformConfig.from_json_dict({"C4": 2, "delta": 5, "N_max": 2**62})
        assert (type(cfg.C4), cfg.C4, type(cfg.delta), cfg.N_max) == (int, 2, int, 2**62)

    @pytest.mark.parametrize(
        "name", ["delta", "s0", "C1", "C2", "C3", "C4", "C5", "C6", "theta_cond", "n0", "k_max", "N_max"]
    )
    def test_infinite_number_rejected(self, name):
        integral = name in ("n0", "k_max", "N_max")  # refused as non-integral first
        with pytest.raises(ConfigError, match=f"{name}' must be an integer" if integral else f"{name} must be finite"):
            TransformConfig(**{name: math.inf})
        if not integral:
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TransformConfig.from_json_dict({name: math.inf})

    def test_null_start_and_clamp_admitted(self):
        cfg = TransformConfig.from_json_dict({"n0": None, "s0": None, "delta": 1e300, "C3": 1e-300})
        assert (cfg.n0, cfg.s0, cfg.delta, cfg.C3) == (None, None, 1e300, 1e-300)


def vanishing_verdict(blocks, size, n_first, n_last):
    """The rules of ``check_vanishing`` over ``size`` entries from the
    (ns, log(ns), vals) pieces ``blocks``, right to left, by the walk's fold."""
    layout = transforms._verdict_layout(size, n_first, n_last)

    def parts():
        pos = size
        for ns, log_n, vals in blocks:
            pos -= vals.size
            yield transforms._verdict_part(layout, pos, ns, log_n, vals)

    return transforms._fold_verdict(parts(), layout)


def forward_vanishing_verdict(blocks, size, n_first, n_last):
    """Reference fold: the rules of ``check_vanishing`` over blocks fed
    from left to right, the order the first blocked implementation used."""
    if size < 4:
        raise ConfigError("vanishing check needs at least 4 sequence values")
    if n_last < 2 * n_first:
        raise ConfigError("N_max must be at least twice n0 for the vanishing check")

    tail_start = size - int(math.ceil(size / 4))
    half_start = size - int(math.ceil(size / 2))
    tail_len = size - tail_start
    if tail_len <= 64:
        picks = np.arange(tail_start, size)
    else:
        picks = tail_start + np.linspace(0, tail_len - 1, 64).astype(int)

    pos = 0
    first = last = math.nan
    undefined = False
    tail_max = -math.inf
    decreases = False
    half_finite = True
    prev = np.empty(0)
    fit = (0, 0.0, 0.0, 0.0, 0.0)
    pairs = []
    for ns, vals in blocks:
        if pos == 0:
            first = float(vals[0])
        last = float(vals[-1])
        undefined = undefined or not np.all(np.isfinite(vals))
        sel = picks[(picks >= pos) & (picks < pos + vals.size)] - pos
        pairs.extend(zip(ns[sel].tolist(), vals[sel].tolist()))
        t = max(tail_start - pos, 0)
        if t < vals.size:
            tail_max = max(tail_max, float(vals[t:].max()))
        h = max(half_start - pos, 0)
        if h < vals.size:
            half_finite = half_finite and bool(np.all(np.isfinite(vals[h:])))
            if half_finite:
                run = np.concatenate([prev, vals[h:]])
                decreases = decreases or bool(np.any(np.diff(run) < -1e-9 * np.abs(run[:-1])))
                prev = run[-1:]
                log_n = np.log(ns[h:].astype(float))
                y = np.log(np.maximum(vals[h:], 1e-300))
                fit = transforms._merge_fit(fit, transforms._fit_sums(log_n, y, np.empty_like(log_n)))
        pos += vals.size

    slope = fit[4] / fit[3] if half_finite else math.nan
    tail = tuple(pairs)
    if undefined:
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if tail_max <= 1e-12 * (1.0 + abs(first)):
        return transforms.ConditionVerdict(transforms.HOLDS, tail, slope)
    if not decreases:
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if not (slope < -transforms._SLOPE_TOL):
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if last < 0.5 * first:
        return transforms.ConditionVerdict(transforms.HOLDS, tail, slope)
    return transforms.ConditionVerdict(transforms.INCONCLUSIVE, tail, slope)


# The rule of check_vanishing each shape reaches, and the status it gives.
_RULE_STATUS = {
    "undefined": "fails_empirically",
    "zero_tail": "holds_empirically",
    "never_decreasing": "fails_empirically",
    "flat": "fails_empirically",
    "holds": "holds_empirically",
    "inconclusive": "inconclusive",
}


@st.composite
def _rule_sequences(draw, rule):
    """(ns, vals, block size) whose verdict is decided by ``rule``."""
    size = draw(st.integers(8, 400))
    n0 = draw(st.integers(2, max(2, size // 4)))
    ns = np.arange(n0, n0 + size)
    x = ns.astype(float)
    c = draw(st.floats(0.1, 10.0))
    p = draw(st.floats(1.2, 3.0))
    if rule == "never_decreasing":
        vals = c * x**p
    elif rule == "flat":
        vals = c * (1.0 + draw(st.floats(0.01, 0.1)) / x)
    else:
        vals = c * x**-p
    if rule == "undefined":
        vals[draw(st.integers(0, size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    elif rule == "zero_tail":
        vals[draw(st.integers(size // 4, size - int(math.ceil(size / 4)))):] = 0.0
    elif rule == "inconclusive":
        vals[0] = vals[-1]
    return ns, vals, draw(st.integers(1, size + 3))


@st.composite
def _any_sequences(draw):
    """(ns, vals, block size) with arbitrary finite or non-finite entries."""
    size = draw(st.integers(4, 200))
    n0 = draw(st.integers(2, max(2, size - 1)))
    elems = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1.0, np.nan, np.inf]))
    vals = np.array(draw(st.lists(elems, min_size=size, max_size=size)))
    return np.arange(n0, n0 + size), vals, draw(st.integers(1, size + 3))


def _assert_reverse_fold_matches(ns, vals, block):
    chunks = [(ns[i : i + block], vals[i : i + block]) for i in range(0, ns.size, block)]
    want = forward_vanishing_verdict(chunks, ns.size, int(ns[0]), int(ns[-1]))
    reverse = [(n, np.log(n), v) for n, v in chunks[::-1]]
    got = vanishing_verdict(reverse, ns.size, int(ns[0]), int(ns[-1]))
    assert got.status == want.status
    # as arrays, so that NaN entries compare equal
    np.testing.assert_array_equal(np.array(got.sequence_tail), np.array(want.sequence_tail))
    assert got.trend_slope == pytest.approx(want.trend_slope, rel=1e-12, nan_ok=True)
    return want


class TestCheckVanishing:
    def test_one_over_n_holds(self):
        ns = np.arange(2, 401)
        verdict = check_vanishing((ns, 1.0 / ns))
        assert verdict.status == "holds_empirically"
        assert verdict.trend_slope == pytest.approx(-1.0, abs=1e-6)

    def test_constant_fails(self):
        ns = np.arange(2, 401)
        verdict = check_vanishing((ns, np.ones_like(ns, dtype=float)))
        assert verdict.status == "fails_empirically"

    def test_undefined_entry_fails(self):
        ns = np.arange(2, 101)
        vals = 1.0 / ns
        vals[10] = np.nan
        verdict = check_vanishing((ns, vals))
        assert verdict.status == "fails_empirically"

    def test_exact_zero_tail_holds(self):
        ns = np.arange(2, 101)
        vals = np.where(ns < 10, 1.0 / ns, 0.0)
        verdict = check_vanishing((ns, vals))
        assert verdict.status == "holds_empirically"

    def test_slow_flattening_fails(self):
        # decreasing but converging to a positive limit
        ns = np.arange(2, 401)
        vals = 0.7 + 1.0 / ns
        verdict = check_vanishing((ns, vals))
        assert verdict.status == "fails_empirically"

    def test_exp_power_theta_one_kernel_sequence_fails(self):
        verdict = sp2sl_condition(ExpPower(C=1.0, theta=1.0), CFG)
        assert verdict.status == "fails_empirically"

    def test_exp_power_theta_small_holds(self):
        for theta in (0.5, 0.6):
            verdict = sp2sl_condition(ExpPower(C=1.0, theta=theta), CFG)
            assert verdict.status == "holds_empirically"

    def test_blocks_match_whole_sequence(self):
        # A staircase that only decreases from one block to the next.
        ns = np.arange(2, 402)
        vals = 1.0 / ((ns - 2) // 7 + 1)
        whole = check_vanishing((ns, vals))
        blocks = [(ns[i : i + 7], np.log(ns[i : i + 7]), vals[i : i + 7]) for i in range(0, ns.size, 7)][::-1]
        verdict = vanishing_verdict(blocks, ns.size, 2, 401)
        assert whole.status == "holds_empirically"
        assert verdict.status == whole.status
        assert verdict.sequence_tail == whole.sequence_tail
        assert verdict.trend_slope == pytest.approx(whole.trend_slope, rel=1e-12)

    @pytest.mark.parametrize("rule", sorted(_RULE_STATUS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_reverse_fold_matches_forward_reference(self, rule, data):
        ns, vals, block = data.draw(_rule_sequences(rule))
        assert _assert_reverse_fold_matches(ns, vals, block).status == _RULE_STATUS[rule]

    @settings(max_examples=200, deadline=None)
    @given(_any_sequences())
    def test_reverse_fold_matches_forward_reference_anywhere(self, case):
        _assert_reverse_fold_matches(*case)

    def test_window_too_short_rejected(self):
        ns = np.arange(10, 16)
        with pytest.raises(ConfigError):
            check_vanishing((ns, 1.0 / ns))


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


def whole_xi1_sequence(beta_sp, cfg):
    """(ns, n*xi1(delta^(-n+1))) on [n0, N_max] from one kernel call: the
    whole-array path the SP-to-SL map took before its walk, kept as the reference."""
    ns = np.arange(transforms._start_index(beta_sp, cfg, "xi1"), cfg.N_max + 1)
    return ns, transforms._xi1_terms(beta_sp, cfg, ns)


def whole_n_zero(ns, values, s, cfg):
    """N0(s) for each ascending s from the whole sequence and its suffix maximum, kept as the reference."""
    idx = np.searchsorted(-np.maximum.accumulate((cfg.C4 * values)[::-1])[::-1], -s)
    if idx[0] == ns.size:
        raise CapError(f"qualifying set for s={float(s[0]):g} reaches N_max={int(ns[-1])}; increase N_max")
    return ns[np.maximum(idx - 1, 0)]


def old_n_zero_from_sequence(ns, seq, s, cfg):
    """N0(s) by the per-s scan the crossing search replaced, kept as the reference."""
    qualifying = cfg.C4 * seq > s
    if not np.any(qualifying):
        return int(ns[0])
    last = int(ns[np.flatnonzero(qualifying)[-1]])
    if last >= int(ns[-1]):
        raise CapError(f"qualifying set for s={s:g} reaches N_max={int(ns[-1])}; increase N_max")
    return last


def old_sl_from_sp_n_zero(ns, seq, s, cfg):
    """N0 at each s of an sl_from_sp grid by the per-s loop, s clamped at s0."""
    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    return [old_n_zero_from_sequence(ns, seq, min(float(si), s0), cfg) for si in s]


def old_wl_from_sp_k_star(n0, s, cfg):
    """k*(s) of wl_from_sp by the per-s loop over the whole window [n0, k_max]."""
    ks = np.arange(n0, cfg.k_max + 1)
    with np.errstate(under="ignore"):
        thresholds = cfg.C2 * np.exp(np.log(ks) - ks * math.log(cfg.delta))
    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    k_star = []
    for si in np.minimum(s, s0):
        ok = np.flatnonzero(thresholds <= si)
        if ok.size == 0:
            raise CapError(f"no admissible k <= k_max={cfg.k_max} for s={float(si):g}; increase k_max")
        k_star.append(int(ks[ok[0]]))
    return k_star


def old_sp_from_sl_k_star(beta, n0, s, cfg):
    """k*(s) of sp_from_sl from one kernel call on the whole window [n0, k_max]."""
    ks = np.arange(n0, cfg.k_max + 1)
    xi_vals = transforms._kernel_min(beta, np.log(ks * math.log(cfg.delta)), "xi2")
    xi_vals = np.where(np.isnan(xi_vals), np.inf, xi_vals)
    s_eff = np.minimum(s, cfg.s0 if cfg.s0 is not None else float(s[-1]))
    idx = np.searchsorted(-np.minimum.accumulate(xi_vals), -cfg.C6 * s_eff)
    if idx[0] == ks.size:
        raise CapError(f"no admissible k <= k_max={cfg.k_max} for s={float(s_eff[0]):g}; increase k_max")
    return ks[idx].tolist()


def _outcome(fn):
    """fn()'s value as a list, or the text of the cap error it raises."""
    try:
        return [int(v) for v in fn()]
    except CapError as exc:
        return f"CapError: {exc}"


def _spy(monkeypatch, name):
    """Record what transforms.<name> returns (or the cap error it raises) on each call."""
    seen = []
    real = getattr(transforms, name)

    def spy(*args):
        try:
            out = real(*args)
        except CapError as exc:
            seen.append(f"CapError: {exc}")
            raise
        seen.append([int(v) for v in out])
        return out

    monkeypatch.setattr(transforms, name, spy)
    return seen


_LEVELS = [0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0]


@st.composite
def _n_zero_cases(draw):
    """A sequence with ties and zeros, C4, s0, an ascending s grid that hits
    its values exactly, and a block size.  The window [n0, N_max] holds at
    least 2*n0, as the vanishing verdict of the walk needs."""
    size = draw(st.integers(4, 60))
    vals = np.array(draw(st.lists(st.sampled_from(_LEVELS) | st.floats(0.0, 10.0), min_size=size, max_size=size)))
    n0 = draw(st.integers(2, size - 1))
    c4 = draw(st.sampled_from([1.0, 0.3, 2.5, 7.0]))
    s0 = draw(st.none() | st.sampled_from([1e-3, 0.1, 1.0]) | st.floats(1e-3, 20.0))
    exact = [float(v) for v in c4 * vals if v > 0]
    picks = draw(st.lists(st.sampled_from(exact) | st.floats(1e-4, 80.0) if exact else st.floats(1e-4, 80.0),
                          min_size=1, max_size=12))
    s = np.unique(np.array(picks))
    cfg = TransformConfig(C4=c4, s0=s0, n0=n0, N_max=n0 + size - 1)
    return np.arange(n0, n0 + size), vals, cfg, s, draw(st.sampled_from([1, 3, 7, 4096]))


class TestOneCrossingSearch:
    """k*(s) and N0(s) from one search against the per-s loops it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_n_zero_cases())
    def test_n_zero_matches_per_s_loop(self, case):
        # The walk of the SP-to-SL map, its kernel rows replaced by the sequence.
        ns, vals, cfg, s, rows = case
        s_eff = np.minimum(s, cfg.s0 if cfg.s0 is not None else s[-1])
        want = _outcome(lambda: old_sl_from_sp_n_zero(ns, vals, s, cfg))
        assert _outcome(lambda: whole_n_zero(ns, vals, s_eff, cfg)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            mp.setattr(transforms, "_ROWS", rows)
            mp.setattr(transforms, "_xi1_terms", lambda beta, cfg, at: vals[at.astype(int) - ns[0]])
            k_star = transforms._walk(None, cfg, s_eff, sequence="xi1")[1]
            assert _outcome(lambda: transforms._n_zero(None, k_star, s_eff, cfg)) == want

    @pytest.mark.parametrize(
        "beta,cfg,grid",
        [
            (InversePower(a=1.0, p=1.0), TransformConfig(n0=2), log_grid(1e-3, 1.0, 30)),
            (InversePower(a=1.0, p=1.0), TransformConfig(n0=2, C4=2.5, s0=0.3), [0.05, 0.1, 0.5, 1.0]),
            (ExpPower(C=1.0, theta=0.6), TransformConfig(N_max=3000, C4=0.4), log_grid(5e-3, 0.5, 20)),
            (ExpPower(C=1.0, theta=0.6), TransformConfig(N_max=3000, delta=5.0, s0=0.05), log_grid(5e-3, 0.5, 20)),
            (ExpPower(C=1.0, theta=0.5), TransformConfig(N_max=4000, C4=3.0), log_grid(1e-3, 1e-1, 40)),
            (InversePower(a=1.0, p=1.0), TransformConfig(n0=2, N_max=8), [1e-9, 0.1]),
        ],
    )
    def test_sl_from_sp_matches_per_s_loop(self, beta, cfg, grid, monkeypatch):
        ns, vals = whole_xi1_sequence(beta, cfg)
        want = _outcome(lambda: old_sl_from_sp_n_zero(ns, vals, np.asarray(grid), cfg))
        got = _spy(monkeypatch, "_n_zero")
        try:
            out = sl_from_sp(beta, grid, cfg)
        except CapError:
            out = None
        assert got == [want]
        if out is not None:
            rates = math.log(cfg.delta) * (1 + np.array(want))
            assert out.points == Tabulated(tuple(zip(np.asarray(grid).tolist(), rates.tolist()))).points

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.sampled_from([2.01, 2.5, 4.0, math.e, 9.0]),
        c2=st.sampled_from([1.0, 1e-3, 50.0, 1e6]),
        n0=st.integers(2, 30),
        k_max=st.sampled_from([5, 40, 400, 5000, 20_000]),
        s0=st.none() | st.floats(1e-6, 1.0),
        lo=st.floats(-300.0, -1.0),
        span=st.floats(0.5, 200.0),
        count=st.integers(1, 30),
    )
    def test_wl_from_sp_k_star_matches_per_s_loop(self, delta, c2, n0, k_max, s0, lo, span, count):
        cfg = TransformConfig(delta=delta, C2=c2, n0=n0, k_max=k_max, s0=s0)
        grid = np.unique(10.0 ** np.linspace(lo, lo + span, count))
        want = _outcome(lambda: old_wl_from_sp_k_star(n0, grid, cfg))
        with pytest.MonkeyPatch.context() as mp:
            got = _spy(mp, "_k_star")
            try:
                wl_from_sp(InversePower(a=1.0, p=1.0), grid, cfg)
            except CapError:
                pass
        assert got == [want]

    @pytest.mark.parametrize(
        "beta,cfg,grid",
        [
            (InversePower(a=1.0, p=1.0), TransformConfig(delta=math.e, n0=2), [0.035, 0.17, 0.3]),
            (PolyPower(C=1.0, p=1.0), TransformConfig(k_max=30_000), log_grid(1e-8, 1e-6, 25)),
            (PolyPower(C=1.0, p=1.0), TransformConfig(k_max=30_000, C6=0.2, s0=1e-7), log_grid(1e-8, 1e-6, 25)),
            (PolyPower(C=1.0, p=3.0), TransformConfig(k_max=9_000, C6=3.0), log_grid(1e-6, 1e-2, 30)),
            (PolyPower(C=1.0, p=1.0), TransformConfig(k_max=4), [1e-6]),
            (PolyPower(C=1.0, p=1.0), TransformConfig(k_max=5_000), log_grid(1e-9, 1e-6, 10)),
        ],
    )
    def test_sp_from_sl_k_star_matches_whole_window(self, beta, cfg, grid, monkeypatch):
        n0 = transforms._start_index(beta, cfg, "xi2")
        want = _outcome(lambda: old_sp_from_sl_k_star(beta, n0, np.asarray(grid), cfg))
        got = _spy(monkeypatch, "_k_star")
        try:
            sp_from_sl(beta, grid, cfg)
        except CapError:
            pass
        assert got == [want]


    @settings(max_examples=200, deadline=None)
    @given(
        vals=st.lists(st.sampled_from([math.nan, 0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0), min_size=1, max_size=40),
        s=st.lists(st.floats(1e-3, 12.0), min_size=1, max_size=8, unique=True),
        n0=st.integers(2, 9),
        rows=st.sampled_from([1, 3, 4096]),
    )
    def test_k_star_matches_per_s_scan(self, vals, s, n0, rows):
        # Any sequence, NaN and rises included: the first k with a value <= s.
        vals, s = np.array(vals), np.sort(s)
        cfg = TransformConfig(k_max=max(n0 + vals.size - 1, 2))

        def per_s():
            ok = [np.flatnonzero(vals <= si) for si in s]
            if ok[0].size == 0:
                raise CapError(f"no admissible k <= k_max={cfg.k_max} for s={float(s[0]):g}; increase k_max")
            return [n0 + int(i[0]) for i in ok]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transforms, "_SCAN_ROWS", rows)
            got = _outcome(lambda: transforms._k_star(lambda ks: vals[ks - n0], n0, cfg, s, s))
        assert got == _outcome(per_s)


class TestOwnVerdictGates:
    """A gated map takes no verdict: it gates on that of the sequence it reads."""

    GRID = log_grid(0.1, 1.0, 12)

    def test_sl_from_sp_gates_on_its_own_sequence(self):
        holding = sp2sl_condition(ExpPower(C=1.0, theta=0.6), CFG)
        assert holding.holds
        with pytest.raises(TypeError):
            sl_from_sp(ExpPower(C=1.0, theta=1.0), self.GRID, CFG, verdict=holding)
        with pytest.raises(ConditionFailedError):
            sl_from_sp(ExpPower(C=1.0, theta=1.0), self.GRID, CFG)

    def test_sp_from_wl_gates_on_its_own_walk(self):
        holding = wl2sp_condition(Constant(B=2.0), CFG)
        assert holding.holds
        with pytest.raises(TypeError):
            sp_from_wl(ExpPower(C=1.0, theta=1.0), [0.1, 0.5], CFG, verdict=holding)
        with pytest.raises(ConditionFailedError):
            sp_from_wl(ExpPower(C=1.0, theta=1.0), [0.1, 0.5], CFG)


class TestBoundedWindows:
    """Memory of the k-window maps stays far below one float per window index."""

    def test_kernel_rows_in_blocks(self, monkeypatch):
        # 20 000 rows at once peak near 19 MB; blocks of 256 stay under 1.5 MB.
        beta, cfg = ExpPower(C=1.0, theta=0.5), TransformConfig(N_max=20_000)
        whole = whole_xi1_sequence(beta, cfg)[1]
        monkeypatch.setattr(transforms, "_ROWS", 256)
        tracemalloc.start()
        try:
            blocked = whole_xi1_sequence(beta, cfg)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_same_bits(blocked, whole)
        assert peak < 1.5e6

    def test_sp_from_sl_reads_its_window_in_blocks(self):
        # No k <= 10^6 admits s = 1e-13 (k*(s) ~ 2/sqrt(s) ~ 4e6), so every
        # block of the window is evaluated; one kernel call on the whole
        # window peaked at about 1140 MB.
        cfg = TransformConfig(k_max=1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapError):
                sp_from_sl(PolyPower(C=1.0, p=1.0), [1e-13], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * cfg.k_max

    def test_wl_from_sp_stops_at_the_first_admissible_k(self):
        # k*(s) <= 320 on this grid; the window runs to k_max = 1.5e8.
        cfg = TransformConfig(k_max=150_000_000, N_max=150_000_000)
        grid = log_grid(1e-180, 1e-40, 60)
        tracemalloc.start()
        try:
            out = wl_from_sp(ExpPower(C=1.0, theta=2.0), grid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert out.points == wl_from_sp(ExpPower(C=1.0, theta=2.0), grid, CFG).points


_SL_INPUTS = [
    ExpPower(C=1.0, theta=0.5),
    ExpPower(C=1.0, theta=0.6),
    PolyPower(C=1.0, p=1.0),
    # bounded: the rows vanish from some index on
    Tabulated(points=((1e-3, 40.0), (0.1, 6.0), (1.0, 1.5))),
]

_SL_IDS = ["ExpPower0.5", "ExpPower0.6", "PolyPower", "Tabulated"]


def _sl_grids(ns, vals, cfg, block):
    """An ascending s grid that C4*n*xi1 admits at every index (its suffix
    maximum at block edges, next to them and between), and one that adds
    an s below the last row, so its qualifying set reaches N_max."""
    env = np.maximum.accumulate((cfg.C4 * vals)[::-1])[::-1]
    edges = _walk_edges(ns[0], ns[-1], block) - ns[0]
    s = np.concatenate([env[edges], np.nextafter(env[edges], np.inf), np.geomspace(1e-6, 1e3, 40)])
    s = np.unique(s[s >= max(env[-1], 1e-300)])
    return s, np.concatenate([[env[-1] / 2 if env[-1] > 0 else 1e-300], s])


class TestSlWalk:
    """The SP-to-SL map's walk against its whole-array path: the verdict
    bit for bit but for the trend slope, and N0 at every s."""

    def _check(self, beta, cfg):
        ns, vals = whole_xi1_sequence(beta, cfg)
        want = check_vanishing((ns, vals))
        for s in _sl_grids(ns, vals, cfg, transforms._ROWS):
            verdict, k_star, _ = transforms._walk(beta, cfg, s, sequence="xi1")
            assert (verdict.status, verdict.sequence_tail) == (want.status, want.sequence_tail)
            assert verdict.trend_slope == pytest.approx(want.trend_slope, rel=1e-12, nan_ok=True)
            assert _outcome(lambda: transforms._n_zero(beta, k_star, s, cfg)) == _outcome(
                lambda: whole_n_zero(ns, vals, s, cfg))
        return want

    @pytest.mark.parametrize("n0", [None, 5])
    @pytest.mark.parametrize(
        "extra", [-1, 0, 1, 2 * transforms._ROWS + 17], ids=["block-1", "block", "block+1", "3block+17"]
    )
    @pytest.mark.parametrize("beta", _SL_INPUTS, ids=_SL_IDS)
    def test_windows_around_blocks(self, beta, extra, n0):
        start = n0 if n0 is not None else transforms._start_index(beta, CFG, "xi1")
        cfg = TransformConfig(n0=n0, N_max=start + transforms._ROWS + extra - 1, C4=0.3 if n0 else 1.0)
        assert cfg.N_max - start + 1 == transforms._ROWS + extra
        assert self._check(beta, cfg).status == "holds_empirically"

    @pytest.mark.parametrize("beta", _SL_INPUTS, ids=_SL_IDS)
    def test_deep_window(self, beta):
        # example11 sp2sl's window: 25 blocks, the top one partial.
        cfg = TransformConfig(N_max=400_000)
        self._check(beta, cfg)
        grid = log_grid(1e-5, 1e-2, 60)
        ns, vals = whole_xi1_sequence(beta, cfg)

        def reference():
            rates = math.log(cfg.delta) * (1 + whole_n_zero(ns, vals, grid, cfg))
            return Tabulated(tuple(zip(grid.tolist(), rates.tolist()))).points

        def table_or_cap_error(fn):
            try:
                return fn()
            except CapError as exc:  # ExpPower{1, 0.6}: N0(1e-5) passes 4e5
                return str(exc)

        assert table_or_cap_error(lambda: sl_from_sp(beta, grid, cfg).points) == table_or_cap_error(reference)

    def test_failing_verdict(self):
        # theta = 1: the rows do not vanish.
        cfg = TransformConfig(N_max=3 * transforms._ROWS + 17)
        assert self._check(ExpPower(C=1.0, theta=1.0), cfg).fails
        with pytest.raises(ConditionFailedError):
            sl_from_sp(ExpPower(C=1.0, theta=1.0), [1e-3, 1e-2], cfg)

    def test_inconclusive_verdict(self, monkeypatch):
        # 1 + 1/n decreases with a log-log slope below -_SLOPE_TOL but ends above half its start.
        monkeypatch.setattr(transforms, "_xi1_terms", lambda beta, cfg, ns: 1.0 + 1.0 / ns)
        monkeypatch.setattr(transforms, "_SLOPE_TOL", 1e-6)
        cfg = TransformConfig(n0=2, N_max=3 * transforms._ROWS + 17)
        ns = np.arange(2, cfg.N_max + 1)
        want = check_vanishing((ns, 1.0 + 1.0 / ns))
        assert want.status == "inconclusive"
        verdict = transforms._walk(None, cfg, sequence="xi1")[0]
        assert (verdict.status, verdict.sequence_tail) == (want.status, want.sequence_tail)
        assert verdict.trend_slope == pytest.approx(want.trend_slope, rel=1e-12)

    def test_cap_error(self):
        cfg = TransformConfig(N_max=3 * transforms._ROWS + 17)
        with pytest.raises(CapError, match=f"qualifying set for s=1e-09 reaches N_max={cfg.N_max}; increase N_max"):
            sl_from_sp(ExpPower(C=1.0, theta=0.5), [1e-9, 1e-2], cfg)

    def test_parent_peak_is_bounded(self, one_core):
        # The whole-array path peaked at 14.0 MB at N_max = 4e5 and 49.7 MB at 1.6e6.
        one_core()
        peaks = {}
        for n_max in (400_000, 1_600_000):
            tracemalloc.start()
            try:
                sl_from_sp(ExpPower(C=1.0, theta=0.5), log_grid(1e-5, 1e-2, 60), TransformConfig(N_max=n_max))
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 6e6
        assert peaks[1_600_000] <= peaks[400_000] + 1e6


class TestSp2slWindow:
    BETA = ExpPower(C=1.0, theta=0.6)

    def test_window_from_sequence(self):
        # Two rows in their own kernel call give the sequence's bits.
        cfg = TransformConfig(N_max=3000)
        lo, hi = transforms.sp2sl_window(self.BETA, cfg, 100, 2000)
        ns, vals = whole_xi1_sequence(self.BETA, cfg)
        assert lo == 1.02 * float(vals[2000 - ns[0]])
        assert hi == float(vals[100 - ns[0]])
        assert n_zero(self.BETA, lo, cfg) < 2000

    def test_indices_past_the_sequence_give_config_error(self):
        cfg = TransformConfig(n0=1500, N_max=3000)
        with pytest.raises(ConfigError, match="no s-window"):
            transforms.sp2sl_window(self.BETA, cfg, 100, 1000)


class TestWl2spWindow:
    BETA = LogPower(C=1.0, q=0.5)
    CFG = TransformConfig(N_max=1000, k_max=1000)

    @pytest.mark.parametrize("n_near, n_far, clamped", [(5, 2000, (5, 1000)), (1, 400, (2, 400)), (-7, 10**6, (2, 1000))])
    def test_indices_clamped_to_the_window(self, n_near, n_far, clamped):
        assert transforms.wl2sp_window(self.BETA, self.CFG, n_near, n_far) == transforms.wl2sp_window(
            self.BETA, self.CFG, *clamped)

    def test_empty_window_names_no_nan(self):
        # The far index 380 lies below n0 = 400 and reads S(400): the window is empty, and S is finite.
        cfg = TransformConfig(n0=400, N_max=1000, k_max=1000)
        with pytest.raises(ConfigError, match=r"no s-window between indices 403 and 380 on \[400, 1000\]") as err:
            with pytest.warns(RuntimeWarning, match="inconclusive"):
                transforms.wl2sp_window(self.BETA, cfg, 403, 380)
        assert "nan" not in str(err.value)


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


_CLAMP = TransformConfig(C4=2, s0=0.3, delta=5)


class TestS0Clamp:
    """Each map holds its value at s0 at every knot above s0, whatever knots lie below."""

    @pytest.mark.parametrize(
        "transform,beta,cfg,grid",
        [
            (sl_from_sp, ExpPower(C=1.0, theta=0.5), _CLAMP, log_grid(0.1, 1.0, 9)),
            (wl_from_sp, ExpPower(C=1.0, theta=4.0), TransformConfig(s0=3e-3, delta=5), [1e-4, 1e-2, 0.1, 1.0]),
            (sp_from_sl, PolyPower(C=1.0, p=1.0), _CLAMP, log_grid(0.1, 1.0, 9)),
            (sp_from_sl, PolyPower(C=1.0, p=1.0), TransformConfig(s0=0.05), [0.01, 0.03, 0.07, 0.09]),
            (sp_from_wl, LogPower(C=1.0, q=0.5), _CLAMP, log_grid(0.1, 1.0, 9)),
        ],
        ids=["sl_from_sp", "wl_from_sp", "sp_from_sl", "sp_from_sl-s0-0.05", "sp_from_wl"],
    )
    def test_knots_above_s0_hold_the_value_at_s0(self, transform, beta, cfg, grid):
        def values(table):
            return [v for _, v in getattr(table, "log_points", None) or table.points]

        (at_s0,) = values(transform(beta, [cfg.s0], cfg))
        grid = np.asarray(grid)
        above = grid[grid > cfg.s0]
        with_below = values(transform(beta, grid, cfg))
        assert with_below[grid.size - above.size :] == [at_s0] * above.size
        # Below s0 the map takes s as it is.
        assert with_below[: grid.size - above.size] == values(transform(beta, grid[grid <= cfg.s0], cfg))
        # The knot below s0 held another value, which the knots above it once took.
        assert with_below[grid.size - above.size - 1] != at_s0
        assert values(transform(beta, above, cfg)) == [at_s0] * above.size


class TestKMaxCapsKWindowsOnly:
    """k_max caps the k-windows; the SP-to-SL walk reads [n0, N_max] whatever k_max is."""

    BETA = ExpPower(C=300.0, theta=0.5)  # auto n0 = 219

    def test_sp2sl_walk_ignores_k_max(self):
        assert transforms._start_index(self.BETA, TransformConfig(k_max=100), "xi1") == 219
        small = sp2sl_condition(self.BETA, TransformConfig(k_max=100, N_max=100_000))
        large = sp2sl_condition(self.BETA, TransformConfig(k_max=1000, N_max=100_000))
        assert repr(small) == repr(large)
        assert small.holds

    def test_wl_from_sp_still_refuses_n0_past_k_max(self):
        with pytest.raises(CapError, match=re.escape("no admissible k <= k_max=100 for s=0.001; increase k_max")):
            wl_from_sp(self.BETA, [1e-3, 1e-2], TransformConfig(k_max=100, N_max=100_000))


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

    def test_one_walk_in_bounded_memory(self, monkeypatch):
        # Eight blocks of 2^16 indices; the verdict and k*(s) come from one
        # walk of the window, and the memory peak stays near one block's
        # evaluation (the fold and the suffix sup free theirs per block).
        # The walk takes g at the last index of the 8 blocks and at n0, and
        # at the 64 tail picks, in two calls; it reads the top block, which
        # decreases (rule 3), rule 4's sample of 2^16 of the last half's
        # 2^18 indices, and the lowest block, where every crossing of this
        # grid lies.  The 6 blocks between are bounded.
        block = 1 << 16
        monkeypatch.setattr(transforms, "_BLOCK", block)
        cfg = TransformConfig(k_max=8 * block + 1, N_max=8 * block + 1)
        beta = LogPower(C=1.0, q=0.5)
        elems = []
        real = LogPower.eval_at_log_many

        def counted(self, log_s):
            elems.append(np.size(log_s))
            return real(self, log_s)

        monkeypatch.setattr(LogPower, "eval_at_log_many", counted)
        grid = log_grid(0.02, 0.05, 10)
        tracemalloc.start()
        try:
            sp_from_wl(beta, grid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(elems) == 3 * block + 9 + 64
        assert peak < 9.5 * block * 8
        elems.clear()
        wl2sp_condition(beta, cfg)
        assert sum(elems) == 3 * block + 9 + 64

    def test_peak_does_not_grow_with_the_window(self, monkeypatch):
        # The walk builds every block in the arrays of the block before, so
        # 32 blocks of 2^16 indices peak within one block of 8 blocks.
        block = 1 << 16
        monkeypatch.setattr(transforms, "_BLOCK", block)
        beta = LogPower(C=1.0, q=0.5)
        grid = log_grid(0.02, 0.05, 10)

        def peak(blocks):
            cfg = TransformConfig(k_max=blocks * block + 1, N_max=blocks * block + 1)
            tracemalloc.start()
            try:
                sp_from_wl(beta, grid, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32) <= peak(8) + 8 * block

    @pytest.mark.parametrize("extra", [1, 0], ids=["whole-blocks", "partial-top-block"])
    def test_peak_at_the_production_block_size(self, extra):
        # 64 blocks of the real _BLOCK peak near 7 blocks of floats: the
        # block's four arrays, the fold's two scratch rows and the
        # evaluation's temporaries.  A partial top block shares the arrays
        # of the full blocks below it instead of being followed by new ones.
        block = transforms._BLOCK
        cfg = TransformConfig(k_max=64 * block + extra, N_max=64 * block + extra)
        tracemalloc.start()
        try:
            sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(0.02, 0.05, 10), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * block

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
            sup = transforms._walk(beta, cfg, at=np.arange(2, 3001))[2]
            try:
                out = sp_from_wl(beta, grid, cfg).log_points
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


# The block walk of the WL-to-SP map as it was before its blocks reused
# their arrays and skipped the suffix sup where no s crosses: the
# reference that the walk must match bit for bit.


def old_wl_condition_sequence(beta_wl, cfg, lo, hi):
    ns = np.arange(lo, hi + 1)
    log_args = -(ns * math.log(cfg.delta) + cfg.theta_cond * np.log(ns))
    with np.errstate(over="ignore"):
        return ns, beta_wl.eval_at_log_many(log_args) / ns


def old_merge_fit(acc, x, y):
    # The sums are numpy's pairwise ones, as in the walk: a BLAS dot's
    # rounding depends on its thread count.
    n_a, mx_a, my_a, sxx_a, sxy_a = acc
    mx_b, my_b = float(x.mean()), float(y.mean())
    dx = x - mx_b
    n = n_a + x.size
    ddx, ddy = mx_b - mx_a, my_b - my_a
    w = n_a * x.size / n
    return (
        n,
        mx_a + ddx * x.size / n,
        my_a + ddy * x.size / n,
        sxx_a + float((dx * dx).sum()) + ddx * ddx * w,
        sxy_a + float((dx * (y - my_b)).sum()) + ddx * ddy * w,
    )


def old_vanishing_verdict(blocks, size, n_first, n_last):
    """The reverse fold over (ns, vals) blocks, the last index first."""
    if size < 4:
        raise ConfigError("vanishing check needs at least 4 sequence values")
    if n_last < 2 * n_first:
        raise ConfigError("N_max must be at least twice n0 for the vanishing check")

    tail_start = size - int(math.ceil(size / 4))
    half_start = size - int(math.ceil(size / 2))
    tail_len = size - tail_start
    if tail_len <= 64:
        picks = np.arange(tail_start, size)
    else:
        picks = tail_start + np.linspace(0, tail_len - 1, 64).astype(int)

    pos = size
    first = last = math.nan
    undefined = False
    tail_max = -math.inf
    decreases = False
    half_finite = True
    nxt = np.empty(0)
    fit = (0, 0.0, 0.0, 0.0, 0.0)
    pairs = []
    for ns, vals in blocks:
        pos -= vals.size
        if pos + vals.size == size:
            last = float(vals[-1])
        first = float(vals[0])
        undefined = undefined or not np.all(np.isfinite(vals))
        sel = picks[(picks >= pos) & (picks < pos + vals.size)] - pos
        pairs[:0] = zip(ns[sel].tolist(), vals[sel].tolist())
        t = max(tail_start - pos, 0)
        if t < vals.size:
            tail_max = max(tail_max, float(vals[t:].max()))
        h = max(half_start - pos, 0)
        if h < vals.size:
            half_finite = half_finite and bool(np.all(np.isfinite(vals[h:])))
            if half_finite:
                run = np.concatenate([vals[h:], nxt])
                decreases = decreases or bool(np.any(np.diff(run) < -1e-9 * np.abs(run[:-1])))
                nxt = vals[h : h + 1].copy()
                log_n = np.log(ns[h:].astype(float))
                fit = old_merge_fit(fit, log_n, np.log(np.maximum(vals[h:], 1e-300)))

    slope = fit[4] / fit[3] if half_finite else math.nan
    tail = tuple(pairs)
    if undefined:
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if tail_max <= 1e-12 * (1.0 + abs(first)):
        return transforms.ConditionVerdict(transforms.HOLDS, tail, slope)
    if not decreases:
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if not (slope < -transforms._SLOPE_TOL):
        return transforms.ConditionVerdict(transforms.FAILS, tail, slope)
    if last < 0.5 * first:
        return transforms.ConditionVerdict(transforms.HOLDS, tail, slope)
    return transforms.ConditionVerdict(transforms.INCONCLUSIVE, tail, slope)


def old_wl_walk(beta_wl, cfg, s=(), at=()):
    n0 = cfg.n0 if cfg.n0 is not None else 2
    s, at = np.asarray(s, dtype=float), np.asarray(at, dtype=int)
    k_star = np.full(s.shape, cfg.N_max + 1)
    sup_at = np.full(at.shape, np.nan)

    def blocks():
        carry = -math.inf
        for lo in reversed(range(n0, cfg.N_max + 1, transforms._BLOCK)):
            ns, g = old_wl_condition_sequence(beta_wl, cfg, lo, min(lo + transforms._BLOCK - 1, cfg.N_max))
            rsup = np.maximum.accumulate(g[::-1])
            np.maximum(rsup, carry, out=rsup)
            carry = rsup[-1]
            k_star[:] -= np.searchsorted(rsup, s, side="right")
            inside = (at >= ns[0]) & (at <= ns[-1])
            sup_at[inside] = rsup[ns[-1] - at[inside]]
            yield ns, g

    verdict = old_vanishing_verdict(blocks(), cfg.N_max - n0 + 1, n0, cfg.N_max)
    return verdict, k_star, sup_at


def strided_fit(ns, vals, points=1 << 16):
    """Rule 4's slope in one pass: the least-squares slope of log(value) on log(n) over the
    last-half entries at N_max, N_max - stride, ..., with stride = ceil(half / points)."""
    half = int(math.ceil(ns.size / 2))
    stride = -(-half // points)
    x = np.log(ns[::-1][:half:stride].astype(float))
    y = np.log(np.maximum(vals[::-1][:half:stride], 1e-300))
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


def _assert_strided_verdict(got, want, beta_wl, cfg):
    """``got`` has the status and the tail of ``want``, the verdict of the walk that reads and
    fits every index, bit for bit, and the slope of rule 4's strided sample."""
    assert (got.status, repr(got.sequence_tail)) == (want.status, repr(want.sequence_tail))
    n0 = cfg.n0 if cfg.n0 is not None else 2
    assert got.trend_slope == pytest.approx(strided_fit(*old_wl_condition_sequence(beta_wl, cfg, n0, cfg.N_max)),
                                            rel=1e-12)


class _NanBand(RateFunction):
    """``base`` with NaN for log(s) in [lo, hi]: an Undefined stretch of the WL sequence."""

    def __init__(self, base, lo, hi):
        self.base, self.lo, self.hi = base, lo, hi

    def eval_many(self, s):
        return self.eval_at_log_many(np.log(s))

    def eval_at_log_many(self, log_s):
        out = self.base.eval_at_log_many(log_s)
        out[(log_s >= self.lo) & (log_s <= self.hi)] = np.nan
        return out

    def limit_at_zero(self):
        return self.base.limit_at_zero()

    def limit_at_inf(self):
        return self.base.limit_at_inf()

    def to_json_dict(self):
        return {"family": "nan_band"}


class _Jagged(RateFunction):
    """Values 2 + sin(37 log s): not monotone, so the WL sequence rises and
    falls from one index to the next and S(k) stays above g(k) inside blocks."""

    def eval_many(self, s):
        return self.eval_at_log_many(np.log(s))

    def eval_at_log_many(self, log_s):
        return 2.0 + np.sin(37.0 * np.asarray(log_s, dtype=float))

    def limit_at_zero(self):
        return 3.0

    def limit_at_inf(self):
        return 1.0

    def to_json_dict(self):
        return {"family": "jagged"}


def _stairs(ns, ratio=3.0):
    """A table whose value rises ``ratio``-fold just below delta^-n n^-1 (delta 4) for each n of
    ``ns``: the WL sequence jumps up there and falls between, so S(k) stays above g(k) inside
    blocks, while beta_WL keeps to the RateFunction contract that the walk's block bounds rest on."""
    points = []
    for k, n in enumerate(sorted(ns), start=1):
        x = -(n * math.log(4.0) + math.log(n))  # log of the argument at n
        points += [(math.exp(x + 0.3), ratio**k), (math.exp(x + 0.5), ratio ** (k - 1))]
    return Tabulated(points=tuple(sorted(points)))


# A step in beta_WL: a bump in the WL sequence near n = 47 (delta 4, theta 1).
_STEP = Tabulated(points=((1e-30, 50.0), (1e-29, 1.0)))
# Eight steps, all left of the last half of a window of 1000 (delta 4, theta 1).
_STAIRS = _stairs((30, 70, 110, 150, 190, 230, 270, 310))

_WALK_INPUTS = [
    LogPower(C=1.0, q=0.0),
    LogPower(C=1.0, q=0.5),
    LogPower(C=2.0, q=1.0),
    LogPower(C=0.5, q=1.5),
    Constant(B=2.0),
    PolyPower(C=1.0, p=0.002),
    InversePower(a=3.0, p=0.001),
    ExpPower(C=1.0, theta=1.0),  # the sequence is +inf past its first few indices
    _STEP,
    _NanBand(LogPower(C=1.0, q=0.5), -900.0, -850.0),  # NaN near n = 610
    _Jagged(),
    _STAIRS,
]

_WALK_IDS = ["LogPower0", "LogPower0.5", "LogPower1", "LogPower1.5", "Constant", "PolyPower", "InversePower",
             "ExpPower", "TabulatedStep", "NanBand", "Jagged", "TabulatedStairs"]

# (delta, n0, theta_cond, N_max)
_WALK_CONFIGS = [(4.0, None, 1.0, 1000), (2.5, 3, 1.5, 801), (7.0, 11, 3.0, 700)]


def _walk_edges(lo, hi, block):
    """The first and last index of every block of [lo, hi], and their neighbours."""
    tops = np.arange(lo, hi + 1, block)
    edges = np.concatenate([tops - 1, tops, tops + block - 1, tops + block, [lo, hi]])
    return np.unique(np.clip(edges, lo, hi))


class TestWalkMatchesReference:
    """``_walk`` of the WL sequence against the walk before max-only blocks and reused arrays: equal bits."""

    @pytest.mark.parametrize("config", _WALK_CONFIGS, ids=lambda c: f"delta{c[0]}-n0{c[1]}-theta{c[2]}")
    @pytest.mark.parametrize("beta", _WALK_INPUTS, ids=_WALK_IDS)
    def test_verdict_k_star_and_sup_equal(self, beta, config, monkeypatch):
        delta, n0, theta, n_max = config
        cfg = TransformConfig(delta=delta, n0=n0, theta_cond=theta, k_max=n_max, N_max=n_max)
        lo = n0 if n0 is not None else 2
        s_all = old_wl_walk(beta, cfg, at=np.arange(lo, n_max + 1))[2]
        finite = np.unique(s_all[np.isfinite(s_all) & (s_all > 0)])
        # sparse s leave most blocks without a crossing; dense s add S at
        # block edges (ties), midpoints between two S and s below every S
        sparse = np.geomspace(1e-6, 1e3, 40)
        between = finite[:-1] + np.diff(finite) / 2 if finite.size > 1 else np.empty(0)
        below = [np.nextafter(finite.min(), 0)] if finite.size else []
        for block in (1, 7, 4096, transforms._BLOCK):
            monkeypatch.setattr(transforms, "_BLOCK", block)
            edges = _walk_edges(lo, n_max, block)
            at_edges = s_all[edges - lo]
            dense = np.concatenate([sparse, at_edges[np.isfinite(at_edges)], between, below])
            dense = dense[(dense > 0) & np.isfinite(dense)]
            for s, at in ((sparse, np.array([], dtype=int)), (dense, edges)):
                want = old_wl_walk(beta, cfg, s, at)
                got = transforms._walk(beta, cfg, s, at)
                assert got[0].status == want[0].status
                # status, tail and trend slope, bit for bit and with NaN equal to NaN
                assert repr(got[0]) == repr(want[0])
                assert got[1].tolist() == want[1].tolist()
                assert repr(got[2].tolist()) == repr(want[2].tolist())

    @pytest.mark.parametrize("beta", [LogPower(C=1.0, q=0.5), _Jagged(), _STEP, _STAIRS],
                             ids=["LogPower", "Jagged", "TabulatedStep", "TabulatedStairs"])
    def test_crossings_on_every_block_edge(self, beta, monkeypatch):
        # s = S at the first index of a block is the carry into the block
        # below, and lies in no other block's range [carry, top).
        cfg = TransformConfig(k_max=3000, N_max=3000)
        s_all = old_wl_walk(beta, cfg, at=np.arange(2, 3001))[2]
        for block in (7, 64, 4096):
            monkeypatch.setattr(transforms, "_BLOCK", block)
            carries = s_all[np.arange(2, 3001, block) - 2]
            edges = s_all[_walk_edges(2, 3000, block) - 2]
            for s in (carries, np.nextafter(carries, 0), np.nextafter(carries, np.inf),
                      np.concatenate([edges, np.nextafter(edges, 0)])):
                want, got = old_wl_walk(beta, cfg, s), transforms._walk(beta, cfg, s)
                assert got[1].tolist() == want[1].tolist()
                assert repr(got[0]) == repr(want[0])

    def test_sp_from_wl_unchanged(self):
        # The deep window of acceptance 2e, cut to 2.5e6 indices: 76 blocks of 2^15 and a part.
        # The last half holds 1.25e6 indices, so rule 4 fits every 20th.
        cfg = TransformConfig(k_max=2_500_000, N_max=2_500_000)
        beta = LogPower(C=1.0, q=0.5)
        grid = log_grid(1e-3, 1e-2, 30)
        s_eff = np.minimum(grid, grid[-1])
        want = old_wl_walk(beta, cfg, s_eff)
        got = transforms._walk(beta, cfg, s_eff)
        assert got[1].tolist() == want[1].tolist()
        _assert_strided_verdict(got[0], want[0], beta, cfg)
        log_values = math.log(cfg.C3) + want[1] * math.log(cfg.delta)
        assert [v for _, v in sp_from_wl(beta, grid, cfg).log_points] == log_values.tolist()


_BOUNDED_INPUTS = [LogPower(C=1.0, q=0.5), LogPower(C=1.0, q=1.5), Constant(B=2.0), _STAIRS]
_BOUNDED_IDS = ["LogPower0.5", "LogPower1.5", "Constant", "TabulatedStairs"]


def _assert_walks_equal(beta, cfg, s, at=()):
    want = old_wl_walk(beta, cfg, s, at)
    got = transforms._walk(beta, cfg, s, at)
    # status, tail and trend slope, bit for bit and with NaN equal to NaN
    assert repr(got[0]) == repr(want[0])
    assert got[1].tolist() == want[1].tolist()
    assert repr(got[2].tolist()) == repr(want[2].tolist())


class TestBoundedBlocks:
    """The WL walk reads a block left of the verdict's last half only where an answer
    needs it (``transforms._bounded_blocks``), and keeps the bits of the walk that reads
    every index."""

    @pytest.mark.parametrize("blocks, extra", [(1, 0), (2, 0), (64, 0), (64, 37)], ids=["1", "2", "64", "64+partial"])
    @pytest.mark.parametrize("beta", _BOUNDED_INPUTS, ids=_BOUNDED_IDS)
    def test_equals_reference(self, beta, blocks, extra, monkeypatch):
        block = 64
        monkeypatch.setattr(transforms, "_BLOCK", block)
        n_max = 1 + blocks * block + extra
        cfg = TransformConfig(k_max=n_max, N_max=n_max)
        ns = np.arange(2, n_max + 1)
        s_all = old_wl_walk(beta, cfg, at=ns)[2]
        g = old_wl_condition_sequence(beta, cfg, 2, n_max)[1]
        g_tops = g[np.arange(block - 1, ns.size, block)]  # g at the last index of every full block
        half = transforms._verdict_layout(ns.size, 2, n_max).half_start
        left = s_all[: half : 5]  # S in the left half: crossings there
        s_sets = [
            np.geomspace(1e-6, 1e3, 40),
            g_tops,
            np.concatenate([np.nextafter(g_tops, 0), np.nextafter(g_tops, np.inf)]),
            np.concatenate([left, np.nextafter(left, 0), left[:-1] + np.diff(left) / 2]),
        ]
        at_sets = [(), [2, 5, max(2, half // 2), max(2, half - 1)], _walk_edges(2, n_max, block)]
        for s in s_sets:
            s = s[(s > 0) & np.isfinite(s)]
            for at in at_sets:
                _assert_walks_equal(beta, cfg, s, np.asarray(at, dtype=int))

    @pytest.mark.parametrize("offset", [0, 20], ids=["last", "inside"])
    def test_other_rate_function_is_read_in_full(self, offset, monkeypatch):
        # A NaN at the last index of block 10 of 64, left of the half, or 20
        # indices below it, where g at the last index stays finite; the
        # walk bounds that block of LogPower{1, 1/2} alone.  _NanBand is no
        # family of the package, so the walk reads every index and fails on
        # the NaN as the walk that reads every index does.
        block = 64
        monkeypatch.setattr(transforms, "_BLOCK", block)
        n_max = 1 + 64 * block
        cfg = TransformConfig(k_max=n_max, N_max=n_max)
        base = LogPower(C=1.0, q=0.5)
        s = np.geomspace(1e-6, 1e3, 40)
        layout = transforms._verdict_layout(n_max - 1, 2, n_max)
        assert not math.isnan(transforms._bounded_blocks(base, cfg, layout, range(2, n_max + 1, block), s, np.empty(0))[10])
        n = 2 + 11 * block - 1 - offset
        beta = _NanBand(base, _log_arg(n) - 1e-9, _log_arg(n) + 1e-9)
        for grid in (s, np.empty(0)):
            _assert_walks_equal(beta, cfg, grid)
        elems = []
        real = _NanBand.eval_at_log_many

        def counted(self, log_s):
            elems.append(np.size(log_s))
            return real(self, log_s)

        monkeypatch.setattr(_NanBand, "eval_at_log_many", counted)
        assert transforms._walk(beta, cfg, s)[0].fails
        assert sum(elems) == n_max - 1

    def test_work_falls(self, monkeypatch):
        # 64 blocks of the real _BLOCK.  k*(s) on this grid lies at 1.4e6 (the
        # last half), 1.0e5, and 7.7e3 and 599 (the lowest block):
        # the walk reads the last half, the lowest block and the few blocks
        # around the crossing at 1.0e5, and one value of every other block.
        block = transforms._BLOCK
        cfg = TransformConfig(k_max=64 * block + 1, N_max=64 * block + 1)
        beta = LogPower(C=1.0, q=0.5)
        grid = log_grid(1e-3, 5e-2, 4)
        elems = []
        real = LogPower.eval_at_log_many

        def counted(self, log_s):
            elems.append(np.size(log_s))
            return real(self, log_s)

        monkeypatch.setattr(LogPower, "eval_at_log_many", counted)
        got = transforms._walk(beta, cfg, grid)
        assert sum(elems) <= 0.6 * (cfg.N_max - 1)
        monkeypatch.undo()
        want = old_wl_walk(beta, cfg, grid)
        _assert_strided_verdict(got[0], want[0], beta, cfg)
        assert got[1].tolist() == want[1].tolist()
        assert want[1].tolist() == [1_388_304, 102_694, 7_679, 599]


class TestStridedFit:
    """Rule 4 fits its slope on the last-half indices N_max, N_max - stride, ...: check_vanishing,
    the xi1 walk and the WL walk agree on it where the stride exceeds 1 (_FIT_POINTS = 64)."""

    @pytest.mark.parametrize("config", _WALK_CONFIGS, ids=lambda c: f"delta{c[0]}-n0{c[1]}-theta{c[2]}")
    @pytest.mark.parametrize("beta", _WALK_INPUTS, ids=_WALK_IDS)
    def test_wl_walk_equals_whole_sequence(self, beta, config, monkeypatch):
        monkeypatch.setattr(transforms, "_FIT_POINTS", 64)
        delta, n0, theta, n_max = config
        cfg = TransformConfig(delta=delta, n0=n0, theta_cond=theta, k_max=n_max, N_max=n_max)
        lo = n0 if n0 is not None else 2
        ns, g = old_wl_condition_sequence(beta, cfg, lo, n_max)
        assert transforms._verdict_layout(ns.size, lo, n_max).stride > 1
        want = check_vanishing((ns, g))
        if not math.isnan(want.trend_slope):  # NaN where the last half is not finite
            assert want.trend_slope == pytest.approx(strided_fit(ns, g, 64), rel=1e-12)
        s_all = old_wl_walk(beta, cfg, at=ns)[2]
        for block in (7, 64, transforms._BLOCK):
            monkeypatch.setattr(transforms, "_BLOCK", block)
            edges = _walk_edges(lo, n_max, block)
            s = np.concatenate([np.geomspace(1e-6, 1e3, 40), s_all[edges - lo]])
            s = s[(s > 0) & np.isfinite(s)]
            for at in (np.array([], dtype=int), edges):
                got, ref = transforms._walk(beta, cfg, s, at), old_wl_walk(beta, cfg, s, at)
                # status and tail bit for bit, with NaN equal to NaN
                assert (got[0].status, repr(got[0].sequence_tail)) == (want.status, repr(want.sequence_tail))
                assert got[0].trend_slope == pytest.approx(want.trend_slope, rel=1e-12, nan_ok=True)
                assert got[1].tolist() == ref[1].tolist()
                assert repr(got[2].tolist()) == repr(ref[2].tolist())

    @pytest.mark.parametrize("n0", [None, 5])
    @pytest.mark.parametrize("beta", _SL_INPUTS, ids=_SL_IDS)
    def test_xi1_walk_equals_whole_sequence(self, beta, n0, monkeypatch):
        monkeypatch.setattr(transforms, "_FIT_POINTS", 64)
        cfg = TransformConfig(n0=n0, N_max=3 * transforms._ROWS + 17, C4=0.3 if n0 else 1.0)
        ns, vals = whole_xi1_sequence(beta, cfg)
        assert transforms._verdict_layout(ns.size, int(ns[0]), cfg.N_max).stride > 1
        want = check_vanishing((ns, vals))
        assert want.trend_slope == pytest.approx(strided_fit(ns, vals, 64), rel=1e-12)
        for s in _sl_grids(ns, vals, cfg, transforms._ROWS):
            verdict, k_star, _ = transforms._walk(beta, cfg, s, sequence="xi1")
            assert (verdict.status, verdict.sequence_tail) == (want.status, want.sequence_tail)
            assert verdict.trend_slope == pytest.approx(want.trend_slope, rel=1e-12, nan_ok=True)
            assert _outcome(lambda: transforms._n_zero(beta, k_star, s, cfg)) == _outcome(
                lambda: whole_n_zero(ns, vals, s, cfg))

    def test_stride_one_up_to_2_16(self):
        assert transforms._verdict_layout(2 * (1 << 16), 2, 2 * (1 << 16) + 1).stride == 1
        assert transforms._verdict_layout(2 * (1 << 16) + 1, 2, 2 * (1 << 16) + 2).stride == 2


def _flat_then_rising(n_flat, n_max, value=50.0, delta=4.0):
    """A table on which the WL sequence (theta 1) is value/n up to ``n_flat`` and rises after it,
    as beta_WL grows by 1 per unit of log(1/s) from there: so rule 3 finds decreases up to n_flat
    alone.  Its knots lie inside double range while n_max stays below about 530."""

    def log_arg(n):
        return -(n * math.log(delta) + math.log(n))

    x_flat, x_end = log_arg(n_flat), log_arg(n_max) - 1.0
    return Tabulated(points=((math.exp(x_end), value + (x_flat - x_end)), (math.exp(x_flat), value)))


class TestVerdictReads:
    """The WL walk of a family reads, for the verdict, the blocks that decide a rule, and its
    verdict stays that of the walk that reads every index."""

    def test_deep_window_reads_few_indices(self, monkeypatch, one_core):
        # acceptance 2e's window of 1.5e8 indices; the walk that read its last half passed 7.8e7
        one_core()
        sizes = []
        real = transforms._wl_condition_sequence

        def counting(beta, cfg, ns, *rest):
            sizes.append(ns.size)
            return real(beta, cfg, ns, *rest)

        monkeypatch.setattr(transforms, "_wl_condition_sequence", counting)
        cfg = TransformConfig(k_max=150_000_000, N_max=150_000_000)
        sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(1e-4, 1e-2, 60), cfg)
        assert sum(sizes) <= 4_000_000

    @pytest.mark.parametrize("block", [1, 16])
    @pytest.mark.parametrize("n_flat, status", [(245, "fails_empirically"), (252, "holds_empirically"),
                                                (257, "holds_empirically")], ids=["none", "inside", "to-its-end"])
    def test_decrease_in_the_lowest_half_block_alone(self, n_flat, status, block, monkeypatch):
        # The last half of [2, 500] starts at n = 251, in the block of n 242..257 at 16 a block.  A
        # slope tolerance of -10 lets any slope pass rule 4, so rule 3 decides: fails without a decrease,
        # and otherwise rule 5 holds (g(500) is below half of g(2) = 25).
        monkeypatch.setattr(transforms, "_BLOCK", block)
        monkeypatch.setattr(transforms, "_SLOPE_TOL", -10.0)
        cfg = TransformConfig(k_max=500, N_max=500)
        beta = _flat_then_rising(n_flat, 500)
        for s in (np.empty(0), np.geomspace(1e-3, 10.0, 30)):
            _assert_walks_equal(beta, cfg, s)
            assert transforms._walk(beta, cfg, s)[0].status == status

    @pytest.mark.parametrize("ratio, status", [(1.001, "fails_empirically"), (0.999, "holds_empirically")])
    def test_last_quarter_block_straddles_rule_2(self, ratio, status, monkeypatch):
        # g = B/n on [2, 1000]: the last quarter starts at n = 751, in the block of n 706..769 at 64
        # a block, and B puts g(751) at ratio times rule 2's threshold 1e-12*(1 + B/2), above g(769).
        # A slope tolerance of 50 fails rule 4, so rule 2 decides: it holds where g(751) lies below.
        monkeypatch.setattr(transforms, "_BLOCK", 64)
        monkeypatch.setattr(transforms, "_SLOPE_TOL", 50.0)
        cfg = TransformConfig(k_max=1000, N_max=1000)
        beta = Constant(B=ratio * 1e-12 / (1.0 / 751 - 0.5e-12 * ratio))
        for s in (np.empty(0), np.geomspace(1e-16, 1e-9, 30)):
            _assert_walks_equal(beta, cfg, s)
            assert transforms._walk(beta, cfg, s)[0].status == status


class _Raising(RateFunction):
    """LogPower{1, 1/2} that raises MathDomainError, naming the band, on a
    block that holds a log(s) in one of ``bands``."""

    def __init__(self, bands):
        self.bands = bands

    def eval_many(self, s):
        return self.eval_at_log_many(np.log(s))

    def eval_at_log_many(self, log_s):
        for lo, hi in self.bands:
            if np.any((log_s >= lo) & (log_s <= hi)):
                raise MathDomainError(f"no value on [{lo}, {hi}]")
        return LogPower(C=1.0, q=0.5).eval_at_log_many(log_s)

    def limit_at_zero(self):
        return math.inf

    def limit_at_inf(self):
        return 1.0

    def to_json_dict(self):
        return {"family": "raising"}


# 137 blocks of 2^15 and a partial one: 9 groups, enough for the workers.
_DEEP = 4_500_000


def _log_arg(n):
    """log(delta^-n n^-theta) at delta 4, theta 1."""
    return -(n * math.log(4.0) + math.log(n))


def _deep_log_points(n_max):
    cfg = TransformConfig(k_max=n_max, N_max=n_max)
    return sp_from_wl(LogPower(C=1.0, q=0.5), log_grid(1e-3, 1e-2, 12), cfg).log_points


class TestBlockTasks:
    """The WL walk's groups and the kernel's row blocks give the same bits
    in forked workers as in this process, and raise the same errors."""

    @pytest.mark.parametrize(
        "beta",
        [
            LogPower(C=1.0, q=0.5),
            LogPower(C=1.0, q=1.5),  # fails: the sequence grows like sqrt(n)
            _NanBand(LogPower(C=1.0, q=0.5), _log_arg(3_030_000), _log_arg(2_960_000)),
            ExpPower(C=1.0, theta=1.0),  # +inf past its first few indices
        ],
        ids=["LogPower0.5", "LogPower1.5", "NanBand", "ExpPower"],
    )
    def test_walk_equals_one_core(self, beta, tmp_path, one_core, record_pids):
        cfg = TransformConfig(k_max=_DEEP, N_max=_DEEP)
        # block edges, the partial top block and indices inside groups
        edges = np.unique(np.clip(np.concatenate([np.arange(2, _DEEP + 1, transforms._BLOCK) + d for d in (-1, 0, 1)]),
                                  2, _DEEP))
        at = np.concatenate([edges, [2, 3, 1_000_001, _DEEP - 1, _DEEP]])
        pids = record_pids(transforms, "_wl_condition_sequence")
        sup = transforms._walk(beta, cfg, at=at)[2]
        finite = sup[np.isfinite(sup)]
        s = np.concatenate([log_grid(1e-4, 1e-2, 30), finite[:: max(1, finite.size // 200)],
                            np.nextafter(finite[::97], 0)])
        s = s[(s > 0) & np.isfinite(s)]
        got = transforms._walk(beta, cfg, s, at)
        if len(os.sched_getaffinity(0)) > 1:
            assert pids() - {os.getpid()}, "no block ran in a worker"
        one_core()
        path = tmp_path / "_wl_condition_sequence.pids"
        path.unlink()
        want = transforms._walk(beta, cfg, s, at)
        assert pids() == {os.getpid()}
        assert got[0].status == want[0].status
        # status, tail and trend slope, bit for bit and with NaN equal to NaN
        assert repr(got[0]) == repr(want[0])
        assert got[1].tolist() == want[1].tolist()
        assert repr(got[2].tolist()) == repr(want[2].tolist())

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    def test_kernel_rows_equal_one_core(self, kind, one_core, record_pids):
        # 9 blocks and a partial one
        ns = np.arange(2, 9 * transforms._ROWS + 60)
        if kind == "xi1":
            beta, log_ts = ExpPower(C=1.0, theta=0.5), -(ns - 1) * math.log(4.0)
        else:
            beta, log_ts = PolyPower(C=1.0, p=1.0), np.log(ns * math.log(4.0))
        pids = record_pids(transforms, "_kernel_block")
        got = transforms._kernel_min(beta, log_ts, kind)
        if len(os.sched_getaffinity(0)) > 1:
            assert pids() - {os.getpid()}, "no block ran in a worker"
        one_core()
        _assert_same_bits(got, transforms._kernel_min(beta, log_ts, kind))

    @MANY_CORES
    def test_walk_error_is_the_first_in_walk_order(self, one_core):
        # Blocks near n = 4e6 and n = 1e6 raise; the walk goes from N_max down.
        beta = _Raising([(_log_arg(1_000_010), _log_arg(1_000_000)), (_log_arg(4_000_010), _log_arg(4_000_000))])
        cfg = TransformConfig(k_max=_DEEP, N_max=_DEEP)
        with pytest.raises(MathDomainError) as in_workers:
            sp_from_wl(beta, [1e-3], cfg)
        one_core()
        with pytest.raises(MathDomainError) as in_process:
            sp_from_wl(beta, [1e-3], cfg)
        assert type(in_workers.value) is type(in_process.value)
        assert str(in_workers.value) == str(in_process.value) == f"no value on [{_log_arg(4_000_010)}, {_log_arg(4_000_000)}]"

    @MANY_CORES
    def test_kernel_error_is_the_first_in_row_order(self, monkeypatch, one_core):
        # Blocks 1 and 3 of blocks 0-4 raise.  Block 1's error comes first in
        # workers as here, though a worker may reach block 3 before block 1 ends.
        real = transforms._kernel_block

        def failing(beta, log_ts, kind):
            if log_ts.size == transforms._ROWS and log_ts[0] in (starts[1], starts[3]):
                raise CapError(f"block at {log_ts[0]!r}")
            return real(beta, log_ts, kind)

        log_ts = -np.arange(1, 5 * transforms._ROWS + 1) * math.log(4.0)
        starts = log_ts[:: transforms._ROWS]
        monkeypatch.setattr(transforms, "_kernel_block", failing)
        errors = []
        for cores in (None, 1):
            if cores:
                one_core()
            with pytest.raises(CapError) as err:
                transforms._kernel_min(ExpPower(C=1.0, theta=0.5), log_ts, "xi1")
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == (CapError, f"block at {starts[1]!r}")

    def test_one_core_keeps_the_work_here(self, monkeypatch, one_core, record_pids):
        one_core()
        pids = record_pids(transforms, "_wl_condition_sequence")
        got = _deep_log_points(_DEEP)
        assert pids() == {os.getpid()}
        monkeypatch.undo()
        assert got == _deep_log_points(_DEEP)

    def test_daemonic_caller_runs_in_process(self):
        # A multiprocessing.Pool worker is daemonic and may not start children.
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply_async(_deep_log_points, (_DEEP,)).get(timeout=120)
        finally:
            pool.close()
            pool.join()
        assert got == _deep_log_points(_DEEP)

    def test_fit_sums_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot of more than 10 000 entries over its threads;
        # the fit sums of both a walk and a half window of 20 000 entries do not.
        code = (
            "import numpy as np\n"
            "from ratecalc import LogPower, TransformConfig, check_vanishing, transforms\n"
            "walk = transforms._walk(LogPower(C=1.0, q=0.25), TransformConfig(k_max=100_000, N_max=100_000))[0]\n"
            "ns = np.arange(2, 40_002)\n"
            "whole = check_vanishing((ns, ns**-1.5 * (1.0 + 0.5 * np.sin(ns))))\n"
            "print(repr(walk.trend_slope), repr(whole.trend_slope))\n"
        )
        src = os.path.dirname(os.path.dirname(transforms.__file__))
        slopes = [
            subprocess.run([sys.executable, "-c", code], env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
                           capture_output=True, text=True, check=True).stdout
            for threads in ("1", "2")
        ]
        assert slopes[0] == slopes[1]
        assert len(slopes[0].split()) == 2


_BLOCK_SIZE_INPUTS = [
    ExpPower(C=1.0, theta=0.5),
    ExpPower(C=1.0, theta=0.75),
    PolyPower(C=1.0, p=1.0),
    InversePower(a=1.0, p=1.0),
]

_BLOCK_SIZE_IDS = ["ExpPower0.5", "ExpPower0.75", "PolyPower", "InversePower"]


class TestKernelBlockSize:
    """Kernel rows and the maps built on them do not depend on the rows per
    kernel block: 16384 against the 4096 of earlier versions.  The window of
    50 000 indices is 4 blocks of one and 13 of the other."""

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    @pytest.mark.parametrize("beta", _BLOCK_SIZE_INPUTS, ids=_BLOCK_SIZE_IDS)
    def test_kernel_rows(self, beta, kind, monkeypatch):
        ns = np.arange(2, 50_001)
        log_ts = -(ns - 1) * math.log(4.0) if kind == "xi1" else np.log(ns * math.log(4.0))
        got = []
        for rows in (4096, 16384):
            monkeypatch.setattr(transforms, "_ROWS", rows)
            got.append(transforms._kernel_min(beta, log_ts, kind))
        _assert_same_bits(*got)

    @pytest.mark.parametrize("beta", _BLOCK_SIZE_INPUTS, ids=_BLOCK_SIZE_IDS)
    def test_walk_and_k_window(self, beta, monkeypatch):
        # xi1: the SP-to-SL walk's status, tail, k* and N0(s), at s on both sides of
        # the suffix maximum at each edge of a 4096-row block; xi2: the k* of sp_from_sl.
        cfg = TransformConfig(N_max=50_000, k_max=50_000)
        s = _sl_grids(*whole_xi1_sequence(beta, cfg), cfg, 4096)[0]
        s_xi2 = log_grid(1e-5, 1e-1, 40)
        got = []
        for rows in (4096, 16384):
            monkeypatch.setattr(transforms, "_ROWS", rows)
            verdict, k_star, _ = transforms._walk(beta, cfg, s, sequence="xi1")
            n0 = _outcome(lambda: transforms._n_zero(beta, k_star, s, cfg))
            log_sp = np.array(sp_from_sl(beta, s_xi2, cfg).log_points)
            got.append((verdict, k_star.tolist(), n0, log_sp.tobytes()))
        (v4, *rest4), (v16, *rest16) = got
        assert (v4.status, repr(v4.sequence_tail)) == (v16.status, repr(v16.sequence_tail))
        assert rest4 == rest16
        # The fit sums merge block by block, so the slope may move in its last digits.
        assert v16.trend_slope == pytest.approx(v4.trend_slope, rel=1e-12, nan_ok=True)


def per_row_refine(beta, log_ts, centers, ratio, kind):
    """The refinement pass that read beta at the 21 points of each row, kept as the reference."""
    steps = ratio ** np.linspace(-1.0, 1.0, transforms._REFINE_POINTS)
    out = np.empty(centers.shape)
    for i in range(0, centers.size, transforms._REFINE_ROWS):
        local = centers[i : i + transforms._REFINE_ROWS, None] * steps
        log_b = beta.log_eval_many(local.ravel()).reshape(local.shape)
        out[i : i + transforms._REFINE_ROWS] = transforms._cells(
            log_ts[i : i + transforms._REFINE_ROWS, None], local, log_b, kind).min(axis=1)
    return out


_EVERY_FAMILY = [
    ExpPower(C=1.0, theta=0.5),
    PolyPower(C=1.0, p=1.0),
    LogPower(C=1.0, q=0.5),
    InversePower(a=1.0, p=1.0),
    Constant(B=2.0),
    Tabulated(points=((1e-3, 40.0), (0.1, 6.0), (1.0, 1.5))),
    LogTabulated(log_points=((1e-30, 900.0), (1e-3, 40.0), (1.0, -2.0))),
]

_EVERY_FAMILY_IDS = ["ExpPower", "PolyPower", "LogPower", "InversePower", "Constant", "Tabulated", "LogTabulated"]


class TestRefinementPerCenter:
    """The refinement reads beta once per distinct center and gathers it per
    row; that keeps the bits of a read per row on every family."""

    def test_every_family(self):
        assert {type(beta) for beta in _EVERY_FAMILY} == set(ratefn._FAMILIES.values())

    @pytest.mark.parametrize("beta", _EVERY_FAMILY, ids=_EVERY_FAMILY_IDS)
    def test_log_eval_many_is_elementwise(self, beta):
        # A point's value does not depend on the contiguous array it is read in:
        # its length, its other points or its offset in memory.
        rng = np.random.default_rng(41)
        s = np.concatenate([10.0 ** rng.uniform(-280.0, 280.0, 4000), R_GRID])
        whole = beta.log_eval_many(s)
        for size in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 21, 63, 64, 65, 999):
            pick = rng.choice(s.size, size)
            _assert_same_bits(beta.log_eval_many(s[pick]), whole[pick])
        for start in range(1, 8):
            _assert_same_bits(beta.log_eval_many(s[start : start + 101]), whole[start : start + 101])

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    @pytest.mark.parametrize("beta", _EVERY_FAMILY, ids=_EVERY_FAMILY_IDS)
    def test_refine_rows_equals_per_row(self, beta, kind):
        # Shared grid centers, in and out of order, over more than one step of rows.
        rng = np.random.default_rng(42)
        ratio = (transforms._R_MAX / transforms._R_MIN) ** (1.0 / (transforms._R_COUNT - 1))
        centers = rng.choice(np.concatenate([R_GRID, np.geomspace(1e-280, 1e-8, 400)]), 60)
        centers = np.concatenate([np.repeat(centers, rng.integers(1, 40, centers.size)), np.sort(centers)])
        log_ts = rng.uniform(-40.0, 10.0, centers.size)
        assert centers.size > transforms._REFINE_ROWS
        _assert_same_bits(transforms._refine_rows(beta, log_ts, centers, ratio, kind),
                          per_row_refine(beta, log_ts, centers, ratio, kind))

    @pytest.mark.parametrize("kind", ["xi1", "xi2"])
    @pytest.mark.parametrize("beta", _EVERY_FAMILY, ids=_EVERY_FAMILY_IDS)
    def test_kernel_rows_equal_per_row_refinement(self, beta, kind, monkeypatch):
        ns = np.arange(2, 3000)
        log_ts = -(ns - 1) * math.log(4.0) if kind == "xi1" else np.log(ns * math.log(4.0))
        log_ts = np.concatenate([log_ts, np.linspace(-60.0, 8.0, 997)])
        got = transforms._kernel_min(beta, log_ts, kind)
        monkeypatch.setattr(transforms, "_refine_rows", per_row_refine)
        _assert_same_bits(got, transforms._kernel_min(beta, log_ts, kind))


class TestPoolThreshold:
    """Kernel rows and the SP-to-SL walk go to workers from _POOL_MIN_ROWS rows on, not below."""

    def test_rows(self, tmp_path, record_pids):
        beta = ExpPower(C=1.0, theta=0.5)
        pids = record_pids(transforms, "_kernel_block")
        for rows in (transforms._POOL_MIN_ROWS - 1, transforms._POOL_MIN_ROWS):
            for run in (lambda: transforms._kernel_min(beta, -np.arange(1, rows + 1) * math.log(4.0), "xi1"),
                        lambda: sp2sl_condition(beta, TransformConfig(n0=2, N_max=rows + 1))):
                run()
                if rows < transforms._POOL_MIN_ROWS:
                    assert pids() == {os.getpid()}
                elif len(os.sched_getaffinity(0)) > 1:
                    assert os.getpid() not in pids()
                (tmp_path / "_kernel_block.pids").unlink()


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

    def test_limit_past_double_range_is_cap_error(self):
        # lim beta_SL = e^800 at infinity does not fit in a double; its
        # start index k0 = floor(e^800/log 4) + 1 passes any k_max.
        beta = LogTabulated(log_points=((1e-3, 900.0), (1.0, 800.0)))
        with pytest.raises(CapError):
            sp_from_sl(beta, [1e-3, 1e-2], CFG)

    def test_log_values_past_double_range(self):
        # k*(1e-6) = 1444: beta_SP = 4^1444 does not fit in a double.
        out = sp_from_sl(PolyPower(C=1.0, p=1.0), [1e-6], TransformConfig(k_max=100_000))
        assert isinstance(out, LogTabulated)
        assert out.log_points == ((1e-6, 1444 * math.log(4.0)),)
        with pytest.raises(CapError):
            out.points


class TestStartIndex:
    def test_default_per_sequence(self):
        # Constant 3 at delta = 4: xi1 skips n with 3*4^-(n-1) > 1/8, xi2
        # needs k*log 4 > 3, and the WL condition sequence starts at 2.
        beta = Constant(B=3.0)
        assert [transforms._start_index(beta, CFG, q) for q in ("xi1", "xi2", "wl")] == [4, 3, 2]

    @pytest.mark.parametrize("sequence", ["xi1", "xi2", "wl"])
    def test_configured_n0_wins(self, sequence):
        assert transforms._start_index(Constant(B=3.0), TransformConfig(n0=7), sequence) == 7


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
