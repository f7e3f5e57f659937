import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratecalc import (
    CapError,
    Constant,
    ConfigError,
    ExpPower,
    ExtendedValue,
    FitError,
    InversePower,
    LogPower,
    LogTabulated,
    MathDomainError,
    PolyPower,
    Tabulated,
    fit_exponent,
    monotone_envelope,
    rate_function_from_json,
)

ALL_VARIANTS = [
    ExpPower(C=1.0, theta=1.0),
    ExpPower(C=0.5, theta=2.0),
    PolyPower(C=1.0, p=1.0),
    PolyPower(C=2.0, p=0.5),
    LogPower(C=1.0, q=0.5),
    LogPower(C=1.0, q=0.0),
    InversePower(a=1.0, p=1.0),
    Constant(B=3.0),
    Tabulated(points=((0.1, 5.0), (1.0, 2.0), (10.0, 1.0))),
    LogTabulated(log_points=((0.1, 3.0), (1.0, 1.0), (10.0, 0.0))),
]


class TestEval:
    def test_exp_power_direct_substitution(self):
        assert ExpPower(C=1.0, theta=1.0).eval(1.0) == pytest.approx(math.e**2, rel=1e-12)

    def test_constant(self):
        assert Constant(B=3.0).eval(0.01) == 3.0

    def test_log_power_q_zero_is_two_c(self):
        assert LogPower(C=1.0, q=0.0).eval(5.0) == pytest.approx(2.0, abs=1e-15)

    def test_inverse_power(self):
        assert InversePower(a=2.0, p=2.0).eval(0.5) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("rf", ALL_VARIANTS, ids=lambda r: type(r).__name__ + repr(r.to_json_dict())[:25])
    def test_non_increasing(self, rf):
        s = np.geomspace(1e-6, 1e6, 200)
        v = rf.eval_many(s)
        finite = np.isfinite(v)
        assert np.all(np.diff(v[finite]) <= 1e-12 * np.maximum(v[finite][:-1], 1.0))

    @pytest.mark.parametrize("rf", ALL_VARIANTS, ids=lambda r: type(r).__name__)
    def test_positive(self, rf):
        s = np.geomspace(1e-4, 1e4, 50)
        assert np.all(rf.eval_many(s) > 0)

    def test_nonpositive_s_rejected(self):
        with pytest.raises(MathDomainError):
            Constant(B=1.0).eval(0.0)
        with pytest.raises(MathDomainError):
            Constant(B=1.0).eval(-2.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            ExpPower(C=-1.0, theta=1.0)
        with pytest.raises(ConfigError):
            ExpPower(C=1.0, theta=0.3)
        with pytest.raises(ConfigError):
            Constant(B=0.0)


class TestTabulated:
    def test_constant_extension_outside_grid(self):
        tab = Tabulated(points=((1.0, 5.0), (2.0, 3.0)))
        assert tab.eval(0.01) == 5.0
        assert tab.eval(100.0) == 3.0

    def test_envelope_applied_at_construction(self):
        tab = Tabulated(points=((1.0, 5.0), (2.0, 3.0), (3.0, 4.0)))
        assert [v for _, v in tab.points] == [5.0, 4.0, 4.0]

    def test_rejects_nonincreasing_s(self):
        with pytest.raises(ConfigError):
            Tabulated(points=((1.0, 5.0), (1.0, 3.0)))

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigError):
            Tabulated(points=((1.0, 1.0), (2.0, 0.0)))

    def test_interpolation_monotone(self):
        tab = Tabulated(points=((0.01, 10.0), (1.0, 4.0), (100.0, 1.0)))
        s = np.geomspace(1e-3, 1e3, 300)
        v = tab.eval_many(s)
        assert np.all(np.diff(v) <= 1e-12)


class TestLogTabulated:
    def test_envelope_on_log_values(self):
        tab = LogTabulated(log_points=((1.0, 5.0), (2.0, 3.0), (3.0, 4.0)))
        assert [v for _, v in tab.log_points] == [5.0, 4.0, 4.0]
        assert tab.points == ((1.0, math.exp(5.0)), (2.0, math.exp(4.0)), (3.0, math.exp(4.0)))

    def test_log_values_exact_past_double_range(self):
        tab = LogTabulated(log_points=((1e-3, 5000.0), (1.0, 10.0)))
        assert tab.log_eval_many(np.array([1e-4, 1e-3]))[0] == 5000.0
        assert tab.log_limit_at_zero() == 5000.0
        assert tab.eval(1e-3) == math.inf
        with pytest.raises(CapError):
            tab.points

    def test_rejects_nonfinite_log_value(self):
        with pytest.raises(ConfigError):
            LogTabulated(log_points=((1.0, math.inf),))


class TestEvalAtLog:
    @pytest.mark.parametrize("rf", ALL_VARIANTS, ids=lambda r: type(r).__name__)
    def test_matches_eval_in_double_range(self, rf):
        log_s = np.linspace(-700.0, 30.0, 200)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(rf.eval_at_log_many(log_s), rf.eval_many(np.exp(log_s)))

    def test_log_power_closed_form_below_underflow(self):
        rf = LogPower(C=1.5, q=0.5)
        log_s = np.array([-708.3, -708.5, -745.0, -800.0, -1e8])
        np.testing.assert_allclose(rf.eval_at_log_many(log_s), 1.5 * (1.0 + np.sqrt(-log_s)), rtol=1e-15)

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("C", [1.0, 0.3, 7.0])
    def test_log_power_below_underflow_matches_log1p_form(self, q, C):
        # C*(1 + (-log s)**q) is the sum log1p(s) - log(s) rounded: log1p(s) < tiny
        # is below half an ulp of -log(s) > 708.
        tiny = math.log(np.finfo(float).tiny)
        rng = np.random.default_rng(3)
        log_s = np.concatenate([
            [tiny, np.nextafter(tiny, -np.inf), -745.2, -745.14, -746.0, -1e15],
            -np.geomspace(-tiny, 1e15, 100_001),
            -rng.uniform(-tiny, 1e4, 10_000),
        ])
        with np.errstate(under="ignore"):
            old = C * (1.0 + (np.log1p(np.exp(log_s)) - log_s) ** q)
        new = LogPower(C=C, q=q)._eval_below_tiny(log_s)
        assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize(
        "rf", [PolyPower(C=1.0, p=0.01), InversePower(a=2.0, p=0.01), Constant(B=3.0)], ids=lambda r: type(r).__name__
    )
    def test_continuous_across_underflow(self, rf):
        tiny = math.log(np.finfo(float).tiny)
        below, above = rf.eval_at_log_many(np.array([tiny - 1e-9, tiny + 1e-9]))
        assert below == pytest.approx(above, rel=1e-9)


class TestMonotoneEnvelope:
    def test_running_max_from_right(self):
        env = monotone_envelope([(1, 5), (2, 3), (3, 4)])
        assert [v for _, v in env.points] == [5.0, 4.0, 4.0]

    def test_already_monotone_unchanged(self):
        env = monotone_envelope([(1, 5), (2, 4), (3, 3)])
        assert [v for _, v in env.points] == [5.0, 4.0, 3.0]

    def test_right_max_propagates(self):
        env = monotone_envelope([(1, 1), (2, 7)])
        assert [v for _, v in env.points] == [7.0, 7.0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            monotone_envelope([])

    def test_duplicate_s_rejected(self):
        with pytest.raises(ConfigError):
            monotone_envelope([(1.0, 2.0), (1.0, 3.0)])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30)
    )
    def test_idempotent_and_dominating(self, values):
        if values[-1] <= 0:
            return  # all-positive requirement is tested separately
        pts = [(float(i + 1), v) for i, v in enumerate(values)]
        env = monotone_envelope(pts)
        out = [v for _, v in env.points]
        assert all(a >= b for a, b in zip(out, values))
        again = [v for _, v in monotone_envelope(list(env.points)).points]
        assert again == out


class TestExtendedValue:
    def test_finite_roundtrip(self):
        v = ExtendedValue.finite(2.5)
        assert v.is_finite and v.value == 2.5

    def test_undefined_comparison_flagged(self):
        u = ExtendedValue.undefined()
        f = ExtendedValue.finite(1.0)
        with pytest.raises(MathDomainError):
            _ = u < f
        with pytest.raises(MathDomainError):
            _ = f <= u

    def test_undefined_absorbs_min(self):
        vals = [ExtendedValue.finite(1.0), ExtendedValue.undefined()]
        assert ExtendedValue.min_of(vals).is_undefined

    def test_value_of_non_finite_raises(self):
        with pytest.raises(MathDomainError):
            _ = ExtendedValue.pos_infinity().value

    def test_negative_finite_rejected(self):
        with pytest.raises(MathDomainError):
            ExtendedValue.finite(-1.0)


class TestFitExponent:
    def test_exact_power_law(self):
        s = np.geomspace(1e-4, 1.0, 40)
        pts = list(zip(s, s**-2.0))
        assert fit_exponent(pts, "log-log-power", (1e-4, 1.0)) == pytest.approx(2.0, abs=1e-9)

    def test_exact_power_law_with_floor_search(self):
        s = np.geomspace(1e-4, 1.0, 40)
        pts = list(zip(s, 3.0 * s**-1.5))
        fit = fit_exponent(pts, "log-log-power", (1e-4, 1.0), subtract_floor=True)
        assert fit == pytest.approx(1.5, abs=1e-6)

    def test_log_power_family(self):
        s = np.geomspace(1e-6, 1e-3, 30)
        pts = list(zip(s, np.log1p(1.0 / s) ** 0.5))
        assert fit_exponent(pts, "log-log-log", (1e-6, 1e-3)) == pytest.approx(0.5, abs=0.05)

    def test_exp_family(self):
        # exp(s**-0.5) overflows doubles below s ~ 2e-6, so sample the
        # representable part of the window.
        s = np.geomspace(1e-5, 1e-3, 30)
        pts = list(zip(s, np.exp(s**-0.5)))
        assert fit_exponent(pts, "log-of-log", (1e-5, 1e-3)) == pytest.approx(0.5, abs=0.05)

    def test_additive_floor_recovered(self):
        s = np.geomspace(1e-8, 1e-4, 60)
        pts = list(zip(s, 3.0 + 0.8 * np.log1p(1.0 / s) ** 0.5))
        fit = fit_exponent(pts, "log-log-log", (1e-8, 1e-4), subtract_floor=True)
        assert fit == pytest.approx(0.5, abs=1e-6)

    def test_too_few_samples(self):
        pts = [(0.1 * (i + 1), 1.0) for i in range(5)]
        with pytest.raises(FitError):
            fit_exponent(pts, "log-log-power", (0.01, 10.0))

    def test_nonpositive_values(self):
        s = np.geomspace(0.01, 1.0, 12)
        pts = [(float(x), 0.0) for x in s]
        with pytest.raises(FitError):
            fit_exponent(pts, "log-log-power", (0.01, 1.0))

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            fit_exponent([(1.0, 1.0)] * 10, "nope", (0.1, 10.0))


class TestJson:
    @pytest.mark.parametrize("rf", ALL_VARIANTS, ids=lambda r: type(r).__name__)
    def test_round_trip(self, rf):
        blob = json.dumps(rf.to_json_dict())
        back = rate_function_from_json(json.loads(blob))
        s = np.geomspace(1e-3, 1e3, 20)
        np.testing.assert_allclose(back.eval_many(s), rf.eval_many(s), rtol=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            rate_function_from_json({"family": "mystery"})

    def test_missing_family(self):
        with pytest.raises(ConfigError):
            rate_function_from_json({})
