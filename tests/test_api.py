"""The library's argument rules and its documented exports.

Every scalar entry point applies the one scalar rule (errors._scalar),
every grid entry point the one grid rule (errors._s_grid), every number
an input object is made of the one number rule (errors._number), every kind
entry point the one kind lookup (optconst._inequality), and the README's "Library layout" table and the package's imports name only
what their modules define and export.
"""

import ast
import importlib
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

import ratecalc
from ratecalc import (
    ConfigError,
    Constant,
    ExpPower,
    FiniteDirichletForm,
    InversePower,
    LogPower,
    LogTabulated,
    MathDomainError,
    PolyPower,
    SolverConfig,
    Tabulated,
    TransformConfig,
    brute_force_oracle,
    build_birth_death,
    certify_inequality,
    empirical_rate,
    fit_exponent,
    level_data,
    log_grid,
    n_zero,
    optimal_value,
    sl_from_sp,
    sp_from_sl,
    sp_from_wl,
    truncation_sequence,
    wl_from_sp,
    xi1,
    xi2,
)

FORM = FiniteDirichletForm.from_json_dict({"mu": [0.5, 0.5], "edges": [[0, 1, 1.0]]})
QUICK = SolverConfig(restarts=1, seed=1)
INV = InversePower(a=1.0, p=1.0)

# Each scalar entry point as a call of its scalar argument, and whether it admits 0.
SCALAR_ENTRIES = {
    "optimal_value": (lambda x: optimal_value(FORM, "SP", x, QUICK), False),
    "brute_force_oracle": (lambda x: brute_force_oracle(FORM, "SP", x, 1e-2), True),
    "xi1": (lambda x: xi1(INV, x), False),
    "xi2": (lambda x: xi2(INV, x), False),
    "n_zero": (lambda x: n_zero(INV, x, TransformConfig(n0=2)), False),
    "eval": (lambda x: ExpPower(C=1.0, theta=0.5).eval(x), False),
    "certify_inequality": (lambda x: certify_inequality(FORM, "SP", x, 1.0, n_samples=10), True),
}

# Each grid entry point as a call of its s grid.
GRID_ENTRIES = {
    "empirical_rate": lambda g: empirical_rate(FORM, "SP", g, QUICK),
    "sl_from_sp": lambda g: sl_from_sp(ExpPower(C=1.0, theta=0.5), g),
    "wl_from_sp": lambda g: wl_from_sp(ExpPower(C=1.0, theta=0.5), g),
    "sp_from_sl": lambda g: sp_from_sl(ExpPower(C=1.0, theta=0.5), g),
    "sp_from_wl": lambda g: sp_from_wl(Constant(B=2.0), g, TransformConfig(n0=2)),
}

KIND_ENTRIES = {
    "optimal_value": lambda kind: optimal_value(FORM, kind, 0.5, QUICK),
    "brute_force_oracle": lambda kind: brute_force_oracle(FORM, kind, 0.5, 1e-2),
    "certify_inequality": lambda kind: certify_inequality(FORM, kind, 0.5, 1.0, n_samples=10),
}

CHAIN = {"kappa": 4.0, "c0": 1.0, "half_width": 2.0, "n": 41}
# (s, 1/s) at s = 2^-10 .. 1, exact in float32 as in float64.
SAMPLES = [(2.0**-k, 2.0**k) for k in range(11)]

# Each number an input object is made of, as (call of the number, its name in messages, an
# admitted value); an int value marks a number that must be integral.  A repr of what a call
# returns shows every bit of it.
FIELD_ENTRIES = {
    f"{cls.__name__}.{name}": (
        lambda x, cls=cls, base=base, name=name: cls(**{**base, name: x}),
        f"{what} field '{name}'",
        value,
    )
    for cls, base, what, values in [
        (TransformConfig, {}, "config", {
            "delta": 3.0, "n0": 3, "s0": 3.0, "C1": 3.0, "C2": 3.0, "C3": 3.0, "C4": 3.0, "C5": 3.0, "C6": 3.0,
            "theta_cond": 3.0, "k_max": 300, "N_max": 300,
        }),
        (SolverConfig, {}, "solver config", {"restarts": 3, "seed": 3}),
        (ExpPower, {"C": 1.0, "theta": 1.0}, "rate function", {"C": 3.0, "theta": 3.0}),
        (PolyPower, {"C": 1.0, "p": 1.0}, "rate function", {"C": 3.0, "p": 3.0}),
        (LogPower, {"C": 1.0, "q": 1.0}, "rate function", {"C": 3.0, "q": 3.0}),
        (InversePower, {"a": 1.0, "p": 1.0}, "rate function", {"a": 3.0, "p": 3.0}),
        (Constant, {}, "rate function", {"B": 3.0}),
    ]
    for name, value in values.items()
}
FIELD_ENTRIES.update({
    "Tabulated.s": (lambda x: Tabulated(points=((x, 1.0),)), "points entry", 3.0),
    "Tabulated.value": (lambda x: Tabulated(points=((1.0, x),)), "points entry", 3.0),
    "LogTabulated.s": (lambda x: LogTabulated(log_points=((x, 1.0),)), "log_points entry", 3.0),
    "LogTabulated.log_value": (lambda x: LogTabulated(log_points=((1.0, x),)), "log_points entry", 3.0),
    "form.mu": (lambda x: FiniteDirichletForm(mu=[x, 0.5], edges=[(0, 1, 1.0)]).to_json_dict(), "mu entry", 0.5),
    "form.index": (lambda x: FiniteDirichletForm(mu=[0.5, 0.5], edges=[(0, x, 1.0)]).to_json_dict(), "edge index", 1),
    "form.weight": (lambda x: FiniteDirichletForm(mu=[0.5, 0.5], edges=[(0, 1, x)]).to_json_dict(), "edge weight", 3.0),
    **{
        f"build_birth_death.{name}": (
            lambda x, name=name: build_birth_death(**{**CHAIN, name: x}).to_json_dict(),
            f"birth-death {name}",
            value,
        )
        for name, value in {"kappa": 3.0, "c0": 3.0, "half_width": 3.0, "n": 41}.items()
    },
    "log_grid.lo": (lambda x: log_grid(x, 10.0, 5).tolist(), "log grid lo", 3.0),
    "log_grid.hi": (lambda x: log_grid(1.0, x, 5).tolist(), "log grid hi", 3.0),
    "log_grid.count": (lambda x: log_grid(1.0, 10.0, x).tolist(), "log grid count", 5),
    "certify_inequality.n_samples": (
        lambda x: certify_inequality(FORM, "SP", 0.5, 1.0, n_samples=x), "certification sample count", 10,
    ),
    "certify_inequality.seed": (
        lambda x: certify_inequality(FORM, "SP", 0.5, 1.0, n_samples=10, seed=x), "certification seed", 7,
    ),
    "level_data.n_max": (lambda x: level_data([1.0, 3.0], [0.5, 0.5], 4.0, x), "level data n_max", 2),
    "truncation_sequence.n": (lambda x: truncation_sequence([1.0, 30.0], 4.0, x).tolist(), "truncation index", 2),
    "fit_exponent.lo": (lambda x: fit_exponent(SAMPLES, "log-log-power", (x, 1.0)), "fit range lo", 2.0**-10),
    "fit_exponent.hi": (lambda x: fit_exponent(SAMPLES, "log-log-power", (2.0**-10, x)), "fit range hi", 0.5),
    "fit_exponent.s": (lambda x: fit_exponent([(x, 3.0), *SAMPLES], "log-log-power", (2.0**-10, 1.0)), "fit sample s", 0.75),
    "fit_exponent.value": (
        lambda x: fit_exponent([(0.75, x), *SAMPLES], "log-log-power", (2.0**-10, 1.0)), "fit sample value", 3.0,
    ),
})

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
class TestScalarRule:
    @pytest.mark.parametrize(
        "x",
        [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400, -1, 0],
        ids=["True", "'0.5'", "None", "nan", "inf", "-inf", "10**400", "-1", "0"],
    )
    def test_refused(self, entry, x):
        call, allow_zero = SCALAR_ENTRIES[entry]
        if allow_zero and x == 0:
            assert call(x) == call(0.0)
            return
        with pytest.raises(MathDomainError):
            call(x)

    @pytest.mark.parametrize("x, plain", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)], ids=["float32", "int64"])
    def test_numpy_scalar_admitted(self, entry, x, plain):
        call, _ = SCALAR_ENTRIES[entry]
        assert repr(call(x)) == repr(call(plain))


@pytest.mark.parametrize("entry", FIELD_ENTRIES)
class TestFieldRule:
    @pytest.mark.parametrize("x", [True, "1.0", 10**400], ids=["True", "'1.0'", "10**400"])
    def test_refused_by_name(self, entry, x):
        call, name, _ = FIELD_ENTRIES[entry]
        with pytest.raises(ConfigError, match=re.escape(name)):
            call(x)

    def test_fraction_refused_where_integral(self, entry):
        call, name, value = FIELD_ENTRIES[entry]
        if isinstance(value, int):
            with pytest.raises(ConfigError, match=f"{re.escape(name)} must be an integer"):
                call(2.5)

    def test_non_finite_refused_by_name(self, entry):
        call, name, value = FIELD_ENTRIES[entry]
        if entry.startswith("build_birth_death.") and not isinstance(value, int):
            for x in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigError, match=f"{re.escape(name)} must be finite"):
                    call(x)

    def test_numpy_scalars_admitted(self, entry):
        call, _, value = FIELD_ENTRIES[entry]
        want = repr(call(value))
        for kind in (np.int64, np.float64, float) if isinstance(value, int) else (np.float64, np.float32):
            assert repr(call(kind(value))) == want


@pytest.mark.parametrize("entry", GRID_ENTRIES)
class TestGridRule:
    @pytest.mark.parametrize(
        "grid",
        [[True, 2.0], ["0.5", 2.0], [None, 2.0], np.array([True, False]), [0.5, math.inf], [math.nan, 2.0], [0.5, 10**400]],
        ids=["True", "'0.5'", "None", "bool-array", "inf", "nan", "10**400"],
    )
    def test_entries_refused(self, entry, grid):
        with pytest.raises(MathDomainError):
            GRID_ENTRIES[entry](grid)

    @pytest.mark.parametrize(
        "grid", [[], 0.5, [[0.5, 2.0]], [2.0, 0.5], [0.5, 0.5], [0.0, 2.0]],
        ids=["empty", "scalar", "2-D", "descending", "repeated", "zero"],
    )
    def test_shape_and_order_refused(self, entry, grid):
        with pytest.raises(ConfigError):
            GRID_ENTRIES[entry](grid)

    def test_numpy_grids_admitted(self, entry):
        call = GRID_ENTRIES[entry]
        want = repr(call([0.5, 2.0]))
        for grid in ((np.float32(0.5), np.int64(2)), np.array([0.5, 2.0]), np.array([0.5, 2], dtype=object)):
            assert repr(call(grid)) == want


@pytest.mark.parametrize("chain", [(4.0, 1.0, 1e200, 41), (400.0, 1.0, 10.0, 41), (4.0, 1e300, 1e3, 41)])
def test_birth_death_exponent_past_double_range_refused(chain):
    # Refused before numpy computes anything, so no RuntimeWarning either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape("birth-death c0 * half_width**kappa out of range")):
            build_birth_death(*chain)


class TestCertifyArguments:
    @pytest.mark.parametrize("beta", [True, "1.0", None, math.nan, math.inf, -math.inf, 10**400])
    def test_beta_refused(self, beta):
        with pytest.raises(MathDomainError):
            certify_inequality(FORM, "SP", 0.5, beta, n_samples=10)

    def test_beta_is_any_finite_real(self):
        want = certify_inequality(FORM, "SP", 0.5, 0.5, n_samples=10)
        assert repr(certify_inequality(FORM, "SP", 0.5, np.float32(0.5), n_samples=10)) == repr(want)
        assert certify_inequality(FORM, "SP", 0.5, -1.0, n_samples=10)[0] is False

    @pytest.mark.parametrize("n_samples", [True, 2.5, "10", None, 0, -3])
    def test_sample_count_refused(self, n_samples):
        with pytest.raises(ConfigError):
            certify_inequality(FORM, "SP", 0.5, 1.0, n_samples=n_samples)

    def test_numpy_sample_count_admitted(self):
        want = certify_inequality(FORM, "SP", 0.5, 1.0, n_samples=10)
        assert repr(certify_inequality(FORM, "SP", 0.5, 1.0, n_samples=np.int64(10))) == repr(want)


@pytest.mark.parametrize("entry", KIND_ENTRIES)
@pytest.mark.parametrize("kind", ["XX", None, ["SP"]], ids=repr)
def test_unknown_kind_has_one_message(entry, kind):
    with pytest.raises(ConfigError) as err:
        KIND_ENTRIES[entry](kind)
    assert str(err.value) == f"unknown kind {kind!r}; expected one of ('SP', 'SL', 'WL', 'WP')"


def _layout_rows() -> list:
    """(module, contents) of each row of the README's "Library layout" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(ratecalc\.\w+)` \| (.*) \|$", section, flags=re.M)


class TestDocsSync:
    def test_layout_names_exist(self):
        rows = _layout_rows()
        assert len(rows) >= 5
        for module, contents in rows:
            mod = importlib.import_module(module)
            for name in re.findall(r"`([^`]+)`", contents):
                name = name.split("(", 1)[0].strip()
                assert hasattr(mod, name), f"README names {module}.{name}, which does not exist"

    def test_package_imports_are_exported(self):
        tree = ast.parse(pathlib.Path(ratecalc.__file__).read_text())
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
        assert imports
        for node in imports:
            mod = importlib.import_module(f"ratecalc.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, f"ratecalc imports {node.module}.{alias.name}, not in its __all__"
            for name in mod.__all__:
                assert hasattr(mod, name), f"{node.module}.__all__ names {name}, which does not exist"
