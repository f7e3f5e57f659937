"""The library's argument rules and its documented exports.

Every scalar entry point applies the one scalar rule (errors._scalar),
every kind entry point the one kind lookup (optconst._inequality), and
the README's "Library layout" table and the package's imports name only
what their modules define and export.
"""

import ast
import importlib
import math
import pathlib
import re

import numpy as np
import pytest

import ratecalc
from ratecalc import (
    ConfigError,
    ExpPower,
    FiniteDirichletForm,
    InversePower,
    MathDomainError,
    SolverConfig,
    TransformConfig,
    brute_force_oracle,
    certify_inequality,
    n_zero,
    optimal_value,
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
}

KIND_ENTRIES = {
    "optimal_value": lambda kind: optimal_value(FORM, kind, 0.5, QUICK),
    "brute_force_oracle": lambda kind: brute_force_oracle(FORM, kind, 0.5, 1e-2),
    "certify_inequality": lambda kind: certify_inequality(FORM, kind, 0.5, 1.0, n_samples=10),
}

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
