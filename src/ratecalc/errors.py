"""Exception hierarchy with a fixed exit-code map for the CLI, and the
checks on input numbers.

0 ok, 2 config, 3 math-domain, 4 condition-failure, 5 cap, 6 solver.

A scalar argument of a library call (an s, the t of xi1 and xi2, the
argument of RateFunction.eval) must be a real, non-bool number, numpy
scalars included, that is finite and > 0 (>= 0 for the s of
brute_force_oracle and certify_inequality); _scalar raises
MathDomainError for anything else.  _s_grid is the one s-grid rule.
_number is the one rule for the numbers an input object is made of (its
fields, table or form entries, log_grid's and build_birth_death's
arguments); each constructor applies it, so the JSON readers only check
structure and keys.  _json_fields is the one rule for the shape of an
input JSON object (a config, a form, a rate function): a JSON object
whose keys are those its reader takes.
"""

import dataclasses
import math
import numbers

import numpy as np

__all__ = [
    "RateCalcError", "ConfigError", "MathDomainError", "FitError", "SingularityError",
    "DegenerateTransformError", "ConditionFailedError", "CapError", "SolverError",
]


class RateCalcError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(RateCalcError):
    """Invalid configuration or malformed input data."""

    exit_code = 2


class MathDomainError(RateCalcError):
    """Evaluation outside the mathematical domain of an operation."""

    exit_code = 3


class FitError(MathDomainError):
    """Exponent fit impossible (too few samples, non-positive values)."""


class SingularityError(MathDomainError):
    """Spectral gap numerically zero (disconnected weight graph) or out of double range."""


class DegenerateTransformError(MathDomainError):
    """A transform's kernel sequence vanished on its whole index window."""


class ConditionFailedError(RateCalcError):
    """An empirical side condition required by a transform fails."""

    exit_code = 4


class CapError(RateCalcError):
    """An index or grid cap was reached before the search finished."""

    exit_code = 5


class SolverError(RateCalcError):
    """The variational solver failed to produce a usable value."""

    exit_code = 6


def _real(x, what: str) -> float:
    """x as a float, inf for an int past double range: x must be a real, non-bool scalar."""
    if isinstance(x, bool) or not isinstance(x, (int, float, numbers.Real)):
        raise MathDomainError(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _scalar(x, what: str, allow_zero: bool = False) -> float:
    """x as a float: a real, non-bool scalar that is finite and > 0 (>= 0 if allow_zero)."""
    v = _real(x, what)
    if not (math.isfinite(v) and (v >= 0.0 if allow_zero else v > 0.0)):
        raise MathDomainError(f"{what} must be finite and {'>= 0' if allow_zero else 'positive'}, got {x!r}")
    return v


def _s_grid(values) -> np.ndarray:
    """values as a nonempty 1-D float grid, > 0 and strictly increasing: ConfigError refuses a wrong
    shape, sign or order, MathDomainError a non-real entry (a bool, a string) or a non-finite one."""
    raw = np.asarray(values, dtype=object)
    if raw.ndim != 1 or raw.size < 1:
        raise ConfigError("s grid must be a nonempty 1-D sequence")
    s = np.array([_real(x, "s grid entry") for x in raw])
    if np.any(s <= 0) or np.any(np.diff(s) <= 0):
        raise ConfigError("s grid must be ascending and positive")
    if not np.all(np.isfinite(s)):
        raise MathDomainError(f"s grid entries must be finite, got {float(s[~np.isfinite(s)][0])!r}")
    return s


def _json_fields(d, keys, what: str) -> dict:
    """The JSON value d, which must be an object whose keys lie among ``keys`` (any key where
    ``keys`` is None); ConfigError, naming ``what``, refuses any other value."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(d if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return d


def _number(v, what: str, integral: bool = False):
    """v, an int as given and any other number as a float, or as int if ``integral``.

    ConfigError, naming ``what``, refuses a bool, a string or another non-number, an int past double
    range and, if ``integral``, a number that is not a finite integer (400.0 reads as 400); numpy
    scalars are numbers.  The object built from the number refuses an infinite one itself.
    """
    # int and float come first: they spare most calls the slower abc check.
    if isinstance(v, bool) or not isinstance(v, (int, float, numbers.Real)):
        raise ConfigError(f"{what} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        raise ConfigError(f"{what} out of range: an integer past double range") from None
    if integral and not x.is_integer():
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    return int(v) if integral else v if isinstance(v, int) else x


def _number_fields(obj, what: str) -> None:
    """Replace each field of the dataclass ``obj`` annotated int (integral) or float, as a string, by
    its _number named "{what} field '<name>'", in field order; an Optional field may be None."""
    for f in dataclasses.fields(obj):
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        v = getattr(obj, f.name)
        if kind in ("int", "float") and (v is not None or kind == f.type):
            object.__setattr__(obj, f.name, _number(v, f"{what} field {f.name!r}", integral=kind == "int"))


def _require_finite(obj) -> None:
    """Refuse an infinite number among the fields of the dataclass ``obj``, in field order.

    The range checks before it have refused NaN; fields that hold no
    number (None, a table) are skipped.
    """
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v!r}")
