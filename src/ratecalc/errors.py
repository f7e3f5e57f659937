"""Exception hierarchy with a fixed exit-code map for the CLI, and the
checks on input numbers.

0 ok, 2 config, 3 math-domain, 4 condition-failure, 5 cap, 6 solver.

A scalar argument of a library call (the s of optimal_value,
brute_force_oracle and n_zero, the t of xi1 and xi2, the argument of
RateFunction.eval) must be a real, non-bool number, numpy scalars
included, that is finite and > 0 (>= 0 for the oracle's s); _scalar
raises MathDomainError for anything else.
"""

import dataclasses
import math
import numbers

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


def _scalar(x, what: str, allow_zero: bool = False) -> float:
    """x as a float: a real, non-bool scalar that is finite and > 0 (>= 0 if allow_zero)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise MathDomainError(f"{what} must be a real number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:  # an int past double range
        v = math.inf
    if not (math.isfinite(v) and (v >= 0.0 if allow_zero else v > 0.0)):
        raise MathDomainError(f"{what} must be finite and {'>= 0' if allow_zero else 'positive'}, got {x!r}")
    return v


def _json_number(v, what: str, integral: bool = False):
    """A number read from JSON input, as given, or as int if ``integral``.

    A bool (JSON true or false), a string or another non-number raises
    ConfigError naming ``what``, and so does, if ``integral``, a number
    that is not a finite integer.  The object built from the number
    refuses an infinite one (_require_finite).
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what} must be a number, got {v!r}")
    if integral:
        if not (math.isfinite(v) and v == math.floor(v)):
            raise ConfigError(f"{what} must be an integer, got {v!r}")
        return int(v)
    return v


def _require_finite(obj) -> None:
    """Refuse an infinite number among the fields of the dataclass ``obj``, in field order.

    The range checks before it have refused NaN; fields that hold no
    number (None, a nested config, a table) are skipped.
    """
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v!r}")
