"""Non-increasing rate functions beta: (0, inf) -> (0, inf).

A rate function quantifies how the constant of a functional inequality
blows up as the trade-off parameter s goes to 0.  The closed-form
families below cover the exponential / polynomial / logarithmic growth
orders that appear in super-Poincare, super log-Sobolev and weak
log-Sobolev inequalities; ``Tabulated`` carries solver output.

All variants are immutable and safe for concurrent use.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapError, ConfigError, FitError, MathDomainError
from .errors import _json_fields, _number, _number_fields, _require_finite, _scalar

__all__ = [
    "RateFunction",
    "ExpPower",
    "PolyPower",
    "LogPower",
    "InversePower",
    "Constant",
    "Tabulated",
    "LogTabulated",
    "ExtendedValue",
    "fit_exponent",
    "rate_function_from_json",
]

_LOG_FLOOR = 1e-300

# log of the smallest normal double: exp maps arguments below this to
# subnormals or to 0, where 1/s and s**-p lose precision or overflow.
_LOG_TINY = math.log(np.finfo(float).tiny)


def _positive_array(s, name: str = "s") -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise MathDomainError(f"{name} must be positive and finite")
    return arr


def _running_max_from_right(values: np.ndarray) -> np.ndarray:
    """Smallest non-increasing sequence pointwise >= ``values``."""
    return np.maximum.accumulate(values[::-1])[::-1]


class RateFunction(abc.ABC):
    """A non-increasing positive function of s > 0."""

    @abc.abstractmethod
    def eval_many(self, s: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at positive arguments."""

    def eval(self, s: float) -> float:
        return float(self.eval_many(np.array([_scalar(s, "rate function argument")]))[0])

    def log_eval_many(self, s: np.ndarray) -> np.ndarray:
        """log(eval); overridden where direct evaluation can overflow."""
        with np.errstate(over="ignore", divide="ignore"):
            return np.log(np.maximum(self.eval_many(s), _LOG_FLOOR))

    def eval_at_log_many(self, log_s: np.ndarray) -> np.ndarray:
        """Values at s = exp(log_s), accurate also far below double range.

        Arguments that exp maps to normal doubles go through
        ``eval_many``; smaller ones through ``_eval_below_tiny``, the
        family's closed form written in log(s).
        """
        log_s = np.asarray(log_s, dtype=float)
        tiny = log_s < _LOG_TINY
        k = int(np.count_nonzero(tiny))
        if k == 0:
            return self.eval_many(np.exp(log_s))
        if k == log_s.size:
            return self._eval_below_tiny(log_s)
        out = np.empty(log_s.shape)
        out[tiny] = self._eval_below_tiny(log_s[tiny])
        out[~tiny] = self.eval_many(np.exp(log_s[~tiny]))
        return out

    def _eval_below_tiny(self, log_s: np.ndarray) -> np.ndarray:
        """Values at s = exp(log_s) < the smallest normal double.

        The limit at 0+ is exact for a function constant near 0+, as
        Constant is and a table is below its smallest knot; the other
        families override it.
        """
        b0 = self.limit_at_zero()
        if not math.isfinite(b0):
            raise ConfigError(
                f"{type(self).__name__} has no closed form in log(s) below the "
                "double-precision underflow threshold"
            )
        return np.full(log_s.shape, b0)

    @abc.abstractmethod
    def limit_at_zero(self) -> float:
        """lim_{s -> 0+} of the function (may be +inf)."""

    @abc.abstractmethod
    def limit_at_inf(self) -> float:
        """lim_{s -> +inf} of the function (finite, >= 0)."""

    def log_limit_at_zero(self) -> float:
        v = self.limit_at_zero()
        return math.inf if math.isinf(v) else math.log(max(v, _LOG_FLOOR))

    def log_limit_at_inf(self) -> float:
        v = self.limit_at_inf()
        if v == 0.0:
            return -math.inf
        return math.log(v)

    @abc.abstractmethod
    def to_json_dict(self) -> dict:
        """JSON-serialisable description, see ``rate_function_from_json``."""


@dataclass(frozen=True)
class ExpPower(RateFunction):
    """s -> exp(C * (1 + s**-theta)) with C > 0 and theta >= 1/2."""

    C: float
    theta: float

    def __post_init__(self):
        _number_fields(self, "rate function")
        if not (self.C > 0):
            raise ConfigError("ExpPower requires C > 0")
        if not (self.theta >= 0.5):
            raise ConfigError("ExpPower requires theta >= 1/2")
        _require_finite(self)

    def eval_many(self, s):
        s = _positive_array(s)
        with np.errstate(over="ignore"):
            return np.exp(self.C * (1.0 + s ** (-self.theta)))

    def log_eval_many(self, s):
        s = _positive_array(s)
        with np.errstate(over="ignore"):
            return self.C * (1.0 + s ** (-self.theta))

    def _eval_below_tiny(self, log_s):
        with np.errstate(over="ignore"):
            return np.exp(self.C * (1.0 + np.exp(-self.theta * log_s)))

    def limit_at_zero(self):
        return math.inf

    def limit_at_inf(self):
        return math.exp(self.C)

    def log_limit_at_inf(self):
        return self.C

    def to_json_dict(self):
        return {"family": "exp_power", "C": self.C, "theta": self.theta}


@dataclass(frozen=True)
class PolyPower(RateFunction):
    """s -> C * (1 + s**-p) with C, p > 0."""

    C: float
    p: float

    def __post_init__(self):
        _number_fields(self, "rate function")
        if not (self.C > 0 and self.p > 0):
            raise ConfigError("PolyPower requires C > 0 and p > 0")
        _require_finite(self)

    def eval_many(self, s):
        s = _positive_array(s)
        with np.errstate(over="ignore"):
            return self.C * (1.0 + s ** (-self.p))

    def _eval_below_tiny(self, log_s):
        with np.errstate(over="ignore"):
            return self.C * (1.0 + np.exp(-self.p * log_s))

    def limit_at_zero(self):
        return math.inf

    def limit_at_inf(self):
        return self.C

    def to_json_dict(self):
        return {"family": "poly_power", "C": self.C, "p": self.p}


@dataclass(frozen=True)
class LogPower(RateFunction):
    """s -> C * (1 + log(1 + 1/s)**q) with C > 0 and q >= 0.

    For q = 0 the power log**0 is taken to be identically 1, so the
    function is the constant 2C.
    """

    C: float
    q: float

    def __post_init__(self):
        _number_fields(self, "rate function")
        if not (self.C > 0):
            raise ConfigError("LogPower requires C > 0")
        if not (self.q >= 0):
            raise ConfigError("LogPower requires q >= 0")
        _require_finite(self)

    def eval_many(self, s):
        s = _positive_array(s)
        if self.q == 0.0:
            return np.full_like(s, 2.0 * self.C)
        return self.C * (1.0 + np.log1p(1.0 / s) ** self.q)

    def _eval_below_tiny(self, log_s):
        if self.q == 0.0:
            return np.full_like(log_s, 2.0 * self.C)
        # log(1 + 1/s) = -log(s) + log1p(s), and log1p(s) < tiny is below
        # half an ulp of -log(s) > 708, so the sum is -log(s) exactly.
        out = np.negative(log_s)
        out **= self.q
        out += 1.0
        out *= self.C
        return out

    def limit_at_zero(self):
        return 2.0 * self.C if self.q == 0.0 else math.inf

    def limit_at_inf(self):
        return 2.0 * self.C if self.q == 0.0 else self.C

    def to_json_dict(self):
        return {"family": "log_power", "C": self.C, "q": self.q}


@dataclass(frozen=True)
class InversePower(RateFunction):
    """s -> a * s**-p with a, p > 0."""

    a: float
    p: float

    def __post_init__(self):
        _number_fields(self, "rate function")
        if not (self.a > 0 and self.p > 0):
            raise ConfigError("InversePower requires a > 0 and p > 0")
        _require_finite(self)

    def eval_many(self, s):
        s = _positive_array(s)
        with np.errstate(over="ignore"):
            return self.a * s ** (-self.p)

    def log_eval_many(self, s):
        s = _positive_array(s)
        return math.log(self.a) - self.p * np.log(s)

    def _eval_below_tiny(self, log_s):
        with np.errstate(over="ignore"):
            return self.a * np.exp(-self.p * log_s)

    def limit_at_zero(self):
        return math.inf

    def limit_at_inf(self):
        return 0.0

    def to_json_dict(self):
        return {"family": "inverse_power", "a": self.a, "p": self.p}


@dataclass(frozen=True)
class Constant(RateFunction):
    """s -> B with B > 0."""

    B: float

    def __post_init__(self):
        _number_fields(self, "rate function")
        if not (self.B > 0):
            raise ConfigError("Constant requires B > 0")
        _require_finite(self)

    def eval_many(self, s):
        s = _positive_array(s)
        return np.full_like(s, self.B)

    def limit_at_zero(self):
        return self.B

    def limit_at_inf(self):
        return self.B

    def to_json_dict(self):
        return {"family": "constant", "B": self.B}


def _table_knots(points, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Validated knot arrays (s, value) of a tabulated rate function, each entry a number named ``what``."""
    knots = np.array([(_number(a, what), _number(b, what)) for a, b in points], dtype=float).reshape(-1, 2)
    if not knots.size:
        raise ConfigError("tabulated rate function needs at least one point")
    s, v = knots.T
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ConfigError("tabulated s values must be positive and finite")
    if np.any(np.diff(s) <= 0):
        raise ConfigError("tabulated s values must be strictly increasing")
    return s, v


@dataclass(frozen=True)
class Tabulated(RateFunction):
    """Finite table of (s, value) pairs, constant-extended outside the grid.

    The non-increasing invariant is enforced at construction by the
    monotone envelope (running maximum from the right).  Between knots
    the table interpolates linearly in log(s); below the smallest knot
    and above the largest it is constant, matching the clamped piecewise
    definitions used by the rate-function maps.
    """

    points: tuple

    def __post_init__(self):
        s, v = _table_knots(self.points, "points entry")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ConfigError("tabulated values must be nonnegative and finite")
        env = _running_max_from_right(v)
        if env[-1] <= 0.0:
            raise ConfigError("tabulated rate function must be positive")
        log_s = np.log(s)
        log_s.flags.writeable = False
        env.flags.writeable = False
        object.__setattr__(self, "points", tuple(zip(s.tolist(), env.tolist())))
        object.__setattr__(self, "_log_s", log_s)
        object.__setattr__(self, "_values", env)

    def eval_many(self, s):
        s = _positive_array(s)
        log_s = np.log(s)
        return np.interp(log_s, self._log_s, self._values)

    def limit_at_zero(self):
        return float(self._values[0])

    def limit_at_inf(self):
        return float(self._values[-1])

    def to_json_dict(self):
        return {"family": "table", "points": [[a, b] for a, b in self.points]}


@dataclass(frozen=True)
class LogTabulated(RateFunction):
    """Finite table of (s, log value) pairs, for values past double range.

    ``Tabulated`` on log(value): the monotone envelope is taken at
    construction, log(value) interpolates linearly in log(s) between
    knots and is constant outside the grid.  The log values stay exact
    where the values overflow, as the doubly-exponential output of the
    WL-to-SP map does.  ``points`` holds the plain (s, value) pairs and
    raises CapError when a value does not fit in a double.
    """

    log_points: tuple

    def __post_init__(self):
        s, log_v = _table_knots(self.log_points, "log_points entry")
        if not np.all(np.isfinite(log_v)):
            raise ConfigError("tabulated log values must be finite")
        env = _running_max_from_right(log_v)
        log_s = np.log(s)
        log_s.flags.writeable = False
        env.flags.writeable = False
        object.__setattr__(self, "log_points", tuple(zip(s.tolist(), env.tolist())))
        object.__setattr__(self, "_log_s", log_s)
        object.__setattr__(self, "_log_values", env)

    @property
    def points(self) -> tuple:
        pts = []
        for a, b in self.log_points:
            try:
                pts.append((a, math.exp(b)))
            except OverflowError:
                raise CapError(
                    f"rate value exp({b:.6g}) at s={a:g} exceeds double-precision range"
                ) from None
        return tuple(pts)

    def eval_many(self, s):
        with np.errstate(over="ignore"):
            return np.exp(self.log_eval_many(s))

    def log_eval_many(self, s):
        s = _positive_array(s)
        return np.interp(np.log(s), self._log_s, self._log_values)

    def _eval_below_tiny(self, log_s):
        with np.errstate(over="ignore"):
            return np.exp(np.interp(log_s, self._log_s, self._log_values))

    def limit_at_zero(self):
        with np.errstate(over="ignore"):
            return float(np.exp(self._log_values[0]))

    def limit_at_inf(self):
        with np.errstate(over="ignore"):
            return float(np.exp(self._log_values[-1]))

    def log_limit_at_zero(self):
        return float(self._log_values[0])

    def log_limit_at_inf(self):
        return float(self._log_values[-1])

    def to_json_dict(self):
        return {"family": "log_table", "log_points": [[a, b] for a, b in self.log_points]}


_FAMILIES = {
    "exp_power": ExpPower, "poly_power": PolyPower, "log_power": LogPower, "inverse_power": InversePower,
    "constant": Constant, "table": Tabulated, "log_table": LogTabulated,
}


def rate_function_from_json(d: dict) -> RateFunction:
    """Rebuild a rate function from its ``to_json_dict`` form.

    The family's constructor takes every parameter and table entry
    through the number rule, so a bool, a string, Infinity or NaN raises
    ConfigError, as does a key that the family does not take.
    """
    if "family" not in _json_fields(d, None, "rate function"):
        raise ConfigError("rate function JSON must carry a 'family' key")
    family = d["family"]
    try:
        cls = _FAMILIES[family]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown rate function family {family!r}")
    keys = cls.__dataclass_fields__
    unknown = set(d) - {"family", *keys}
    if unknown:
        raise ConfigError(f"unknown rate function keys for family {family!r}: {sorted(unknown)}")
    try:
        return cls(**{key: d[key] for key in keys})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed rate function JSON: {exc}")


@dataclass(frozen=True)
class ExtendedValue:
    """A nonnegative real or Undefined.

    Undefined encodes an infimum over an empty feasible set (written
    inf(emptyset) = -inf in the source convention).  It is an explicit
    sentinel: reading it as a number raises instead of silently
    coercing, and ExtendedValues have no order.
    """

    tag: str
    _value: float = math.nan

    FINITE = "finite"
    UNDEFINED = "undefined"

    @classmethod
    def finite(cls, value: float) -> "ExtendedValue":
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise MathDomainError(f"finite extended value must be >= 0, got {value!r}")
        return cls(cls.FINITE, value)

    @classmethod
    def undefined(cls) -> "ExtendedValue":
        return cls(cls.UNDEFINED)

    @property
    def is_finite(self) -> bool:
        return self.tag == self.FINITE

    @property
    def is_undefined(self) -> bool:
        return self.tag == self.UNDEFINED

    @property
    def value(self) -> float:
        if not self.is_finite:
            raise MathDomainError(f"extended value {self.tag} has no numeric value")
        return self._value

    def __repr__(self):
        if self.is_finite:
            return f"ExtendedValue.finite({self._value!r})"
        return f"ExtendedValue.{self.tag}"


_FIT_MODELS = ("log-log-power", "log-log-log", "log-of-log")


def _linfit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x."""
    A = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def fit_exponent(samples: Sequence[tuple], model: str, s_range: tuple) -> float:
    """Least-squares exponent of a linearised growth model.

    Models (y regressed on x over samples with s inside ``s_range``):

    * ``log-log-power``: y = log(value), x = log(1/s); recovers p for
      value ~ s**-p.
    * ``log-log-log``: y = log(value), x = log(log(1 + 1/s)); recovers q
      for value ~ log(1+1/s)**q.
    * ``log-of-log``: y = log(log(value)), x = log(1/s); recovers theta
      for value ~ exp(c * s**-theta).

    The fit range must be supplied by the caller; growth orders hold only
    asymptotically, so no default window is guessed.
    """
    if model not in _FIT_MODELS:
        raise ConfigError(f"unknown fit model {model!r}; expected one of {_FIT_MODELS}")
    lo, hi = float(_number(s_range[0], "fit range lo")), float(_number(s_range[1], "fit range hi"))
    if not (0 < lo < hi):
        raise ConfigError("fit range must satisfy 0 < lo < hi")
    pts = [(float(_number(s, "fit sample s")), float(_number(v, "fit sample value"))) for s, v in samples]
    pts = [(s, v) for s, v in pts if lo <= s <= hi]
    if len(pts) < 8:
        raise FitError(f"need at least 8 in-range samples, got {len(pts)}")
    s = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise FitError("fit requires positive finite values")

    if model == "log-of-log":
        if np.any(v <= 1.0):
            raise FitError("log-of-log model requires values > 1")
        return _linfit_slope(np.log(1.0 / s), np.log(np.log(v)))
    x = np.log(1.0 / s) if model == "log-log-power" else np.log(np.log1p(1.0 / s))
    return _linfit_slope(x, np.log(v))
