"""Transforms between rate functions of super-Poincare (SP), weak
log-Sobolev (WL) and super log-Sobolev (SL) inequalities.

The two kernels are infimum transforms over a trade-off radius r > 0:

    xi1(t) = inf { r / (1 - t*beta_SP(r)) : 1 - t*beta_SP(r) > 0 }
    xi2(t) = inf { r / (t - beta_SL(r))   : t - beta_SL(r) > 0 }

with an empty feasible set reported as Undefined.  The four maps
between rate functions are

    wl_from_sp: beta_WL(s) = C1 * inf{ sup_{n0<=n<=k} n*xi1(delta^(-n+1))
                                       : k >= n0, C2*k*delta^-k <= s }
    sp_from_wl: beta_SP(s) = C3 * inf{ delta^k : k >= n0,
                                       sup_{n>=k} beta_WL(delta^-n n^-theta)/n <= s }
    sl_from_sp: beta_SL(s) = log(delta) * (1 + N0(s)),
                N0(s) = sup{ n >= n0 : C4*n*xi1(delta^(-n+1)) > s }
    sp_from_sl: beta_SP(s) = C5 * inf{ delta^k : k >= n0,
                                       xi2(k*log delta) <= C6*s }

sp_from_wl requires the vanishing condition
lim_n beta_WL(delta^-n n^-theta)/n = 0 and sl_from_sp requires
lim_n n*xi1(delta^(-n+1)) = 0; both are checked empirically on a finite
index window before the maps are applied, and each map gates on the
verdict of the sequence it reads itself.

Every map reads an index sequence on a window and takes the first index
where a non-increasing envelope of it crosses s: the running minimum of
C2*k*delta^-k (wl_from_sp) or of xi2(k*log delta) (sp_from_sl), the
suffix maximum of C4*n*xi1(delta^(-n+1)) (N0(s) is one index before its
crossing) and the suffix supremum of beta_WL(delta^-n n^-theta)/n
(sp_from_wl).  One searchsorted finds the crossing for every s at once.
wl_from_sp and sp_from_sl evaluate their k-window in blocks only up to
the first block that admits the smallest s.

Everything here is pure and deterministic: identical configuration
produces bit-identical output tables.  Kernel evaluation works with
log(t) and log(beta) internally so that arguments far beyond the
double-precision underflow threshold remain exact, and takes any number
of rows in blocks of _ROWS, so its memory stays bounded.  sp_from_wl
likewise evaluates beta_WL from log(delta^-n n^-theta) and walks its
index window once, in blocks from N_max down, for both the vanishing
verdict and k*(s).  Each block is built in arrays reused from block to
block, and the log n it computes for the argument also serves the
verdict's log-log fit.  The suffix sup S is non-increasing, so s can
cross it inside a block only if s lies between S just right of the
block and the block's maximum; a block with no such s (and no index
whose S is asked for) takes only its maximum, and each s at or above
it admits the whole block.  sp_from_wl and sp_from_sl return
log(beta_SP), exact past double range.

The grid infimum of a block of T kernel arguments over R grid points is
a row-minima problem on a (T x R) matrix that is never formed.  Write
b = beta(r), non-increasing in r.  For xi1 the log objective is
log r - log(1 - t*b), and -log(1 - t*b) is supermodular in (t, b)
(its mixed derivative is 1/(1 - t*b)^2 > 0); since b falls as r grows,
raising t penalises small r more than large r, so the objective has
monotone differences in (t, r) and, by Topkis (Oper. Res. 26, 1978),
its leftmost grid argmin is non-decreasing in t.  For xi2,
-log(t - b) is submodular in (t, b), so the leftmost argmin is
non-increasing in t.  The feasible set, {r : t*b < 1} or {r : b < t},
is an up-set of the grid that shrinks in the same direction.  Rows are
therefore stably sorted by log t, ascending for xi1 and descending for
xi2, and minimised by divide and conquer (SMAWK, Aggarwal et al.,
Algorithmica 2, 1987, is the linear-time reference): each level
evaluates the middle row of every open row segment over that segment's
column range, and its leftmost argmin bounds the columns of the rows on
either side.  A middle row with no finite value hands its whole column
range to the rows before it; the rows after it are infeasible too.
This costs about R*log2(T) + 2T cells instead of T*R and returns the
same minima and the same leftmost argmins as a full sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    CapError,
    ConditionFailedError,
    ConfigError,
    DegenerateTransformError,
    MathDomainError,
)
from .ratefn import ExtendedValue, LogTabulated, RateFunction, Tabulated, _running_max_from_right

__all__ = [
    "GridSpec",
    "TransformConfig",
    "ConditionVerdict",
    "xi1",
    "xi2",
    "check_vanishing",
    "n_zero",
    "wl_from_sp",
    "sp_from_wl",
    "sl_from_sp",
    "sp_from_sl",
    "sp2sl_condition",
    "sp2sl_window",
    "wl2sp_condition",
    "wl2sp_window",
    "log_grid",
]

# Kernel values at arguments within this factor of the feasibility edge
# blow up by unbounded constants; the auto-detected start index n0 skips
# them (any n0 >= 2 is a valid choice of the maps' free start index).
_EDGE_FRACTION = 0.125

# Refinement pass around the grid argmin uses a 10x denser local grid.
_REFINE_POINTS = 21

# Grid extension budget when the minimiser falls outside the base grid.
_R_ABS_MIN = 1e-280
_R_ABS_MAX = 1e280
_EXT_DECADES = 22.0

# Indices per block when the WL-to-SP map walks its index window.
_BLOCK = 1 << 20

# Kernel rows per block, and indices per block when wl_from_sp and
# sp_from_sl scan their k-window.
_ROWS = 4096

HOLDS = "holds_empirically"
FAILS = "fails_empirically"
INCONCLUSIVE = "inconclusive"


# Largest log_grid, 8 MB of float64: refused before anything is allocated.
_MAX_GRID_POINTS = 1_000_000


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Log-spaced grid between finite endpoints, exact at both, at most _MAX_GRID_POINTS points."""
    if not (0 < lo < hi < math.inf) or count < 2:
        raise ConfigError("log grid needs finite 0 < lo < hi and count >= 2")
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"log grid of {count} points exceeds the limit of {_MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, int(count))


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced search grid for the kernel infimum over r."""

    r_min: float = 1e-8
    r_max: float = 1e8
    count: int = 600

    def __post_init__(self):
        if not (self.r_min > 0 and self.r_min < self.r_max):
            raise ConfigError("grid requires 0 < r_min < r_max")
        if self.count < 100:
            raise ConfigError("grid count must be at least 100")
        _require_finite(self, ("r_min", "r_max", "count"))

    def points(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.count)

    @property
    def step_ratio(self) -> float:
        return (self.r_max / self.r_min) ** (1.0 / (self.count - 1))

    def to_json_dict(self) -> dict:
        return {"r_min": self.r_min, "r_max": self.r_max, "count": self.count}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        fields = _json_fields(d, cls, "r_grid")
        return cls(**{k: v if k == "count" else float(v) for k, v in fields.items()})


@dataclass(frozen=True)
class TransformConfig:
    """Free constants of the rate-function maps plus numeric grid settings.

    The maps hold for arbitrary positive constants C1..C6, any
    delta > 2 and any start index n0 >= 2, so all of them default to 1
    (delta to 4) and are exposed here.  n0 = None auto-detects the
    smallest usable kernel index; s0 = None disables clamping (the
    formula is evaluated on the whole caller grid).
    """

    delta: float = 4.0
    n0: Optional[int] = None
    s0: Optional[float] = None
    C1: float = 1.0
    C2: float = 1.0
    C3: float = 1.0
    C4: float = 1.0
    C5: float = 1.0
    C6: float = 1.0
    theta_cond: float = 1.0
    r_grid: GridSpec = field(default_factory=GridSpec)
    k_max: int = 400
    N_max: int = 400
    slope_tol: float = 0.1

    def __post_init__(self):
        if not (self.delta > 2.0):
            raise ConfigError("delta must exceed 2")
        if self.n0 is not None and self.n0 < 2:
            raise ConfigError("n0 must be at least 2")
        if self.s0 is not None and not (self.s0 > 0):
            raise ConfigError("s0 must be positive")
        for name in ("C1", "C2", "C3", "C4", "C5", "C6"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")
        if not (self.theta_cond > 0):
            raise ConfigError("theta_cond must be positive")
        if self.k_max < 2 or self.N_max < 2:
            raise ConfigError("k_max and N_max must be at least 2")
        if not (self.slope_tol > 0):
            raise ConfigError("slope_tol must be positive")
        _require_finite(self, _FINITE_FIELDS)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "n0": self.n0,
            "s0": self.s0,
            "C1": self.C1,
            "C2": self.C2,
            "C3": self.C3,
            "C4": self.C4,
            "C5": self.C5,
            "C6": self.C6,
            "theta_cond": self.theta_cond,
            "r_grid": self.r_grid.to_json_dict(),
            "k_max": self.k_max,
            "N_max": self.N_max,
            "slope_tol": self.slope_tol,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransformConfig":
        kwargs = _json_fields(d, cls, "config")
        if "r_grid" in kwargs:
            kwargs["r_grid"] = GridSpec.from_json_dict(kwargs["r_grid"])
        return cls(**kwargs)


# Config fields that count, read as int; n0 and s0 may be null.
_INTEGER_FIELDS = ("n0", "k_max", "N_max", "count")
_NULLABLE_FIELDS = ("n0", "s0")
# Every number of a TransformConfig; each must be finite.
_FINITE_FIELDS = ("delta", "n0", "s0", "C1", "C2", "C3", "C4", "C5", "C6", "theta_cond", "k_max", "N_max", "slope_tol")


def _require_finite(config, names) -> None:
    """Refuse an infinite number in ``config``; the range checks before it have refused NaN."""
    for name in names:
        v = getattr(config, name)
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v!r}")


def _json_fields(d, cls, what: str) -> dict:
    """The fields of a JSON config object for ``cls``, each a number
    (an integral one for _INTEGER_FIELDS, read as int) except r_grid."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    fields = dict(d)
    for key, v in d.items():
        if key == "r_grid" or (v is None and key in _NULLABLE_FIELDS):
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{what} field {key!r} must be a number, got {v!r}")
        if key in _INTEGER_FIELDS:
            if not (math.isfinite(v) and v == math.floor(v)):
                raise ConfigError(f"{what} field {key!r} must be an integer, got {v!r}")
            fields[key] = int(v)
    return fields


@dataclass(frozen=True, eq=False)
class _Xi1Sequence:
    """(n, n*xi1(delta^(-n+1))) for n in ``ns``, and the input and config it was computed for."""

    beta: RateFunction
    cfg: TransformConfig
    ns: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ConditionVerdict:
    """Empirical verdict for a vanishing side condition.

    ``holds_empirically`` requires a finite tail that decays decisively
    (final value well below the start and a negative log-log trend);
    ``fails_empirically`` flags non-decreasing or flat tails and any
    infinite or Undefined entry.  A verdict from ``sp2sl_condition``
    also carries the kernel sequence it was read from; ``sl_from_sp``
    given the verdict reuses both only when the sequence is for the
    same input and config.  The sequence is not part of the JSON form.
    """

    status: str
    sequence_tail: tuple
    trend_slope: float
    sequence: Optional[_Xi1Sequence] = field(default=None, repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "trend_slope": self.trend_slope,
            "sequence_tail": [[int(n), v] for n, v in self.sequence_tail],
        }


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------


def _cells(log_ts: np.ndarray, r: np.ndarray, log_b: np.ndarray, kind: str) -> np.ndarray:
    """Kernel objective r/(1 - t*beta(r)) or r/(t - beta(r)), elementwise.

    The arguments broadcast against each other; infeasible and NaN cells
    are +inf.
    """
    if kind == "xi1":
        # denominator 1 - t*beta(r) = -expm1(log t + log beta)
        u = log_ts + log_b
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.where(u < 0.0, r / (-np.expm1(u)), np.inf)
    else:
        # denominator t - beta(r) = t * (-expm1(log beta - log t));
        # value r/(t - beta) = exp(log r - log t) / (-expm1(...))
        v = log_b - log_ts
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scaled = np.exp(np.log(r) - log_ts)
            vals = np.where(v < 0.0, scaled / (-np.expm1(v)), np.inf)
    return np.where(np.isnan(vals), np.inf, vals)


def _grid_pass(
    beta: RateFunction,
    log_ts: np.ndarray,
    r: np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel row minima over one r-grid for a block of t's.

    Returns (min value per row, leftmost argmin index per row); rows with
    no finite grid value get +inf / -1.  Divide and conquer over the rows
    sorted so that the leftmost argmin is non-decreasing (see the module
    docstring); each level is one flat gather over the open segments.
    """
    log_b = beta.log_eval_many(r)
    order = np.argsort(log_ts if kind == "xi1" else -log_ts, kind="stable")
    lts = log_ts[order]
    best = np.full(lts.shape, np.inf)
    idx = np.full(lts.shape, -1)
    # Open segments: rows [a, b) of the sorted order, columns [lo, hi].
    a = np.zeros(min(lts.size, 1), dtype=int)
    b, lo, hi = a + lts.size, a.copy(), a + r.size - 1
    while a.size:
        mid = (a + b) // 2
        width = hi - lo + 1
        starts = np.cumsum(width) - width
        seg = np.repeat(np.arange(mid.size), width)
        cols = np.arange(starts[-1] + width[-1]) - starts[seg] + lo[seg]
        vals = _cells(lts[mid][seg], r[cols], log_b[cols], kind)
        row_min = np.minimum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == row_min[seg])
        arg = cols[hits[np.searchsorted(seg[hits], np.arange(mid.size))]]
        ok = np.isfinite(row_min)
        best[mid] = row_min
        idx[mid[ok]] = arg[ok]
        # An infeasible middle row bounds nothing on its left; the rows on
        # its right are infeasible as well and stay at +inf / -1.
        left = a < mid
        right = ok & (mid + 1 < b)
        a, b, lo, hi = (
            np.concatenate([a[left], mid[right] + 1]),
            np.concatenate([mid[left], b[right]]),
            np.concatenate([lo[left], arg[right]]),
            np.concatenate([np.where(ok, arg, hi)[left], hi[right]]),
        )
    out_best, out_idx = np.empty_like(best), np.empty_like(idx)
    out_best[order] = best
    out_idx[order] = idx
    return out_best, out_idx


def _refine_rows(
    beta: RateFunction,
    log_ts: np.ndarray,
    centers: np.ndarray,
    ratio: float,
    kind: str,
) -> np.ndarray:
    """One 10x-denser local pass around per-row argmins."""
    steps = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    local = centers[:, None] * ratio ** steps[None, :]
    log_b = beta.log_eval_many(local.ravel()).reshape(local.shape)
    return _cells(log_ts[:, None], local, log_b, kind).min(axis=1)


def _kernel_min(beta: RateFunction, log_ts: np.ndarray, cfg: TransformConfig, kind: str) -> np.ndarray:
    """Kernel values for a vector of log(t); NaN marks Undefined.

    Rows do not depend on each other, so they are evaluated in blocks of
    _ROWS and memory stays bounded for any number of rows.
    """
    log_ts = np.asarray(log_ts, dtype=float)
    out = np.empty(log_ts.shape)
    for i in range(0, log_ts.size, _ROWS):
        out[i : i + _ROWS] = _kernel_block(beta, log_ts[i : i + _ROWS], cfg, kind)
    return out


def _kernel_block(beta: RateFunction, log_ts: np.ndarray, cfg: TransformConfig, kind: str) -> np.ndarray:
    """Kernel values for a block of log(t); NaN marks Undefined.

    The infimum is taken over the configured log-spaced r-grid with one
    local refinement pass.  Emptiness of the feasible set and the
    vanishing infimum at r -> 0 are decided analytically from the tail
    limits of beta, so neither is a grid artifact.  When the grid argmin
    lands on a boundary the grid is extended in that direction (same
    density) before refining.
    """
    out = np.full(log_ts.shape, np.nan)
    log_b0 = beta.log_limit_at_zero()
    log_binf = beta.log_limit_at_inf()

    if kind == "xi1":
        defined = log_ts + log_binf < 0.0 if math.isfinite(log_binf) else (
            np.ones_like(log_ts, dtype=bool) if log_binf == -math.inf else np.zeros_like(log_ts, dtype=bool)
        )
        zero = log_ts + log_b0 < 0.0 if math.isfinite(log_b0) else np.zeros_like(log_ts, dtype=bool)
    else:
        defined = log_ts > log_binf
        zero = log_ts > log_b0 if math.isfinite(log_b0) else np.zeros_like(log_ts, dtype=bool)
    zero = zero & defined

    out[zero] = 0.0
    todo = defined & ~zero
    if not np.any(todo):
        return out

    idx_todo = np.flatnonzero(todo)
    lts = log_ts[idx_todo]
    base = cfg.r_grid.points()
    ratio = cfg.r_grid.step_ratio
    per_decade = (cfg.r_grid.count - 1) / math.log10(cfg.r_grid.r_max / cfg.r_grid.r_min)

    best = np.full(lts.shape, np.inf)
    center = np.full(lts.shape, np.nan)

    def sweep(rows: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals, argm = _grid_pass(beta, lts[rows], grid, kind)
        improved = vals < best[rows]
        best[rows[improved]] = vals[improved]
        center[rows[improved]] = grid[np.maximum(argm[improved], 0)]
        return vals, argm

    vals, argm = sweep(np.arange(lts.size), base)
    feasible = np.isfinite(vals)
    left_rows = np.flatnonzero((argm == 0) & feasible)
    right_rows = np.flatnonzero(((argm == base.size - 1) & feasible) | ~feasible)

    # Minimiser at (or feasibility beyond) a grid edge: extend in that
    # direction with the same per-decade density until the argmin moves
    # inside or the absolute budget runs out.
    lo_edge = cfg.r_grid.r_min
    while left_rows.size and lo_edge > _R_ABS_MIN:
        new_lo = max(lo_edge * 10.0 ** (-_EXT_DECADES), _R_ABS_MIN)
        count = max(int(math.ceil(math.log10(lo_edge / new_lo) * per_decade)) + 1, 8)
        grid = np.geomspace(new_lo, lo_edge, count)
        vals, argm = sweep(left_rows, grid)
        left_rows = left_rows[(argm == 0) & np.isfinite(vals)]
        lo_edge = new_lo

    hi_edge = cfg.r_grid.r_max
    while right_rows.size and hi_edge < _R_ABS_MAX:
        new_hi = min(hi_edge * 10.0 ** _EXT_DECADES, _R_ABS_MAX)
        count = max(int(math.ceil(math.log10(new_hi / hi_edge) * per_decade)) + 1, 8)
        grid = np.geomspace(hi_edge, new_hi, count)
        vals, argm = sweep(right_rows, grid)
        feasible = np.isfinite(vals)
        still_infeasible = ~feasible & ~np.isfinite(best[right_rows])
        right_rows = right_rows[((argm == grid.size - 1) & feasible) | still_infeasible]
        hi_edge = new_hi

    if np.any(~np.isfinite(best)):
        # Feasibility was certified analytically, so this can only mean
        # the extension budget ran out before reaching the feasible set.
        raise CapError("kernel feasible set lies beyond the grid extension budget")

    refined = _refine_rows(beta, lts, center, ratio, kind)
    out[idx_todo] = np.minimum(best, refined)
    return out


def _as_log_t(t: float) -> float:
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
        raise MathDomainError(f"kernel argument t must be positive, got {t!r}")
    return math.log(float(t))


def xi1(beta_sp: RateFunction, t: float, cfg: Optional[TransformConfig] = None) -> ExtendedValue:
    """Infimum of r / (1 - t*beta_SP(r)) over the feasible r > 0."""
    cfg = cfg or TransformConfig()
    val = _kernel_min(beta_sp, np.array([_as_log_t(t)]), cfg, "xi1")[0]
    return ExtendedValue.undefined() if math.isnan(val) else ExtendedValue.finite(val)


def xi2(beta_sl: RateFunction, t: float, cfg: Optional[TransformConfig] = None) -> ExtendedValue:
    """Infimum of r / (t - beta_SL(r)) over the feasible r > 0."""
    cfg = cfg or TransformConfig()
    val = _kernel_min(beta_sl, np.array([_as_log_t(t)]), cfg, "xi2")[0]
    return ExtendedValue.undefined() if math.isnan(val) else ExtendedValue.finite(val)


# ---------------------------------------------------------------------------
# Start-index detection
# ---------------------------------------------------------------------------


def _auto_n0_xi1(beta_sp: RateFunction, cfg: TransformConfig) -> int:
    """Smallest usable index for the xi1(delta^(-n+1)) sequence.

    Indices whose argument sits within _EDGE_FRACTION of the
    infeasibility edge t = 1/lim_inf(beta) are skipped: there the kernel
    is finite but inflated by an unbounded constant, which would poison
    the running supremum.  Any n0 >= 2 is a valid start index.
    """
    log_binf = beta_sp.log_limit_at_inf()
    if log_binf == -math.inf:
        return 2
    # need -(n-1)*log(delta) + log_binf <= log(_EDGE_FRACTION)
    need = (log_binf - math.log(_EDGE_FRACTION)) / math.log(cfg.delta) + 1.0
    n0 = max(2, int(math.ceil(need - 1e-12)))
    if n0 > cfg.k_max:
        raise CapError("auto-detected n0 exceeds k_max; increase k_max or set n0")
    return n0


def _auto_n0_xi2(beta_sl: RateFunction, cfg: TransformConfig) -> int:
    """Smallest k >= 2 with xi2(k*log delta) defined."""
    log_binf = beta_sl.log_limit_at_inf()
    ld = math.log(cfg.delta)
    if log_binf == -math.inf:
        return 2
    binf = math.exp(log_binf)
    k0 = max(2, int(math.floor(binf / ld)) + 1)
    if k0 > cfg.k_max:
        raise CapError("auto-detected n0 exceeds k_max; increase k_max or set n0")
    return k0


# ---------------------------------------------------------------------------
# Vanishing-condition checks
# ---------------------------------------------------------------------------


def check_vanishing(seq, cfg: TransformConfig) -> ConditionVerdict:
    """Empirical verdict on whether an indexed sequence vanishes.

    ``seq`` is a pair (ns, values) of arrays; NaN marks an Undefined
    value.  Decision rules, in order:

    1. any Undefined or +inf entry: fails;
    2. the last quarter is (numerically) all zero: holds;
    3. the last half never decreases: fails;
    4. the log-log trend slope over the last half is above -slope_tol
       (the tail is too flat to vanish): fails;
    5. final value below half the starting value: holds, else
       inconclusive.
    """
    ns, vals = seq
    ns, vals = np.asarray(ns, dtype=int), np.asarray(vals, dtype=float)
    first, last = (int(ns[0]), int(ns[-1])) if ns.size else (0, 0)
    return _vanishing_verdict([(ns, np.log(ns), vals)], ns.size, first, last, cfg)


def _merge_fit(acc: tuple, x: np.ndarray, y: np.ndarray, dx: Optional[np.ndarray] = None) -> tuple:
    """Fold a block into running least-squares sums (Chan et al. 1979).

    ``acc`` is (count, mean x, mean y, Sxx, Sxy) with centred sums, so
    the slope Sxy/Sxx stays accurate over any number of blocks.  Given
    ``dx``, scratch of x.size floats, the centred x goes there and y is
    centred in place instead of into new arrays.
    """
    n_a, mx_a, my_a, sxx_a, sxy_a = acc
    mx_b, my_b = float(x.mean()), float(y.mean())
    if dx is None:
        dx, y = x - mx_b, y - my_b
    else:
        np.subtract(x, mx_b, out=dx)
        np.subtract(y, my_b, out=y)
    n = n_a + x.size
    ddx, ddy = mx_b - mx_a, my_b - my_a
    w = n_a * x.size / n
    return (
        n,
        mx_a + ddx * x.size / n,
        my_a + ddy * x.size / n,
        sxx_a + float(dx @ dx) + ddx * ddx * w,
        sxy_a + float(dx @ y) + ddx * ddy * w,
    )


def _vanishing_verdict(blocks, size: int, n_first: int, n_last: int, cfg: TransformConfig) -> ConditionVerdict:
    """The rules of ``check_vanishing`` over ``size`` entries in blocks.

    ``blocks`` yields (ns, log(ns), vals) pieces of the sequence from
    right to left, the last index first; ns may be integral floats.
    Only running statistics and two scratch arrays reused from block to
    block are kept, so the window may be far longer than what fits in
    memory at once.
    """
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
    scratch = np.empty((2, 0))  # log(max(vals, 1e-300)) and centred log n of the half window
    pairs = []
    for ns, log_n, vals in blocks:
        pos -= vals.size
        if pos + vals.size == size:
            last = float(vals[-1])
        first = float(vals[0])
        finite = bool(np.isfinite(vals).all())
        undefined = undefined or not finite
        sel = picks[(picks >= pos) & (picks < pos + vals.size)] - pos
        pairs[:0] = zip(ns[sel].astype(int).tolist(), vals[sel].tolist())
        t = max(tail_start - pos, 0)
        if t < vals.size:
            tail_max = max(tail_max, float(vals[t:].max()))
        h = max(half_start - pos, 0)
        if h < vals.size and half_finite:
            half_finite = finite or bool(np.isfinite(vals[h:]).all())
            if half_finite:
                if not decreases:
                    run = np.concatenate([vals[h:], nxt])  # nxt: first value of the block on the right
                    decreases = bool(np.any(np.diff(run) < -1e-9 * np.abs(run[:-1])))
                    nxt = vals[h : h + 1].copy()
                    del run  # before the scratch and the next block are built
                m = vals.size - h
                if scratch.shape[1] < m:
                    scratch = np.empty((2, m))
                np.log(np.maximum(vals[h:], 1e-300, out=scratch[0, :m]), out=scratch[0, :m])
                fit = _merge_fit(fit, log_n[h:], scratch[0, :m], scratch[1, :m])
        if pos <= half_start:
            scratch = None  # the half window is done: free its scratch

    slope = fit[4] / fit[3] if half_finite else math.nan
    tail = tuple(pairs)
    if undefined:
        return ConditionVerdict(FAILS, tail, slope)
    if tail_max <= 1e-12 * (1.0 + abs(first)):
        return ConditionVerdict(HOLDS, tail, slope)
    if not decreases:
        return ConditionVerdict(FAILS, tail, slope)
    if not (slope < -cfg.slope_tol):
        return ConditionVerdict(FAILS, tail, slope)
    if last < 0.5 * first:
        return ConditionVerdict(HOLDS, tail, slope)
    return ConditionVerdict(INCONCLUSIVE, tail, slope)


def _sp_kernel_sequence(
    beta_sp: RateFunction, cfg: TransformConfig, n0: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n, n*xi1(delta^(-n+1))) for n in [n0, n_hi]; NaN = Undefined."""
    ns = np.arange(n0, n_hi + 1)
    log_ts = -(ns - 1) * math.log(cfg.delta)
    return ns, ns * _kernel_min(beta_sp, log_ts, cfg, "xi1")


def sp2sl_condition(beta_sp: RateFunction, cfg: Optional[TransformConfig] = None) -> ConditionVerdict:
    """Check lim_n n*xi1(delta^(-n+1)) = 0 on the configured window.

    The verdict carries the kernel sequence it was read from.
    """
    cfg = cfg or TransformConfig()
    seq = _xi1_sequence(beta_sp, cfg)
    return replace(check_vanishing((seq.ns, seq.values), cfg), sequence=seq)


def _xi1_sequence(
    beta_sp: RateFunction, cfg: TransformConfig, verdict: Optional[ConditionVerdict] = None
) -> _Xi1Sequence:
    """n*xi1(delta^(-n+1)) on [n0, N_max], or the sequence ``verdict`` carries if it is for (beta_sp, cfg)."""
    done = verdict.sequence if verdict is not None else None
    if done is not None and done.beta is beta_sp and done.cfg == cfg:
        return done
    n0 = cfg.n0 if cfg.n0 is not None else _auto_n0_xi1(beta_sp, cfg)
    ns, seq = _sp_kernel_sequence(beta_sp, cfg, n0, cfg.N_max)
    return _Xi1Sequence(beta_sp, cfg, ns, seq)


def sp2sl_window(verdict: ConditionVerdict, cfg: TransformConfig, n_near: int, n_far: int) -> tuple[float, float]:
    """The s-range [1.02*g(n_far), g(n_near)], g(n) = C4*n*xi1(delta^(-n+1)).

    ``verdict`` comes from ``sp2sl_condition`` and must hold; g is read
    from its sequence, with both indices clamped to [n0, N_max].  Over
    this range the qualifying index N0(s) stays below ``n_far``.
    """
    _gate(verdict, "the SP-to-SL map")
    seq = verdict.sequence
    near, far = (int(np.clip(n - seq.ns[0], 0, seq.ns.size - 1)) for n in (n_near, n_far))
    lo, hi = 1.02 * cfg.C4 * float(seq.values[far]), cfg.C4 * float(seq.values[near])
    if not (0.0 < lo < hi):
        raise ConfigError(
            f"no s-window between indices {n_near} and {n_far} on [{int(seq.ns[0])}, {int(seq.ns[-1])}]: "
            f"C4*n*xi1(delta^(-n+1)) gives [{lo:g}, {hi:g}]"
        )
    return lo, hi


def _wl_condition_sequence(
    beta_wl: RateFunction, cfg: TransformConfig, ns: np.ndarray, log_n: np.ndarray, work: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """beta_WL(delta^-n n^-theta)/n at the integral floats ``ns``, written into ``out``.

    ``log_n`` holds log(ns) and ``work`` is scratch of the same size.
    The argument is passed as its logarithm, so indices whose argument
    lies far below double range are evaluated exactly.
    """
    log_args = np.multiply(ns, math.log(cfg.delta), out=work)
    log_args += np.multiply(log_n, cfg.theta_cond, out=out)
    np.negative(log_args, out=log_args)
    with np.errstate(over="ignore"):
        return np.divide(beta_wl.eval_at_log_many(log_args), ns, out=out)


def _wl_walk(beta_wl: RateFunction, cfg: TransformConfig, s=(), at=()):
    """One walk of the WL condition sequence g on [n0, N_max], in blocks from N_max down.

    Returns the vanishing verdict on g, k*(s) for every s in ``s`` (the
    smallest k >= n0 with S(k) = sup_{k<=n<=N_max} g(n) <= s) and S at
    the indices ``at``.  Each block is built in arrays reused from block
    to block, and its log n serves the verdict's fit too, so memory
    stays bounded for any N_max.
    """
    n0 = cfg.n0 if cfg.n0 is not None else 2
    s, at = np.asarray(s, dtype=float), np.asarray(at, dtype=int)
    # S is non-increasing in n, so k*(s) is N_max + 1 less the count of n with S(n) <= s.
    k_star = np.full(s.shape, cfg.N_max + 1)
    sup_at = np.full(at.shape, np.nan)

    def blocks():
        carry = -math.inf  # S just right of the block
        ns = np.empty(0)
        for lo in reversed(range(n0, cfg.N_max + 1, _BLOCK)):
            hi = min(lo + _BLOCK - 1, cfg.N_max)
            if ns.size == hi - lo + 1:
                ns -= _BLOCK  # only a full block is followed by one of its size: the one below it
            else:
                ns = np.arange(lo, hi + 1, dtype=float)
                log_n, work, g = np.empty(ns.size), np.empty(ns.size), np.empty(ns.size)
            np.log(ns, out=log_n)
            _wl_condition_sequence(beta_wl, cfg, ns, log_n, work, g)
            # S rises from carry to top across the block, right to left.
            top = float(np.maximum(carry, g.max()))
            if math.isfinite(top) and not (np.any((carry <= s) & (s < top)) or np.any((lo <= at) & (at <= hi))):
                # No s crosses S inside the block and no S is asked for: the
                # suffix sup is not needed, each s >= top admits the whole block.
                k_star[s >= top] -= g.size
                carry = top
            else:
                rsup = np.maximum.accumulate(g[::-1], out=work)  # S at ns[::-1], once the carry is in
                np.maximum(rsup, carry, out=rsup)
                carry = rsup[-1]
                k_star[:] -= np.searchsorted(rsup, s, side="right")
                inside = (at >= lo) & (at <= hi)
                sup_at[inside] = rsup[hi - at[inside]]
            yield ns, log_n, g

    verdict = _vanishing_verdict(blocks(), cfg.N_max - n0 + 1, n0, cfg.N_max, cfg)
    return verdict, k_star, sup_at


def wl2sp_condition(beta_wl: RateFunction, cfg: Optional[TransformConfig] = None) -> ConditionVerdict:
    """Check lim_n beta_WL(delta^-n n^-theta)/n = 0 on the window, by the walk of ``sp_from_wl``."""
    return _wl_walk(beta_wl, cfg or TransformConfig())[0]


def wl2sp_window(beta_wl: RateFunction, cfg: TransformConfig, n_near: int, n_far: int) -> tuple[float, float]:
    """The s-range [1.02*S(n_far), 0.98*S(n_near)], S(k) = sup_{k<=n<=N_max} beta_WL(delta^-n n^-theta)/n.

    S is read from one walk of the window [n0, N_max], which must hold
    both indices and pass the vanishing check.  Over this range k*(s) of
    ``sp_from_wl`` lies in (n_near, n_far].
    """
    verdict, _, (sup_near, sup_far) = _wl_walk(beta_wl, cfg, at=(n_near, n_far))
    _gate(verdict, "the WL-to-SP map")
    lo, hi = 1.02 * float(sup_far), 0.98 * float(sup_near)
    if not (0.0 < lo < hi):
        raise ConfigError(f"no s-window between indices {n_near} and {n_far}: S gives [{lo:g}, {hi:g}]")
    return lo, hi


def _gate(verdict: ConditionVerdict, what: str) -> None:
    if verdict.fails:
        raise ConditionFailedError(
            f"vanishing condition for {what} fails empirically "
            f"(trend slope {verdict.trend_slope:.4g})"
        )
    if verdict.status == INCONCLUSIVE:
        warnings.warn(
            f"vanishing condition for {what} is empirically inconclusive; proceeding",
            RuntimeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Rate-function maps
# ---------------------------------------------------------------------------


def _validate_s_grid(s_grid) -> np.ndarray:
    s = np.asarray(s_grid, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ConfigError("s grid must be a 1-D array of positive reals")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ConfigError("s grid entries must be positive and finite")
    if np.any(np.diff(s) <= 0):
        raise ConfigError("s grid must be strictly increasing")
    return s


def _clamp_and_tabulate(s: np.ndarray, values: np.ndarray, s0: Optional[float], table=Tabulated):
    if s0 is not None:
        above = s > s0
        if np.any(above) and np.any(~above):
            values = values.copy()
            values[above] = values[~above][-1]
    env = _running_max_from_right(values)
    return table(tuple(zip(s.tolist(), env.tolist())))


def _first_crossing(env: np.ndarray, s: np.ndarray) -> np.ndarray:
    """For each s, the first index i with env[i] <= s, or env.size if none; env is non-increasing."""
    return np.searchsorted(-env, -s)


def _k_star(values_at, n0: int, cfg: TransformConfig, s: np.ndarray, s_eff: np.ndarray) -> np.ndarray:
    """The smallest k in [n0, k_max] with values_at(k) <= s, for each ascending s.

    ``values_at`` maps an array of k to values, NaN for none.  The window
    is read in blocks of _ROWS up to the first block that admits s[0],
    so it holds every k*(s).  The cap error reports s_eff[0].
    """
    parts = []
    for lo in range(n0, cfg.k_max + 1, _ROWS):
        vals = values_at(np.arange(lo, min(lo + _ROWS, cfg.k_max + 1)))
        parts.append(np.where(np.isnan(vals), np.inf, vals))
        if np.any(parts[-1] <= s[0]):
            # The first k with values_at(k) <= s is the first where their running minimum is.
            return n0 + _first_crossing(np.minimum.accumulate(np.concatenate(parts)), s)
    raise CapError(f"no admissible k <= k_max={cfg.k_max} for s={float(s_eff[0]):g}; increase k_max")


def _n_zero(seq: _Xi1Sequence, s: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """N0(s), the largest n with C4*n*xi1(delta^(-n+1)) > s or n0 if none, for each ascending s.

    The suffix maximum of C4*n*xi1 exceeds s exactly up to N0(s), so
    N0(s) is one index before its first crossing of s.
    """
    idx = _first_crossing(_running_max_from_right(cfg.C4 * seq.values), s)
    if idx[0] == seq.ns.size:
        raise CapError(
            f"qualifying set for s={float(s[0]):g} reaches N_max={int(seq.ns[-1])}; increase N_max"
        )
    return seq.ns[np.maximum(idx - 1, 0)]


def n_zero(beta_sp: RateFunction, s: float, cfg: Optional[TransformConfig] = None) -> int:
    """Largest n in [n0, N_max] with C4*n*xi1(delta^(-n+1)) > s.

    Returns n0 when no index qualifies.  The sequence and its vanishing
    verdict come from ``sp2sl_condition``, and the verdict gates the
    search; a qualifying set that reaches N_max raises a cap error.
    """
    cfg = cfg or TransformConfig()
    if not (isinstance(s, (int, float)) and s > 0):
        raise MathDomainError("n_zero requires s > 0")
    if cfg.s0 is not None and s > cfg.s0:
        raise ConfigError(f"n_zero requires s <= s0 = {cfg.s0}")
    verdict = sp2sl_condition(beta_sp, cfg)
    _gate(verdict, "the SP-to-SL map")
    return int(_n_zero(verdict.sequence, np.array([float(s)]), cfg)[0])


def sl_from_sp(
    beta_sp: RateFunction,
    s_grid,
    cfg: Optional[TransformConfig] = None,
    verdict: Optional[ConditionVerdict] = None,
) -> Tabulated:
    """SL rate function log(delta)*(1 + N0(s)) from an SP rate function.

    A ``verdict`` from ``sp2sl_condition`` on the same input and config
    lends the map its kernel sequence and gates it.  Any other verdict is
    ignored: the map builds its sequence and gates on that sequence's
    own verdict.
    """
    cfg = cfg or TransformConfig()
    s = _validate_s_grid(s_grid)
    seq = _xi1_sequence(beta_sp, cfg, verdict)
    if verdict is None or verdict.sequence is not seq:
        verdict = check_vanishing((seq.ns, seq.values), cfg)
    _gate(verdict, "the SP-to-SL map")

    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    values = math.log(cfg.delta) * (1 + _n_zero(seq, np.minimum(s, s0), cfg))
    return _clamp_and_tabulate(s, values, cfg.s0)


def wl_from_sp(beta_sp: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> Tabulated:
    """WL rate function from an SP rate function.

    beta_WL(s) = C1 * sup_{n0<=n<=k*(s)} n*xi1(delta^(-n+1)) with k*(s)
    the smallest k >= n0 satisfying C2*k*delta^-k <= s (the inf over
    admissible k of the running sup is attained there because the sup is
    non-decreasing in k).
    """
    cfg = cfg or TransformConfig()
    s = _validate_s_grid(s_grid)
    n0 = cfg.n0 if cfg.n0 is not None else _auto_n0_xi1(beta_sp, cfg)

    def thresholds(ks):
        with np.errstate(under="ignore"):
            return cfg.C2 * np.exp(np.log(ks) - ks * math.log(cfg.delta))

    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    s_eff = np.minimum(s, s0)
    k_star = _k_star(thresholds, n0, cfg, s_eff, s_eff)

    k_hi = int(k_star.max())
    ns, seq = _sp_kernel_sequence(beta_sp, cfg, n0, k_hi)
    if np.any(np.isnan(seq)):
        bad = int(ns[np.flatnonzero(np.isnan(seq))[0]])
        raise MathDomainError(
            f"xi1(delta^(-n+1)) is Undefined at n={bad} inside the sup window"
        )
    running_sup = np.maximum.accumulate(seq)
    values = cfg.C1 * running_sup[k_star - n0]
    if np.any(values <= 0.0):
        raise DegenerateTransformError(
            "kernel sequence vanishes on the sup window; the weak log-Sobolev "
            "content of this input is degenerate (bounded rate function at 0+)"
        )
    return _clamp_and_tabulate(s, values, cfg.s0)


def sp_from_wl(beta_wl: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> LogTabulated:
    """SP rate function C3*delta^k*(s) from a WL rate function.

    k*(s) is the smallest k >= n0 with
    sup_{k<=n<=N_max} beta_WL(delta^-n n^-theta)/n <= s; the tail beyond
    N_max is certified negligible by the vanishing-condition verdict.
    The output grows doubly exponentially, so the table carries
    log(beta_SP) = log(C3) + k*(s)*log(delta), exact past double range.
    One walk of the index window from N_max down, in blocks, gives both
    the verdict that gates the map and k*(s), so memory stays bounded
    for any N_max.
    """
    cfg = cfg or TransformConfig()
    s = _validate_s_grid(s_grid)
    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    s_eff = np.minimum(s, s0)
    verdict, k_star, _ = _wl_walk(beta_wl, cfg, s_eff)
    _gate(verdict, "the WL-to-SP map")

    k_cap = min(cfg.k_max, cfg.N_max)
    over = np.flatnonzero(k_star > k_cap)
    if over.size:
        raise CapError(
            f"no admissible k <= {k_cap} for s={float(s_eff[over[0]]):g}; increase k_max/N_max"
        )
    log_values = math.log(cfg.C3) + k_star * math.log(cfg.delta)
    return _clamp_and_tabulate(s, log_values, cfg.s0, LogTabulated)


def sp_from_sl(beta_sl: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> LogTabulated:
    """SP rate function C5*delta^k*(s) from an SL rate function.

    k*(s) is the smallest k >= n0 with xi2(k*log delta) <= C6*s;
    Undefined kernel values are treated as unsatisfiable constraints.
    The table carries log(beta_SP) = log(C5) + k*(s)*log(delta), exact
    past double range.
    """
    cfg = cfg or TransformConfig()
    s = _validate_s_grid(s_grid)
    n0 = cfg.n0 if cfg.n0 is not None else _auto_n0_xi2(beta_sl, cfg)

    def xi2_at(ks):
        return _kernel_min(beta_sl, np.log(ks * math.log(cfg.delta)), cfg, "xi2")

    s0 = cfg.s0 if cfg.s0 is not None else float(s[-1])
    s_eff = np.minimum(s, s0)
    k_star = _k_star(xi2_at, n0, cfg, cfg.C6 * s_eff, s_eff)
    log_values = math.log(cfg.C5) + k_star * math.log(cfg.delta)
    return _clamp_and_tabulate(s, log_values, cfg.s0, LogTabulated)
