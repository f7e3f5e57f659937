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
index window before the maps are applied.  Both gated maps have one
shape: _wl_map and _sl_map read their index sequence once and return
its verdict with a call that finishes the map from the same sequence,
so each map gates on the verdict of the sequence it reads itself.

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
verdict's log-log fit.  Blocks of _BLOCK = 2^15 indices keep those
arrays (about 1.5 MB) in a core's L2 cache, so the walk of 1.5e8
indices takes about half as long as in blocks of 2^20, and its memory
is a few MB for any N_max.  sp_from_wl and sp_from_sl return
log(beta_SP), exact past double range.

Three loops spread over the usable cores through _in_order: the
kernel's blocks of rows, the walk's blocks in groups of 16, and the
solves of cli.cmd_verify's four kinds.  A worker reduces each block of
the walk to what the fold needs of it (_verdict_part and _sup_part),
and this process folds those from right to left, carrying S just right
of the block.  With L the block's own suffix sup, S(n) = max(L(n),
carry) <= s iff L(n) <= s and carry <= s, so a block builds L only for
the s between its last value and its maximum (one searchsorted on the
sorted s) or where S is asked for at its indices; each s at or above
the maximum admits the whole block once the carry admits it.  The same tasks run in this process, one after the
other, where the work is too small to pay for a pool, one core is
usable or the caller is a daemonic process; there is no setting.  No
value depends on where a task ran: kernel rows do not depend on their
block, and the verdict's fit sums are numpy's pairwise reductions, not
BLAS dots, whose rounding depends on the BLAS thread count.  On a
2-core x86 machine the walk of 1.5e8 indices took 1.33-1.43 s in two
workers against 1.99-2.23 s in one process, and the 4e5 xi1 rows of
example11 sp2sl 0.37-0.42 s against 0.49-0.66 s (three runs each).

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

import functools
import math
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CapError,
    ConditionFailedError,
    ConfigError,
    DegenerateTransformError,
    MathDomainError,
    _json_number,
    _require_finite,
    _s_grid,
    _scalar,
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

# Indices per block when the WL-to-SP map walks its index window.  A
# block's arrays (ns, log n, the WL sequence, one work array and the
# verdict fit's two scratch rows) take 6 x 256 KiB at 2^15, inside a
# core's 2 MiB L2, where at 2^20 they took 48 MB and each of the ~10
# passes per block streamed from L3 or memory.  On a 2-core x86 machine
# the walk of 1.5e8 indices took 2.0-2.3 s at 2^15 against 3.9-4.5 s at
# 2^20; 2^14 to 2^17 were within noise of 2^15, and 2^13 was slower
# again, from the fixed cost per block.
_BLOCK = 1 << 15

# Kernel rows per block, and indices per block when wl_from_sp and
# sp_from_sl scan their k-window.
_ROWS = 4096

# Indices per task of the WL walk: 16 blocks of 2^15.  On a 2-core x86
# machine such a group takes 8-11 ms, about as long as a kernel block of
# _ROWS rows on the default r-grid (8-15 ms).
_GROUP = 1 << 19

# Fewest tasks of that size that _in_order hands to forked workers.  A
# pool of two workers took 15-30 ms to start and join on that machine,
# so at 8 tasks, 60-120 ms of work, two workers save 30-60 ms of it,
# more than the pool costs.
_POOL_MIN_TASKS = 8

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
        _require_finite(self)

    def points(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.count)

    @property
    def step_ratio(self) -> float:
        return (self.r_max / self.r_min) ** (1.0 / (self.count - 1))

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridSpec":
        kwargs = _json_fields(d, cls, "r_grid")
        return cls(**{k: v if k == "count" else float(v) for k, v in kwargs.items()})


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
        _require_finite(self)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransformConfig":
        kwargs = _json_fields(d, cls, "config")
        if "r_grid" in kwargs:
            kwargs["r_grid"] = GridSpec.from_json_dict(kwargs["r_grid"])
        return cls(**kwargs)


# Config fields that count, read as int; n0 and s0 may be null.
_INTEGER_FIELDS = ("n0", "k_max", "N_max", "count")
_NULLABLE_FIELDS = ("n0", "s0")


def _json_fields(d, cls, what: str) -> dict:
    """The fields of a JSON config object for ``cls``, each a number
    (an integral one for _INTEGER_FIELDS, read as int) except r_grid."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = dict(d)
    for key, v in d.items():
        if key == "r_grid" or (v is None and key in _NULLABLE_FIELDS):
            continue
        kwargs[key] = _json_number(v, f"{what} field {key!r}", integral=key in _INTEGER_FIELDS)
    return kwargs


@dataclass(frozen=True)
class ConditionVerdict:
    """Empirical verdict for a vanishing side condition.

    ``holds_empirically`` requires a finite tail that decays decisively
    (final value well below the start and a negative log-log trend);
    ``fails_empirically`` flags non-decreasing or flat tails and any
    infinite or Undefined entry.
    """

    status: str
    sequence_tail: tuple
    trend_slope: float

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
# Block tasks
# ---------------------------------------------------------------------------


def _in_order(task, items, min_tasks=_POOL_MIN_TASKS):
    """Yield task(item) for every item, in item order.

    The items go as a queue to min(usable cores, items) worker processes
    forked from this one.  They inherit ``task`` with the process image,
    so it need not pickle; only items and results do.  The tasks run
    here instead, one after the other, when one core is usable, when
    there are fewer than ``min_tasks`` of them (_POOL_MIN_TASKS for the
    maps' tasks of about 10 ms; cli.cmd_verify passes 2 for its solves
    of about 0.5 s) or when this process is daemonic, which may not have
    children.  There is no user setting.  A result does not depend
    on where its task ran.  A task that raises raises here, the first in
    item order, with its own type and message, and every worker has
    ended before the generator finishes.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers > 1 and len(items) >= min_tasks:
        # Imported here: calls that stay in this process do not pay for it.
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"), initializer=_adopt, initargs=(task,)
            ) as pool:
                yield from pool.map(_run_adopted, items)
            return
    yield from map(task, items)


_ADOPTED = None  # in a worker of _in_order: the task it runs


def _adopt(task) -> None:
    global _ADOPTED
    _ADOPTED = task


def _run_adopted(item):
    return _ADOPTED(item)


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
    _ROWS, each a task of ``_in_order``: memory stays bounded for any
    number of rows, and a row's value does not depend on its block or
    on where the block runs.
    """
    log_ts = np.asarray(log_ts, dtype=float)
    out = np.empty(log_ts.shape)
    starts = range(0, log_ts.size, _ROWS)
    blocks = _in_order(lambda i: _kernel_block(beta, log_ts[i : i + _ROWS], cfg, kind), starts)
    for i, vals in zip(starts, blocks):
        out[i : i + _ROWS] = vals
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

    # log t is always finite and log_limit_at_zero is never -inf, so these
    # comparisons also give the right masks at an infinite limit.
    if kind == "xi1":
        defined, zero = log_ts + log_binf < 0.0, log_ts + log_b0 < 0.0
    else:
        defined, zero = log_ts > log_binf, log_ts > log_b0
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
    return math.log(_scalar(t, "kernel argument t"))


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
    # A limit at or past ld*(k_max + 1), perhaps past double range, is
    # capped there: its k0 exceeds k_max either way.
    binf = math.exp(min(log_binf, math.log(ld) + math.log(cfg.k_max + 1)))
    k0 = max(2, int(math.floor(binf / ld)) + 1)
    if k0 > cfg.k_max:
        raise CapError("auto-detected n0 exceeds k_max; increase k_max or set n0")
    return k0


_AUTO_N0 = {"xi1": _auto_n0_xi1, "xi2": _auto_n0_xi2, "wl": lambda beta, cfg: 2}


def _start_index(beta: RateFunction, cfg: TransformConfig, sequence: str) -> int:
    """The start index n0 of a map's index sequence: cfg.n0, or by default
    the sequence's smallest usable index, auto-detected for the xi1 and xi2
    kernel sequences and 2 for the WL condition sequence."""
    return cfg.n0 if cfg.n0 is not None else _AUTO_N0[sequence](beta, cfg)


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


class _Layout(NamedTuple):
    """Where the rules of ``check_vanishing`` look in a window of ``size`` entries."""

    size: int
    tail_start: int  # the last quarter
    half_start: int  # the last half
    picks: np.ndarray  # positions of the verdict's sequence_tail, at most 64 of the last quarter


def _verdict_layout(size: int, n_first: int, n_last: int) -> _Layout:
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
    return _Layout(size, tail_start, half_start, picks)


def _fit_sums(x: np.ndarray, y: np.ndarray, dx: np.ndarray) -> tuple:
    """(count, mean x, mean y, Sxx, Sxy) of one block, the sums centred on its means.

    ``y`` is overwritten and ``dx`` is scratch of x.size floats.  The
    sums are numpy's pairwise reductions, never a BLAS dot: OpenBLAS
    splits a dot of more than 10 000 entries over its threads, so its
    rounding, and the trend slope, would depend on their number.
    """
    mx, my = float(x.mean()), float(y.mean())
    np.subtract(x, mx, out=dx)
    np.subtract(y, my, out=y)
    sxy = float(np.multiply(dx, y, out=y).sum())
    sxx = float(np.multiply(dx, dx, out=dx).sum())
    return x.size, mx, my, sxx, sxy


def _merge_fit(acc: tuple, part: tuple) -> tuple:
    """Fold a block's least-squares sums into running ones (Chan et al. 1979).

    Both are (count, mean x, mean y, Sxx, Sxy) with centred sums, so the
    slope Sxy/Sxx stays accurate over any number of blocks.
    """
    n_a, mx_a, my_a, sxx_a, sxy_a = acc
    m, mx_b, my_b, sxx_b, sxy_b = part
    n = n_a + m
    ddx, ddy = mx_b - mx_a, my_b - my_a
    w = n_a * m / n
    return (
        n,
        mx_a + ddx * m / n,
        my_a + ddy * m / n,
        sxx_a + sxx_b + ddx * ddx * w,
        sxy_a + sxy_b + ddx * ddy * w,
    )


def _verdict_part(layout: _Layout, pos: int, ns, log_n, vals, scratch=None, check_decrease: bool = True) -> tuple:
    """What the rules of ``check_vanishing`` need of the block ``vals``,
    the entries [pos, pos + vals.size) of the window.

    Returns (size, first value, last value, all finite, the tail picks
    as (n, value) pairs, the maximum of the block's part of the last
    quarter or -inf, half).  ``half`` is None for a block left of the
    last half; otherwise (that part finite, it decreases somewhere, its
    first value, its fit sums or None where it is not finite).  ``ns``
    may be integral floats.  ``scratch`` is two rows of at least
    vals.size floats for the last half, made here if None.  Without
    ``check_decrease`` the decrease test is skipped and reads False: a
    block on the right, folded before this one, already decreases.
    """
    finite = bool(np.isfinite(vals).all())
    i, j = layout.picks.searchsorted((pos, pos + vals.size))
    sel = layout.picks[i:j] - pos
    pairs = list(zip(ns[sel].astype(int).tolist(), vals[sel].tolist()))
    t = max(layout.tail_start - pos, 0)
    tail_max = float(vals[t:].max()) if t < vals.size else -math.inf
    h = max(layout.half_start - pos, 0)
    half = None
    if h < vals.size:
        half_finite = finite or bool(np.isfinite(vals[h:]).all())
        decreases, fit = False, None
        if half_finite:
            m = vals.size - h
            if scratch is None:
                scratch = np.empty((2, m))
            if check_decrease:
                # run[i+1] - run[i] < -1e-9 |run[i]| on the run vals[h:], as in np.diff
                step, bound = scratch[:, : m - 1]
                np.subtract(vals[h + 1 :], vals[h:-1], out=step)
                np.multiply(np.abs(vals[h:-1], out=bound), -1e-9, out=bound)
                decreases = bool((step < bound).any())
            y, dx = scratch[:, :m]
            np.log(np.maximum(vals[h:], 1e-300, out=y), out=y)
            fit = _fit_sums(log_n[h:], y, dx)
        half = (half_finite, decreases, float(vals[h]), fit)
    return vals.size, float(vals[0]), float(vals[-1]), finite, pairs, tail_max, half


def _fold_verdict(parts, layout: _Layout, cfg: TransformConfig) -> ConditionVerdict:
    """The rules of ``check_vanishing`` from the ``_verdict_part`` of
    every block of the window, from right to left, the last index first."""
    pos = layout.size
    first = last = math.nan
    undefined = False
    tail_max = -math.inf
    decreases = False
    half_finite = True
    nxt = None  # the first value of the half window in the block on the right
    fit = (0, 0.0, 0.0, 0.0, 0.0)
    pairs = []
    for size, head, end, finite, block_pairs, block_tail_max, half in parts:
        if pos == layout.size:
            last = end
        pos -= size
        first = head
        undefined = undefined or not finite
        pairs[:0] = block_pairs
        tail_max = max(tail_max, block_tail_max)
        if half is not None and half_finite:
            half_finite, block_decreases, half_head, block_fit = half
            if half_finite:
                # a decrease inside the block, or from its last value to the block on the right
                decreases = decreases or block_decreases or (nxt is not None and nxt - end < -1e-9 * abs(end))
                nxt = half_head
                fit = _merge_fit(fit, block_fit)

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


def _vanishing_verdict(blocks, size: int, n_first: int, n_last: int, cfg: TransformConfig) -> ConditionVerdict:
    """The rules of ``check_vanishing`` over ``size`` entries in blocks.

    ``blocks`` yields (ns, log(ns), vals) pieces of the sequence from
    right to left, the last index first; ns may be integral floats.
    """
    layout = _verdict_layout(size, n_first, n_last)

    def parts():
        pos = size
        for ns, log_n, vals in blocks:
            pos -= vals.size
            yield _verdict_part(layout, pos, ns, log_n, vals)

    return _fold_verdict(parts(), layout, cfg)


def _xi1_terms(beta_sp: RateFunction, cfg: TransformConfig, ns: np.ndarray) -> np.ndarray:
    """n*xi1(delta^(-n+1)) at the integers ``ns`` in one kernel call; NaN = Undefined."""
    return ns * _kernel_min(beta_sp, -(ns - 1) * math.log(cfg.delta), cfg, "xi1")


def _sp_kernel_sequence(
    beta_sp: RateFunction, cfg: TransformConfig, n0: int, n_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n, n*xi1(delta^(-n+1))) for n in [n0, n_hi]; NaN = Undefined."""
    ns = np.arange(n0, n_hi + 1)
    return ns, _xi1_terms(beta_sp, cfg, ns)


def _xi1_sequence(beta_sp: RateFunction, cfg: TransformConfig) -> tuple[np.ndarray, np.ndarray]:
    """(ns, values): n*xi1(delta^(-n+1)) on [n0, N_max]."""
    return _sp_kernel_sequence(beta_sp, cfg, _start_index(beta_sp, cfg, "xi1"), cfg.N_max)


def sp2sl_condition(beta_sp: RateFunction, cfg: Optional[TransformConfig] = None) -> ConditionVerdict:
    """Check lim_n n*xi1(delta^(-n+1)) = 0 on the configured window [n0, N_max]."""
    cfg = cfg or TransformConfig()
    return check_vanishing(_xi1_sequence(beta_sp, cfg), cfg)


def sp2sl_window(beta_sp: RateFunction, cfg: TransformConfig, n_near: int, n_far: int) -> tuple[float, float]:
    """The s-range [1.02*g(n_far), g(n_near)], g(n) = C4*n*xi1(delta^(-n+1)).

    g is evaluated at the two indices, each clamped to [n0, N_max], in
    one kernel call; kernel rows do not depend on their block, so these
    are the bits of the map's own sequence.  The window does not gate:
    the map that reads it does.  Over this range the qualifying index
    N0(s) stays below ``n_far``.
    """
    n0 = _start_index(beta_sp, cfg, "xi1")
    g_near, g_far = _xi1_terms(beta_sp, cfg, np.clip((n_near, n_far), n0, cfg.N_max)).tolist()
    lo, hi = 1.02 * cfg.C4 * g_far, cfg.C4 * g_near
    if not (0.0 < lo < hi):
        raise ConfigError(
            f"no s-window between indices {n_near} and {n_far} on [{n0}, {cfg.N_max}]: "
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
    the indices ``at``.  The blocks go to ``_in_order`` in groups of
    about _GROUP indices, the top group first; each gives the parts of
    its blocks (``_walk_group``), and this process folds them from right
    to left, carrying S just right of the block.  The values do not
    depend on where a group runs, and memory stays bounded for any N_max.
    """
    n0 = _start_index(beta_wl, cfg, "wl")
    layout = _verdict_layout(cfg.N_max - n0 + 1, n0, cfg.N_max)
    s, at = np.asarray(s, dtype=float), np.asarray(at, dtype=int)
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    # S is non-increasing in n, so k*(s) is N_max + 1 less the count of n with
    # S(n) <= s: ``whole[k]`` counts, as differences over k, the blocks that all
    # of s_sorted[k:] admit whole, and ``crossed`` the rest.
    whole = np.zeros(s.size + 1, dtype=np.int64)
    crossed = np.zeros(s.size, dtype=np.int64)
    sup_at = np.full(at.shape, np.nan)

    starts = range(n0, cfg.N_max + 1, _BLOCK)
    per = max(1, _GROUP // _BLOCK)
    groups = [starts[i : i + per] for i in reversed(range(0, len(starts), per))]
    task = functools.partial(_walk_group, beta_wl, cfg, layout, n0, s_sorted, at)

    def parts():
        carry = -math.inf  # S just right of the block
        for group in _in_order(task, groups):
            for part, (top, i0, i1, counts, inside, local) in group:
                # S(n) = max(local sup, carry) <= s iff both are: only s_sorted[c0:] can admit n.
                c0 = int(s_sorted.searchsorted(carry))
                whole[max(c0, i1)] += part[0]
                if counts is not None:
                    c = max(c0, i0)
                    crossed[c:i1] += counts[c - i0 :]
                    sup_at[inside] = np.maximum(local, carry)
                carry = float(np.maximum(carry, top))
                yield part

    verdict = _fold_verdict(parts(), layout, cfg)
    k_star = np.empty(s.shape, dtype=np.int64)
    k_star[order] = cfg.N_max + 1 - np.cumsum(whole[:-1]) - crossed
    return verdict, k_star, sup_at


def _walk_group(beta_wl, cfg: TransformConfig, layout: _Layout, n0: int, s_sorted, at, starts: range) -> list:
    """(verdict part, sup part) of each WL walk block that starts at ``starts``, the top block first.

    The blocks are built in arrays reused from block to block, and the
    log n each computes for the argument also serves the verdict's fit.
    The sup part is ``_sup_part``'s.  Once a block decreases, the blocks
    after it here skip the decrease test (see ``_verdict_part``).
    """
    rows = np.empty((4, min(_BLOCK, cfg.N_max - starts[0] + 1)))  # one block's ns, log n, work and g
    # the fit's two rows, while the group reaches into the last half
    reaches_half = min(starts[-1] + _BLOCK, cfg.N_max + 1) - n0 > layout.half_start
    scratch = np.empty((2, rows.shape[1])) if reaches_half else None
    ns = rows[0, :0]
    decreasing = False
    out = []
    for lo in reversed(starts):
        hi = min(lo + _BLOCK - 1, cfg.N_max)
        if ns.size == hi - lo + 1:
            ns -= _BLOCK  # only a full block is followed by one of its size: the one below it
        else:  # the first block, and the first full block below a partial one
            ns, log_n, work, g = rows[:, : hi - lo + 1]
            ns[:] = np.arange(lo, hi + 1)
        np.log(ns, out=log_n)
        _wl_condition_sequence(beta_wl, cfg, ns, log_n, work, g)
        sup = _sup_part(g, work, s_sorted, at, lo, hi)
        part = _verdict_part(layout, lo - n0, ns, log_n, g, scratch, not decreasing)
        decreasing = decreasing or (part[6] is not None and part[6][1])
        if lo - n0 <= layout.half_start:
            scratch = None  # the half window is done: free its scratch
        out.append((part, sup))
    return out


def _sup_part(g: np.ndarray, work: np.ndarray, s_sorted: np.ndarray, at: np.ndarray, lo: int, hi: int) -> tuple:
    """What k*(s) and S at ``at`` need of the block g = g(lo..hi), whatever S is right of it.

    With L(n) = max g[n..hi], the local suffix sup, S(n) = max(L(n), S(hi + 1)).
    Returns (max g, i0, i1, counts, inside, local): s_sorted[:i0] lie
    below g[hi], so no L(n) is at or below them, and s_sorted[i1:] at or
    above max g, which every L(n) is; ``counts`` holds the count of n
    with L(n) <= s for s_sorted[i0:i1], ``inside`` the positions in
    ``at`` of the indices in the block and ``local`` their L.  Only a
    block with such an s or such an index builds L, in ``work``;
    otherwise counts and local are None.  NaN in g makes i0, i1 = 0,
    s_sorted.size, and L reads NaN from it on.
    """
    top = float(g.max())
    i0, i1 = (0, s_sorted.size) if math.isnan(top) else s_sorted.searchsorted((g[-1], top)).tolist()
    inside = np.flatnonzero((at >= lo) & (at <= hi))
    if i0 == i1 and not inside.size:
        return top, i0, i1, None, inside, None
    local = np.maximum.accumulate(g[::-1], out=work)  # L at ns[::-1]
    return top, i0, i1, local.searchsorted(s_sorted[i0:i1], side="right"), inside, local[hi - at[inside]]


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


def _clamped(s: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """The grid s clamped at cfg.s0, or at its own last point where s0 is None."""
    return np.minimum(s, cfg.s0 if cfg.s0 is not None else float(s[-1]))


def _clamp_and_tabulate(s: np.ndarray, values: np.ndarray, s0: Optional[float], table=Tabulated):
    """The table of values on s, held at its value at s0 above s0; the table takes the monotone envelope."""
    if s0 is not None:
        above = s > s0
        if np.any(above) and np.any(~above):
            values = np.where(above, values[~above][-1], values)
    return table(tuple(zip(s.tolist(), values.tolist())))


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


def _n_zero(ns: np.ndarray, values: np.ndarray, s: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """N0(s), the largest n with C4*n*xi1(delta^(-n+1)) > s or n0 if none, for each ascending s.

    ``values`` holds n*xi1(delta^(-n+1)) at ``ns``.  The suffix maximum
    of C4*n*xi1 exceeds s exactly up to N0(s), so N0(s) is one index
    before its first crossing of s.
    """
    idx = _first_crossing(_running_max_from_right(cfg.C4 * values), s)
    if idx[0] == ns.size:
        raise CapError(
            f"qualifying set for s={float(s[0]):g} reaches N_max={int(ns[-1])}; increase N_max"
        )
    return ns[np.maximum(idx - 1, 0)]


def n_zero(beta_sp: RateFunction, s: float, cfg: Optional[TransformConfig] = None) -> int:
    """Largest n in [n0, N_max] with C4*n*xi1(delta^(-n+1)) > s.

    Returns n0 when no index qualifies.  The vanishing verdict of the
    sequence on [n0, N_max] gates the search over that same sequence; a
    qualifying set that reaches N_max raises a cap error.
    """
    cfg = cfg or TransformConfig()
    s = _scalar(s, "n_zero trade-off s")
    if cfg.s0 is not None and s > cfg.s0:
        raise ConfigError(f"n_zero requires s <= s0 = {cfg.s0}")
    ns, values = _xi1_sequence(beta_sp, cfg)
    _gate(check_vanishing((ns, values), cfg), "the SP-to-SL map")
    return int(_n_zero(ns, values, np.array([s]), cfg)[0])


def _sl_map(beta_sp: RateFunction, s: np.ndarray, cfg: TransformConfig, sequence=None) -> tuple:
    """The SP-to-SL verdict on one xi1 sequence, and a call that finishes the map.

    The sequence n*xi1(delta^(-n+1)) on [n0, N_max] is built once for
    both, unless ``sequence`` is that of ``_xi1_sequence(beta_sp, cfg)``
    already; a caller writes or gates the verdict before it makes the call.
    The call checks the nonempty grid ``s`` (so ``transform`` refuses a
    bad grid after writing the verdict, as it does for the other gated
    map), finds N0(s), raising CapError where the qualifying set reaches
    N_max, and returns the table of ``sl_from_sp``.
    """
    ns, values = sequence if sequence is not None else _xi1_sequence(beta_sp, cfg)

    def table() -> Tabulated:
        _s_grid(s)
        rates = math.log(cfg.delta) * (1 + _n_zero(ns, values, _clamped(s, cfg), cfg))
        return _clamp_and_tabulate(s, rates, cfg.s0)

    return check_vanishing((ns, values), cfg), table


def sl_from_sp(beta_sp: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> Tabulated:
    """SL rate function log(delta)*(1 + N0(s)) from an SP rate function.

    One xi1 sequence on [n0, N_max] gives both the vanishing verdict
    that gates the map and N0(s).
    """
    cfg = cfg or TransformConfig()
    verdict, table = _sl_map(beta_sp, _s_grid(s_grid), cfg)
    _gate(verdict, "the SP-to-SL map")
    return table()


def wl_from_sp(beta_sp: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> Tabulated:
    """WL rate function from an SP rate function.

    beta_WL(s) = C1 * sup_{n0<=n<=k*(s)} n*xi1(delta^(-n+1)) with k*(s)
    the smallest k >= n0 satisfying C2*k*delta^-k <= s (the inf over
    admissible k of the running sup is attained there because the sup is
    non-decreasing in k).
    """
    return _wl_table(beta_sp, _s_grid(s_grid), cfg or TransformConfig())


def _wl_table(beta_sp: RateFunction, s: np.ndarray, cfg: TransformConfig, sequence=None) -> Tabulated:
    """The table of ``wl_from_sp`` on the checked grid ``s``.

    Where ``sequence`` is that of ``_xi1_sequence(beta_sp, cfg)`` and
    holds every k*(s), the sup window is read from it instead of being
    evaluated again; kernel rows do not depend on their block, so the
    values are the same.
    """
    n0 = _start_index(beta_sp, cfg, "xi1")

    def thresholds(ks):
        with np.errstate(under="ignore"):
            return cfg.C2 * np.exp(np.log(ks) - ks * math.log(cfg.delta))

    s_eff = _clamped(s, cfg)
    k_star = _k_star(thresholds, n0, cfg, s_eff, s_eff)

    k_hi = int(k_star.max())
    if sequence is not None and k_hi <= sequence[0][-1]:
        ns, seq = (a[: k_hi - n0 + 1] for a in sequence)
    else:
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


def _wl_map(beta_wl: RateFunction, s: np.ndarray, cfg: TransformConfig) -> tuple:
    """The WL-to-SP verdict from one walk of the index window, and a call that finishes the map.

    The walk gives the verdict and k*(s) for the nonempty array ``s`` at
    once; a caller writes or gates the verdict before it makes the call.
    The call checks the grid (so ``transform`` refuses a bad grid after
    writing the verdict, as it does for the other gated map), raises
    CapError where k*(s) passes min(k_max, N_max) and otherwise returns
    the table of ``sp_from_wl``.
    """
    s_eff = _clamped(s, cfg)
    verdict, k_star, _ = _wl_walk(beta_wl, cfg, s_eff)

    def table() -> LogTabulated:
        _s_grid(s)
        k_cap = min(cfg.k_max, cfg.N_max)
        over = np.flatnonzero(k_star > k_cap)
        if over.size:
            raise CapError(
                f"no admissible k <= {k_cap} for s={float(s_eff[over[0]]):g}; increase k_max/N_max"
            )
        log_values = math.log(cfg.C3) + k_star * math.log(cfg.delta)
        return _clamp_and_tabulate(s, log_values, cfg.s0, LogTabulated)

    return verdict, table


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
    verdict, table = _wl_map(beta_wl, _s_grid(s_grid), cfg)
    _gate(verdict, "the WL-to-SP map")
    return table()


def sp_from_sl(beta_sl: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> LogTabulated:
    """SP rate function C5*delta^k*(s) from an SL rate function.

    k*(s) is the smallest k >= n0 with xi2(k*log delta) <= C6*s;
    Undefined kernel values are treated as unsatisfiable constraints.
    The table carries log(beta_SP) = log(C5) + k*(s)*log(delta), exact
    past double range.
    """
    cfg = cfg or TransformConfig()
    s = _s_grid(s_grid)
    n0 = _start_index(beta_sl, cfg, "xi2")

    def xi2_at(ks):
        return _kernel_min(beta_sl, np.log(ks * math.log(cfg.delta)), cfg, "xi2")

    s_eff = _clamped(s, cfg)
    k_star = _k_star(xi2_at, n0, cfg, cfg.C6 * s_eff, s_eff)
    log_values = math.log(cfg.C5) + k_star * math.log(cfg.delta)
    return _clamp_and_tabulate(s, log_values, cfg.s0, LogTabulated)
