"""Transforms between rate functions of super-Poincare (SP), weak
log-Sobolev (WL) and super log-Sobolev (SL) inequalities.

The two kernels are infimum transforms over a trade-off radius r > 0:

    xi1(t) = inf { r / (1 - t*beta_SP(r)) : 1 - t*beta_SP(r) > 0 }
    xi2(t) = inf { r / (t - beta_SL(r))   : t - beta_SL(r) > 0 }

with an empty feasible set reported as Undefined.  Like the paper's,
they are functions of beta and t alone: the infimum runs over a fixed
base grid of 600 points log-spaced over [1e-8, 1e8], extended at an
edge where an argmin lands there, and one local refinement
(_kernel_block).  The four maps between rate functions are

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
shape and one walk: _wl_map and _sl_map walk their index sequence once
(_walk) and return its verdict with a call that finishes the map from
the same walk, so each map gates on the verdict of the sequence it
reads itself.

Every map reads an index sequence on a window and takes the first index
where a non-increasing envelope of it crosses s: the running minimum of
C2*k*delta^-k (wl_from_sp) or of xi2(k*log delta) (sp_from_sl), the
suffix maximum of C4*n*xi1(delta^(-n+1)) (N0(s) is one index before its
crossing) and the suffix supremum of beta_WL(delta^-n n^-theta)/n
(sp_from_wl).  wl_from_sp and sp_from_sl evaluate their k-window in
blocks only up to the first block that admits the smallest s, and one
searchsorted finds the crossing for every s at once.  wl_from_sp then
evaluates the xi1 rows of its own sup window [n0, max k*(s)], about
log_delta(1/s) of them, in one kernel call; where cli.cmd_verify has
walked the same rows for sl_from_sp, reading them again costs well
under a millisecond, so the two maps share nothing.

Everything here is pure and deterministic: identical configuration
produces bit-identical output tables.  Kernel evaluation works with
log(t) and log(beta) internally so that arguments far beyond the
double-precision underflow threshold remain exact, and takes any number
of rows in blocks of _ROWS, so its memory stays bounded.  sp_from_wl
likewise evaluates beta_WL from log(delta^-n n^-theta).  Each gated map
walks its index window once, in blocks from N_max down, for both the
vanishing verdict and the crossing of every s, so its memory is a few
MB and some 100 bytes per block of the window: sl_from_sp in kernel
blocks of _ROWS rows, sp_from_wl in blocks of _BLOCK = 2^15 indices,
whose arrays (about 1.5 MB) stay in a core's L2 cache, so the WL walk
of 1.5e8 indices took about half as long as in blocks of 2^20 when it
read every index.  A block is built in arrays reused from block to
block, and its log n also serves the verdict's log-log fit.
sp_from_wl and sp_from_sl return log(beta_SP), exact past double range.

On the package's own rate functions, the WL walk reads only the blocks
that an answer needs (_bounded_blocks).  delta^-n n^-theta falls as n
grows and such a beta_WL does not increase, so n*g(n) does not
decrease, and on a block [lo, hi] cut into 8 sub-blocks [a_j, b_j] the
maximum of g lies between g(hi) and U = max_j g(b_j)*b_j/a_j.  The walk
takes g(hi) of every block in one call, and reads every index of the
top block and the lowest (rule 5's last and first values), of every
block at or right of an index of ``at``, of every block where an s that
can still admit an index lies between g(hi) and U, and of every block
of the last quarter whose bounds straddle rule 2's threshold.  Rule 1
follows from g(N_max), as every value is finite where it is.  Rule 3
reads the last half from the top down to its first decrease, the top
block alone on a vanishing sequence; no step into an index past 1.001e9
can be one.  Rule 4 fits at most 2^16 strided indices, evaluated apart,
and the 64 tail picks are evaluated as points.  Every other block gives
g(hi) alone, and a run of such blocks is folded in one step: it admits
each such s whole or not at all, and no rule reads more of it.  On the
window of 1.5e8 indices and 60 s of the benchmark's sp_from_wl, 57-61
of the 4 578 blocks are read (seeds 1-3).  A RateFunction of any other
class is read in full: the walk cannot vouch that it does not rise, or
turn NaN inside a block.

Three loops spread over the usable cores through _in_order: the
kernel's blocks of rows (the SP-to-SL walk's blocks among them), the WL
walk's blocks in groups of 16, and the solves of cli.cmd_verify's four
kinds.  A worker reduces each block of a walk to what the fold needs of
it (_verdict_part and _sup_part), and this process folds those from
right to left, carrying S just right of the block.  With L the block's
own suffix sup, S(n) = max(L(n), carry) <= s iff L(n) <= s and
carry <= s, so a block builds L only for the s between its last value
and its maximum (one searchsorted on the sorted s) or where S is asked
for at its indices; each s at or above the maximum admits the whole
block once the carry admits it.  The same tasks run in this process,
one after the other, where the work is too small to pay for a pool, one
core is usable or the caller is a daemonic process; there is no
setting.  No value depends on where a task ran: kernel rows do not
depend on their block, and the verdict's fit sums are numpy's pairwise
reductions, not BLAS dots, whose rounding depends on the BLAS thread
count.  The fit sums are merged block by block, or chunk by chunk
where the WL walk fits its sample apart, so the trend slope of a window
of several blocks may differ in its last digits from that of
check_vanishing on the whole array.  On a 2-core x86 machine the WL
walk of 1.5e8 indices and 60 s took 0.03-0.06 s in this process (seeds
1-3), against 0.90-1.36 s in two workers when it read the whole last
half, and the 4e5 xi1 rows of example11 sp2sl 0.15-0.28 s (median
0.16 s) in two workers against 0.24-0.26 s (median 0.25 s) in one
(nproc 2, five runs each).

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
import itertools
import math
import os
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CapError,
    ConditionFailedError,
    ConfigError,
    DegenerateTransformError,
    MathDomainError,
    _json_fields,
    _number,
    _number_fields,
    _require_finite,
    _s_grid,
    _scalar,
)
from .ratefn import _FAMILIES, ExtendedValue, LogTabulated, RateFunction, Tabulated

__all__ = [
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
# Rows per step of the refinement pass.  Its (rows x 21) arrays, 86 KB at
# 512 rows, stay below glibc's 128 KiB mmap threshold.  At 4096 rows each
# was mapped and faulted in afresh: the walk of the 4e5 xi1 rows of
# example11 sp2sl took 79k page faults and 1.07 s in one process, against
# none and 0.50-0.74 s at 512 rows (2-core x86 machine).
_REFINE_ROWS = 512

# The kernels' base r-grid: _R_COUNT points log-spaced over [_R_MIN, _R_MAX].
# It is no setting: over 5 families, both kernels and 200 t in [1e-12, 1e3],
# doubling the count moved xi1 and xi2 by at most 4.8e-5 relative, and a
# range of [1e-3, 1e3] or [1e-12, 1e12] at the same density by at most
# 1.0e-4, since the grid is extended wherever an argmin lands on an edge.
_R_MIN = 1e-8
_R_MAX = 1e8
_R_COUNT = 600

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

# Kernel rows per block, and indices per block of the SP-to-SL walk.  Each
# block pays a fixed cost: a base sweep, an edge-extension sweep, ~14
# divide-and-conquer levels and, in a walk, one task.  On the 4e5 xi1 rows
# of example11 sp2sl, in one process on a 2-core x86 machine (nproc 2), the
# kernel took 0.32 s in blocks of 4096 rows, 0.26 s of 8192, 0.22 s of
# 16384, 0.20 s of 32768 and 0.22 s of 65536 (best of three).  A block's
# arrays grow with it: sl_from_sp's traced peak is 4.1 MB, against 1.1 MB
# in blocks of 4096.
_ROWS = 16384

# Indices per block when wl_from_sp and sp_from_sl scan their k-window up
# to the first block that admits the smallest s: a larger block would read
# more rows past that crossing.
_SCAN_ROWS = 4096

# Indices per task of the WL walk: 16 blocks of 2^15.  On a 2-core x86
# machine such a group takes 8-11 ms, about as long as a kernel block of
# _ROWS rows (5-12 ms, median 9 ms, on example11 sp2sl's rows).
_GROUP = 1 << 19

# Relative slack of the WL walk's block bounds (``_bounded_blocks``): an s
# or a threshold within it of a bound counts as undecided, and its block is
# read.  The bounds are g(hi), computed outside its block, and
# max_j g(b_j)*b_j/a_j over its sub-blocks; both are a few roundings from
# exact, and the computed beta_WL keeps its monotone order to a few ulps
# (tests/test_ratefn.py checks it across log(tiny)).
_SLACK = 1e-9

# Sub-blocks per block of the WL walk's upper bound.  On the 60 s of
# maps-deep's window of 1.5e8 indices the bound g(hi)*hi/lo of a whole block
# left 88-91 blocks undecided, where at most 60 hold a crossing; bounds from
# 8 sub-blocks leave 54-58 (seeds 1-3, the top and lowest blocks aside).
_SUB = 8

# The least work that _in_order hands to forked workers: 8 groups of the
# WL walk, 60-90 ms of work, or 32768 kernel rows, 2 blocks of 5-12 ms.
# A pool of two workers took 7-12 ms to start and join on that machine.
# The walk of the benchmark's 2e5 xi1 rows (13 blocks) took 0.08-0.18 s,
# median 0.087 s, in two workers against 0.12-0.16 s, median 0.126 s, in
# one (five runs each).
_POOL_MIN_GROUPS = 8
_POOL_MIN_ROWS = 1 << 15

HOLDS = "holds_empirically"
FAILS = "fails_empirically"
INCONCLUSIVE = "inconclusive"


# Largest log_grid, 8 MB of float64: refused before anything is allocated.
_MAX_GRID_POINTS = 1_000_000


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Log-spaced grid between finite endpoints, exact at both, at most _MAX_GRID_POINTS points."""
    lo, hi = _number(lo, "log grid lo"), _number(hi, "log grid hi")
    count = _number(count, "log grid count", integral=True)
    if not (0 < lo < hi < math.inf) or count < 2:
        raise ConfigError("log grid needs finite 0 < lo < hi and count >= 2")
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"log grid of {count} points exceeds the limit of {_MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, count)


@dataclass(frozen=True)
class TransformConfig:
    """Free constants of the rate-function maps and their index caps.

    The maps hold for arbitrary positive constants C1..C6, any
    delta > 2 and any start index n0 >= 2, so all of them default to 1
    (delta to 4) and are exposed here.  n0 = None auto-detects the
    smallest usable kernel index.  Each map is evaluated at min(s, s0)
    (at s where s0 = None), so it holds its value at s0 above s0.  k_max
    caps the k-windows, N_max the walks' windows [n0, N_max].  Neither
    the kernels' r-grid nor the verdict's _SLOPE_TOL is a setting.
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
    k_max: int = 400
    N_max: int = 400

    def __post_init__(self):
        _number_fields(self, "config")
        if not (self.delta > 2.0):
            raise ConfigError("delta must exceed 2")
        if self.n0 is not None and self.n0 < 2:
            raise ConfigError("n0 must be at least 2")
        if self.s0 is not None and not (self.s0 > 0):
            raise ConfigError("s0 must be positive")
        for name in ("C1", "C2", "C3", "C4", "C5", "C6", "theta_cond"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")
        if self.k_max < 2 or self.N_max < 2:
            raise ConfigError("k_max and N_max must be at least 2")
        _require_finite(self)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransformConfig":
        return cls(**_json_fields(d, cls.__dataclass_fields__, "config"))


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


def _in_order(task, items, pool: bool = True):
    """Yield task(item) for every item, in item order.

    The items go as a queue to min(usable cores, items) worker processes
    forked from this one.  They inherit ``task`` with the process image,
    so it need not pickle; only items and results do.  The tasks run
    here instead, one after the other, when one core is usable, when
    ``pool`` is false (the caller's work is too small to pay for a pool:
    see _POOL_MIN_GROUPS and _POOL_MIN_ROWS; cli.cmd_verify's four solves
    of about 0.5 s always do) or when this process is daemonic, which may
    not have children.  There is no user setting.  A result does not
    depend on where its task ran.  A task that raises raises here, the
    first in item order, with its own type and message, and every worker
    has ended before the generator finishes.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if pool and workers > 1:
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
    """One 10x-denser local pass around per-row argmins, _REFINE_ROWS rows at a time.

    The argmins are grid points that many rows share, so beta is read
    once per distinct center, in one call, and gathered for each row.
    That gives the bits of a read per row, as log_eval_many is
    elementwise on contiguous arrays (tests/test_transforms.py checks it
    for every family).
    """
    steps = ratio ** np.linspace(-1.0, 1.0, _REFINE_POINTS)
    distinct, which = np.unique(centers, return_inverse=True)
    log_b = beta.log_eval_many((distinct[:, None] * steps).ravel()).reshape(distinct.size, steps.size)
    out = np.empty(centers.shape)
    for i in range(0, centers.size, _REFINE_ROWS):
        rows = slice(i, i + _REFINE_ROWS)
        local = centers[rows, None] * steps
        out[rows] = _cells(log_ts[rows, None], local, log_b[which[rows]], kind).min(axis=1)
    return out


def _kernel_min(beta: RateFunction, log_ts: np.ndarray, kind: str) -> np.ndarray:
    """Kernel values for a vector of log(t); NaN marks Undefined.

    Rows do not depend on each other, so they are evaluated in blocks of
    _ROWS, each a task of ``_in_order`` from _POOL_MIN_ROWS rows on:
    memory stays bounded for any number of rows, and a row's value does
    not depend on its block or on where the block runs.
    """
    log_ts = np.asarray(log_ts, dtype=float)
    out = np.empty(log_ts.shape)
    starts = range(0, log_ts.size, _ROWS)
    blocks = _in_order(
        lambda i: _kernel_block(beta, log_ts[i : i + _ROWS], kind), starts, pool=log_ts.size >= _POOL_MIN_ROWS
    )
    for i, vals in zip(starts, blocks):
        out[i : i + _ROWS] = vals
    return out


def _kernel_block(beta: RateFunction, log_ts: np.ndarray, kind: str) -> np.ndarray:
    """Kernel values for a block of log(t); NaN marks Undefined.

    The infimum is taken over the base log-spaced r-grid with one
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
    base = np.geomspace(_R_MIN, _R_MAX, _R_COUNT)
    ratio = (_R_MAX / _R_MIN) ** (1.0 / (_R_COUNT - 1))
    per_decade = (_R_COUNT - 1) / math.log10(_R_MAX / _R_MIN)

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
    # inside or the absolute budget runs out.  A row keeps going while its
    # argmin sits at the far end of the extension or it has no feasible
    # point yet; only rows on the right can lack one.
    for rows, edge, decades in ((left_rows, _R_MIN, -_EXT_DECADES), (right_rows, _R_MAX, _EXT_DECADES)):
        while rows.size and _R_ABS_MIN < edge < _R_ABS_MAX:
            new_edge = min(max(edge * 10.0 ** decades, _R_ABS_MIN), _R_ABS_MAX)
            lo, hi = sorted((edge, new_edge))
            count = max(int(math.ceil(math.log10(hi / lo) * per_decade)) + 1, 8)
            grid = np.geomspace(lo, hi, count)
            vals, argm = sweep(rows, grid)
            far = argm == (0 if decades < 0 else grid.size - 1)
            rows = rows[(far & np.isfinite(vals)) | ~np.isfinite(best[rows])]
            edge = new_edge

    if np.any(~np.isfinite(best)):
        # Feasibility was certified analytically, so this can only mean
        # the extension budget ran out before reaching the feasible set.
        raise CapError("kernel feasible set lies beyond the grid extension budget")

    refined = _refine_rows(beta, lts, center, ratio, kind)
    out[idx_todo] = np.minimum(best, refined)
    return out


def _as_log_t(t: float) -> float:
    return math.log(_scalar(t, "kernel argument t"))


def xi1(beta_sp: RateFunction, t: float) -> ExtendedValue:
    """Infimum of r / (1 - t*beta_SP(r)) over the feasible r > 0."""
    val = _kernel_min(beta_sp, np.array([_as_log_t(t)]), "xi1")[0]
    return ExtendedValue.undefined() if math.isnan(val) else ExtendedValue.finite(val)


def xi2(beta_sl: RateFunction, t: float) -> ExtendedValue:
    """Infimum of r / (t - beta_SL(r)) over the feasible r > 0."""
    val = _kernel_min(beta_sl, np.array([_as_log_t(t)]), "xi2")[0]
    return ExtendedValue.undefined() if math.isnan(val) else ExtendedValue.finite(val)


# ---------------------------------------------------------------------------
# Start-index detection
# ---------------------------------------------------------------------------


def _auto_n0_xi1(beta_sp: RateFunction, cfg: TransformConfig) -> int:
    """Smallest usable index for the xi1(delta^(-n+1)) sequence.

    Indices whose argument sits within _EDGE_FRACTION of the
    infeasibility edge t = 1/lim_inf(beta) are skipped: there the kernel
    is finite but inflated by an unbounded constant, which would poison
    the running supremum.  Any n0 >= 2 is a valid start index.  No cap
    applies here: sl_from_sp walks [n0, N_max], and wl_from_sp refuses
    an n0 past k_max when it finds no k*(s) in [n0, k_max].
    """
    log_binf = beta_sp.log_limit_at_inf()
    if log_binf == -math.inf:
        return 2
    # need -(n-1)*log(delta) + log_binf <= log(_EDGE_FRACTION)
    need = (log_binf - math.log(_EDGE_FRACTION)) / math.log(cfg.delta) + 1.0
    return max(2, int(math.ceil(need - 1e-12)))


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


def check_vanishing(seq) -> ConditionVerdict:
    """Empirical verdict on whether an indexed sequence vanishes.

    ``seq`` is a pair (ns, values) of arrays; NaN marks an Undefined
    value.  Decision rules, in order:

    1. any Undefined or +inf entry: fails;
    2. the last quarter is (numerically) all zero: holds;
    3. the last half never decreases (no step falls by more than
       _DECREASE = 1e-9 of its value): fails;
    4. the log-log trend slope is above -_SLOPE_TOL = -0.1 (the tail is
       too flat to vanish): fails;
    5. final value below half the starting value: holds, else
       inconclusive.

    The trend slope is the least-squares slope of log(value) on log(n)
    over the last-half entries at N_max, N_max - stride, ..., with
    stride = ceil(half / _FIT_POINTS) and _FIT_POINTS = 2^16: every
    entry of a last half of at most 2^16 entries, and at most 2^16
    entries of a longer one.
    """
    ns, vals = seq
    ns, vals = np.asarray(ns, dtype=int), np.asarray(vals, dtype=float)
    first, last = (int(ns[0]), int(ns[-1])) if ns.size else (0, 0)
    layout = _verdict_layout(ns.size, first, last)
    return _fold_verdict([_verdict_part(layout, 0, ns, np.log(ns), vals)], layout)


# Rule 3 of check_vanishing counts a step as a decrease where it falls by more
# than this share of its value.
_DECREASE = 1e-9

# Rule 4 of check_vanishing fits its slope on at most this many entries of the
# last half.  No setting: on the WL sequence of LogPower{1, 1/2} (N_max 1e6 and
# 2e7) the strided fit was within 2.6e-9 relative of the fit on every entry, and
# on the xi1 rows of ExpPower{1, 1/2} and {1, 3/4} (N_max 2e5 and 4e5) within
# 1.1e-6; no status moved.
_FIT_POINTS = 1 << 16


class _Layout(NamedTuple):
    """Where the rules of ``check_vanishing`` look in a window of ``size`` entries."""

    size: int
    tail_start: int  # the last quarter
    half_start: int  # the last half
    picks: np.ndarray  # positions of the verdict's sequence_tail, at most 64 of the last quarter
    stride: int  # rule 4's sample: positions size - 1, size - 1 - stride, ... of the last half


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
    return _Layout(size, tail_start, half_start, picks, -(-(size - half_start) // _FIT_POINTS))


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


def _verdict_part(layout: _Layout, pos: int, ns, log_n, vals, scratch=None, check_decrease: bool = True,
                  finite: Optional[bool] = None, fit: bool = True) -> tuple:
    """What the rules of ``check_vanishing`` need of the block ``vals``,
    the entries [pos, pos + vals.size) of the window.

    Returns (size, first value, last value, all finite, the tail picks
    as (n, value) pairs, the maximum of the block's part of the last
    quarter or -inf, half).  ``half`` is None for a block left of the
    last half; otherwise (that part finite, it decreases somewhere, its
    first value, the fit sums of its entries in rule 4's sample, or None
    where it holds none or is not finite).  ``ns`` may be integral
    floats.  ``scratch`` is two rows of at least vals.size floats for
    the last half, made here if None.  Without ``check_decrease`` the
    decrease test is skipped and reads False: a block on the right,
    folded before this one, already decreases, or the caller settles
    rule 3 itself.  Without ``fit`` the fit sums are None: the caller
    fits rule 4's sample itself.  ``finite`` tells whether every value
    is finite, where the caller knows; otherwise it is computed here.
    """
    if finite is None:
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
        decreases, sums = False, None
        # the block's first entry in rule 4's sample, which runs down from the window's last
        p = h + (layout.size - 1 - pos - h) % layout.stride
        fit = fit and p < vals.size
        if half_finite and (check_decrease or fit):
            m = vals.size - h
            if scratch is None:
                scratch = np.empty((2, m))
            if check_decrease:
                # run[i+1] - run[i] < -_DECREASE |run[i]| on the run vals[h:], as in np.diff
                step, bound = scratch[:, : m - 1]
                np.subtract(vals[h + 1 :], vals[h:-1], out=step)
                np.multiply(np.abs(vals[h:-1], out=bound), -_DECREASE, out=bound)
                decreases = bool((step < bound).any())
            if fit:
                x = log_n[p :: layout.stride]
                y, dx = scratch[:, : x.size]
                np.log(np.maximum(vals[p :: layout.stride], 1e-300, out=y), out=y)
                sums = _fit_sums(x, y, dx)
        half = (half_finite, decreases, float(vals[h]), sums)
    return vals.size, float(vals[0]), float(vals[-1]), finite, pairs, tail_max, half


# Rule 4 of check_vanishing fails a trend slope above -_SLOPE_TOL.  No setting: every
# slope that rule 4 met on the package's inputs lies below -0.33 or above -0.003.
_SLOPE_TOL = 0.1


def _fold_verdict(parts, layout: _Layout, fit: Optional[tuple] = None) -> ConditionVerdict:
    """The rules of ``check_vanishing`` from the ``_verdict_part`` of
    every block of the window, from right to left, the last index first.

    ``fit`` holds the sums of rule 4's sample where the caller fitted it
    apart from the blocks; otherwise the parts' sums are merged.  A part
    may stand for a run of blocks that the caller did not read (see
    ``_walk``): the caller then vouches that each rule reads exact
    inputs, or inputs on the same side of its threshold, wherever the
    rules before it leave the verdict open.
    """
    pos = layout.size
    first = last = math.nan
    undefined = False
    tail_max = -math.inf
    decreases = False
    half_finite = True
    nxt = None  # the first value of the half window in the block on the right
    sums = (0, 0.0, 0.0, 0.0, 0.0) if fit is None else fit
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
                decreases = decreases or block_decreases or (nxt is not None and nxt - end < -_DECREASE * abs(end))
                nxt = half_head
                if block_fit is not None:
                    sums = _merge_fit(sums, block_fit)

    slope = sums[4] / sums[3] if half_finite else math.nan
    tail = tuple(pairs)
    if undefined:
        return ConditionVerdict(FAILS, tail, slope)
    if tail_max <= 1e-12 * (1.0 + abs(first)):
        return ConditionVerdict(HOLDS, tail, slope)
    if not decreases:
        return ConditionVerdict(FAILS, tail, slope)
    if not (slope < -_SLOPE_TOL):
        return ConditionVerdict(FAILS, tail, slope)
    if last < 0.5 * first:
        return ConditionVerdict(HOLDS, tail, slope)
    return ConditionVerdict(INCONCLUSIVE, tail, slope)


def _xi1_terms(beta_sp: RateFunction, cfg: TransformConfig, ns: np.ndarray) -> np.ndarray:
    """n*xi1(delta^(-n+1)) at the integers ``ns`` (perhaps integral floats) in one kernel call; NaN = Undefined."""
    return ns * _kernel_min(beta_sp, -(ns - 1) * math.log(cfg.delta), "xi1")


def sp2sl_condition(beta_sp: RateFunction, cfg: Optional[TransformConfig] = None) -> ConditionVerdict:
    """Check lim_n n*xi1(delta^(-n+1)) = 0 on the window [n0, N_max], by the walk of ``sl_from_sp``."""
    return _walk(beta_sp, cfg or TransformConfig(), sequence="xi1")[0]


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


def _wl_at(beta: RateFunction, cfg: TransformConfig, ns) -> np.ndarray:
    """g = beta_WL(delta^-n n^-theta)/n at the integers ``ns`` in one call: the bits a block read gives there."""
    ns = np.asarray(ns, dtype=float)
    return _wl_condition_sequence(beta, cfg, ns, np.log(ns), np.empty_like(ns), np.empty_like(ns))


def _walk(beta: RateFunction, cfg: TransformConfig, s=(), at=(), sequence: str = "wl"):
    """One walk of a gated map's index sequence g on [n0, N_max], in blocks from N_max down.

    ``sequence`` names g: "wl", beta_WL(delta^-n n^-theta)/n of
    ``sp_from_wl``, or "xi1", n*xi1(delta^(-n+1)) of ``sl_from_sp``.
    With G = g ("wl") or C4*g ("xi1") and S(k) = sup_{k<=n<=N_max} G(n),
    returns the vanishing verdict on g, k*(s) for every s in ``s`` (the
    smallest k >= n0 with S(k) <= s, N_max + 1 if none) and S at the
    indices ``at``.  The blocks, of _BLOCK indices or of _ROWS kernel
    rows, go to ``_in_order`` in groups of about _GROUP indices or one
    kernel block, the top group first; each gives the parts of its
    blocks (``_walk_group``), and this process folds them from right to
    left, carrying S just right of the block.  The xi1 walk reads the
    rows for its own map alone: ``wl_from_sp`` evaluates its sup window
    itself.  The values do not depend on where a group runs.

    The xi1 walk, and the WL walk of a RateFunction outside the
    package's families or of a window of at most two blocks, read every
    index.  The WL walk of a family reads the blocks that
    ``_bounded_blocks`` cannot bound, the top and the lowest among them,
    and what rule 3 needs: the last half from the top down to its first
    decrease.  No step into an index at or past _FLAT can be one, so it
    reads the highest block of the half below _FLAT first, in this
    process, and every block of the half below that one where it does
    not decrease.  It takes rule 4's sample (``_sample_fit``) and the
    tail picks apart, in single calls, and folds each run of blocks it
    does not read in one step, from g at their last indices.  Memory
    holds one block's arrays per process and, for the fold, some 100
    bytes per block of the window (about 0.5 MB for the WL walk of
    1.5e8 indices).
    """
    n0 = _start_index(beta, cfg, sequence)
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

    block, per = (_BLOCK, max(1, _GROUP // _BLOCK)) if sequence == "wl" else (_ROWS, 1)
    starts = range(n0, cfg.N_max + 1, block)
    task = functools.partial(_walk_group, beta, cfg, layout, n0, s_sorted, at, sequence, block)
    tops = np.full(len(starts), np.nan)  # g at the last index of each block not read, NaN at each block read
    pre, fit = {}, None  # the part of the block read first for rule 3, by number; rule 4's sums where fitted apart
    if sequence == "wl" and type(beta) in _FAMILIES.values() and len(starts) > 2:
        tops = _bounded_blocks(beta, cfg, layout, starts, s_sorted, at)
        picks = _wl_at(beta, cfg, n0 + layout.picks)
        task = functools.partial(task, fit=False)
        settled = True  # whether rule 3 needs no more of the blocks read below
        if math.isfinite(picks[-1]):  # g(N_max) is finite, and so is every value: rules 3 and 4 read them
            # Rule 3 reads the last half from the top down; no step into an index at or past _FLAT decreases.
            low, b = layout.half_start // block, min(len(starts) - 1, (_FLAT - 1 - n0) // block)
            if b >= low:
                pre[b] = task(np.array([starts[b]]))[0]
                tops[b] = math.nan
                if not pre[b][0][6][1]:  # it does not decrease: the walk reads every block of the half below it
                    tops[low:b] = math.nan
                    settled = False
            fit = _sample_fit(beta, cfg, layout, n0, block)
        if settled:
            task = functools.partial(task, check_decrease=False)
    read = np.isnan(tops)
    main = np.array([b for b in np.flatnonzero(read)[::-1].tolist() if b not in pre], dtype=int)  # read here, top first
    groups = [starts.start + block * main[i : i + per] for i in range(0, main.size, per)]
    run_low = np.maximum.accumulate(np.where(read, np.arange(read.size), -1)) + 1  # where each run not read begins

    def run(a: int, b: int) -> tuple:
        """The verdict part of blocks a..b, none of them read, from g at their last indices.

        They are full blocks with finite bounds, as the top one is read:
        all finite where g(N_max) is, and their part of the last quarter
        peaks at or above its g(hi) (see ``_bounded_blocks``).  Rule 3
        reads none of them, so they decrease nowhere and give no first
        value to the block on their left.
        """
        i, j = layout.picks.searchsorted((a * block, (b + 1) * block))
        pairs = list(zip((n0 + layout.picks[i:j]).tolist(), picks[i:j].tolist()))
        quarter = tops[max(a, layout.tail_start // block) : b + 1]
        half = (True, False, math.nan, None) if b >= layout.half_start // block else None
        tail_max = float(quarter.max()) if quarter.size else -math.inf
        return (b - a + 1) * block, math.nan, float(tops[b]), True, pairs, tail_max, half

    def blocks():
        """(verdict part, sup part) of every block read, and of every run of blocks between, the top first."""
        b = len(starts) - 1  # the next block to yield

        def down_to(c: int):
            """The parts above block c of the block read first for rule 3 and of the runs not read."""
            nonlocal b
            while b > c:
                if b in pre:
                    yield pre[b]
                    b -= 1
                else:
                    a = int(run_low[b])
                    yield run(a, b), tops[b : a - 1 if a else None : -1]
                    b = a - 1

        pool = len(groups) >= _POOL_MIN_GROUPS if sequence == "wl" else layout.size >= _POOL_MIN_ROWS
        for got, num in zip(itertools.chain.from_iterable(_in_order(task, groups, pool)), main.tolist()):
            yield from down_to(num)
            yield got
            b -= 1
        yield from down_to(-1)

    def parts():
        carry = -math.inf  # S just right of the block
        for part, sup in blocks():
            # S(n) = max(local sup, carry) <= s iff both are: only s_sorted[c0:] can admit n.
            if isinstance(sup, np.ndarray):  # a run not read: g(hi) of each block, the top first
                # each admits s_sorted[max(c0, i1):] whole, its own i1 the place of g(hi)
                right = np.maximum.accumulate(np.append(carry, sup[:-1]))
                np.add.at(whole, np.maximum(s_sorted.searchsorted(right), s_sorted.searchsorted(sup)), block)
                carry = float(np.maximum(right[-1], sup[-1]))
            else:
                top, i0, i1, counts, inside, local = sup
                c0 = int(s_sorted.searchsorted(carry))
                whole[max(c0, i1)] += part[0]
                if counts is not None:
                    c = max(c0, i0)
                    crossed[c:i1] += counts[c - i0 :]
                    sup_at[inside] = np.maximum(local, carry)
                carry = float(np.maximum(carry, top))
            yield part

    verdict = _fold_verdict(parts(), layout, fit)
    k_star = np.empty(s.shape, dtype=np.int64)
    k_star[order] = cfg.N_max + 1 - np.cumsum(whole[:-1]) - crossed
    return verdict, k_star, sup_at


def _bounded_blocks(beta: RateFunction, cfg: TransformConfig, layout: _Layout, starts: range, s_sorted, at):
    """g at the last index of each block of the WL walk that need not be read, NaN at every other block.

    The argument delta^-n n^-theta falls as n grows and beta_WL does not
    increase, so n*g(n) does not decrease.  On a block [lo, hi], cut into
    _SUB sub-blocks [a_j, b_j], that gives g(hi) <= max g <= U, with
    U = max_j g(b_j)*b_j/a_j.  The package's own families keep that
    contract by construction: the closed forms (tests/test_ratefn.py
    checks them across log(tiny)) and the tables through their envelope,
    with finite values wherever g(hi) is finite.  The walk calls this for
    them alone and reads every block of any other RateFunction, whose
    values it cannot vouch for: one that rises in s, or is NaN inside a
    block.

    g(hi) of every block, and g(n0), come from one call.  The top block
    and the lowest are read, for rule 5's last and first values, and so
    is every block at or right of an index of ``at``, whose S needs the
    exact maximum of every block right of it.  Any other block is read
    where its bounds leave one of these open, widened by _SLACK:
      - an s in [max(g(hi), R), U], where R is the largest g(hi) right of
        it.  An s below R admits nothing there, an s below g(hi) nothing
        of the block or left of it, and an s above U the whole block.
      - In the last quarter, rule 2's threshold 1e-12*(1 + |g(n0)|) in
        [g(hi), U], unless g(N_max) is not finite or a g(hi) there lies
        above it.  Rule 2 then reads the exact maximum of each block read
        and g(hi) of every other, which lies on the same side of the
        threshold as that block's maximum.
    U comes from the ends of the sub-blocks, one more call, only for the
    blocks that the bound g(hi)*hi/lo of the whole block leaves open.
    """
    block, n0 = starts.step, starts.start
    los = np.arange(n0, cfg.N_max + 1, block)
    his = np.minimum(los + block - 1, cfg.N_max)
    g = _wl_at(beta, cfg, np.append(his, n0))
    tops, thr = g[:-1], 1e-12 * (1.0 + abs(float(g[-1])))
    read = np.zeros(los.size, dtype=bool)
    read[[0, -1]] = True
    if at.size:
        read[(int(at.min()) - n0) // block :] = True
    quarter = his >= n0 + layout.tail_start
    rule2 = math.isfinite(tops[-1]) and not bool((tops[quarter] > thr).any())  # rule 2 left open by g(hi)
    right = np.append(np.maximum.accumulate(tops[::-1])[::-1][1:], -math.inf)
    low = s_sorted.searchsorted(np.maximum(tops, right) * (1.0 - _SLACK))

    def open_(i: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Whether the bounds [g(hi), upper] of the blocks ``i`` leave an s or rule 2 open."""
        upper = upper * (1.0 + _SLACK)
        high = s_sorted.searchsorted(upper, side="right")
        return np.isnan(upper) | (high > low[i]) | (rule2 & quarter[i] & (upper > thr))

    i = np.flatnonzero(~read)
    i = i[open_(i, tops[i] * his[i] / los[i])]
    sub = min(_SUB, block)
    if i.size and sub > 1:
        a = los[i, None] + np.arange(sub) * block // sub  # the sub-blocks' first indices
        b = np.append(a[:, 1:] - 1, his[i, None], axis=1)  # and their last
        gb = np.append(_wl_at(beta, cfg, b[:, :-1].ravel()).reshape(b.shape[0], -1), tops[i, None], axis=1)
        i = i[open_(i, (gb * b / a).max(axis=1))]
    read[i] = True
    return np.where(read, math.nan, tops)


# No step into an index at or past _FLAT is a decrease of rule 3 in the WL
# sequence of a family: beta_WL does not increase, so g(n + 1) >= g(n) n/(n + 1),
# a fall of at most 1/1.001e9 of g(n), below _DECREASE by far more than the few
# ulps by which the computed values may stray.
_FLAT = 1_001_000_000


def _sample_fit(beta: RateFunction, cfg: TransformConfig, layout: _Layout, n0: int, block: int) -> tuple:
    """The fit sums of rule 4's sample of the WL sequence, in chunks of at most ``block`` points, the top first.

    The sample is N_max, N_max - stride, ... down to the last half.
    Chunk c holds its indices in [n0 + c*block*stride,
    n0 + (c + 1)*block*stride), so at stride 1 the chunks are the parts
    of the walk's blocks in the last half, and the sums keep the bits of
    the walk that reads every index.
    """
    stride = layout.stride
    span = block * stride
    low = cfg.N_max - (cfg.N_max - n0 - layout.half_start) // stride * stride  # the sample's lowest index
    rows = np.empty((4, min(block, (cfg.N_max - low) // stride + 1)))
    sums = (0, 0.0, 0.0, 0.0, 0.0)
    for c in range((cfg.N_max - n0) // span, (low - n0) // span - 1, -1):
        lo = max(n0 + c * span, low)
        lo += (cfg.N_max - lo) % stride  # the chunk's lowest index in the sample
        hi = min(n0 + (c + 1) * span - 1, cfg.N_max)
        ns, log_n, y, dx = rows[:, : (hi - lo) // stride + 1]
        ns[:] = np.arange(lo, hi + 1, stride)
        np.log(ns, out=log_n)
        g = _wl_condition_sequence(beta, cfg, ns, log_n, y, dx)
        np.log(np.maximum(g, 1e-300, out=y), out=y)
        sums = _merge_fit(sums, _fit_sums(log_n, y, dx))
    return sums


def _walk_group(beta, cfg: TransformConfig, layout: _Layout, n0: int, s_sorted, at, sequence: str, block: int,
                los: np.ndarray, check_decrease: bool = True, fit: bool = True) -> list:
    """(verdict part, sup part) of each walk block that starts at ``los``, the top block first.

    ``los`` descends, each a block of ``block`` indices cut at N_max.
    The blocks are built in arrays reused from block to block, and the
    log n each computes for the argument or the kernel row also serves
    the verdict's fit.  The sup part is ``_sup_part``'s, on C4*g for the
    kernel rows as N0(s) reads them.  A block is finite where its maximum
    is (g >= 0, and NaN propagates).  Once a block decreases, the blocks
    after it here skip the decrease test (see ``_verdict_part``); without
    ``check_decrease`` every block skips it, and without ``fit`` the
    parts hold no fit sums: the WL walk of a family settles rules 3 and
    4 apart.
    """
    rows = np.empty((4, min(block, cfg.N_max - los[-1] + 1)))  # one block's ns, log n, work and G
    # the verdict's two rows, while the group reaches into the last half
    reaches_half = min(los[0] + block, cfg.N_max + 1) - n0 > layout.half_start and (check_decrease or fit)
    scratch = np.empty((2, rows.shape[1])) if reaches_half else None
    ns = rows[0, :0]
    decreasing = not check_decrease
    out = []
    for lo in los.tolist():
        hi = min(lo + block - 1, cfg.N_max)
        if ns.size == hi - lo + 1:
            ns -= ns[0] - lo  # a block of the size of the one before: shift its indices
        else:  # the first block, and the first full block below a partial one
            ns, log_n, work, g = rows[:, : hi - lo + 1]
            ns[:] = np.arange(lo, hi + 1)
        np.log(ns, out=log_n)
        if sequence == "wl":
            vals = _wl_condition_sequence(beta, cfg, ns, log_n, work, g)
        else:
            vals = _xi1_terms(beta, cfg, ns)
            np.multiply(cfg.C4, vals, out=g)
        sup = _sup_part(g, work, s_sorted, at, lo, hi)
        finite = math.isfinite(sup[0] if vals is g else float(vals.max()))
        part = _verdict_part(layout, lo - n0, ns, log_n, vals, scratch, not decreasing, finite, fit)
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
    """Check lim_n beta_WL(delta^-n n^-theta)/n = 0 on the window, by the walk of ``sp_from_wl``.

    Where beta_WL is one of the package's own rate functions, the walk
    reads, with no s to place, the top block and the lowest, the blocks
    that rules 2 and 3 need, which on a vanishing sequence are usually
    none more, and rule 4's sample of at most 2^16 indices, and one value
    of every other block; any other RateFunction it reads in full.
    """
    return _walk(beta_wl, cfg or TransformConfig())[0]


def wl2sp_window(beta_wl: RateFunction, cfg: TransformConfig, n_near: int, n_far: int) -> tuple[float, float]:
    """The s-range [1.02*S(n_far), 0.98*S(n_near)], S(k) = sup_{k<=n<=N_max} beta_WL(delta^-n n^-theta)/n.

    S is read at the two indices, each clamped to [n0, N_max], from one
    walk of that window, which must pass the vanishing check.  Over this
    range k*(s) of ``sp_from_wl`` lies in (n_near, n_far].
    """
    n0 = _start_index(beta_wl, cfg, "wl")
    verdict, _, (sup_near, sup_far) = _walk(beta_wl, cfg, at=np.clip((n_near, n_far), n0, cfg.N_max))
    _gate(verdict, "the WL-to-SP map")
    lo, hi = 1.02 * float(sup_far), 0.98 * float(sup_near)
    if not (0.0 < lo < hi):
        raise ConfigError(
            f"no s-window between indices {n_near} and {n_far} on [{n0}, {cfg.N_max}]: S gives [{lo:g}, {hi:g}]"
        )
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
    """The s at which a map is evaluated for the grid s: min(s, s0), or s itself where s0 is None."""
    return s if cfg.s0 is None else np.minimum(s, cfg.s0)


def _first_crossing(env: np.ndarray, s: np.ndarray) -> np.ndarray:
    """For each s, the first index i with env[i] <= s, or env.size if none; env is non-increasing."""
    return np.searchsorted(-env, -s)


def _k_star(values_at, n0: int, cfg: TransformConfig, s: np.ndarray, s_eff: np.ndarray) -> np.ndarray:
    """The smallest k in [n0, k_max] with values_at(k) <= s, for each ascending s.

    ``values_at`` maps an array of k to values, NaN for none.  The window
    is read in blocks of _SCAN_ROWS up to the first block that admits
    s[0], so it holds every k*(s).  The cap error reports s_eff[0].
    """
    parts = []
    for lo in range(n0, cfg.k_max + 1, _SCAN_ROWS):
        vals = values_at(np.arange(lo, min(lo + _SCAN_ROWS, cfg.k_max + 1)))
        parts.append(np.where(np.isnan(vals), np.inf, vals))
        if np.any(parts[-1] <= s[0]):
            # The first k with values_at(k) <= s is the first where their running minimum is.
            return n0 + _first_crossing(np.minimum.accumulate(np.concatenate(parts)), s)
    raise CapError(f"no admissible k <= k_max={cfg.k_max} for s={float(s_eff[0]):g}; increase k_max")


def _n_zero(beta_sp: RateFunction, k_star: np.ndarray, s: np.ndarray, cfg: TransformConfig) -> np.ndarray:
    """N0(s), the largest n with C4*n*xi1(delta^(-n+1)) > s or n0 if none, for each ascending s.

    ``k_star`` is the walk's k*(s) on C4*n*xi1(delta^(-n+1)): the suffix
    maximum exceeds s exactly up to N0(s), so N0(s) is one index before
    k*(s).  A k*(s[0]) past N_max raises CapError.
    """
    if k_star[0] > cfg.N_max:
        raise CapError(f"qualifying set for s={float(s[0]):g} reaches N_max={cfg.N_max}; increase N_max")
    return np.maximum(k_star - 1, _start_index(beta_sp, cfg, "xi1"))


def n_zero(beta_sp: RateFunction, s: float, cfg: Optional[TransformConfig] = None) -> int:
    """Largest n in [n0, N_max] with C4*n*xi1(delta^(-n+1)) > s.

    Returns n0 when no index qualifies.  The vanishing verdict of the
    sequence on [n0, N_max] gates the search, and both come from one
    walk of that sequence; a qualifying set that reaches N_max raises a
    cap error.
    """
    cfg = cfg or TransformConfig()
    s = _scalar(s, "n_zero trade-off s")
    if cfg.s0 is not None and s > cfg.s0:
        raise ConfigError(f"n_zero requires s <= s0 = {cfg.s0}")
    s = np.array([s])
    verdict, k_star, _ = _walk(beta_sp, cfg, s, sequence="xi1")
    _gate(verdict, "the SP-to-SL map")
    return int(_n_zero(beta_sp, k_star, s, cfg)[0])


def _sl_map(beta_sp: RateFunction, s: np.ndarray, cfg: TransformConfig) -> tuple:
    """The SP-to-SL verdict from one walk of the xi1 rows, and a call that finishes the map.

    The same (verdict, table) pair as ``_wl_map``'s.  The walk of
    n*xi1(delta^(-n+1)) on [n0, N_max] gives the verdict and k*(s) for
    the nonempty array ``s`` at once; a caller writes or gates the
    verdict before it makes the call.  The call checks the grid (so
    ``transform`` refuses a bad grid after writing the verdict, as it
    does for the other gated map), finds N0(s), raising CapError where
    the qualifying set reaches N_max, and returns the table of
    ``sl_from_sp``.  ``wl_from_sp`` reads none of the walk's rows.
    """
    s_eff = _clamped(s, cfg)
    verdict, k_star, _ = _walk(beta_sp, cfg, s_eff, sequence="xi1")

    def table() -> Tabulated:
        _s_grid(s)
        rates = math.log(cfg.delta) * (1 + _n_zero(beta_sp, k_star, s_eff, cfg))
        return Tabulated(tuple(zip(s.tolist(), rates.tolist())))

    return verdict, table


def sl_from_sp(beta_sp: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> Tabulated:
    """SL rate function log(delta)*(1 + N0(s)) from an SP rate function.

    One walk of the xi1 rows on [n0, N_max], in blocks from N_max down,
    gives both the vanishing verdict that gates the map and N0(s), so
    memory stays bounded for any N_max.
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
    non-decreasing in k).  The map evaluates its own sup window
    [n0, max k*(s)], a few rows: about log_delta(1/s) of them.
    """
    cfg = cfg or TransformConfig()
    s = _s_grid(s_grid)
    n0 = _start_index(beta_sp, cfg, "xi1")

    def thresholds(ks):
        with np.errstate(under="ignore"):
            return cfg.C2 * np.exp(np.log(ks) - ks * math.log(cfg.delta))

    s_eff = _clamped(s, cfg)
    k_star = _k_star(thresholds, n0, cfg, s_eff, s_eff)
    seq = _xi1_terms(beta_sp, cfg, np.arange(n0, int(k_star.max()) + 1))
    if np.any(np.isnan(seq)):
        bad = n0 + int(np.flatnonzero(np.isnan(seq))[0])
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
    return Tabulated(tuple(zip(s.tolist(), values.tolist())))


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
    verdict, k_star, _ = _walk(beta_wl, cfg, s_eff)

    def table() -> LogTabulated:
        _s_grid(s)
        k_cap = min(cfg.k_max, cfg.N_max)
        over = np.flatnonzero(k_star > k_cap)
        if over.size:
            raise CapError(
                f"no admissible k <= {k_cap} for s={float(s_eff[over[0]]):g}; increase k_max/N_max"
            )
        log_values = math.log(cfg.C3) + k_star * math.log(cfg.delta)
        return LogTabulated(tuple(zip(s.tolist(), log_values.tolist())))

    return verdict, table


def sp_from_wl(beta_wl: RateFunction, s_grid, cfg: Optional[TransformConfig] = None) -> LogTabulated:
    """SP rate function C3*delta^k*(s) from a WL rate function.

    k*(s) is the smallest k >= n0 with
    sup_{k<=n<=N_max} beta_WL(delta^-n n^-theta)/n <= s; the tail beyond
    N_max is certified negligible by the vanishing-condition verdict.
    The output grows doubly exponentially, so the table carries
    log(beta_SP) = log(C3) + k*(s)*log(delta), exact past double range.
    One walk of the index window from N_max down, in blocks, gives both
    the verdict that gates the map and k*(s), so memory holds one
    block's arrays and some 100 bytes per block.  Where beta_WL is one
    of the package's own rate functions, the walk reads in full the top
    block and the lowest, the blocks where some k*(s) may lie and the
    blocks that the verdict's rules 2 and 3 need, takes rule 4's sample
    of at most 2^16 indices, and one value of every other block; any
    other RateFunction it reads in full.
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
        return _kernel_min(beta_sl, np.log(ks * math.log(cfg.delta)), "xi2")

    s_eff = _clamped(s, cfg)
    k_star = _k_star(xi2_at, n0, cfg, cfg.C6 * s_eff, s_eff)
    log_values = math.log(cfg.C5) + k_star * math.log(cfg.delta)
    return LogTabulated(tuple(zip(s.tolist(), log_values.tolist())))
