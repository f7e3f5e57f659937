"""Optimal rate-function values on a finite Dirichlet form.

Each inequality kind reads a(f) <= s*b(f) + beta(s)*c(f) for every test
function f, and its optimal constant at trade-off s is the supremum of
the scale-invariant ratio (a - s*b)/c over the kind's domain:

    kind  a         b           c           domain
    SP    mu(f^2)   E(f)        mu(|f|)^2   f >= 0                 (beta >= 1)
    SL    Ent(f^2)  E(f)        mu(f^2)     f >= 0                 (>= 0)
    WL    Ent(f^2)  |f|_inf^2   E(f)        nonconstant f >= 0     (>= 0)
    WP    Var(f)    |f|_inf^2   E(f)        nonconstant f, signed  (>= 0)

The solver's value and gradient and certify_inequality read each kind's
terms from one definition (_INEQUALITIES).  f >= 0 is lossless for SP,
SL and WL: |f| keeps every term but E(f), which it does not raise
(contraction); Var is not monotone under |.|, so WP keeps signed f.
Suprema are computed by projected gradient ascent with Armijo
backtracking from structured starts and seeded random restarts.  All
starts of one kind, at every s of the grid, ascend together as (m, n)
blocks with s carried per row: each row keeps its own trade-off, step,
backtracking, stall counter and iteration budget and leaves the block
when it stops, and F L is computed once per accepted iterate for both
the value and the next gradient.  The Armijo line search tests its 60
halvings in rounds of 1, 2, 4, 8, 16 and 29 (_HALVING_ROUNDS): each row
still searching stacks the round's candidate steps alpha * 2^-j into one
evaluation and takes the first that passes, which is the step and
iterate one halving at a time gives, since scaling by a power of two is
exact.  Every row reduction is an einsum or
elementwise form, never a BLAS product, so a row's path is bit for bit
the same alone or in a block, and a grid point's value does not depend
on the rest of the grid.  The structured starts, spectral certificate
included, are built once per kind; the flattened (s, start) rows run in
blocks of at most _BLOCK_CELLS cells, so memory stays bounded for any
grid.
Results are cross-checked against an exhaustive angular brute-force
oracle on forms with up to 4 states.
The oracle's grid has prod(round(span/resolution) + 1) directions over
n - 1 angular axes, cut into tiles of at most 1024 directions.  One
vectorised interval-arithmetic pass bounds every tile's computed values
from above; tiles are then evaluated in order of decreasing bound, in
blocks of at most 2^14 directions held as n per-coordinate columns, and
the scan stops at the first bound below the running maximum, so it
returns the full scan's maximum (repr-equal on every fixture value).  On
one core of a 2-core x86 machine, three-state scans at resolution 1e-3
with s > 0 evaluate a median 0.5% (WP) to 12% (WL) of their directions
and take 1-72 ms each (the 72 fixture scans of acceptance 4 take about
0.5 s, against 7.5-12 s for the full scan); where no tile can be
skipped (tri_uniform WP at s = 0, every direction a Poincare optimiser)
each of the 1.97e7 directions is evaluated once, in about the full
scan's time (median 0.65 s against 0.63 s over 6 runs).  A scan of
more than 1e8 directions is refused up front with ConfigError: n = 4 at
resolution 1e-3 is 3.9e9 directions, so four-state forms run only at
coarse resolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dirichlet import FiniteDirichletForm, spectral_gap
from .errors import ConfigError, MathDomainError, SingularityError, SolverError, _real, _s_grid, _scalar
from .ratefn import RateFunction, Tabulated, _running_max_from_right

__all__ = [
    "KINDS",
    "SolverConfig",
    "EmpiricalRateFunction",
    "DominationReport",
    "optimal_value",
    "brute_force_oracle",
    "empirical_rate",
    "dominates",
    "certify_inequality",
]

_LOG_FLOOR = 1e-300
_E_TINY = 1e-14
# Rows x n of one ascent block: verify's 6 s x 31 starts on n = 41 fit in one.
_BLOCK_CELLS = 1 << 16
# Projected-gradient ascent: iterations per start, the relative gain that
# counts as a stall, the Armijo sufficient-increase factor, and the first
# and smallest step of the backtracking line search.
_MAX_ITERS = 500
_REL_TOL = 1e-10
_ARMIJO = 1e-4
_STEP_INIT = 1.0
_STEP_MIN = 1e-18
# Armijo candidates tested per round of the line search, 60 in all.
_HALVING_ROUNDS = (1, 2, 4, 8, 16, 29)
# Relative slack of certify_inequality's beta.
_INFLATION = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Seeded random restarts per evaluation, 24 by default; the ascent settings are module constants."""

    restarts: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("solver needs at least one restart")


def _rowdot(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row sums of A * w, without BLAS: a row's sum does not depend on its block."""
    return np.einsum("ij,j->i", A, w)


def _entropy_rows(F2: np.ndarray, m2: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Ent_mu of each row of F2 >= 0, given its mass m2 = mu(row)."""
    terms = F2 * np.log(np.maximum(F2, _LOG_FLOOR))
    return np.maximum(_rowdot(terms, mu) - m2 * np.log(np.maximum(m2, _LOG_FLOOR)), 0.0)


def _ent_log_term(F: np.ndarray, F2: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Gradient factor f*log(f^2/mu(f^2)) of the entropy of f^2, per row, given F2 = F*F.

    Exact zeros of f contribute a zero derivative (subgradient choice at
    the kink, validated against the brute-force oracle).
    """
    logs = np.log(np.maximum(F2, _LOG_FLOOR)) - np.log(np.maximum(m2, _LOG_FLOOR))[:, None]
    return np.where(F2 > _LOG_FLOOR, F * logs, 0.0)


# Terms: (F, F2 = F*F, m2 = mu(F2), energies E, LF = F L, mu) -> (row values,
# thunk of their gradients).
def _mass2(F, F2, m2, E, LF, mu):
    return m2, lambda: 2.0 * mu * F


def _mass1_sq(F, F2, m2, E, LF, mu):
    m1 = _rowdot(np.abs(F), mu)
    return m1 * m1, lambda: 2.0 * m1[:, None] * mu * np.sign(F)


def _ent(F, F2, m2, E, LF, mu):
    return _entropy_rows(F2, m2, mu), lambda: 2.0 * mu * _ent_log_term(F, F2, m2)


def _var(F, F2, m2, E, LF, mu):
    D = F - _rowdot(F, mu)[:, None]
    return _rowdot(D**2, mu), lambda: 2.0 * mu * D


def _energy(F, F2, m2, E, LF, mu):
    return E, lambda: 2.0 * LF


def _sup2(F, F2, m2, E, LF, mu):
    """|f|_inf^2; its gradient is 2 f at the first argmax of |f| and 0 elsewhere."""
    return np.max(np.abs(F), axis=1) ** 2, lambda: np.where(
        np.arange(F.shape[1]) == np.argmax(np.abs(F), axis=1)[:, None], 2.0 * F, 0.0
    )


@dataclass(frozen=True)
class _Inequality:
    """a(f) <= s*b(f) + beta*c(f); beta(s) is sup (a - s*b)/c, at least floor.

    The domain is f in [lo, 1]^n, or, with sphere, f >= lo = 0 scaled to
    mu(f^2) = 1.  A row is admissible where c > 0, or, where c is the
    energy, which vanishes on constants, where c > e_floor * b.
    """

    a: Callable
    b: Callable
    c: Callable
    floor: float
    sphere: bool
    lo: float = 0.0

    def terms(self, F: np.ndarray, E: np.ndarray, LF: Optional[np.ndarray], mu: np.ndarray) -> list:
        """[(a, grad a), (b, grad b), (c, grad c)] of each row of F; the gradients need LF."""
        F2 = F * F
        m2 = _rowdot(F2, mu)
        return [t(F, F2, m2, E, LF, mu) for t in (self.a, self.b, self.c)]

    def admissible(self, b: np.ndarray, c: np.ndarray, e_floor: float) -> np.ndarray:
        return c > e_floor * b if self.c is _energy else c > 0.0


def _energy_floor(form: FiniteDirichletForm) -> float:
    """The energy per unit of b below which a row counts as constant: _E_TINY times the largest weight."""
    return _E_TINY * max(float(np.max(form.edges[2], initial=0.0)), 1e-30)


_INEQUALITIES = {
    "SP": _Inequality(_mass2, _energy, _mass1_sq, floor=1.0, sphere=True),
    "SL": _Inequality(_ent, _energy, _mass2, floor=0.0, sphere=True),
    "WL": _Inequality(_ent, _sup2, _energy, floor=0.0, sphere=False),
    "WP": _Inequality(_var, _sup2, _energy, floor=0.0, sphere=False, lo=-1.0),
}
KINDS = tuple(_INEQUALITIES)
_KIND_ID = {k: i for i, k in enumerate(KINDS)}


def _inequality(kind) -> _Inequality:
    """The inequality of ``kind``; a kind not in KINDS raises ConfigError."""
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return _INEQUALITIES[kind]


class _Objective:
    """(a - s*b)/c of one kind on (m, n) blocks of rows.

    Each row carries its own trade-off s.  Every reduction runs row by
    row (einsum or elementwise, never a BLAS product), so a row's
    projection, value and gradient are bit for bit the same whichever
    rows share its block.
    """

    def __init__(self, kind: str, form: FiniteDirichletForm):
        self.ineq = _inequality(kind)
        self.kind = kind
        self.form = form
        self.mu = form.mu
        self.lap = form.laplacian
        self.e_floor = _energy_floor(form)

    def apply_lap(self, F: np.ndarray) -> np.ndarray:
        """F L, row by row; L is symmetric, so row i is L f_i."""
        return np.einsum("ij,jk->ik", F, self.lap)

    def project(self, F: np.ndarray) -> tuple:
        """Rows projected onto the domain, and the mask of admissible rows."""
        if self.ineq.sphere:
            P = np.maximum(F, 0.0)
            nrm = np.sqrt(_rowdot(P * P, self.mu))
            ok = nrm >= 1e-150
            return P / np.where(ok, nrm, 1.0)[:, None], ok
        P = np.clip(F, self.ineq.lo, 1.0)
        return P, np.max(np.abs(P), axis=1) >= 1e-12

    def _terms(self, F: np.ndarray, LF: np.ndarray) -> list:
        return self.ineq.terms(F, np.maximum(np.einsum("ij,ij->i", F, LF), 0.0), LF, self.mu)

    def evaluate(self, F: np.ndarray, LF: np.ndarray, s: np.ndarray) -> np.ndarray:
        """(a - s*b)/c of each row of F at its s, given LF = apply_lap(F); -inf where inadmissible."""
        (a, _), (b, _), (c, _) = self._terms(F, LF)
        return np.where(self.ineq.admissible(b, c, self.e_floor), (a - s * b) / c, -math.inf)

    def grad(self, F: np.ndarray, LF: np.ndarray, s: np.ndarray) -> np.ndarray:
        """((grad a - s grad b) c - (a - s*b) grad c) / c^2 at each row of F at its s."""
        (a, ga), (b, gb), (c, gc) = self._terms(F, LF)
        g = ga() - s[:, None] * gb()
        c = c[:, None]
        return (g * c - (a - s * b)[:, None] * gc()) / np.maximum(c * c, 1e-300)

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        if self.ineq.sphere:
            return np.abs(rng.standard_normal(self.form.n))
        return rng.uniform(self.ineq.lo, 1.0, self.form.n)

    def structured_starts(self) -> list:
        n = self.form.n
        starts = []
        if n <= 12:
            basis = range(n)
        else:
            basis = sorted({0, n - 1, n // 2, int(np.argmin(self.mu)), int(np.argmax(self.mu))})
        for i in basis:
            e = np.zeros(n)
            e[i] = 1.0
            starts.append(e)
        for q in (0.25, 0.5, 0.75):
            cut = max(1, min(n - 1, int(round(q * n))))
            ind = np.zeros(n)
            ind[cut:] = 1.0
            starts.append(ind)
        if n >= 2:
            try:
                cert = spectral_gap(self.form).certificate
                starts.append(cert.copy() if self.ineq.lo < 0 else np.abs(cert))
            except SingularityError:
                pass
        return starts


def _ascend_block(obj: _Objective, F0: np.ndarray, s: np.ndarray) -> tuple:
    """Projected-gradient ascent of every row of the (m, n) block F0 at once.

    Row i ascends the objective at trade-off s[i] and follows the rules
    of a lone ascent: its own step, Armijo backtracking of at most 60
    halvings down to _STEP_MIN, stall counter and _MAX_ITERS.  A row
    leaves the active set when it stops.  LF = F L is computed once per
    accepted iterate; the line search uses it for the candidate's value
    and the next iteration for its gradient.

    The line search runs in the rounds of _HALVING_ROUNDS.  In a round,
    every row still searching stacks its candidates alpha * 2^-j (those
    not below _STEP_MIN) into one projection and evaluation, in stacks
    of at most max(m, _BLOCK_CELLS // n) rows, and takes the first j
    that passes Armijo; a row with no pass goes on to the next round.
    The candidates are exactly those of repeated halving and rows never
    interact, so every row gets the bits of one halving per round.

    Returns (values, F, iterations, admissible) per row; a start that
    projects to nothing or has no finite value is inadmissible, with
    value -inf and 0 iterations.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        F, ok = obj.project(np.asarray(F0, dtype=float))
        LF = obj.apply_lap(F)
        val = obj.evaluate(F, LF, s)
        ok &= np.isfinite(val)
        val[~ok] = -math.inf
        m = F.shape[0]
        # Candidate rows per stack of the line search: one block's worth, or m.
        cap = max(m, _BLOCK_CELLS // F.shape[1])
        step = np.full(m, _STEP_INIT)
        stall = np.zeros(m, dtype=int)
        iters = np.zeros(m, dtype=int)
        act = np.flatnonzero(ok)
        while act.size:
            iters[act] += 1
            G = obj.grad(F[act], LF[act], s[act])
            g2 = np.einsum("ij,ij->i", G, G)
            live = np.isfinite(g2) & (g2 >= 1e-300)
            act, G, g2 = act[live], G[live], g2[live]
            base, base_val, base_s = F[act], val[act], s[act]
            alpha = step[act]
            new_val = np.empty(act.size)
            accepted = np.zeros(act.size, dtype=bool)
            search = np.arange(act.size)
            first = 0
            for width in _HALVING_ROUNDS:
                per = max(1, cap // width)
                for lo in range(0, search.size, per):
                    chunk = search[lo : lo + per]
                    # Candidate j of a row is alpha * 2^-j: exactly what j halvings give.
                    a = np.ldexp(alpha[chunk, None], -np.arange(first, first + width))
                    i, j = np.nonzero(a >= _STEP_MIN)
                    rows, a = chunk[i], a[i, j]
                    P, pok = obj.project(base[rows] + a[:, None] * G[rows])
                    LP = obj.apply_lap(P)
                    pval = obj.evaluate(P, LP, base_s[rows])
                    good = np.flatnonzero(pok & (pval > base_val[rows] + _ARMIJO * a * g2[rows]))
                    # Stacks run row by row in increasing j: a row's first pass is its first entry.
                    hit, k = np.unique(rows[good], return_index=True)
                    k = good[k]
                    F[act[hit]], LF[act[hit]] = P[k], LP[k]
                    new_val[hit], alpha[hit] = pval[k], a[k]
                    accepted[hit] = True
                first += width
                search = search[~accepted[search] & (np.ldexp(alpha[search], -first) >= _STEP_MIN)]
                if not search.size:
                    break
            act, alpha, new_val = act[accepted], alpha[accepted], new_val[accepted]
            gain = new_val - val[act]
            val[act] = new_val
            step[act] = np.minimum(alpha * 2.0, 1e6)
            stall[act] = np.where(gain <= _REL_TOL * (1.0 + np.abs(new_val)), stall[act] + 1, 0)
            act = act[(stall[act] < 3) & (iters[act] < _MAX_ITERS)]
    return val, F, iters, ok


def _seed_tuple(seed: int, kind: str, s: float, restart: int) -> tuple:
    s_bits = int(np.float64(s).view(np.int64)) & 0xFFFFFFFFFFFFFFFF
    return (int(seed) & 0xFFFFFFFF, _KIND_ID[kind], s_bits, int(restart))


def _start_block(
    obj: _Objective, structured: np.ndarray, s: np.ndarray, start: np.ndarray, cfg: SolverConfig
) -> np.ndarray:
    """Start rows: row i is start start[i] of trade-off s[i].

    Each s has the structured starts (rows of ``structured``), then
    cfg.restarts random starts, restart r seeded by (cfg.seed, kind, s, r).
    """
    k = structured.shape[0]
    F0 = structured[np.minimum(start, k - 1)]
    for i in np.flatnonzero(start >= k):
        rng = np.random.default_rng(_seed_tuple(cfg.seed, obj.kind, s[i], start[i] - k))
        F0[i] = obj.random_start(rng)
    return F0


def _solve_grid(form: FiniteDirichletForm, kind: str, s: np.ndarray, cfg: SolverConfig) -> tuple:
    """Solver suprema of one kind at every trade-off of the array s.

    Every s has its structured starts, built once for the kind, and its
    cfg.restarts seeded random starts.  These (s, start) rows, s by s in
    the order of the array, ascend in blocks of at most _BLOCK_CELLS
    cells (rows x n); a block may split one s's rows.  Rows never
    interact, so each s gets the bits it gets when solved alone.

    Returns (values, best vectors, iterations) per s: the first row in
    row order with the largest admissible value, clamped below by the
    trivial bound of the kind (1 for SP, 0 otherwise), and the
    iterations of all its rows.  An s with no admissible row takes the
    floor and a zero vector where that is the supremum (n = 1, WL, WP).
    """
    obj = _Objective(kind, form)
    structured = np.array(obj.structured_starts())
    per_s = structured.shape[0] + cfg.restarts
    total = s.size * per_s
    best = np.full(s.size, -math.inf)
    best_f = np.zeros((s.size, form.n))
    iters = np.zeros(s.size, dtype=int)
    rows = max(1, _BLOCK_CELLS // form.n)
    for lo in range(0, total, rows):
        hi = min(lo + rows, total)
        si, start = np.divmod(np.arange(lo, hi), per_s)
        F0 = _start_block(obj, structured, s[si], start, cfg)
        vals, F, it, _ = _ascend_block(obj, F0, s[si])
        for j in range(si[0], si[-1] + 1):
            # The rows of s[j] in this block are rows a..b-1.
            a, b = max(j * per_s, lo) - lo, min((j + 1) * per_s, hi) - lo
            iters[j] += it[a:b].sum()
            r = a + int(np.argmax(vals[a:b]))
            # Strictly larger only: an equal value in a later block is not the first best.
            if vals[r] > best[j]:
                best[j], best_f[j] = vals[r], F[r]
    # Admissible rows have finite values, so best stays -inf only where no row is admissible.
    if np.isneginf(best).any() and form.n > 1 and obj.ineq.sphere:
        raise SolverError(f"no restart produced an admissible value for kind {kind}")
    return np.maximum(best, obj.ineq.floor), best_f, iters


def optimal_value(
    form: FiniteDirichletForm,
    kind: str,
    s: float,
    cfg: Optional[SolverConfig] = None,
    return_vector: bool = False,
):
    """Solver supremum for one (kind, s); deterministic given the seed.

    The one-point case of the grid solve: the structured starts plus
    cfg.restarts seeded random restarts ascend as one block, and the
    first best admissible value is kept, clamped below by the trivial
    bound of the kind (1 for SP, 0 otherwise).
    """
    cfg = cfg or SolverConfig()
    s = _scalar(s, "trade-off s")
    values, best_f, iters = _solve_grid(form, kind, np.array([s]), cfg)
    if return_vector:
        return float(values[0]), best_f[0], int(iters[0])
    return float(values[0])


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


# Directions per oracle block: n columns of 128 KiB, inside a core's L2.
_ORACLE_BLOCK = 1 << 14
_ORACLE_MAX_DIRECTIONS = 10**8


def _direction_axes(n: int, resolution: float, signed: bool) -> list:
    """(span, points) of each of the n - 1 angular axes of the oracle grid."""
    if n == 1:
        return []
    spans = [math.pi / 2] * (n - 1) if not signed else [math.pi] * (n - 2) + [2 * math.pi]
    return [(span, int(round(span / resolution)) + 1) for span in spans]


class _AngleTiles:
    """The oracle's angle grid, cut into tiles.

    Axis i has the angles linspace(0, span_i, size_i) of _direction_axes,
    and direction (j_1, ..., j_{n-1}) has coordinates f_i = sin(phi_1)...
    sin(phi_{i-1}) cos(phi_i), f_n = sin(phi_1)...sin(phi_{n-1}).
    Nonnegative directions sweep [0, pi/2] per angle; signed directions
    sweep the whole sphere, [0, pi] per angle and [0, 2*pi] for the last
    (objectives are even in f, so half of it would do, but the last
    axis's grid is not closed under a shift of pi, so values would move).
    A tile is a range of `side` consecutive indices on every axis (fewer
    at an axis's end), with side^(n-1) <= _ORACLE_BLOCK // 16; tiles are
    numbered in C order of their first indices.
    """

    def __init__(self, n: int, resolution: float, signed: bool):
        axes = [np.linspace(0.0, span, size) for span, size in _direction_axes(n, resolution, signed)]
        self.cos = [np.cos(a) for a in axes]
        self.sin = [np.sin(a) for a in axes]
        cap = max(1, _ORACLE_BLOCK // 16)
        side = max(1, round(cap ** (1.0 / (n - 1))))
        if side ** (n - 1) > cap:  # rounded up past the root
            side -= 1
        self.side = side
        self.shape = tuple(-(-a.size // side) for a in axes)
        self.count = math.prod(self.shape)
        # Tiles per evaluation block: at most _ORACLE_BLOCK directions.
        self.per_block = max(1, _ORACLE_BLOCK // side ** len(axes))

    def enclosures(self, tiles: np.ndarray) -> tuple:
        """(lo, hi), each (n, len(tiles)): the table products a tile's directions take lie in [lo, hi].

        An axis's cos and sin ranges over a tile are the min and max of its
        table entries there, critical points included; the coordinate
        ranges are their interval products, taken in the order the scan
        takes its products.  These enclose exact products of table
        entries: the rounding of the scan's products is left to the
        caller's slack.
        """
        first = np.unravel_index(np.asarray(tiles), self.shape)

        def table_range(table, i):
            starts = np.arange(0, table.size, self.side)
            return np.minimum.reduceat(table, starts)[first[i]], np.maximum.reduceat(table, starts)[first[i]]

        lo, hi = [], []
        sin_prod = (1.0, 1.0)
        for i in range(len(self.cos)):
            coord = _interval_product(sin_prod, table_range(self.cos[i], i))
            lo.append(coord[0])
            hi.append(coord[1])
            sin_prod = _interval_product(sin_prod, table_range(self.sin[i], i))
        lo.append(sin_prod[0])
        hi.append(sin_prod[1])
        return np.stack(lo), np.stack(hi)

    def directions(self, tiles: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Every direction of the given tiles, as n columns, tile by tile in C order.

        Coordinates are gathered from the cos/sin tables and multiplied in
        the order f_i = (...(1 * sin_1) * ... * sin_{i-1}) * cos_i, each
        product formed once per index prefix and broadcast, so every
        direction has the same bits whichever tiles it is gathered with.
        The block is a C-ordered view into out, a flat buffer of at least
        2 * n * len(tiles) * side^(n-1) floats (allocated when None).
        """
        d = len(self.cos)
        n = d + 1
        g, side = len(tiles), self.side
        size = g * side**d
        if out is None:
            out = np.empty(2 * n * size)
        first = np.unravel_index(np.asarray(tiles), self.shape)
        F = out[: n * size].reshape((n, g) + (side,) * d)
        keep = None
        sin_prod = np.ones((g,) + (1,) * d)
        for i in range(d):
            view = [g] + [1] * d
            view[i + 1] = side
            idx = (first[i][:, None] * side + np.arange(side)).reshape(view)
            if idx.max() >= self.cos[i].size:
                inside = idx < self.cos[i].size
                keep = inside if keep is None else keep & inside
                idx = np.minimum(idx, self.cos[i].size - 1)
            if i < d - 1:
                F[i] = sin_prod * self.cos[i][idx]
                sin_prod = sin_prod * self.sin[i][idx]
            else:
                np.multiply(sin_prod, self.cos[i][idx], out=F[i])
                np.multiply(sin_prod, self.sin[i][idx], out=F[n - 1])
        F = F.reshape(n, size)
        if keep is None:
            return F
        kept = np.broadcast_to(keep, (g,) + (side,) * d).ravel()
        m = int(np.count_nonzero(kept))
        # Compacted into a C-ordered block: mu @ F takes another BLAS kernel,
        # with other roundings, on a Fortran-ordered one (as F[:, mask] gives).
        return np.compress(kept, F, axis=1, out=out[n * size : n * (size + m)].reshape(n, m))


def _interval_product(x: tuple, y: tuple) -> tuple:
    """[min, max] of the four corner products of intervals x and y (any signs)."""
    corners = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return np.minimum.reduce(corners), np.maximum.reduce(corners)


def _oracle_values(
    kind: str, F: np.ndarray, s: float, mu: np.ndarray, edges: list, e_floor: float, work: Optional[np.ndarray] = None
) -> np.ndarray:
    """The kind's value of each column of F (n, m); -inf where WL/WP's energy vanishes.

    SP (m2 - s*E)/mu(|f|)^2, SL max(Ent, 0)/m2 - s*E/m2, WL and WP
    (top - s*sup2)/E, evaluated in place: the same float operations in
    the same order as those expressions.  The temporaries and the result
    are views into work, a flat buffer of at least (2n + 5) m floats
    (allocated when None), so a scan that passes one buffer allocates
    nothing per block.
    """
    n, m = F.shape
    if work is None:
        work = np.empty((2 * n + 5) * m)
    F2, terms = work[: n * m].reshape(n, m), work[n * m : 2 * n * m].reshape(n, m)
    E, d, m2, top, tmp = work[2 * n * m : (2 * n + 5) * m].reshape(5, m)
    E[:] = 0.0
    for i, j, w in edges:
        np.subtract(F[i], F[j], out=d)
        d *= d
        d *= w
        E += d
    np.multiply(F, F, out=F2)
    np.matmul(mu, F2, out=m2)
    if kind == "SP":
        np.matmul(mu, np.abs(F, out=terms), out=top)
        top *= top
        E *= s
        m2 -= E
        m2 /= np.maximum(top, 1e-300, out=top)
        return m2
    if kind == "WP":
        np.matmul(mu, F, out=top)
        top *= top
        np.subtract(m2, top, out=top)
    else:
        np.maximum(F2, _LOG_FLOOR, out=terms)
        np.log(terms, out=terms)
        terms *= F2
        np.matmul(mu, terms, out=top)
        np.maximum(m2, _LOG_FLOOR, out=tmp)
        np.log(tmp, out=tmp)
        tmp *= m2
        top -= tmp
        np.maximum(top, 0.0, out=top)
        if kind == "SL":
            np.maximum(m2, 1e-300, out=m2)
            top /= m2
            E *= s
            E /= m2
            top -= E
            return top
    # max |f|^2 = max f^2; WL directions are >= 0, so also (max f)^2.
    sup2 = np.max(F2, axis=0, out=d)
    ok = E > np.multiply(e_floor, sup2, out=tmp)
    sup2 *= s
    top -= sup2
    top /= np.maximum(E, 1e-300, out=E)
    top[~ok] = -np.inf
    return top


def _xlogx(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    return x * np.log(np.maximum(x, _LOG_FLOOR))


def _tile_bounds(
    kind: str, form: FiniteDirichletForm, s: float, lo: np.ndarray, hi: np.ndarray, gap: Optional[float]
) -> np.ndarray:
    """Per tile, an upper bound of every value _oracle_values computes on its directions.

    lo, hi (n, tiles) enclose the tiles' coordinates as exact table
    products.  Interval arithmetic encloses the kind's terms a, b, c
    (value (a - s*b)/c): m2 = mu(f^2), m = mu(f), mu(|f|), E as the edge
    sum of squared difference intervals, sup2 = max f^2, and Ent from the
    convex x log x (largest at an end of an interval, smallest at 1/e if
    inside).  Every enclosure is widened by an absolute slack far above
    the rounding of the float evaluation (coordinates, moments and x log x
    are O(1) on the unit sphere; E's slack scales with the weights), so
    the bound holds for the computed values, not only the exact ones.
    The numerator's upper bound is divided by c's lower bound where it is
    >= 0 and by c's upper bound where it is negative; a c whose lower
    bound is <= 0 leaves the tile unbounded (inf).

    Given the spectral gap (WP only; None where the oracle cannot trust
    it), Var(f) <= E(f)/gap also bounds the value by 1/lam -
    s*sup2_lo/E_hi, with lam the gap scaled down by 1e-9 relative.  Near the
    constant direction, where E is tiny, the rounding of Var (an O(1)
    cancellation) divided by E can lift a computed Var/E above 1/gap, so
    this cut is taken only on tiles whose E_lo keeps that lift under a
    quarter of the margin.
    """
    pad = 1e-13
    lo, hi = lo - pad, hi + pad
    mu = form.mu
    straddle = (lo < 0.0) & (hi > 0.0)
    sq_lo = np.where(straddle, 0.0, np.minimum(lo * lo, hi * hi)) - pad
    sq_hi = np.maximum(lo * lo, hi * hi) + pad
    m2_lo, m2_hi = mu @ sq_lo - pad, mu @ sq_hi + pad
    i_idx, j_idx, w = form.edges
    d_lo, d_hi = lo[i_idx] - hi[j_idx], hi[i_idx] - lo[j_idx]
    d_abs_hi = np.maximum(-d_lo, d_hi)
    d_abs_lo = np.maximum(np.maximum(d_lo, -d_hi), 0.0)
    e_pad = pad * (1.0 + float(w.sum()))
    E_lo, E_hi = w @ (d_abs_lo * d_abs_lo) - e_pad, w @ (d_abs_hi * d_abs_hi) + e_pad
    sup2_lo, sup2_hi = sq_lo.max(axis=0), sq_hi.max(axis=0)

    def ent_hi():
        m2_min = np.where(
            (m2_lo <= 1 / math.e) & (m2_hi >= 1 / math.e), -1 / math.e, np.minimum(_xlogx(m2_lo), _xlogx(m2_hi))
        )
        top = mu @ np.maximum(_xlogx(sq_lo), _xlogx(sq_hi)) - m2_min + 2 * pad
        return np.maximum(top, 0.0)

    if kind == "SP":
        abs_lo = np.where(straddle, 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        m1_lo = np.maximum(mu @ abs_lo - pad, 0.0)
        m1_hi = mu @ np.maximum(np.abs(lo), np.abs(hi)) + pad
        a_hi, b_lo, b_hi, c_lo, c_hi = m2_hi, E_lo, E_hi, m1_lo * m1_lo - pad, m1_hi * m1_hi + pad
    elif kind == "SL":
        a_hi, b_lo, b_hi, c_lo, c_hi = ent_hi(), E_lo, E_hi, m2_lo, m2_hi
    elif kind == "WL":
        a_hi, b_lo, b_hi, c_lo, c_hi = ent_hi(), sup2_lo, sup2_hi, E_lo, E_hi
    else:
        m_lo, m_hi = mu @ lo - pad, mu @ hi + pad
        msq_lo = np.where((m_lo < 0.0) & (m_hi > 0.0), 0.0, np.minimum(m_lo * m_lo, m_hi * m_hi))
        a_hi, b_lo, b_hi, c_lo, c_hi = m2_hi - msq_lo + pad, sup2_lo, sup2_hi, E_lo, E_hi
    top = a_hi - s * b_lo + pad * (1.0 + np.abs(a_hi) + s * np.abs(b_hi))
    bounded = c_lo > 0.0
    c = np.where(bounded, np.where(top >= 0.0, c_lo, c_hi), 1.0)
    bound = top / c
    # The evaluation's own rounding (two quotients for SL) is relative to |a| + s|b| over c.
    spread = (np.abs(a_hi) + s * np.abs(b_hi)) / np.where(bounded, c_lo, 1.0)
    bound = np.where(bounded, bound + pad * (1.0 + np.abs(bound) + spread), math.inf)
    if gap is not None:
        cut = E_lo * 1e-9 >= 4.0 * pad * (1.0 + s) * gap
        poincare = 1.0 / (gap * (1.0 - 1e-9)) - s * sup2_lo / np.where(cut, E_hi, 1.0)
        bound = np.where(cut, np.minimum(bound, poincare + pad * (1.0 + np.abs(poincare))), bound)
    return bound


def brute_force_oracle(
    form: FiniteDirichletForm, kind: str, s: float, resolution: float = 1e-3
) -> float:
    """Exhaustive angular scan of the normalised test-function set.

    Deterministic anti-hallucination oracle for forms with n <= 4; all
    four objectives are scale-invariant, so scanning directions suffices.
    The result is the largest value over the prod(round(span/resolution)
    + 1) directions of n - 1 angular axes (span pi/2 for SP, SL and WL;
    pi, ..., pi, 2*pi for the signed WP scan), clamped below by the
    kind's floor.  The energy is the edge sum sum_{i<j} w_ij (f_i -
    f_j)^2, the mu-moments are products mu @ F and the maxima are taken
    elementwise across the columns.

    The grid is cut into tiles of at most _ORACLE_BLOCK / 16 directions
    (_AngleTiles), and one vectorised pass bounds every tile's values
    from above (_tile_bounds).  Tiles are evaluated in order of
    decreasing bound, in blocks of at most _ORACLE_BLOCK = 2^14
    directions held as n columns in buffers kept for the whole scan,
    starting from the floor, and the scan stops at the first bound below
    the running maximum: the skipped tiles cannot reach it, so the value
    is the maximum of the same per-direction values over the same grid.
    Where nothing can be skipped (every direction of tri_uniform WP at
    s = 0 is a Poincare optimiser) each direction is evaluated once.

    A scan of more than 1e8 directions is refused with ConfigError before
    anything is allocated: n = 3 at 1e-3 is 2.5e6 directions (1.97e7 for
    WP), n = 4 at 1e-3 is 3.9e9 (6.2e10 for WP), so four-state forms run
    only at coarse resolution (n = 4 WP at 1e-2 is 6.2e7).  An s that is
    not a real, finite number >= 0 (a bool included) raises
    MathDomainError; s = 0 is the WP case.
    """
    s = _scalar(s, "oracle trade-off s", allow_zero=True)
    if form.n > 4:
        raise ConfigError("brute-force oracle supports at most 4 states")
    if not (0 < resolution <= 1e-2):
        raise ConfigError("oracle resolution must be in (0, 1e-2]")
    best = _inequality(kind).floor
    signed = kind == "WP"
    count = math.prod(size for _, size in _direction_axes(form.n, resolution, signed))
    if count > _ORACLE_MAX_DIRECTIONS:
        raise ConfigError(
            f"oracle scan of {count} directions exceeds the limit of {_ORACLE_MAX_DIRECTIONS}; "
            "use a coarser resolution"
        )
    edges = list(zip(*form.edges))
    e_floor = _energy_floor(form)
    if form.n == 1:
        return max(best, float(_oracle_values(kind, np.ones((1, 1)), s, form.mu, edges, e_floor).max()))
    gap = None
    if signed:
        try:
            gap = spectral_gap(form).gap
        except SingularityError:
            pass
        # eigh's error is about 1e-15 of the generator's norm, here bounded
        # by Gershgorin: the cut's 1e-9 margin covers it for gaps over 1e-6 of that.
        if gap is not None and gap < 1e-6 * 2.0 * float(np.max(np.diag(form.laplacian))) / float(np.min(form.mu)):
            gap = None
    tiles = _AngleTiles(form.n, resolution, signed)
    # Bounded in slabs of _ORACLE_BLOCK // 4 tiles: the bound's temporaries,
    # some twenty arrays of n x slab floats, stay within an evaluation block's.
    slab = max(1, _ORACLE_BLOCK // 4)
    bounds = np.concatenate([
        _tile_bounds(kind, form, s, *tiles.enclosures(np.arange(a, min(a + slab, tiles.count))), gap)
        for a in range(0, tiles.count, slab)
    ])
    order = np.argsort(-bounds, kind="stable")
    # One pair of buffers serves every block: fresh arrays per block made
    # malloc return their pages to the system and fault them in again.
    most = tiles.per_block * tiles.side ** (form.n - 1)
    dirs, work = np.empty(2 * form.n * most), np.empty((2 * form.n + 5) * most)
    for k in range(0, order.size, tiles.per_block):
        block = order[k : k + tiles.per_block]
        block = block[bounds[block] >= best]
        if not block.size:
            break
        vals = _oracle_values(kind, tiles.directions(block, dirs), s, form.mu, edges, e_floor, work)
        best = max(best, float(vals.max()))
    return best


# ---------------------------------------------------------------------------
# Empirical rate functions, domination, certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalRateFunction:
    """Solver-computed rate values on an s-grid, monotone envelope applied."""

    kind: str
    s_grid: tuple
    values: tuple
    restarts: int
    seed: int
    stats: dict = field(default_factory=dict)

    def to_tabulated(self) -> Tabulated:
        """Convert to a RateFunction; requires strictly positive values."""
        return Tabulated(points=tuple(zip(self.s_grid, self.values)))

    def sidecar_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "restarts": self.restarts,
            "envelope_applied": True,
            "solver_stats": self.stats,
        }


def empirical_rate(
    form: FiniteDirichletForm,
    kind: str,
    s_grid: Sequence[float],
    cfg: Optional[SolverConfig] = None,
) -> EmpiricalRateFunction:
    """Per-point optimal values on an ascending s-grid, then envelope.

    Every start of the kind at every grid point ascends in one grid
    solve, in blocks of bounded size.  Rows carry their own s and
    per-(s, restart) seeds and never interact, so each point gets the
    value ``optimal_value`` gives it alone, whatever the rest of the grid.
    """
    cfg = cfg or SolverConfig()
    s = _s_grid(s_grid)
    raw, _, iters = _solve_grid(form, kind, s, cfg)
    env = _running_max_from_right(raw)
    return EmpiricalRateFunction(
        kind=kind,
        s_grid=tuple(float(x) for x in s),
        values=tuple(float(v) for v in env),
        restarts=cfg.restarts,
        seed=cfg.seed,
        stats={"iterations_total": int(iters.sum()), "raw_values": [float(v) for v in raw]},
    )


@dataclass(frozen=True)
class DominationReport:
    """Max-ratio fit of an empirical rate against a reference."""

    fitted_constant: float
    passed: bool
    worst_s: float

    def to_json_dict(self) -> dict:
        return {
            "fitted_constant": self.fitted_constant,
            "passed": self.passed,
            "worst_s": self.worst_s,
        }


def dominates(empirical: EmpiricalRateFunction, reference: RateFunction) -> DominationReport:
    """Smallest constant c with empirical <= c * reference on the grid."""
    s = np.asarray(empirical.s_grid)
    ref = reference.eval_many(s)
    if np.any(ref <= 0.0) or not np.all(np.isfinite(ref)):
        raise MathDomainError("domination reference must be positive and finite on the grid")
    ratios = np.asarray(empirical.values) / ref
    i = int(np.argmax(ratios))
    fitted = float(ratios[i])
    return DominationReport(
        fitted_constant=fitted,
        passed=bool(math.isfinite(fitted)),
        worst_s=float(s[i]),
    )


def certify_inequality(
    form: FiniteDirichletForm,
    kind: str,
    s: float,
    beta: float,
    n_samples: int = 1000,
    seed: int = 0,
) -> tuple:
    """Check the inequality for beta, inflated by a relative _INFLATION, on random test functions.

    Returns (passed, worst_margin), each margin (s*b + beta*c - a) /
    max(1, |a|); a certified beta has all margins finite and >= -1e-12.
    This converts the solver's lower-bound-biased output into a checked
    admissible constant.  An s or a beta that is not a finite real (s
    >= 0; a bool is no real) raises MathDomainError, and an n_samples
    that is not an integer >= 1 raises ConfigError.
    """
    ineq = _inequality(kind)
    s = _scalar(s, "certification trade-off s", allow_zero=True)
    beta = _real(beta, "beta")
    if not math.isfinite(beta):
        raise MathDomainError(f"cannot certify a non-finite beta {beta!r}")
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ConfigError(f"certification needs an integer count of at least one sample, got {n_samples!r}")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFF, _KIND_ID[kind], n_samples))
    # One (n_samples, n) draw is the same stream as n_samples draws of n.
    F = rng.standard_normal((n_samples, form.n))
    (a, _), (b, _), (c, _) = ineq.terms(F, form.energy_many(F), None, form.mu)
    margins = (s * b + beta * (1.0 + _INFLATION) * c - a) / np.maximum(1.0, np.abs(a))
    worst = float(np.min(margins))
    return bool(np.all(np.isfinite(margins)) and worst >= -1e-12), worst
