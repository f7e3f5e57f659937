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
the value and the next gradient.  Every row reduction is an einsum or
elementwise form, never a BLAS product, so a row's path is bit for bit
the same alone or in a block, and a grid point's value does not depend
on the rest of the grid.  The structured starts, spectral certificate
included, are built once per kind; the flattened (s, start) rows run in
blocks of at most _BLOCK_CELLS cells, so memory stays bounded for any
grid.
Results are cross-checked against an exhaustive angular brute-force
oracle on forms with up to 4 states.
The oracle scans prod(round(span/resolution) + 1) directions over n - 1
angular axes in blocks of at most 2^14 directions, each held as n
per-coordinate columns, so its memory is bounded by one block, and a
block's columns (128 KiB each) and temporaries stay in a core's L2
cache.  It evaluates about 4.5e7 directions/s on one core of a 2-core
x86 machine (a 3-state WP scan at 1e-3, 1.97e7 directions, takes
0.43-0.49 s; 0.77-0.81 s in blocks of 50 000) and refuses a scan of
more than 1e8 directions up front with ConfigError:
n = 4 at resolution 1e-3 is 3.9e9 directions, so four-state forms run
only at coarse resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .dirichlet import FiniteDirichletForm, spectral_gap
from .errors import ConfigError, MathDomainError, SingularityError, SolverError
from .ratefn import RateFunction, Tabulated, _running_max_from_right

__all__ = [
    "KINDS",
    "SolverConfig",
    "EmpiricalRateFunction",
    "DominationReport",
    "optimal_sp",
    "optimal_sl",
    "optimal_wl",
    "optimal_wp",
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


@dataclass(frozen=True)
class SolverConfig:
    """Projected-gradient settings; >= 20 restarts per evaluation."""

    restarts: int = 24
    max_iters: int = 500
    rel_tol: float = 1e-10
    armijo: float = 1e-4
    step_init: float = 1.0
    step_min: float = 1e-18
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError("solver needs at least one restart")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        # NaN fails every comparison below, so each check also rejects it.
        if not (0.0 < self.step_init < math.inf):
            raise ConfigError(f"step_init must be positive and finite, got {self.step_init!r}")
        if not (0.0 < self.step_min <= self.step_init):
            raise ConfigError(f"step_min must be in (0, step_init], got {self.step_min!r}")
        if not (0.0 <= self.armijo < 1.0):
            raise ConfigError(f"armijo must be in [0, 1), got {self.armijo!r}")
        if not (0.0 <= self.rel_tol < math.inf):
            raise ConfigError(f"rel_tol must be nonnegative and finite, got {self.rel_tol!r}")


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


_INEQUALITIES = {
    "SP": _Inequality(_mass2, _energy, _mass1_sq, floor=1.0, sphere=True),
    "SL": _Inequality(_ent, _energy, _mass2, floor=0.0, sphere=True),
    "WL": _Inequality(_ent, _sup2, _energy, floor=0.0, sphere=False),
    "WP": _Inequality(_var, _sup2, _energy, floor=0.0, sphere=False, lo=-1.0),
}
KINDS = tuple(_INEQUALITIES)
_KIND_ID = {k: i for i, k in enumerate(KINDS)}
_FLOOR = {k: q.floor for k, q in _INEQUALITIES.items()}


class _Objective:
    """(a - s*b)/c of one kind on (m, n) blocks of rows.

    Each row carries its own trade-off s.  Every reduction runs row by
    row (einsum or elementwise, never a BLAS product), so a row's
    projection, value and gradient are bit for bit the same whichever
    rows share its block.
    """

    def __init__(self, kind: str, form: FiniteDirichletForm):
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.ineq = _INEQUALITIES[kind]
        self.form = form
        self.mu = form.mu
        self.lap = form.laplacian
        wmax = float(np.max(form.weights)) if form.n > 1 else 0.0
        self.e_floor = _E_TINY * max(wmax, 1e-30)

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


def _ascend_block(obj: _Objective, F0: np.ndarray, s: np.ndarray, cfg: SolverConfig) -> tuple:
    """Projected-gradient ascent of every row of the (m, n) block F0 at once.

    Row i ascends the objective at trade-off s[i] and follows the rules
    of a lone ascent: its own step, Armijo backtracking of at most 60
    halvings down to cfg.step_min, stall counter and max_iters.  A row
    leaves the active set when it stops.  LF = F L is computed once per
    accepted iterate; the line search uses it for the candidate's value
    and the next iteration for its gradient.

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
        step = np.full(m, float(cfg.step_init))
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
            for _ in range(60):
                if not search.size:
                    break
                a = alpha[search]
                P, pok = obj.project(base[search] + a[:, None] * G[search])
                LP = obj.apply_lap(P)
                pval = obj.evaluate(P, LP, base_s[search])
                good = pok & (pval > base_val[search] + cfg.armijo * a * g2[search])
                hit = search[good]
                F[act[hit]], LF[act[hit]] = P[good], LP[good]
                new_val[hit] = pval[good]
                accepted[hit] = True
                search = search[~good]
                alpha[search] *= 0.5
                search = search[alpha[search] >= cfg.step_min]
            act, alpha, new_val = act[accepted], alpha[accepted], new_val[accepted]
            gain = new_val - val[act]
            val[act] = new_val
            step[act] = np.minimum(alpha * 2.0, 1e6)
            stall[act] = np.where(gain <= cfg.rel_tol * (1.0 + np.abs(new_val)), stall[act] + 1, 0)
            act = act[(stall[act] < 3) & (iters[act] < cfg.max_iters)]
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
        vals, F, it, _ = _ascend_block(obj, F0, s[si], cfg)
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
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
        raise MathDomainError(f"trade-off s must be positive, got {s!r}")
    values, best_f, iters = _solve_grid(form, kind, np.array([float(s)]), cfg)
    if return_vector:
        return float(values[0]), best_f[0], int(iters[0])
    return float(values[0])


def optimal_sp(form, s, cfg: Optional[SolverConfig] = None) -> float:
    """Optimal super-Poincare constant at s (always >= 1)."""
    return optimal_value(form, "SP", s, cfg)


def optimal_sl(form, s, cfg: Optional[SolverConfig] = None) -> float:
    """Optimal super log-Sobolev constant at s (>= 0)."""
    return optimal_value(form, "SL", s, cfg)


def optimal_wl(form, s, cfg: Optional[SolverConfig] = None) -> float:
    """Optimal weak log-Sobolev constant at s (>= 0)."""
    return optimal_value(form, "WL", s, cfg)


def optimal_wp(form, s, cfg: Optional[SolverConfig] = None) -> float:
    """Optimal weak Poincare constant at s (>= 0)."""
    return optimal_value(form, "WP", s, cfg)


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


def _direction_blocks(n: int, resolution: float, signed: bool):
    """All directions at the given angular resolution, as (n, m) column blocks.

    Direction k has angles phi_i = axis_i[j_i] for the flat index k =
    ravel(j_1, ..., j_{n-1}) and coordinates f_i = sin(phi_1)...
    sin(phi_{i-1}) cos(phi_i), f_n = sin(phi_1)...sin(phi_{n-1}).
    Nonnegative directions sweep [0, pi/2] per angle; signed directions
    sweep the whole sphere, [0, pi] per angle and [0, 2*pi] for the last
    (objectives are even in f, so half of it would do, but the last
    axis's grid is not closed under a shift of pi, so values would move).
    Each block is a run of consecutive flat
    indices: a range of outer indices (all axes but the last) times a
    slice of the last axis, with at most _ORACLE_BLOCK directions.  The
    outer factors are gathered once per outer index from per-axis cos/sin
    tables and broadcast along the slice, so memory is bounded by one
    block whatever the grid size.
    """
    if n == 1:
        yield np.ones((1, 1))
        return
    axes = [np.linspace(0.0, span, size) for span, size in _direction_axes(n, resolution, signed)]
    cos = [np.cos(a) for a in axes]
    sin = [np.sin(a) for a in axes]
    outer = tuple(a.size for a in axes[:-1])
    last = axes[-1].size
    rows = max(1, _ORACLE_BLOCK // last)
    width = min(last, _ORACLE_BLOCK)
    n_outer = math.prod(outer)
    for o in range(0, n_outer, rows):
        # A leading axis of size 1 lets n = 2, with no outer axis, unravel too.
        idx = np.unravel_index(np.arange(o, min(o + rows, n_outer)), (1, *outer))[1:]
        sin_prod = np.ones(min(rows, n_outer - o))
        heads = []
        for i in range(n - 2):
            heads.append(sin_prod * cos[i][idx[i]])
            sin_prod = sin_prod * sin[i][idx[i]]
        for a in range(0, last, width):
            b = min(a + width, last)
            F = np.empty((n, sin_prod.size, b - a))
            for i, head in enumerate(heads):
                F[i] = head[:, None]
            np.multiply.outer(sin_prod, cos[-1][a:b], out=F[n - 2])
            np.multiply.outer(sin_prod, sin[-1][a:b], out=F[n - 1])
            yield F.reshape(n, -1)


def brute_force_oracle(
    form: FiniteDirichletForm, kind: str, s: float, resolution: float = 1e-3
) -> float:
    """Exhaustive angular scan of the normalised test-function set.

    Deterministic anti-hallucination oracle for forms with n <= 4; all
    four objectives are scale-invariant, so scanning directions suffices.
    The scan visits prod(round(span/resolution) + 1) directions over the
    n - 1 angular axes (span pi/2 for SP, SL and WL; pi, ..., pi, 2*pi for
    the signed WP scan) and holds one block of at most _ORACLE_BLOCK =
    2^14 directions in memory at a time, as n columns.  The energy is
    the edge sum sum_{i<j} w_ij (f_i - f_j)^2, the mu-moments are
    products mu @ F and the maxima are taken elementwise across the
    columns.  A scan of more than 1e8 directions is refused with
    ConfigError before anything is allocated: n = 3 at 1e-3 is 2.5e6
    directions (1.97e7 for WP), n = 4 at 1e-3 is 3.9e9 (6.2e10 for WP),
    so four-state forms run only at coarse resolution (n = 4 WP at 1e-2
    is 6.2e7).  An s that is not
    finite and >= 0 raises MathDomainError; s = 0 is the WP case.
    """
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s >= 0):
        raise MathDomainError(f"oracle trade-off s must be finite and >= 0, got {s!r}")
    if form.n > 4:
        raise ConfigError("brute-force oracle supports at most 4 states")
    if not (0 < resolution <= 1e-2):
        raise ConfigError("oracle resolution must be in (0, 1e-2]")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    signed = kind == "WP"
    count = math.prod(size for _, size in _direction_axes(form.n, resolution, signed))
    if count > _ORACLE_MAX_DIRECTIONS:
        raise ConfigError(
            f"oracle scan of {count} directions exceeds the limit of {_ORACLE_MAX_DIRECTIONS}; "
            "use a coarser resolution"
        )
    s = float(s)
    mu = form.mu
    i_idx, j_idx = np.nonzero(np.triu(form.weights, 1))
    edges = list(zip(i_idx, j_idx, form.weights[i_idx, j_idx]))
    best = -math.inf
    wmax = float(np.max(form.weights)) if form.n > 1 else 0.0
    e_floor = _E_TINY * max(wmax, 1e-30)
    for F in _direction_blocks(form.n, resolution, signed):
        E = np.zeros(F.shape[1])
        for i, j, w in edges:
            E += w * (F[i] - F[j]) ** 2
        F2 = F * F
        m2 = mu @ F2
        if kind == "SP":
            m1 = mu @ np.abs(F)
            vals = (m2 - s * E) / np.maximum(m1 * m1, 1e-300)
        elif kind == "SL":
            terms = F2 * np.log(np.maximum(F2, _LOG_FLOOR))
            ent = mu @ terms - m2 * np.log(np.maximum(m2, _LOG_FLOOR))
            vals = np.maximum(ent, 0.0) / np.maximum(m2, 1e-300)
            vals = vals - s * E / np.maximum(m2, 1e-300)
        else:
            # max |f|^2 = max f^2; WL directions are >= 0, so also (max f)^2.
            sup2 = np.max(F2, axis=0)
            if kind == "WL":
                terms = F2 * np.log(np.maximum(F2, _LOG_FLOOR))
                top = np.maximum(mu @ terms - m2 * np.log(np.maximum(m2, _LOG_FLOOR)), 0.0)
            else:
                m = mu @ F
                top = m2 - m * m
            ok = E > e_floor * sup2
            vals = np.where(ok, (top - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        best = max(best, float(vals.max()))
    return max(best, _FLOOR[kind])


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
    envelope_applied: bool
    stats: dict = field(default_factory=dict)

    def to_tabulated(self) -> Tabulated:
        """Convert to a RateFunction; requires strictly positive values."""
        return Tabulated(points=tuple(zip(self.s_grid, self.values)))

    def sidecar_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "restarts": self.restarts,
            "envelope_applied": self.envelope_applied,
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
    s = np.asarray(list(s_grid), dtype=float)
    if s.size < 1 or np.any(s <= 0) or np.any(np.diff(s) <= 0):
        raise ConfigError("s grid must be ascending and positive")
    bad = s[~np.isfinite(s)]
    if bad.size:
        raise MathDomainError(f"trade-off s must be positive, got {float(bad[0])!r}")

    raw, _, iters = _solve_grid(form, kind, s, cfg)
    env = _running_max_from_right(raw)
    return EmpiricalRateFunction(
        kind=kind,
        s_grid=tuple(float(x) for x in s),
        values=tuple(float(v) for v in env),
        restarts=cfg.restarts,
        seed=cfg.seed,
        envelope_applied=True,
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
    inflation: float = 1e-9,
) -> tuple:
    """Check the inequality for beta (inflated) on random test functions.

    Returns (passed, worst_margin), each margin (s*b + beta*c - a) /
    max(1, |a|); a certified beta has all margins finite and >= -1e-12.
    This converts the solver's lower-bound-biased output into a checked
    admissible constant.  A non-finite beta raises MathDomainError and
    n_samples < 1 raises ConfigError, since neither can be checked.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    if n_samples < 1:
        raise ConfigError(f"certification needs at least one sample, got {n_samples!r}")
    if not math.isfinite(beta):
        raise MathDomainError(f"cannot certify a non-finite beta {beta!r}")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFF, _KIND_ID[kind], n_samples))
    # One (n_samples, n) draw is the same stream as n_samples draws of n.
    F = rng.standard_normal((n_samples, form.n))
    (a, _), (b, _), (c, _) = _INEQUALITIES[kind].terms(F, form.energy_many(F), None, form.mu)
    margins = (s * b + beta * (1.0 + inflation) * c - a) / np.maximum(1.0, np.abs(a))
    worst = float(np.min(margins))
    return bool(np.all(np.isfinite(margins)) and worst >= -1e-12), worst
