"""Optimal rate-function values on a finite Dirichlet form.

For each inequality kind the optimal constant at trade-off s is a
supremum of a scale-invariant ratio over test functions:

    SP: (mu(f^2) - s*E(f)) / mu(|f|)^2   over f >= 0       (>= 1)
    SL: (Ent(f^2) - s*E(f)) / mu(f^2)    over f >= 0       (>= 0)
    WL: (Ent(f^2) - s*|f|_inf^2) / E(f)  over nonconstant f >= 0
    WP: (Var(f) - s*|f|_inf^2) / E(f)    over nonconstant f (signed)

SP, SL and WL restrict to f >= 0, which is lossless because replacing f
by |f| preserves every numerator term while not increasing the energy
(contraction property); the variance in WP is not monotone under |.| so
WP keeps signed f.  Suprema are computed by projected gradient ascent
with backtracking and seeded random restarts, and cross-checked against
an exhaustive angular brute-force oracle on forms with up to 4 states.
The oracle scans prod(round(span/resolution) + 1) directions over n - 1
angular axes in blocks of fixed size, so its memory is bounded by one
block; n = 4 at resolution 1e-3 is 3.9e9 directions, so four-state
forms are practical only at coarse resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dirichlet import FiniteDirichletForm, entropy, spectral_gap
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

KINDS = ("SP", "SL", "WL", "WP")
_KIND_ID = {k: i for i, k in enumerate(KINDS)}
_FLOOR = {"SP": 1.0, "SL": 0.0, "WL": 0.0, "WP": 0.0}
_LOG_FLOOR = 1e-300
_E_TINY = 1e-14


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


def _ent_log_term(f: np.ndarray, m2: float) -> np.ndarray:
    """Gradient factor 2*mu*f*log(f^2/mu(f^2)) of the entropy of f^2.

    Exact zeros of f contribute a zero derivative (subgradient choice at
    the kink, validated against the brute-force oracle).
    """
    f2 = f * f
    logs = np.log(np.maximum(f2, _LOG_FLOOR)) - math.log(max(m2, _LOG_FLOOR))
    return np.where(f2 > _LOG_FLOOR, f * logs, 0.0)


class _Objective:
    """Scale-invariant objective with projection and gradient per kind."""

    def __init__(self, kind: str, form: FiniteDirichletForm, s: float):
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.form = form
        self.s = float(s)
        self.mu = form.mu
        self.lap = form.laplacian
        wmax = float(np.max(form.weights)) if form.n > 1 else 0.0
        self.e_floor = _E_TINY * max(wmax, 1e-30)

    def project(self, f: np.ndarray) -> Optional[np.ndarray]:
        kind = self.kind
        if kind in ("SP", "SL"):
            f = np.maximum(f, 0.0)
            nrm = math.sqrt(float(self.mu @ (f * f)))
            if nrm < 1e-150:
                return None
            return f / nrm
        if kind == "WL":
            f = np.clip(f, 0.0, 1.0)
        else:
            f = np.clip(f, -1.0, 1.0)
        if float(np.max(np.abs(f))) < 1e-12:
            return None
        return f

    def value(self, f: np.ndarray) -> float:
        mu, s = self.mu, self.s
        if self.kind == "SP":
            m2 = float(mu @ (f * f))
            m1 = float(mu @ np.abs(f))
            if m1 <= 0.0:
                return -math.inf
            return (m2 - s * self.form.energy(f)) / (m1 * m1)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            if m2 <= 0.0:
                return -math.inf
            return (entropy(mu, f * f) - s * self.form.energy(f)) / m2
        e = self.form.energy(f)
        if e <= self.e_floor * float(np.max(np.abs(f))) ** 2:
            return -math.inf
        if self.kind == "WL":
            top = entropy(mu, f * f) - s * float(np.max(f)) ** 2
        else:
            m = float(mu @ f)
            var = float(mu @ ((f - m) ** 2))
            top = var - s * float(np.max(np.abs(f))) ** 2
        return top / e

    def gradient(self, f: np.ndarray) -> np.ndarray:
        mu, s = self.mu, self.s
        lf = self.lap @ f
        if self.kind == "SP":
            m1 = float(mu @ np.abs(f))
            num = float(mu @ (f * f)) - s * self.form.energy(f)
            den = m1 * m1
            gnum = 2.0 * mu * f - 2.0 * s * lf
            gden = 2.0 * m1 * mu * np.sign(f)
            return (gnum * den - num * gden) / max(den * den, 1e-300)
        if self.kind == "SL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * self.form.energy(f)
            gnum = 2.0 * mu * _ent_log_term(f, m2) - 2.0 * s * lf
            gden = 2.0 * mu * f
            return (gnum * m2 - num * gden) / max(m2 * m2, 1e-300)
        e = self.form.energy(f)
        ge = 2.0 * lf
        if self.kind == "WL":
            m2 = float(mu @ (f * f))
            num = entropy(mu, f * f) - s * float(np.max(f)) ** 2
            gnum = 2.0 * mu * _ent_log_term(f, m2)
            am = int(np.argmax(f))
            gnum[am] -= 2.0 * s * f[am]
        else:
            m = float(mu @ f)
            num = float(mu @ ((f - m) ** 2)) - s * float(np.max(np.abs(f))) ** 2
            gnum = 2.0 * mu * (f - m)
            am = int(np.argmax(np.abs(f)))
            gnum[am] -= 2.0 * s * f[am]
        return (gnum * e - num * ge) / max(e * e, 1e-300)

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        n = self.form.n
        if self.kind in ("SP", "SL"):
            return np.abs(rng.standard_normal(n))
        if self.kind == "WL":
            return rng.uniform(0.0, 1.0, n)
        return rng.uniform(-1.0, 1.0, n)

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
                starts.append(cert.copy() if self.kind == "WP" else np.abs(cert))
            except SingularityError:
                pass
        return starts


def _ascend(obj: _Objective, f0: np.ndarray, cfg: SolverConfig) -> Optional[tuple]:
    f = obj.project(np.asarray(f0, dtype=float))
    if f is None:
        return None
    val = obj.value(f)
    if not math.isfinite(val):
        return None
    step = cfg.step_init
    stall = 0
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        g = obj.gradient(f)
        gnorm2 = float(g @ g)
        if not math.isfinite(gnorm2) or gnorm2 < 1e-300:
            break
        alpha = step
        accepted = False
        for _ in range(60):
            cand = obj.project(f + alpha * g)
            if cand is not None:
                cval = obj.value(cand)
                if cval > val + cfg.armijo * alpha * gnorm2:
                    accepted = True
                    break
            alpha *= 0.5
            if alpha < cfg.step_min:
                break
        if not accepted:
            break
        gain = cval - val
        f, val = cand, cval
        step = min(alpha * 2.0, 1e6)
        if gain <= cfg.rel_tol * (1.0 + abs(val)):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    return val, f, iters


def _seed_tuple(seed: int, kind: str, s: float, restart: int) -> tuple:
    s_bits = int(np.float64(s).view(np.int64)) & 0xFFFFFFFFFFFFFFFF
    return (int(seed) & 0xFFFFFFFF, _KIND_ID[kind], s_bits, int(restart))


def optimal_value(
    form: FiniteDirichletForm,
    kind: str,
    s: float,
    cfg: Optional[SolverConfig] = None,
    return_vector: bool = False,
):
    """Solver supremum for one (kind, s); deterministic given the seed.

    Runs the structured starts plus cfg.restarts seeded random restarts
    and keeps the best admissible value, clamped below by the trivial
    bound of the kind (1 for SP, 0 otherwise).
    """
    cfg = cfg or SolverConfig()
    if not (isinstance(s, (int, float)) and math.isfinite(s) and s > 0):
        raise MathDomainError(f"trade-off s must be positive, got {s!r}")
    obj = _Objective(kind, form, s)
    best_val = -math.inf
    best_f = None
    iters_total = 0
    starts: list = obj.structured_starts()
    for r in range(cfg.restarts):
        rng = np.random.default_rng(_seed_tuple(cfg.seed, kind, s, r))
        starts.append(obj.random_start(rng))
    for f0 in starts:
        res = _ascend(obj, f0, cfg)
        if res is None:
            continue
        val, f, iters = res
        iters_total += iters
        if val > best_val:
            best_val, best_f = val, f
    floor = _FLOOR[kind]
    if best_f is None:
        if form.n == 1 or obj.kind in ("WL", "WP"):
            # No admissible nonconstant direction; the floor is the supremum.
            value = floor
            best_f = np.zeros(form.n)
        else:
            raise SolverError(f"no restart produced an admissible value for kind {kind}")
    else:
        value = max(best_val, floor)
    if return_vector:
        return value, best_f, iters_total
    return value


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


_ORACLE_BLOCK = 200_000


def _direction_blocks(n: int, resolution: float, signed: bool):
    """All directions at the given angular resolution, as (m, n) row blocks.

    Direction k has angles phi_i = axis_i[j_i] for the flat index k =
    ravel(j_1, ..., j_{n-1}) and coordinates f_i = sin(phi_1)...
    sin(phi_{i-1}) cos(phi_i).  Nonnegative directions sweep [0, pi/2]
    per angle; signed directions sweep the half sphere (objectives are
    even in f).  Each block is built from flat indices by gathering from
    per-axis cos/sin tables, so memory is bounded by one block of
    _ORACLE_BLOCK rows whatever the grid size.
    """
    if n == 1:
        yield np.ones((1, 1))
        return
    spans = [math.pi / 2] * (n - 1) if not signed else [math.pi] * (n - 2) + [2 * math.pi]
    axes = [np.linspace(0.0, span, int(round(span / resolution)) + 1) for span in spans]
    cos = [np.cos(a) for a in axes]
    sin = [np.sin(a) for a in axes]
    shape = tuple(a.size for a in axes)
    total = math.prod(shape)
    for start in range(0, total, _ORACLE_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _ORACLE_BLOCK, total)), shape)
        f = np.empty((idx[0].size, n))
        sin_prod = np.ones(idx[0].size)
        for i in range(n - 1):
            f[:, i] = sin_prod * cos[i][idx[i]]
            sin_prod = sin_prod * sin[i][idx[i]]
        f[:, n - 1] = sin_prod
        yield f


def brute_force_oracle(
    form: FiniteDirichletForm, kind: str, s: float, resolution: float = 1e-3
) -> float:
    """Exhaustive angular scan of the normalised test-function set.

    Deterministic anti-hallucination oracle for forms with n <= 4; all
    four objectives are scale-invariant, so scanning directions suffices.
    The scan visits prod(round(span/resolution) + 1) directions over the
    n - 1 angular axes (span pi/2 for SP, SL and WL; pi, ..., pi, 2*pi for
    the signed WP scan) and holds one block of 200 000 directions in
    memory at a time.  Time grows with the direction count: n = 3 at
    1e-3 is 2.5e6 directions (1.97e7 for WP), n = 4 at 1e-3 is 3.9e9
    (6.2e10 for WP), so four-state forms are practical only at coarse
    resolution.
    """
    if form.n > 4:
        raise ConfigError("brute-force oracle supports at most 4 states")
    if not (0 < resolution <= 1e-2):
        raise ConfigError("oracle resolution must be in (0, 1e-2]")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    s = float(s)
    mu = form.mu
    signed = kind == "WP"
    best = -math.inf
    wmax = float(np.max(form.weights)) if form.n > 1 else 0.0
    e_floor = _E_TINY * max(wmax, 1e-30)
    for F in _direction_blocks(form.n, resolution, signed):
        E = form.energy_many(F)
        F2 = F * F
        m2 = F2 @ mu
        if kind == "SP":
            m1 = np.abs(F) @ mu
            vals = (m2 - s * E) / np.maximum(m1 * m1, 1e-300)
        elif kind == "SL":
            terms = F2 * np.log(np.maximum(F2, _LOG_FLOOR))
            ent = terms @ mu - m2 * np.log(np.maximum(m2, _LOG_FLOOR))
            vals = np.maximum(ent, 0.0) / np.maximum(m2, 1e-300)
            vals = vals - s * E / np.maximum(m2, 1e-300)
        elif kind == "WL":
            terms = F2 * np.log(np.maximum(F2, _LOG_FLOOR))
            ent = np.maximum(terms @ mu - m2 * np.log(np.maximum(m2, _LOG_FLOOR)), 0.0)
            sup2 = np.max(F, axis=1) ** 2
            ok = E > e_floor * np.max(F2, axis=1)
            vals = np.where(ok, (ent - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        else:
            m = F @ mu
            var = F2 @ mu - m * m
            sup2 = np.max(np.abs(F), axis=1) ** 2
            ok = E > e_floor * np.max(F2, axis=1)
            vals = np.where(ok, (var - s * sup2) / np.maximum(E, 1e-300), -np.inf)
        vmax = float(vals.max()) if vals.size else -math.inf
        if vmax > best:
            best = vmax
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

    def eval_many(self, s) -> np.ndarray:
        tab = np.asarray(self.values)
        log_s = np.log(np.asarray(s, dtype=float))
        return np.interp(log_s, np.log(np.asarray(self.s_grid)), tab)

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

    Grid points are independent work items with per-(s, restart) seeds,
    so a point's value does not depend on the rest of the grid.
    """
    cfg = cfg or SolverConfig()
    s = np.asarray(list(s_grid), dtype=float)
    if s.size < 1 or np.any(s <= 0) or np.any(np.diff(s) <= 0):
        raise ConfigError("s grid must be ascending and positive")

    results = [optimal_value(form, kind, float(si), cfg, return_vector=True) for si in s]
    raw = np.array([r[0] for r in results])
    iters = int(sum(r[2] for r in results))
    env = _running_max_from_right(raw)
    return EmpiricalRateFunction(
        kind=kind,
        s_grid=tuple(float(x) for x in s),
        values=tuple(float(v) for v in env),
        restarts=cfg.restarts,
        seed=cfg.seed,
        envelope_applied=True,
        stats={"iterations_total": iters, "raw_values": [float(v) for v in raw]},
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

    Returns (passed, worst_margin) where each margin is rhs - lhs scaled
    by max(1, lhs); a certified beta has all margins >= -1e-12.  This
    converts the solver's lower-bound-biased output into a checked
    admissible constant.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFF, _KIND_ID[kind], n_samples))
    mu = form.mu
    beta_infl = beta * (1.0 + inflation)
    worst = math.inf
    for _ in range(n_samples):
        f = rng.standard_normal(form.n)
        e = form.energy(f)
        if kind == "SP":
            lhs = float(mu @ (f * f))
            rhs = s * e + beta_infl * float(mu @ np.abs(f)) ** 2
        elif kind == "SL":
            lhs = entropy(mu, f * f)
            rhs = s * e + beta_infl * float(mu @ (f * f))
        elif kind == "WL":
            lhs = entropy(mu, f * f)
            rhs = beta_infl * e + s * float(np.max(np.abs(f))) ** 2
        else:
            m = float(mu @ f)
            lhs = float(mu @ ((f - m) ** 2))
            rhs = beta_infl * e + s * float(np.max(np.abs(f))) ** 2
        margin = (rhs - lhs) / max(1.0, abs(lhs))
        if margin < worst:
            worst = margin
    return worst >= -1e-12, worst
