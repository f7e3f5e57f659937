"""Finite-state Dirichlet forms and the functionals built on them.

A form is a probability vector mu (all entries positive) together with
a symmetric nonnegative weight matrix with zero diagonal; its energy is
E(f) = 1/2 * sum_{i != j} w_ij (f_i - f_j)^2.  The module also provides
the entropy functional, geometric truncation slices of a function, the
level-set masses they live on, the spectral gap (with certificate
vector), and a birth-death discretisation of measures exp(-c0*|x|^kappa)
on an interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MathDomainError, SingularityError, _json_number

__all__ = [
    "FiniteDirichletForm",
    "LevelData",
    "SpectralGap",
    "entropy",
    "truncation_sequence",
    "level_data",
    "spectral_gap",
    "build_birth_death",
]

_ENTROPY_FLOOR = 1e-300


def entropy(mu, g) -> float:
    """Ent_mu(g) = mu(g log g) - mu(g) log mu(g) for g >= 0.

    Uses the convention 0*log(0) = 0 (exact-zero entries contribute
    exactly 0; the logarithm is floored at 1e-300 to avoid -inf).
    Nonnegative by Jensen, zero iff g is constant mu-a.e.
    """
    mu = np.asarray(mu, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != mu.shape:
        raise MathDomainError("entropy requires g and mu of equal length")
    if np.any(g < 0):
        raise MathDomainError("entropy requires g >= 0 entrywise")
    terms = g * np.log(np.maximum(g, _ENTROPY_FLOOR))
    m = float(mu @ g)
    ent = float(mu @ terms) - m * math.log(max(m, _ENTROPY_FLOOR))
    # Jensen guarantees >= 0; clip float dust.
    return max(ent, 0.0)


@dataclass(frozen=True, eq=False)
class FiniteDirichletForm:
    """Probability measure plus symmetric edge weights on n states."""

    mu: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        w = np.array(self.weights, dtype=float)
        if mu.ndim != 1 or mu.size < 1:
            raise ConfigError("mu must be a nonempty 1-D probability vector")
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ConfigError("mu entries must be strictly positive and finite")
        total = float(mu.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mu must sum to 1 (got {total!r})")
        mu = mu / total
        n = mu.size
        if w.shape != (n, n):
            raise ConfigError(f"weights must be {n}x{n}")
        if not np.all(np.isfinite(w)):
            raise ConfigError("weights must be finite")
        # Weights near the double limit overflow below; the checks after each step refuse the result.
        with np.errstate(over="ignore", invalid="ignore"):
            if np.max(np.abs(w - w.T)) > 1e-12 * max(1.0, float(np.max(np.abs(w)))):
                raise ConfigError("weights must be symmetric")
            w = 0.5 * (w + w.T)
            if not np.all(np.isfinite(w)):
                raise ConfigError("symmetrised weights overflow double range")
            if np.any(np.abs(np.diag(w)) > 0):
                raise ConfigError("weights must have zero diagonal")
            if np.any(w < 0):
                raise ConfigError("weights must be nonnegative")
            lap = np.diag(w.sum(axis=1)) - w
        if not np.all(np.isfinite(lap)):
            raise ConfigError("Laplacian overflows double range: a state's total weight exceeds it")
        mu.flags.writeable = False
        w.flags.writeable = False
        lap.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_lap", lap)

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def laplacian(self) -> np.ndarray:
        return self._lap

    def energy(self, f) -> float:
        """E(f) = 1/2 sum_{i != j} w_ij (f_i - f_j)^2 = f' L f."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise MathDomainError(f"energy argument must have length {self.n}")
        return max(float(f @ (self._lap @ f)), 0.0)

    def energy_many(self, F: np.ndarray) -> np.ndarray:
        """Energies of the rows of an (m, n) array."""
        F = np.asarray(F, dtype=float)
        return np.maximum(np.einsum("ij,jk,ik->i", F, self._lap, F), 0.0)

    def to_json_dict(self) -> dict:
        i, j = np.nonzero(np.triu(self.weights, 1) > 0)
        edges = [[a, b, w] for a, b, w in zip(i.tolist(), j.tolist(), self.weights[i, j].tolist())]
        return {"mu": self.mu.tolist(), "edges": edges}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteDirichletForm":
        """The form of {"mu": [numbers], "edges": [[i, j, weight], ...]}.

        Anything else, a bool or a string where a number goes included,
        raises ConfigError, and so does a second edge between the same two
        states, in either orientation.
        """
        try:
            mu, edges = d["mu"], d["edges"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed form JSON: {exc}")
        if not isinstance(mu, (list, tuple)) or not isinstance(edges, (list, tuple)):
            raise ConfigError("form JSON 'mu' and 'edges' must be lists")
        mu = np.array([_json_number(x, "mu entry") for x in mu], dtype=float)
        n = mu.size
        w = np.zeros((n, n))
        seen = {}  # (min(i, j), max(i, j)) -> position of its edge
        for pos, edge in enumerate(edges):
            if not isinstance(edge, (list, tuple)) or len(edge) != 3:
                raise ConfigError(f"edge {edge!r} must be [i, j, weight]")
            i, j = (_json_number(k, "edge index", integral=True) for k in edge[:2])
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ConfigError(f"edge ({i}, {j}) out of range or a self-loop")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ConfigError(
                    f"edges[{seen[pair]}] = {edges[seen[pair]]!r} and edges[{pos}] = {edge!r} "
                    f"both join states {pair[0]} and {pair[1]}"
                )
            seen[pair] = pos
            w[i, j] = w[j, i] = _json_number(edge[2], "edge weight")
        return cls(mu=mu, weights=w)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")


def truncation_sequence(f, delta: float, n: int) -> np.ndarray:
    """Level slice f_n = min((|f| - delta^(n/2))_+, delta^((n+1)/2) - delta^(n/2)).

    Slices at geometric thresholds; entrywise, nonnegative, bounded by
    the level width, and zero wherever |f| <= delta^(n/2).
    """
    if not (delta > 2.0):
        raise ConfigError("truncation requires delta > 2")
    if n < 0:
        raise ConfigError("truncation index must be nonnegative")
    f = np.asarray(f, dtype=float)
    lo = delta ** (n / 2.0)
    width = max(delta ** ((n + 1) / 2.0) - lo, 0.0)
    return np.minimum(np.maximum(np.abs(f) - lo, 0.0), width)


@dataclass(frozen=True)
class LevelData:
    """Masses of the geometric level sets of f^2.

    masses_A[n] = mu{ delta^n <= f^2 < delta^(n+1) } and
    masses_Bc[n] = mu{ f^2 >= delta^n } for n = 0..n_max.
    """

    delta: float
    masses_A: tuple
    masses_Bc: tuple


def level_data(f, mu, delta: float, n_max: int) -> LevelData:
    """Exact level-set masses by enumeration."""
    if not (delta > 2.0):
        raise ConfigError("level data requires delta > 2")
    f = np.asarray(f, dtype=float)
    mu = np.asarray(mu, dtype=float)
    f2 = f * f
    masses_a = []
    masses_bc = []
    for n in range(n_max + 1):
        lo = delta ** n
        hi = delta ** (n + 1)
        masses_a.append(float(mu[(f2 >= lo) & (f2 < hi)].sum()))
        masses_bc.append(float(mu[f2 >= lo].sum()))
    return LevelData(delta=float(delta), masses_A=tuple(masses_a), masses_Bc=tuple(masses_bc))


@dataclass(frozen=True)
class SpectralGap:
    """Spectral gap with the vector achieving it."""

    gap: float
    certificate: np.ndarray

    @property
    def poincare_constant(self) -> float:
        return 1.0 / self.gap


def spectral_gap(form: FiniteDirichletForm) -> SpectralGap:
    """Best constant in gap * Var_mu(f) <= E(f, f).

    Computed as the second-smallest eigenvalue of the mu-symmetrised
    generator; the returned certificate vector attains the ratio to
    within 1e-8 relative.  Raises SingularityError when the weight graph
    is disconnected (gap numerically zero) or when a generator entry
    L[i, j] / sqrt(mu_i mu_j) leaves double range, as a valid form allows.
    """
    if form.n < 2:
        raise ConfigError("spectral gap needs at least 2 states")
    d = 1.0 / np.sqrt(form.mu)
    with np.errstate(over="ignore"):
        B = d[:, None] * form.laplacian * d[None, :]
        B = 0.5 * (B + B.T)
    if not np.all(np.isfinite(B)):
        raise SingularityError("spectral gap overflows double range")
    w, V = np.linalg.eigh(B)
    gap = float(w[1])
    scale = max(float(w[-1]), 1.0)
    if gap <= 1e-10 * scale:
        raise SingularityError("spectral gap is numerically zero (disconnected weight graph)")
    cert = V[:, 1] * d
    nz = np.flatnonzero(np.abs(cert) > 1e-12 * np.max(np.abs(cert)))
    if nz.size and cert[nz[0]] < 0:
        cert = -cert
    cert = cert / np.linalg.norm(cert)
    cert.flags.writeable = False
    return SpectralGap(gap=gap, certificate=cert)


def build_birth_death(
    kappa: float, c0: float, half_width: float, n: int
) -> FiniteDirichletForm:
    """Nearest-neighbour chain discretising mu ~ exp(-c0*|x|^kappa).

    States are uniform on [-half_width, half_width] with spacing h; the
    neighbour weight (mu_i + mu_{i+1}) / (2 h^2) makes the energy a
    trapezoidal finite-volume approximation of int |f'|^2 dmu, so the
    spectral gap converges to the continuum one as n grows.
    """
    if n < 3 or n % 2 == 0:
        raise ConfigError("birth-death chain needs an odd state count n >= 3")
    if not (kappa > 0 and c0 > 0 and half_width > 0):
        raise ConfigError("kappa, c0 and half_width must be positive")
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    pot = c0 * np.abs(x) ** kappa
    log_mu = -pot
    log_mu -= log_mu.max()
    mu = np.exp(log_mu)
    mu /= mu.sum()
    w = np.zeros((n, n))
    i = np.arange(n - 1)
    w[i, i + 1] = w[i + 1, i] = (mu[:-1] + mu[1:]) / (2.0 * h * h)
    return FiniteDirichletForm(mu=mu, weights=w)
