"""The benchmark's workloads: inputs made from a seed, operations, checks.

Each workload builds its inputs in ``__init__`` (the set-up that
``setup_s`` measures), lists its operations in ``ops``, and checks the
outputs of one round in ``check``, which skips the operations that failed.  An operation's ``run`` takes a fresh
output directory and returns a record of what the program produced: the
bytes of the files a CLI command wrote (the manifest excluded, since it
holds the wall clock) or the values an API call returned.  Records of
two rounds must be equal, traced or not.

Every check is computed here, from the inputs and numpy, never compared
with stored copies of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import ratecalc
import ratecalc.cli


class OpFailed(Exception):
    """An operation ended with an error exit code or an exception."""


@dataclass
class Op:
    name: str
    run: Callable[[str], object]
    metric: Optional[str] = None  # per-operation figure this op's time feeds
    cli: bool = True
    expect_fail: bool = False  # fails at every seed because of a known fault


def run_cli(args: list, out_dir: str) -> dict:
    """Run one ratecalc command in this process; returns the files it wrote."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            ratecalc.cli.main.main(args=[*args, "--out", out_dir], standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise OpFailed(f"exit {exc.code}: {err.getvalue().strip()}") from None
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _csv_rows(data: bytes) -> tuple[list, np.ndarray]:
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",")
    return header, np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def _non_increasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(v) <= 0.0))


def _fit(model: str, s: np.ndarray, v: np.ndarray, log_values: bool = False) -> float:
    """Least-squares growth exponent of v(s) under a linearised model."""
    log_v = v if log_values else np.log(v)
    if model == "power":  # v ~ s^-p
        return _slope(np.log(1.0 / s), log_v)
    if model == "log-power":  # v ~ log(1 + 1/s)^q
        return _slope(np.log(np.log1p(1.0 / s)), log_v)
    return _slope(np.log(1.0 / s), np.log(log_v))  # "log-of-log": v ~ exp(c s^-theta)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# verify-chain
# ---------------------------------------------------------------------------


def birth_death(kappa: float, c0: float, half_width: float, n: int) -> tuple:
    """(mu, L) of the birth-death chain, built here from its definition.

    The chain discretises mu ~ exp(-c0 |x|^kappa) on n uniform states of
    [-half_width, half_width] with neighbour weights (mu_i + mu_i+1)/(2h^2).
    """
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    mu = np.exp(-c0 * np.abs(x) ** kappa)
    mu /= mu.sum()
    w = (mu[:-1] + mu[1:]) / (2.0 * h * h)
    lap = np.diag(np.concatenate([w, [0.0]]) + np.concatenate([[0.0], w]))
    lap -= np.diag(w, 1) + np.diag(w, -1)
    return mu, lap


def spectral_gap(mu: np.ndarray, lap: np.ndarray) -> float:
    """Second eigenvalue of the mu-symmetrised generator M^-1/2 L M^-1/2, by eigh."""
    d = 1.0 / np.sqrt(mu)
    return float(np.linalg.eigvalsh(d[:, None] * lap * d[None, :])[1])


def objective(kind: str, mu: np.ndarray, lap: np.ndarray, F: np.ndarray, s: float) -> np.ndarray:
    """The optimal-constant ratio of each row of F, scored independently."""
    E = np.einsum("ij,jk,ik->i", F, lap, F)
    F2 = F * F
    m2 = F2 @ mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = (np.where(F2 > 0, F2 * np.log(np.where(F2 > 0, F2, 1.0)), 0.0) @ mu
               - m2 * np.log(m2))
        if kind == "SP":
            return (m2 - s * E) / (np.abs(F) @ mu) ** 2
        if kind == "SL":
            return (ent - s * E) / m2
        if kind == "WL":
            top = ent - s * np.max(F, axis=1) ** 2
        else:
            m = F @ mu
            top = m2 - m * m - s * np.max(np.abs(F), axis=1) ** 2
        return np.where(E > 1e-12 * np.max(F2, axis=1), top / E, -np.inf)


def random_test_functions(kind: str, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    if kind in ("SP", "SL"):
        return np.abs(rng.standard_normal((m, n)))
    if kind == "WL":
        return rng.uniform(0.0, 1.0, (m, n))
    return rng.uniform(-1.0, 1.0, (m, n))


class VerifyChain:
    """`verify` on a birth-death chain and `spectrum` on a long Gaussian chain.

    The program's inputs are fixed, the solver seed too, so every run does
    the same work; the seed draws the test functions of the solver check.
    """

    name = "verify-chain"
    CHAIN = (4.0, 1.0, 2.0, 41)
    S_GRID = "1e-3,1,6"
    LONG_CHAIN = (2.0, 0.5, 8.0, 201)

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.verify_args = [
            "verify", "--birth-death", ",".join(str(x) for x in self.CHAIN),
            "--s-grid", self.S_GRID, "--seed", "7",
        ]
        self.spectrum_args = ["spectrum", "--birth-death", ",".join(str(x) for x in self.LONG_CHAIN)]

    def ops(self) -> list[Op]:
        return [
            Op("verify", lambda out: run_cli(self.verify_args, out), "verify_s"),
            Op("spectrum", lambda out: run_cli(self.spectrum_args, out), "spectrum_s"),
        ]

    def check(self, rec: dict) -> list[str]:
        bad = []
        if "spectrum" in rec:
            spectrum = json.loads(rec["spectrum"]["spectrum.json"])
            long_gap = spectral_gap(*birth_death(*self.LONG_CHAIN))
            if _rel(spectrum["gap"], long_gap) > 1e-9:
                bad.append(f"spectrum gap {spectrum['gap']!r} vs eigh {long_gap!r}")
            if abs(spectrum["gap"] - 1.0) > 0.25:
                bad.append(f"n=201 gap {spectrum['gap']!r} is not within 0.25 of the continuum value 1")
        if "verify" not in rec:
            return bad

        report = json.loads(rec["verify"]["report.json"])
        mu, lap = birth_death(*self.CHAIN)
        gap = spectral_gap(mu, lap)
        if _rel(report["spectral_gap"], gap) > 1e-9:
            bad.append(f"verify gap {report['spectral_gap']!r} vs eigh {gap!r}")
        rng = np.random.default_rng((self.seed, 41))
        for kind in ratecalc.KINDS:
            low = kind.lower()
            _, table = _csv_rows(rec["verify"][f"empirical_{low}.csv"])
            s, vals = table[:, 0], table[:, 1]
            floor = 1.0 if kind == "SP" else 0.0
            if np.any(vals < floor):
                bad.append(f"empirical {kind} below {floor}: {vals.min()!r}")
            if not _non_increasing(vals):
                bad.append(f"empirical {kind} is not non-increasing in s")
            if kind == "WP" and np.any(vals > (1.0 / gap) * (1.0 + 1e-9)):
                bad.append(f"empirical WP {vals.max()!r} exceeds 1/gap {1.0 / gap!r}")
            raw = json.loads(rec["verify"][f"empirical_{low}.json"])["solver_stats"]["raw_values"]
            F = random_test_functions(kind, rng, 2000, mu.size)
            for si, value in zip(s, raw):
                best = float(np.max(objective(kind, mu, lap, F, float(si))))
                if best > value + 1e-9 * abs(value) + 1e-12:
                    bad.append(f"a sampled test function scores {best!r} > solver {kind}({si:g}) = {value!r}")
        return bad


# ---------------------------------------------------------------------------
# maps-deep
# ---------------------------------------------------------------------------


def wl_k_star(s: float, q: float, delta: float, theta: float, n0: int, n_max: int) -> int:
    """Smallest k in [n0, n_max] with beta_WL(delta^-k k^-theta)/k <= s.

    For LogPower{1, q}, beta(x) = 1 + log(1 + 1/x)^q, and with
    log x = -(k log delta + theta log k) the sequence is decreasing in k,
    so bisection finds the first index at or below s.  Returns n_max + 1
    when no index qualifies.
    """

    def g(k: int) -> float:
        log_x = -(k * math.log(delta) + theta * math.log(k))
        return (1.0 + (math.log1p(math.exp(log_x)) - log_x) ** q) / k

    lo, hi = n0, n_max + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if g(mid) <= s:
            hi = mid
        else:
            lo = mid + 1
    return lo


class MapsDeep:
    """The four rate-function maps at depth, through the CLI and the public API."""

    name = "maps-deep"
    EXAMPLE11 = [(0.5, "sp2sl"), (1.5, "sp2wl"), (2.0, "sp2wl"), (3.0, "sp2wl"),
                 (0.5, "sl2sp"), (1.0, "wl2sp")]
    # model and predicted order of each example11 branch at theta
    ORDER = {
        "sp2sl": ("power", lambda th: th / (1.0 - th)),
        "sp2wl": ("log-power", lambda th: (th - 1.0) / th),
        "sl2sp": ("log-of-log", lambda th: th),
        "wl2sp": ("log-of-log", lambda th: th),
    }
    DEEP_N_MAX = 150_000_000
    CAPPED_N_MAX = 4000

    def __init__(self, seed: int, work: str):
        rng = np.random.default_rng((seed, 11))
        self.exp_half = _write_json(os.path.join(work, "exp_half.json"),
                                    {"family": "exp_power", "C": 1.0, "theta": 0.5})
        self.sp2sl_cfg = _write_json(os.path.join(work, "sp2sl_cfg.json"), {"N_max": 200_000})
        lo, hi = 1e-5 * 10 ** rng.uniform(0.0, 0.3), 1e-2 * 10 ** rng.uniform(-0.3, 0.0)
        self.sp2sl_grid = f"{lo!r},{hi!r},60"
        self.a = float(rng.uniform(0.5, 2.0))
        self.inverse = _write_json(os.path.join(work, "inverse.json"),
                                   {"family": "inverse_power", "a": self.a, "p": 1.0})
        self.deep_grid = ratecalc.log_grid(1e-4 * 10 ** rng.uniform(0.0, 0.2),
                                           1e-2 * 10 ** rng.uniform(-0.2, 0.0), 60)
        self.deep_picks = sorted(rng.choice(60, 4, replace=False).tolist())
        # The capped wl2sp input is fixed: it fails at every seed (see README).
        self.log_half = _write_json(os.path.join(work, "log_half.json"),
                                    {"family": "log_power", "C": 1.0, "q": 0.5})
        self.capped_cfg = _write_json(os.path.join(work, "capped_cfg.json"),
                                      {"N_max": self.CAPPED_N_MAX, "k_max": self.CAPPED_N_MAX})

    def _deep_wl2sp(self, out: str):
        cfg = ratecalc.TransformConfig(k_max=self.DEEP_N_MAX, N_max=self.DEEP_N_MAX)
        return ratecalc.sp_from_wl(ratecalc.LogPower(C=1.0, q=0.5), self.deep_grid, cfg).log_points

    def ops(self) -> list[Op]:
        ops = [Op("transform sp2sl", lambda out: run_cli(
            ["transform", "--direction", "sp2sl", "--ratefn", self.exp_half,
             "--s-grid", self.sp2sl_grid, "--config", self.sp2sl_cfg], out), "sp2sl_s")]
        for theta, branch in self.EXAMPLE11:
            args = ["example11", "--theta", str(theta), "--branch", branch]
            ops.append(Op(f"example11 {branch} {theta}", lambda out, a=args: run_cli(a, out), "example11_s"))
        ops.append(Op("xi inverse_power", lambda out: run_cli(
            ["xi", "--kernel", "xi1", "--ratefn", self.inverse, "--t-grid", "1e-3,1e3,40"], out)))
        ops.append(Op("sp_from_wl deep", self._deep_wl2sp, "wl2sp_s", cli=False))
        ops.append(Op("transform wl2sp capped", lambda out: run_cli(
            ["transform", "--direction", "wl2sp", "--ratefn", self.log_half,
             "--s-grid", "0.02,0.05,20", "--config", self.capped_cfg], out), expect_fail=True))
        return ops

    def check(self, rec: dict) -> list[str]:
        bad = []

        def exponent(what: str, got: float, want: float):
            if abs(got - want) > 0.15:
                bad.append(f"{what}: fitted exponent {got:.4f}, order {want:.4f} +-0.15")

        if "transform sp2sl" in rec:
            _, t = _csv_rows(rec["transform sp2sl"]["transform.csv"])
            if not _non_increasing(t[:, 1]):
                bad.append("transform sp2sl output is not non-increasing in s")
            exponent("transform sp2sl", _fit("power", t[:, 0], t[:, 1]), 1.0)

        for theta, branch in self.EXAMPLE11:
            name = f"example11 {branch} {theta}"
            if name not in rec:
                continue
            _, t = _csv_rows(rec[name]["transform.csv"])
            model, order = self.ORDER[branch]
            if not _non_increasing(t[:, 1]):
                bad.append(f"{name} output is not non-increasing in s")
            exponent(name, _fit(model, t[:, 0], t[:, 1]), order(theta))

        if "xi inverse_power" in rec:
            _, t = _csv_rows(rec["xi inverse_power"]["xi.csv"])
            worst = float(np.max(np.abs(t[:, 1] / (4.0 * self.a * t[:, 0]) - 1.0)))
            if worst > 1e-4:
                bad.append(f"xi1 on InversePower{{{self.a}, 1}} is {worst:.2e} from 4*a*t")

        if "sp_from_wl deep" in rec:
            deep = np.array(rec["sp_from_wl deep"])
            if not _non_increasing(deep[:, 1]):
                bad.append("deep sp_from_wl output is not non-increasing in s")
            exponent("deep sp_from_wl", _fit("log-of-log", deep[:, 0], deep[:, 1], log_values=True), 2.0)
            bad += self._check_k_star("deep sp_from_wl", deep[self.deep_picks], self.DEEP_N_MAX)

        if "transform wl2sp capped" in rec:  # passes once the fault is mended
            header, t = _csv_rows(rec["transform wl2sp capped"]["transform.csv"])
            if "log_beta" not in header:
                bad.append("capped wl2sp passed without a log_beta column")
            else:
                col = header.index("log_beta")
                bad += self._check_k_star("capped wl2sp", t[:, [0, col]], self.CAPPED_N_MAX)
        return bad

    def _check_k_star(self, what: str, rows: np.ndarray, n_max: int) -> list[str]:
        """k*(s) = log beta_SP / log delta (C3 = 1, delta = 4, theta = 1, n0 = 2)."""
        bad = []
        for s, log_beta in rows:
            k = log_beta / math.log(4.0)
            want = wl_k_star(float(s), 0.5, 4.0, 1.0, 2, n_max)
            if abs(k - want) > 1e-6 * want:
                bad.append(f"{what}: k*({s:g}) = {k!r}, bisection gives {want}")
        return bad


# ---------------------------------------------------------------------------
# oracle-small
# ---------------------------------------------------------------------------

# The six fixture forms of the acceptance suite: (mu, edges (i, j, w)).
FORMS = {
    "two_uniform": ([0.5, 0.5], [(0, 1, 1.0)]),
    "two_skewed": ([0.3, 0.7], [(0, 1, 1.0)]),
    "path3_uniform": ([1 / 3, 1 / 3, 1 / 3], [(0, 1, 1.0), (1, 2, 0.5)]),
    "path3_skewed": ([0.2, 0.5, 0.3], [(0, 1, 1.0), (1, 2, 0.5)]),
    "tri_uniform": ([1 / 3, 1 / 3, 1 / 3], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]),
    "tri_skewed": ([0.6, 0.25, 0.15], [(0, 1, 0.8), (1, 2, 1.2), (0, 2, 0.4)]),
}


def form_arrays(name: str) -> tuple:
    """(mu, L) of a fixture form, built here from its weights."""
    mu, edges = FORMS[name]
    lap = np.zeros((len(mu), len(mu)))
    for i, j, w in edges:
        lap[i, j] = lap[j, i] = -w
    lap -= np.diag(lap.sum(axis=1))
    return np.array(mu), lap


def angular_scan(name: str, kind: str, s: float, points: int = 200_001) -> float:
    """Supremum over f = (cos phi, sin phi) of a two-state form, on a fine grid.

    phi sweeps [0, pi/2] for the kinds restricted to f >= 0 and [0, pi]
    for WP, whose ratio is even in f.
    """
    phi = np.linspace(0.0, math.pi if kind == "WP" else math.pi / 2, points)
    F = np.column_stack([np.cos(phi), np.sin(phi)])
    vals = objective(kind, *form_arrays(name), F, s)
    return max(float(np.nanmax(vals)), 1.0 if kind == "SP" else 0.0)


class OracleSmall:
    """Solver and brute-force oracle on one two-state and two three-state forms."""

    name = "oracle-small"
    RESOLUTION = 1e-3

    def __init__(self, seed: int, work: str):
        rng = np.random.default_rng((seed, 4))
        two = ["two_uniform", "two_skewed"][int(rng.integers(2))]
        three = rng.choice(["path3_uniform", "path3_skewed", "tri_uniform", "tri_skewed"], 2, replace=False)
        self.forms = {
            name: ratecalc.FiniteDirichletForm.from_json_dict({"mu": FORMS[name][0], "edges": FORMS[name][1]})
            for name in [two, *three.tolist()]
        }
        self.two = two
        self.s_values = sorted(rng.choice([0.01, 0.1, 1.0], 2, replace=False).tolist())
        self.cfg = ratecalc.SolverConfig(seed=seed)
        self.cases = [(f, k, s) for f in self.forms for k in ratecalc.KINDS for s in self.s_values]

    def ops(self) -> list[Op]:
        ops = []
        for f, k, s in self.cases:
            form = self.forms[f]
            ops.append(Op(f"solve {f} {k} {s}", lambda out, form=form, k=k, s=s: ratecalc.optimal_value(
                form, k, s, self.cfg, return_vector=True)[0], "solve_s", cli=False))
            ops.append(Op(f"oracle {f} {k} {s}", lambda out, form=form, k=k, s=s: ratecalc.brute_force_oracle(
                form, k, s, self.RESOLUTION), "oracle_s", cli=False))
        return ops

    def check(self, rec: dict) -> list[str]:
        bad = []
        for f, k, s in self.cases:
            sol, ora = rec.get(f"solve {f} {k} {s}"), rec.get(f"oracle {f} {k} {s}")
            if sol is None or ora is None:
                continue
            if abs(sol - ora) > 0.01 * max(abs(ora), 1e-9):
                bad.append(f"{f} {k}({s}): solver {sol!r} vs oracle {ora!r}")
            if f == self.two:
                scan = angular_scan(f, k, s)
                for what, v in (("solver", sol), ("oracle", ora)):
                    if abs(v - scan) > 0.01 * max(abs(scan), 1e-9):
                        bad.append(f"{f} {k}({s}): {what} {v!r} vs angular scan {scan!r}")
        return bad


WORKLOADS = {w.name: w for w in (VerifyChain, MapsDeep, OracleSmall)}
