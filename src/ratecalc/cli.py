"""Command-line interface.

Subcommands: xi, transform, verify, example11, spectrum, optimal.
Every command writes its outputs plus a run manifest (written last)
into --out.  Exit codes: 0 ok (overall pass), 1 verification failed,
2 config error, 3 math-domain error, 4 condition failure, 5 cap error,
6 solver error.  Identical invocations with identical seeds produce
byte-identical CSV/JSON artifacts; the manifest additionally records
the wall clock, which is its only run-dependent field.

Each run keeps one record (_Run) that writes its files and its
manifest, so the manifest lists exactly the files that run wrote.  A
command that stops on an error still writes a manifest, with pass false
and the error as its summary, once --out exists; so does a usage error
that click finds in the arguments.  Files an earlier run left in --out
are not listed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings
from typing import Optional

import click
import numpy as np

from . import __version__
from .dirichlet import FiniteDirichletForm, build_birth_death, spectral_gap
from .errors import (
    CapError,
    ConditionFailedError,
    ConfigError,
    DegenerateTransformError,
    RateCalcError,
)
from .optconst import KINDS, SolverConfig, dominates, empirical_rate, optimal_value
from .ratefn import LogTabulated, RateFunction, fit_exponent, rate_function_from_json
from .ratefn import ExpPower, LogPower, PolyPower
from .transforms import (
    TransformConfig,
    _in_order,
    _kernel_min,
    _sl_map,
    _start_index,
    _wl_map,
    log_grid,
    sl_from_sp,
    sp2sl_window,
    sp_from_sl,
    sp_from_wl,
    wl2sp_window,
    wl_from_sp,
)

_EXAMPLE_TOLERANCE = 0.15


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_grid(text: str, name: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(",")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ConfigError(f"--{name} must be 'min,max,count', got {text!r}")
    return log_grid(lo, hi, count)


def _read_json(path: str, what: str):
    """The JSON value in the file at path; an unreadable file or invalid JSON is a ConfigError naming ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}")


def _load_ratefn(path: str) -> RateFunction:
    return rate_function_from_json(_read_json(path, "rate function"))


def _load_config(path: Optional[str]) -> TransformConfig:
    if path is None:
        return TransformConfig()
    return TransformConfig.from_json_dict(_read_json(path, "config"))


def _resolve_form(form_path: Optional[str], birth_death: Optional[str]):
    if (form_path is None) == (birth_death is None):
        raise ConfigError("provide exactly one of --form or --birth-death")
    if form_path is not None:
        return FiniteDirichletForm.from_json_dict(_read_json(form_path, "form")), {"form": form_path}
    try:
        kappa_s, c0_s, hw_s, n_s = birth_death.split(",")
        kappa, c0, hw, n = float(kappa_s), float(c0_s), float(hw_s), int(n_s)
    except ValueError:
        raise ConfigError("--birth-death must be 'kappa,c0,half_width,n'")
    form = build_birth_death(kappa, c0, hw, n)
    return form, {"birth_death": {"kappa": kappa, "c0": c0, "half_width": hw, "n": n}}


class _Run:
    """One command's run record: the files it writes into --out and its manifest.

    The command names itself and its input paths first, sets the resolved
    config once loaded and writes every file through csv/json, so the
    manifest lists exactly the files this run wrote, whether it ends in
    finish(passed, summary) or in an error.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.t0 = time.perf_counter()
        self.command = ""
        self.config_paths: list = []
        self.resolved_config: dict = {}
        self.seed: Optional[int] = None
        self.outputs: set = set()

    def start(self, command: str, *paths: Optional[str], seed: Optional[int] = None) -> None:
        self.command = command
        self.config_paths = [p for p in paths if p]
        self.seed = seed

    def make_out_dir(self) -> None:
        """Create --out; a path that exists and is not a directory is a config error."""
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.out_dir!r}: {exc}")

    def _path(self, name: str) -> str:
        self.outputs.add(name)
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header: str, rows) -> None:
        with open(self._path(name), "w", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")

    def json(self, name: str, obj) -> None:
        _write_json(self._path(name), obj)

    def finish(self, passed: bool, summary: str) -> None:
        _write_json(os.path.join(self.out_dir, "manifest.json"), {
            "command": self.command,
            "config_paths": self.config_paths,
            "resolved_config": self.resolved_config,
            "seed": self.seed,
            "outputs": sorted(self.outputs),
            "wall_clock_seconds": time.perf_counter() - self.t0,
            "pass": passed,
            "summary": summary,
        })


def _cli_errors(fn):
    """Pass the command its run record in place of --out; map library
    errors to exit codes, writing a failing manifest first once --out exists."""

    @functools.wraps(fn)
    def wrapper(*args, out_dir, **kwargs):
        run = _Run(out_dir)
        try:
            return fn(run, *args, **kwargs)
        except RateCalcError as exc:
            if os.path.isdir(out_dir):
                run.finish(False, str(exc))
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _out_arg(args: list) -> Optional[str]:
    """The value of the last --out among raw command-line arguments, as click takes it, or None."""
    out = None
    for i, arg in enumerate(args):
        if arg == "--":
            break
        if arg == "--out" and i + 1 < len(args):
            out = args[i + 1]
        elif arg.startswith("--out="):
            out = arg[len("--out="):]
    return out


class _Main(click.Group):
    """The command group.  A usage error that click finds in the arguments
    (an unknown option, a bad choice, a missing value) writes a failing
    manifest into --out where that names an existing directory, as a
    library error does, before click reports it and exits 2."""

    def parse_args(self, ctx, args):
        ctx.meta["ratecalc.args"] = list(args)
        with self._manifest_on_usage_error(ctx):
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with self._manifest_on_usage_error(ctx):
            return super().invoke(ctx)

    @staticmethod
    @contextlib.contextmanager
    def _manifest_on_usage_error(ctx):
        try:
            yield
        except click.UsageError as exc:
            out = _out_arg(ctx.meta["ratecalc.args"])
            if out is not None and os.path.isdir(out):
                run = _Run(out)
                run.start(ctx.invoked_subcommand or "")
                run.finish(False, exc.format_message())
            raise


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Rate-function transforms and their numerical verification."""


@main.command("xi")
@click.option("--kernel", type=click.Choice(["xi1", "xi2"]), required=True)
@click.option("--ratefn", "ratefn_path", type=click.Path(), required=True)
@click.option("--t-grid", "t_grid", required=True, help="min,max,count (log-spaced)")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_xi(run, kernel, ratefn_path, t_grid):
    """Evaluate a kernel on a t-grid and emit CSV (columns t,xi)."""
    run.start(f"xi {kernel}", ratefn_path)
    beta = _load_ratefn(ratefn_path)
    ts = _parse_grid(t_grid, "t-grid")
    run.make_out_dir()

    # math.log, as xi1 and xi2 take it: np.log can differ in the last bit.
    vals = _kernel_min(beta, np.array([math.log(t) for t in ts.tolist()]), kernel)
    rows = [(_fmt(t), "undefined" if np.isnan(v) else _fmt(v)) for t, v in zip(ts, vals)]
    run.csv("xi.csv", "t,xi", rows)
    run.finish(True, f"{kernel} evaluated at {len(rows)} points")


def _gate(run, name: str, direction: str, verdict) -> None:
    """Write the side-condition verdict; stop on a failing one (exit 4), warn on an inconclusive one."""
    run.json(name, verdict.to_json_dict())
    if verdict.fails:
        raise ConditionFailedError(
            f"{direction}: vanishing side condition fails empirically "
            f"(trend slope {verdict.trend_slope:.4g})"
        )
    if verdict.status == "inconclusive":
        click.echo(f"warning: {direction} side condition is empirically inconclusive", err=True)


# Each direction maps (beta, s, cfg) to its side-condition verdict, or None,
# and a call that computes the map once the verdict is written and gated.
# A gated map reads its index sequence once, for the verdict and the table.
_DIRECTIONS = {
    "sp2wl": lambda beta, s, cfg: (None, functools.partial(wl_from_sp, beta, s, cfg)),
    "wl2sp": _wl_map,
    "sp2sl": _sl_map,
    "sl2sp": lambda beta, s, cfg: (None, functools.partial(sp_from_sl, beta, s, cfg)),
}


@main.command("transform")
@click.option("--direction", type=click.Choice(sorted(_DIRECTIONS)), required=True)
@click.option("--ratefn", "ratefn_path", type=click.Path(), required=True)
@click.option("--s-grid", "s_grid", required=True, help="min,max,count (log-spaced)")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_transform(run, direction, ratefn_path, s_grid, config_path):
    """Apply a rate-function map and emit CSV (s,beta) plus the side-condition verdict.

    The WL-to-SP and SL-to-SP maps add a log_beta column; beta reads inf
    where it leaves double range.
    """
    run.start(f"transform {direction}", ratefn_path, config_path)
    beta = _load_ratefn(ratefn_path)
    cfg = _load_config(config_path)
    run.resolved_config = cfg.to_json_dict()
    s = _parse_grid(s_grid, "s-grid")
    run.make_out_dir()
    verdict, transform = _DIRECTIONS[direction](beta, s, cfg)
    if verdict is not None:
        _gate(run, "verdict.json", direction, verdict)
    else:
        run.json("verdict.json", {"status": "not_applicable"})

    out = transform()
    if isinstance(out, LogTabulated):
        header = "s,beta,log_beta"
        s_out, log_beta = np.array(out.log_points, dtype=float).T
        with np.errstate(over="ignore"):
            beta_out = np.exp(log_beta)
        rows = [(_fmt(a), _fmt(b), _fmt(c)) for a, b, c in zip(s_out, beta_out, log_beta)]
    else:
        header = "s,beta"
        rows = [(_fmt(a), _fmt(b)) for a, b in out.points]
    run.csv("transform.csv", header, rows)
    run.finish(True, f"{direction} evaluated on {len(rows)} grid points")


def _emit_empirical(run, emp) -> None:
    base = f"empirical_{emp.kind.lower()}"
    run.csv(base + ".csv", "s,beta", [(_fmt(a), _fmt(b)) for a, b in zip(emp.s_grid, emp.values)])
    run.json(base + ".json", emp.sidecar_dict())


@main.command("verify")
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--s-grid", "s_grid", default="1e-3,1,12", show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=24, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_verify(run, form_path, birth_death, s_grid, config_path, seed, restarts):
    """End-to-end check: empirical rates vs the rate-function maps on one form.

    Computes empirical SP/SL/WL/WP rate functions, applies the SP-to-SL
    and SP-to-WL maps to the tabulated empirical SP, and reports the
    max-ratio domination constants.  Exit code 0 iff all domination
    reports pass.

    The four kinds never interact, so each is a task of
    transforms._in_order, solved in a forked worker where it may start
    one.  Each kind is written as it comes back, in KINDS order; the
    first that failed raises its error once the kinds before it are
    written and every worker has ended, so files, manifests and exit
    codes do not depend on the workers.
    """
    run.start("verify", form_path, config_path, seed=seed)
    form, form_desc = _resolve_form(form_path, birth_death)
    cfg = _load_config(config_path)
    run.resolved_config = cfg.to_json_dict()
    s = _parse_grid(s_grid, "s-grid")
    run.make_out_dir()

    sg = spectral_gap(form)
    solve = functools.partial(empirical_rate, form, s_grid=s, cfg=SolverConfig(restarts=restarts, seed=seed))
    empirical = {}
    for emp in _in_order(solve, KINDS):
        empirical[emp.kind] = emp
        _emit_empirical(run, emp)

    tab_sp = empirical["SP"].to_tabulated()

    verdict, sl_table = _sl_map(tab_sp, s, cfg)
    _gate(run, "verdict_sp2sl.json", "sp2sl", verdict)
    trans_sl = sl_table()
    run.csv("transformed_sl.csv", "s,beta", [(_fmt(a), _fmt(b)) for a, b in trans_sl.points])
    dominations = {"sl": dominates(empirical["SL"], trans_sl).to_json_dict()}
    try:
        trans_wl = wl_from_sp(tab_sp, s, cfg)
    except DegenerateTransformError as exc:
        # The kernel sequence vanished on the whole sup window: the form
        # is so small that every truncation slice is empty and the weak
        # log-Sobolev content reduces to the Poincare inequality; report
        # the domination as trivially satisfied and move on.
        dominations["wl"] = {"degenerate": True, "passed": True, "note": str(exc)}
    else:
        run.csv("transformed_wl.csv", "s,beta", [(_fmt(a), _fmt(b)) for a, b in trans_wl.points])
        dominations["wl"] = dominates(empirical["WL"], trans_wl).to_json_dict()

    overall = all(d.get("passed", False) for d in dominations.values())
    report = {
        "form": form_desc,
        "n_states": form.n,
        "s_grid": [float(x) for x in s],
        "seed": seed,
        "restarts": restarts,
        "spectral_gap": sg.gap,
        "poincare_constant": sg.poincare_constant,
        "wl_transform_degenerate": "degenerate" in dominations["wl"],
        "dominations": dominations,
        "pass": overall,
    }
    run.json("report.json", report)
    run.finish(overall, "all domination reports pass" if overall else "a domination report failed")
    click.echo(f"verify: {'pass' if overall else 'FAIL'}")
    if not overall:
        sys.exit(1)


_BRANCHES = ("sp2sl", "sp2wl", "sl2sp", "wl2sp")


def _example_input(theta: float, branch: str):
    """Closed-form family, predicted exponent and fit model per branch."""
    if branch == "sp2sl":
        if not (0.5 <= theta < 1.0):
            raise ConfigError("sp2sl needs theta in [1/2, 1)")
        return ExpPower(C=1.0, theta=theta), theta / (1.0 - theta), "log-log-power"
    if branch == "sp2wl":
        if not (theta >= 1.0):
            raise ConfigError("sp2wl needs theta >= 1")
        return ExpPower(C=1.0, theta=theta), (theta - 1.0) / theta, "log-log-log"
    if branch == "sl2sp":
        if not (0.5 <= theta < 1.0):
            raise ConfigError("sl2sp needs theta in [1/2, 1)")
        return PolyPower(C=1.0, p=theta / (1.0 - theta)), theta, "log-of-log"
    if not (theta >= 1.0):
        raise ConfigError("wl2sp needs theta >= 1")
    return LogPower(C=1.0, q=(theta - 1.0) / theta), theta, "log-of-log"


def _example_default_grid(branch: str, theta: float, beta, cfg: TransformConfig) -> np.ndarray:
    if branch == "sp2wl":
        # Deep window: the kernel's logarithmic constant drift fades only
        # for log(1/s) in the hundreds, still comfortably inside doubles.
        return log_grid(1e-180, 1e-40, 60)
    if branch == "sl2sp":
        return log_grid(1e-4, 1e-2, 60)
    # wl2sp: example11 fits beta, so k*(s) stays below 380, where delta^k
    # fits in a double; the window spans at least a factor 20 in s.
    n0 = _start_index(beta, cfg, "wl")
    s_lo, s_hi = wl2sp_window(beta, cfg, n0 + 3, min(380, cfg.k_max))
    return log_grid(s_lo, max(s_hi, s_lo * 20.0), 40)


@main.command("example11")
@click.option("--theta", type=float, required=True)
@click.option("--branch", type=click.Choice(_BRANCHES), required=True)
@click.option("--s-grid", "s_grid", default=None, help="min,max,count (log-spaced)")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_example11(run, theta, branch, s_grid, config_path):
    """Check a closed-form family against its predicted growth exponent.

    Builds the canonical input for the branch, runs the transform, fits
    the exponent of the output and compares with the prediction at a
    +-0.15 tolerance.  Exit code 0 iff the fit passes.
    """
    run.start(f"example11 {branch}", config_path)
    cfg = _load_config(config_path)
    run.resolved_config = cfg.to_json_dict()
    beta, predicted, model = _example_input(theta, branch)
    run.make_out_dir()
    grid = _parse_grid(s_grid, "s-grid") if s_grid else None
    if branch == "sp2sl":
        out, grid = _example_sp2sl(beta, grid, cfg)
    else:
        transform = {"sp2wl": wl_from_sp, "sl2sp": sp_from_sl, "wl2sp": sp_from_wl}[branch]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if grid is None:
                grid = _example_default_grid(branch, theta, beta, cfg)
            out = transform(beta, grid, cfg)

    pts = list(out.points)
    fitted = fit_exponent(pts, model, (float(grid[0]), float(grid[-1])))
    passed = abs(fitted - predicted) <= _EXAMPLE_TOLERANCE
    vals = [v for _, v in pts]
    report = {
        "theta": theta,
        "branch": branch,
        "family": beta.to_json_dict(),
        "fit_model": model,
        "fit_range": [float(grid[0]), float(grid[-1])],
        "predicted_exponent": predicted,
        "fitted_exponent": fitted,
        "tolerance": _EXAMPLE_TOLERANCE,
        "value_spread": max(vals) / min(vals),
        "pass": bool(passed),
    }
    run.json("report.json", report)
    run.csv("transform.csv", "s,beta", [(_fmt(a), _fmt(b)) for a, b in pts])
    run.finish(bool(passed), f"fitted {fitted:.4f} vs predicted {predicted:.4f}")
    click.echo(f"example11 {branch} theta={theta}: fitted={fitted:.4f} predicted={predicted:.4f} "
               f"{'pass' if passed else 'FAIL'}")
    if not passed:
        sys.exit(1)


# example11 sp2sl builds the xi1 sequence g(n) = C4*n*xi1(delta^(-n+1))
# to this N_max and, without a user grid, fits over s in
# [1.02*g(far), g(near)] (transforms.sp2sl_window): there the qualifying
# index N0(s) runs from about `near` to below `far`, over two decades of
# n for every theta in [1/2, 1), and never reaches the cap.  A fixed
# s-window cannot do this: N0(s) grows like s^(-theta/(1-theta)), so
# s = 1e-5 needs N0 ~ 1e15 at theta = 3/4.
_SP2SL_N_MAX = 400_000
_SP2SL_WINDOW = (1_000, 200_000)


def _example_sp2sl(beta, grid: Optional[np.ndarray], cfg: TransformConfig):
    """(sl_from_sp output, grid) for example11, with one xi1 sequence per N_max.

    The default grid is read from g at the two window indices, once.  On
    a user grid whose qualifying index reaches N_max, N_max doubles from
    50 000 up to 1.6e6 and the sequence is built again.
    """
    n_max = max(cfg.N_max, _SP2SL_N_MAX if grid is None else 50_000)
    if grid is None:
        grid = log_grid(*sp2sl_window(beta, dataclasses.replace(cfg, N_max=n_max), *_SP2SL_WINDOW), 60)
    while True:
        try:
            return sl_from_sp(beta, grid, dataclasses.replace(cfg, N_max=n_max)), grid
        except CapError:
            if n_max >= 1_500_000:
                raise
            n_max *= 2


@main.command("spectrum")
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_spectrum(run, form_path, birth_death):
    """Print the spectral gap of a form."""
    run.start("spectrum", form_path)
    form, form_desc = _resolve_form(form_path, birth_death)
    run.make_out_dir()
    sg = spectral_gap(form)
    click.echo(f"gap {_fmt(sg.gap)}")
    run.json("spectrum.json", {"form": form_desc, "gap": sg.gap, "poincare_constant": sg.poincare_constant})
    run.finish(True, f"gap {sg.gap:.6g}")


@main.command("optimal")
@click.option("--kind", type=click.Choice(KINDS), required=True)
@click.option("--s", type=float, required=True)
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=24, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_optimal(run, kind, s, form_path, birth_death, seed, restarts):
    """Evaluate one optimal rate value for a (kind, s) pair."""
    run.start(f"optimal {kind}", form_path, seed=seed)
    form, form_desc = _resolve_form(form_path, birth_death)
    run.make_out_dir()
    value = optimal_value(form, kind, s, SolverConfig(restarts=restarts, seed=seed))
    click.echo(f"{kind} {_fmt(s)} {_fmt(value)}")
    run.json("optimal.json", {"form": form_desc, "kind": kind, "s": s, "value": value, "seed": seed})
    run.finish(True, f"{kind}({s:g}) = {value:.6g}")


if __name__ == "__main__":
    main()
