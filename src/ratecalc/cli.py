"""Command-line interface.

Subcommands: xi, transform, verify, example11, spectrum, optimal.
Every command writes its outputs plus a run manifest (written last)
into --out.  Exit codes: 0 ok (overall pass), 1 verification failed,
2 config error, 3 math-domain error, 4 condition failure, 5 cap error,
6 solver error.  Identical invocations with identical seeds produce
byte-identical CSV/JSON artifacts; the manifest additionally records
the wall clock, which is its only run-dependent field.  A command that
stops on an error still writes a manifest, with pass false and the error
as its summary, once --out exists.
"""

from __future__ import annotations

import functools
import json
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
from .optconst import (
    SolverConfig,
    dominates,
    empirical_rate,
    optimal_value,
)
from .ratefn import LogTabulated, RateFunction, fit_exponent, rate_function_from_json
from .ratefn import ExpPower, LogPower, PolyPower
from .transforms import (
    TransformConfig,
    log_grid,
    sl_from_sp,
    sp2sl_condition,
    sp2sl_window,
    sp_from_sl,
    sp_from_wl,
    wl2sp_condition,
    wl_from_sp,
)
from .transforms import _wl_suffix_sup

_EXAMPLE_TOLERANCE = 0.15


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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


def _load_ratefn(path: str) -> RateFunction:
    try:
        with open(path) as fh:
            return rate_function_from_json(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read rate function file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"rate function file is not valid JSON: {exc}")


def _load_config(path: Optional[str]) -> TransformConfig:
    if path is None:
        return TransformConfig()
    try:
        with open(path) as fh:
            return TransformConfig.from_json_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")


def _resolve_form(form_path: Optional[str], birth_death: Optional[str]):
    if (form_path is None) == (birth_death is None):
        raise ConfigError("provide exactly one of --form or --birth-death")
    if form_path is not None:
        try:
            form = FiniteDirichletForm.load(form_path)
        except OSError as exc:
            raise ConfigError(f"cannot read form file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"form file is not valid JSON: {exc}")
        return form, {"form": form_path}
    try:
        kappa_s, c0_s, hw_s, n_s = birth_death.split(",")
        kappa, c0, hw, n = float(kappa_s), float(c0_s), float(hw_s), int(n_s)
    except ValueError:
        raise ConfigError("--birth-death must be 'kappa,c0,half_width,n'")
    form = build_birth_death(kappa, c0, hw, n)
    return form, {"birth_death": {"kappa": kappa, "c0": c0, "half_width": hw, "n": n}}


def _write_manifest(
    out_dir: str,
    command: str,
    config_paths,
    cfg_dict,
    seed: Optional[int],
    outputs,
    t0: float,
    passed,
    summary: str,
) -> None:
    manifest = {
        "command": command,
        "config_paths": config_paths,
        "resolved_config": cfg_dict,
        "seed": seed,
        "outputs": sorted(outputs),
        "wall_clock_seconds": time.perf_counter() - t0,
        "pass": passed,
        "summary": summary,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


_SELECTORS = ("kernel", "direction", "branch", "kind")
_INPUT_PATHS = ("ratefn_path", "form_path", "config_path")


def _cli_errors(fn):
    """Map library errors to exit codes, writing a failing manifest first."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except RateCalcError as exc:
            out_dir = kwargs["out_dir"]
            if os.path.isdir(out_dir):
                command = [click.get_current_context().info_name]
                command += [str(kwargs[k]) for k in _SELECTORS if k in kwargs]
                cfg_dict = None
                if "config_path" in kwargs:
                    try:
                        cfg_dict = _load_config(kwargs["config_path"]).to_json_dict()
                    except RateCalcError:
                        pass
                _write_manifest(
                    out_dir,
                    " ".join(command),
                    [kwargs[k] for k in _INPUT_PATHS if kwargs.get(k)],
                    cfg_dict,
                    kwargs.get("seed"),
                    [name for name in os.listdir(out_dir) if name != "manifest.json"],
                    t0,
                    False,
                    str(exc),
                )
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Rate-function transforms and their numerical verification."""


@main.command("xi")
@click.option("--kernel", type=click.Choice(["xi1", "xi2"]), required=True)
@click.option("--ratefn", "ratefn_path", type=click.Path(), required=True)
@click.option("--t-grid", "t_grid", required=True, help="min,max,count (log-spaced)")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_xi(kernel, ratefn_path, t_grid, config_path, out_dir):
    """Evaluate a kernel on a t-grid and emit CSV (columns t,xi)."""
    t0 = time.perf_counter()
    beta = _load_ratefn(ratefn_path)
    cfg = _load_config(config_path)
    ts = _parse_grid(t_grid, "t-grid")
    os.makedirs(out_dir, exist_ok=True)
    from .transforms import xi1 as k1, xi2 as k2

    kern = k1 if kernel == "xi1" else k2
    rows = []
    for t in ts:
        v = kern(beta, float(t), cfg)
        if v.is_undefined:
            cell = "undefined"
        elif v.is_pos_inf:
            cell = "inf"
        else:
            cell = _fmt(v.value)
        rows.append((_fmt(t), cell))
    _write_csv(os.path.join(out_dir, "xi.csv"), "t,xi", rows)
    _write_manifest(
        out_dir,
        f"xi {kernel}",
        [p for p in (ratefn_path, config_path) if p],
        cfg.to_json_dict(),
        None,
        ["xi.csv"],
        t0,
        True,
        f"{kernel} evaluated at {len(rows)} points",
    )


_DIRECTIONS = {
    "sp2wl": (wl_from_sp, None),
    "wl2sp": (sp_from_wl, wl2sp_condition),
    "sp2sl": (sl_from_sp, sp2sl_condition),
    "sl2sp": (sp_from_sl, None),
}


@main.command("transform")
@click.option("--direction", type=click.Choice(sorted(_DIRECTIONS)), required=True)
@click.option("--ratefn", "ratefn_path", type=click.Path(), required=True)
@click.option("--s-grid", "s_grid", required=True, help="min,max,count (log-spaced)")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_transform(direction, ratefn_path, s_grid, config_path, out_dir):
    """Apply a rate-function map and emit CSV (s,beta) plus the side-condition verdict.

    The WL-to-SP map adds a log_beta column; beta reads inf where it
    leaves double range.
    """
    t0 = time.perf_counter()
    beta = _load_ratefn(ratefn_path)
    cfg = _load_config(config_path)
    s = _parse_grid(s_grid, "s-grid")
    os.makedirs(out_dir, exist_ok=True)
    transform, condition = _DIRECTIONS[direction]

    verdict = None
    if condition is not None:
        verdict = condition(beta, cfg)
        _write_json(os.path.join(out_dir, "verdict.json"), verdict.to_json_dict())
        if verdict.fails:
            raise ConditionFailedError(
                f"{direction}: vanishing side condition fails empirically "
                f"(trend slope {verdict.trend_slope:.4g})"
            )
        if verdict.status == "inconclusive":
            click.echo(
                f"warning: {direction} side condition is empirically inconclusive",
                err=True,
            )
    else:
        _write_json(os.path.join(out_dir, "verdict.json"), {"status": "not_applicable"})

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if verdict is not None:
            out = transform(beta, s, cfg, verdict=verdict)
        else:
            out = transform(beta, s, cfg)
    if isinstance(out, LogTabulated):
        header = "s,beta,log_beta"
        s_out, log_beta = np.array(out.log_points, dtype=float).T
        with np.errstate(over="ignore"):
            beta_out = np.exp(log_beta)
        rows = [(_fmt(a), _fmt(b), _fmt(c)) for a, b, c in zip(s_out, beta_out, log_beta)]
    else:
        header = "s,beta"
        rows = [(_fmt(a), _fmt(b)) for a, b in out.points]
    _write_csv(os.path.join(out_dir, "transform.csv"), header, rows)
    _write_manifest(
        out_dir,
        f"transform {direction}",
        [p for p in (ratefn_path, config_path) if p],
        cfg.to_json_dict(),
        None,
        ["transform.csv", "verdict.json"],
        t0,
        True,
        f"{direction} evaluated on {len(rows)} grid points",
    )


def _emit_empirical(out_dir: str, emp) -> list:
    base = f"empirical_{emp.kind.lower()}"
    rows = [(_fmt(a), _fmt(b)) for a, b in zip(emp.s_grid, emp.values)]
    _write_csv(os.path.join(out_dir, base + ".csv"), "s,beta", rows)
    _write_json(os.path.join(out_dir, base + ".json"), emp.sidecar_dict())
    return [base + ".csv", base + ".json"]


@main.command("verify")
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--s-grid", "s_grid", default="1e-3,1,12", show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=24, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_verify(form_path, birth_death, s_grid, config_path, seed, restarts, out_dir):
    """End-to-end check: empirical rates vs the rate-function maps on one form.

    Computes empirical SP/SL/WL/WP rate functions, applies the SP-to-SL
    and SP-to-WL maps to the tabulated empirical SP, and reports the
    max-ratio domination constants.  Exit code 0 iff all domination
    reports pass.
    """
    t0 = time.perf_counter()
    form, form_desc = _resolve_form(form_path, birth_death)
    cfg = _load_config(config_path)
    s = _parse_grid(s_grid, "s-grid")
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    sg = spectral_gap(form)
    solver_cfg = SolverConfig(restarts=restarts, seed=seed)
    empirical = {}
    for kind in ("SP", "SL", "WL", "WP"):
        emp = empirical_rate(form, kind, s, solver_cfg)
        empirical[kind] = emp
        outputs.extend(_emit_empirical(out_dir, emp))

    tab_sp = empirical["SP"].to_tabulated()

    verdict = sp2sl_condition(tab_sp, cfg)
    _write_json(os.path.join(out_dir, "verdict_sp2sl.json"), verdict.to_json_dict())
    outputs.append("verdict_sp2sl.json")
    if verdict.fails:
        raise ConditionFailedError(
            "sp2sl side condition fails empirically on the tabulated empirical SP rate"
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trans_sl = sl_from_sp(tab_sp, s, cfg, verdict=verdict)
    rows = [(_fmt(a), _fmt(b)) for a, b in trans_sl.points]
    _write_csv(os.path.join(out_dir, "transformed_sl.csv"), "s,beta", rows)
    outputs.append("transformed_sl.csv")
    dom_sl = dominates(empirical["SL"], trans_sl)

    dominations = {"sl": dom_sl.to_json_dict()}
    wl_degenerate = False
    try:
        trans_wl = wl_from_sp(tab_sp, s, cfg)
    except DegenerateTransformError as exc:
        # The kernel sequence vanished on the whole sup window: the form
        # is so small that every truncation slice is empty and the weak
        # log-Sobolev content reduces to the Poincare inequality; report
        # the domination as trivially satisfied and move on.
        wl_degenerate = True
        dominations["wl"] = {
            "degenerate": True,
            "passed": True,
            "note": str(exc),
        }
    else:
        rows = [(_fmt(a), _fmt(b)) for a, b in trans_wl.points]
        _write_csv(os.path.join(out_dir, "transformed_wl.csv"), "s,beta", rows)
        outputs.append("transformed_wl.csv")
        dom_wl = dominates(empirical["WL"], trans_wl)
        dominations["wl"] = dom_wl.to_json_dict()

    overall = all(d.get("passed", False) for d in dominations.values())
    report = {
        "form": form_desc,
        "n_states": form.n,
        "s_grid": [float(x) for x in s],
        "seed": seed,
        "restarts": restarts,
        "spectral_gap": sg.gap,
        "poincare_constant": sg.poincare_constant,
        "wl_transform_degenerate": wl_degenerate,
        "dominations": dominations,
        "pass": overall,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    outputs.append("report.json")
    _write_manifest(
        out_dir,
        "verify",
        [p for p in (form_path, config_path) if p],
        cfg.to_json_dict(),
        seed,
        outputs,
        t0,
        overall,
        "all domination reports pass" if overall else "a domination report failed",
    )
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
    # wl2sp: delta^k overflows doubles quickly, so place the window where
    # the smallest admissible k stays below the cap.
    n0 = cfg.n0 if cfg.n0 is not None else 2
    n_hi = min(380, cfg.k_max, cfg.N_max)
    n_lo = n0 + min(3, cfg.N_max - n0)
    sup = {}
    for ns, block in _wl_suffix_sup(beta, cfg, n0):
        for n in (n_lo, n_hi):
            if ns[0] <= n <= ns[-1]:
                sup[n] = float(block[n - ns[0]])
        if ns[0] <= min(n_lo, n_hi):
            break
    s_lo = sup[n_hi] * 1.02
    s_hi = max(sup[n_lo] * 0.98, s_lo * 20.0)
    return log_grid(s_lo, s_hi, 40)


@main.command("example11")
@click.option("--theta", type=float, required=True)
@click.option("--branch", type=click.Choice(_BRANCHES), required=True)
@click.option("--s-grid", "s_grid", default=None, help="min,max,count (log-spaced)")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_example11(theta, branch, s_grid, config_path, out_dir):
    """Check a closed-form family against its predicted growth exponent.

    Builds the canonical input for the branch, runs the transform, fits
    the exponent of the output and compares with the prediction at a
    +-0.15 tolerance.  Exit code 0 iff the fit passes.
    """
    t0 = time.perf_counter()
    cfg = _load_config(config_path)
    beta, predicted, model = _example_input(theta, branch)
    os.makedirs(out_dir, exist_ok=True)
    grid = _parse_grid(s_grid, "s-grid") if s_grid else None
    if branch == "sp2sl":
        out, grid = _example_sp2sl(beta, grid, cfg)
    else:
        if grid is None:
            grid = _example_default_grid(branch, theta, beta, cfg)
        transform = {"sp2wl": wl_from_sp, "sl2sp": sp_from_sl, "wl2sp": sp_from_wl}[branch]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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
    _write_json(os.path.join(out_dir, "report.json"), report)
    rows = [(_fmt(a), _fmt(b)) for a, b in pts]
    _write_csv(os.path.join(out_dir, "transform.csv"), "s,beta", rows)
    _write_manifest(
        out_dir,
        f"example11 {branch}",
        [config_path] if config_path else [],
        cfg.to_json_dict(),
        None,
        ["report.json", "transform.csv"],
        t0,
        bool(passed),
        f"fitted {fitted:.4f} vs predicted {predicted:.4f}",
    )
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

    On a user grid whose qualifying index reaches N_max, N_max doubles
    from 50 000 up to 1.6e6 and the sequence is built again.
    """
    n_max = max(cfg.N_max, _SP2SL_N_MAX if grid is None else 50_000)
    while True:
        run_cfg = _with_n_max(cfg, n_max)
        verdict = sp2sl_condition(beta, run_cfg)
        if grid is None:
            grid = log_grid(*sp2sl_window(verdict, run_cfg, *_SP2SL_WINDOW), 60)
        try:
            return sl_from_sp(beta, grid, run_cfg, verdict=verdict), grid
        except CapError:
            if n_max >= 1_500_000:
                raise
            n_max *= 2


def _with_n_max(cfg: TransformConfig, n_max: int) -> TransformConfig:
    d = cfg.to_json_dict()
    d["N_max"] = int(n_max)
    return TransformConfig.from_json_dict(d)


@main.command("spectrum")
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_spectrum(form_path, birth_death, out_dir):
    """Print the spectral gap of a form."""
    t0 = time.perf_counter()
    form, form_desc = _resolve_form(form_path, birth_death)
    os.makedirs(out_dir, exist_ok=True)
    sg = spectral_gap(form)
    click.echo(f"gap {_fmt(sg.gap)}")
    _write_json(
        os.path.join(out_dir, "spectrum.json"),
        {"form": form_desc, "gap": sg.gap, "poincare_constant": sg.poincare_constant},
    )
    _write_manifest(
        out_dir, "spectrum", [form_path] if form_path else [], {}, None,
        ["spectrum.json"], t0, True, f"gap {sg.gap:.6g}",
    )


@main.command("optimal")
@click.option("--kind", type=click.Choice(["SP", "SL", "WL", "WP"]), required=True)
@click.option("--s", type=float, required=True)
@click.option("--form", "form_path", type=click.Path(), default=None)
@click.option("--birth-death", "birth_death", default=None, help="kappa,c0,half_width,n")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=24, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@_cli_errors
def cmd_optimal(kind, s, form_path, birth_death, seed, restarts, out_dir):
    """Evaluate one optimal rate value for a (kind, s) pair."""
    t0 = time.perf_counter()
    form, form_desc = _resolve_form(form_path, birth_death)
    os.makedirs(out_dir, exist_ok=True)
    value = optimal_value(form, kind, s, SolverConfig(restarts=restarts, seed=seed))
    click.echo(f"{kind} {_fmt(s)} {_fmt(value)}")
    _write_json(
        os.path.join(out_dir, "optimal.json"),
        {"form": form_desc, "kind": kind, "s": s, "value": value, "seed": seed},
    )
    _write_manifest(
        out_dir, f"optimal {kind}", [form_path] if form_path else [], {}, seed,
        ["optimal.json"], t0, True, f"{kind}({s:g}) = {value:.6g}",
    )


if __name__ == "__main__":
    main()
