"""What the traced run wraps in each ratecalc module, and the per-layer
metrics it derives from the spans and counters.

Work counts (kernel rows, WL indices, oracle directions) are computed
here from the arguments of each call, that is from the index windows
and grids the call requests, not read from inside the program.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import ratecalc
import ratecalc.cli
import ratecalc.dirichlet
import ratecalc.optconst
import ratecalc.ratefn
import ratecalc.transforms

from tracing import Tracer

MODULES = (ratecalc, ratecalc.cli, ratecalc.dirichlet, ratecalc.optconst, ratecalc.ratefn, ratecalc.transforms)

OP_FIGURES = ("verify_s", "spectrum_s", "sp2sl_s", "example11_s", "wl2sp_s", "solve_s", "oracle_s")
MEDIAN_FIGURES = ("solve_s", "oracle_s")


def op_figures(ops, times: dict) -> dict:
    """Per-operation figures of one round: the time of the operations
    that feed each figure, summed, or their median call where named so."""
    fed: dict = {}
    for op in ops:
        if op.metric:
            fed.setdefault(op.metric, []).append(times[op.name])
    return {k: statistics.median(v) if k in MEDIAN_FIGURES else math.fsum(v) for k, v in fed.items()}


def _cfg(args) -> ratecalc.TransformConfig:
    return args.get("cfg") or ratecalc.TransformConfig()


def _n0(cfg) -> int:
    # An auto-detected start index is counted as 2, the smallest allowed;
    # the detected one is a few indices later, out of windows of 10^2..10^5.
    return cfg.n0 if cfg.n0 is not None else 2


def _window(beta, kernel: str, cfg, lo: int, hi: int) -> dict:
    return {"kernel_key": (id(beta), kernel, cfg.delta), "window": (lo, hi)}


def _xi1_sequence(args, result) -> dict:
    cfg = _cfg(args)
    return _window(args["beta_sp"], "xi1", cfg, _n0(cfg), cfg.N_max)


def _wl_from_sp(args, result) -> dict:
    """Window [n0, max k*(s)], k*(s) the smallest k with C2 k delta^-k <= s."""
    cfg = _cfg(args)
    n0 = _n0(cfg)
    s = np.asarray(args["s_grid"], dtype=float)
    s_eff = np.minimum(s, cfg.s0 if cfg.s0 is not None else s[-1])
    ks = np.arange(n0, cfg.k_max + 1)
    ok = np.flatnonzero(math.log(cfg.C2) + np.log(ks) - ks * math.log(cfg.delta) <= math.log(s_eff.min()))
    return _window(args["beta_sp"], "xi1", cfg, n0, int(ks[ok[0]]) if ok.size else cfg.k_max)


def _sp_from_sl(args, result) -> dict:
    cfg = _cfg(args)
    return _window(args["beta_sl"], "xi2", cfg, _n0(cfg), cfg.k_max)


def _xi1_point(args, result) -> dict:
    cfg = _cfg(args)
    return {"kernel_key": (id(args["beta_sp"]), "xi1", cfg.delta, float(args["t"])), "window": (0, 0)}


def _wl_window(args, result) -> dict:
    cfg = _cfg(args)
    return {"wl_indices": cfg.N_max - _n0(cfg) + 1}


def _solve(args, result) -> dict:
    return {"iterations": int(result[2]) if isinstance(result, tuple) else 0}


def _oracle(args, result) -> dict:
    """Directions of the angular grid the call requests."""
    n, res = args["form"].n, float(args["resolution"])
    if n == 1:
        return {"dirs": 1}
    spans = [math.pi] * (n - 2) + [2 * math.pi] if args["kind"] == "WP" else [math.pi / 2] * (n - 1)
    return {"dirs": math.prod(int(round(sp / res)) + 1 for sp in spans)}


def _rows(args, result) -> dict:
    return {"rows": int(np.shape(args["F"])[0])}


def _size(self, *args, **kwargs) -> int:
    """Elements of a RateFunction evaluator's argument."""
    return int(np.size([*args, *kwargs.values()][0]))


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def install(tracer: Tracer) -> None:
    tr, opt, di, rf = ratecalc.transforms, ratecalc.optconst, ratecalc.dirichlet, ratecalc.ratefn
    form = ratecalc.FiniteDirichletForm
    rate_classes = _subclasses(rf.RateFunction)
    tracer.install(
        MODULES,
        spans={
            "optconst.solve": (opt, "optimal_value", _solve),
            "optconst.oracle": (opt, "brute_force_oracle", _oracle),
            "dirichlet.spectral_gap": (di, "spectral_gap", None),
            "dirichlet.energy_many": (form, "energy_many", _rows),
            "transforms.sp2sl_condition": (tr, "sp2sl_condition", _xi1_sequence),
            "transforms.sl_from_sp": (tr, "sl_from_sp", _xi1_sequence),
            "transforms.wl_from_sp": (tr, "wl_from_sp", _wl_from_sp),
            "transforms.sp_from_sl": (tr, "sp_from_sl", _sp_from_sl),
            "transforms.xi1": (tr, "xi1", _xi1_point),
            "transforms.wl2sp_condition": (tr, "wl2sp_condition", _wl_window),
            "transforms.sp_from_wl": (tr, "sp_from_wl", _wl_window),
            "ratefn.fit_exponent": (rf, "fit_exponent", None),
        },
        counters={
            "dirichlet.energy": ([form], "energy", None),
            "dirichlet.entropy": ([di], "entropy", None),
            "ratefn.eval_many": (rate_classes, "eval_many", _size),
            "ratefn.log_eval_many": (rate_classes, "log_eval_many", _size),
            "ratefn.eval_at_log_many": (rate_classes, "eval_at_log_many", _size),
        },
    )


def _union_size(windows) -> int:
    total, reach = 0, -math.inf
    for lo, hi in sorted(windows):
        lo = max(lo, reach + 1)
        if hi >= lo:
            total += hi - lo + 1
            reach = hi
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(tracer: Tracer, cli_ops: set, figures: dict, overhead_s: float) -> dict:
    """{name: (value, unit)} for every per-layer metric of the benchmark."""
    c = tracer.counters
    m = {"cli.self_s": (math.fsum(s.self_s for s in tracer.spans if s.name in cli_ops), "s")}

    solves = tracer.named("optconst.solve")
    oracles = tracer.named("optconst.oracle")
    m["optconst.solve.calls"] = (len(solves), "count")
    m["optconst.solve.self_s"] = (tracer.self_s("optconst.solve"), "s")
    m["optconst.solve.iterations"] = (sum(s.info.get("iterations", 0) for s in solves), "count")
    m["optconst.oracle.self_s"] = (tracer.self_s("optconst.oracle"), "s")
    m["optconst.oracle.dirs_per_s"] = (
        _ratio(sum(s.info["dirs"] for s in oracles), math.fsum(s.duration for s in oracles)), "1/s")
    m["optconst.oracle.rss_growth_mb"] = (math.fsum(s.info["rss_growth_mb"] for s in oracles), "MB")

    m["dirichlet.spectral_gap.calls"] = (len(tracer.named("dirichlet.spectral_gap")), "count")
    m["dirichlet.spectral_gap.self_s"] = (tracer.self_s("dirichlet.spectral_gap"), "s")
    for name in ("energy", "entropy"):
        m[f"dirichlet.{name}.calls"] = (c[f"dirichlet.{name}"].calls, "count")
        m[f"dirichlet.{name}.self_s"] = (c[f"dirichlet.{name}"].self_s, "s")
    m["dirichlet.energy_many.rows"] = (sum(s.info["rows"] for s in tracer.named("dirichlet.energy_many")), "count")
    m["dirichlet.energy_many.self_s"] = (tracer.self_s("dirichlet.energy_many"), "s")

    # Kernel rows: arguments of every kernel window requested.  The rows
    # an answer needs: per operation and kernel input, the union of the
    # windows of the calls that succeeded.
    kernel = [s for s in tracer.spans if "window" in s.info]
    rows = sum(s.info["window"][1] - s.info["window"][0] + 1 for s in kernel)
    needed: dict = {}
    for s in kernel:
        if s.ok:
            needed.setdefault((s.op, s.info["kernel_key"]), []).append(s.info["window"])
    m["transforms.sl_from_sp.self_s"] = (tracer.self_s("transforms.sl_from_sp"), "s")
    m["transforms.sp2sl_condition.self_s"] = (tracer.self_s("transforms.sp2sl_condition"), "s")
    m["transforms.kernel_rows"] = (rows, "count")
    m["transforms.kernel_row_yield"] = (_ratio(sum(_union_size(w) for w in needed.values()), rows), "ratio")

    wl = tracer.named("transforms.sp_from_wl", "transforms.wl2sp_condition")
    wl_time = math.fsum(s.duration for s in tracer.outermost("transforms.sp_from_wl", "transforms.wl2sp_condition"))
    m["transforms.sp_from_wl.self_s"] = (tracer.self_s("transforms.sp_from_wl"), "s")
    m["transforms.wl2sp_condition.self_s"] = (tracer.self_s("transforms.wl2sp_condition"), "s")
    m["transforms.wl_indices_per_s"] = (_ratio(sum(s.info["wl_indices"] for s in wl), wl_time), "1/s")
    m["transforms.wl_from_sp.self_s"] = (tracer.self_s("transforms.wl_from_sp"), "s")
    m["transforms.sp_from_sl.self_s"] = (tracer.self_s("transforms.sp_from_sl"), "s")

    m["ratefn.log_eval_many.calls"] = (c["ratefn.log_eval_many"].calls, "count")
    m["ratefn.log_eval_many.elems"] = (c["ratefn.log_eval_many"].elems, "count")
    m["ratefn.log_eval_many.self_s"] = (c["ratefn.log_eval_many"].self_s, "s")
    m["ratefn.eval_at_log_many.elems"] = (c["ratefn.eval_at_log_many"].elems, "count")
    m["ratefn.eval_at_log_many.self_s"] = (c["ratefn.eval_at_log_many"].self_s, "s")
    m["ratefn.eval_many.self_s"] = (c["ratefn.eval_many"].self_s, "s")
    m["ratefn.fit_exponent.self_s"] = (tracer.self_s("ratefn.fit_exponent"), "s")

    m["trace.overhead_s"] = (overhead_s, "s")
    for name in OP_FIGURES:
        m[f"op.{name}"] = (figures.get(name, 0.0), "s")
    return m
