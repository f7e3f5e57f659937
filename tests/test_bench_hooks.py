"""The benchmark's tracer (perfbench/) finds every function and parameter it
reads in ratecalc, so a rename fails here and not only in a traced run."""

import importlib
import json
from pathlib import Path

from ratecalc import (
    Constant,
    InversePower,
    PolyPower,
    TransformConfig,
    sl_from_sp,
    sp2sl_condition,
    sp_from_sl,
    sp_from_wl,
    wl2sp_condition,
    wl_from_sp,
    xi1,
)
import ratecalc

ROOT = Path(__file__).resolve().parents[1]
TRACED_MAPS = ("sp_from_wl", "wl2sp_condition", "sl_from_sp", "sp2sl_condition", "sp_from_sl", "wl_from_sp", "xi1")


def test_tracer_hooks_cover_the_benchmark_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    layers = importlib.import_module("layers")
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        # The tracer rebinds the module-level names, so call through them.
        assert ratecalc.sp_from_wl is not sp_from_wl
        cfg = TransformConfig(n0=2, k_max=60, N_max=60)

        def maps():
            ratecalc.sp_from_wl(Constant(B=2.0), [0.1, 0.5], cfg)
            ratecalc.wl2sp_condition(Constant(B=2.0), cfg)
            ratecalc.sl_from_sp(InversePower(a=1.0, p=1.0), [0.05, 0.5], cfg)
            ratecalc.sp2sl_condition(InversePower(a=1.0, p=1.0), cfg)
            ratecalc.sp_from_sl(PolyPower(C=1.0, p=1.0), [0.05, 0.5], cfg)
            ratecalc.wl_from_sp(InversePower(a=1.0, p=1.0), [0.2, 1.0], cfg)
            ratecalc.xi1(InversePower(a=1.0, p=1.0), 0.5)

        tracer.op = 0
        tracer.call("op.maps", maps)
        metrics = layers.per_layer(tracer, {"op.maps"}, {}, 0.0)
    finally:
        tracer.uninstall()
    assert ratecalc.sp_from_wl is sp_from_wl and ratecalc.wl2sp_condition is wl2sp_condition
    assert ratecalc.sl_from_sp is sl_from_sp and ratecalc.sp_from_sl is sp_from_sl
    assert ratecalc.sp2sl_condition is sp2sl_condition
    assert ratecalc.wl_from_sp is wl_from_sp and ratecalc.xi1 is xi1

    for name in TRACED_MAPS:
        spans = tracer.named(f"transforms.{name}")
        assert spans and all(s.ok for s in spans), name
    assert tracer.counters["ratefn.eval_at_log_many"].elems > 0
    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert wanted <= set(metrics)
