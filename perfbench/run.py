"""Run one benchmark workload against the ratecalc source in this checkout.

    python3 perfbench/run.py --workload verify-chain --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory and driven
in this process, through its CLI (``ratecalc.cli.main``) and its public
API, with its defaults (``RATECALC_THREADS`` unset).  A run repeats whole
rounds of the workload's operations until ``--seconds`` have passed (at
least one round), checks the outputs of the last round, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median of several fresh processes, each timed from its start to the
point where the first operation would run), ``wall_s`` (median round
time) and ``peak_rss_mb``.  With ``--trace 1`` the run makes one traced
round and then one untraced round, and the metrics are the per-layer
ones; the spans are written to ``perfbench/.runs/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")
SETUP_SAMPLES = 5


def _import_program():
    """Import ratecalc from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "ratecalc", "__init__.py")):
        sys.exit(f"perfbench: no ratecalc sources under {SRC}")
    sys.path.insert(0, SRC)
    import ratecalc

    if os.path.dirname(os.path.dirname(os.path.abspath(ratecalc.__file__))) != SRC:
        sys.exit(f"perfbench: imported ratecalc from {ratecalc.__file__}, not from {SRC}")


def _set_up(workload: str, seed: int):
    """Everything before the first operation: imports, inputs, work directory."""
    _import_program()
    from workloads import WORKLOADS

    work = os.path.join(RUNS, f"{workload}-{os.getpid()}")
    os.makedirs(work)
    return WORKLOADS[workload](seed, work), work


def _setup_seconds(workload: str, seed: int) -> float:
    """Time a fresh process from its start until it has set up the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("perfbench: set-up probe failed")
    return elapsed


def _round(wl, ops, work: str, index: int, tracer=None):
    """Run every operation once; returns (records, seconds per op, failures)."""
    from workloads import OpFailed

    records, times, failures = {}, {}, []
    for i, op in enumerate(ops):
        out = os.path.join(work, f"round{index}", f"op{i}")
        os.makedirs(out)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                records[op.name] = op.run(out)
            else:
                tracer.op = i
                records[op.name] = tracer.call(f"op.{op.name}", op.run, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            records[op.name] = exc if isinstance(exc, OpFailed) else OpFailed(repr(exc))
            failures.append(op)
        times[op.name] = time.perf_counter() - t0
    shutil.rmtree(os.path.join(work, f"round{index}"))
    return records, times, failures


def _same(a: dict, b: dict) -> bool:
    """Equal records; failures compare by message."""
    return a.keys() == b.keys() and all(
        str(a[k]) == str(b[k]) if isinstance(a[k], Exception) else a[k] == b[k] for k in a
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify-chain", "maps-deep", "oracle-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    os.environ.pop("RATECALC_THREADS", None)

    if args.setup_probe:
        _, work = _set_up(args.workload, args.seed)
        print("ready", flush=True)
        shutil.rmtree(work)
        return 0

    _import_program()
    setup = None
    if not args.trace:
        setup = statistics.median(_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES))
    wl, work = _set_up(args.workload, args.seed)
    try:
        return _run(wl, work, args, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, work: str, args, setup) -> int:
    import layers
    from tracing import Tracer, maxrss_mb

    ops = wl.ops()
    rounds = []  # (records, times, failures, traced)
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            rounds.append((*_round(wl, ops, work, 0, tracer), True))
        finally:
            tracer.uninstall()
        rounds.append((*_round(wl, ops, work, 1), False))
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            clear = getattr(sys.modules["ratecalc.optconst"], "_GRID_CACHE", None)
            if clear is not None:
                clear.clear()  # every round pays for the oracle grid, as a fresh process does
            rounds.append((*_round(wl, ops, work, len(rounds)), False))
    peak = maxrss_mb()

    problems = []
    last = rounds[-1][0]
    failed = 0
    for records, times, failures, traced in rounds:
        failed += len(failures)
        for op in failures:
            if not op.expect_fail:
                problems.append(f"{op.name} failed: {records[op.name]}")
        if not _same(records, last):
            problems.append("outputs differ between rounds" + (" (traced vs untraced)" if traced else ""))
    problems += wl.check({k: v for k, v in last.items() if not isinstance(v, Exception)})

    plain = [r for r in rounds if not r[3]]
    walls = [sum(r[1].values()) for r in plain]
    figures = layers.op_figures(ops, plain[-1][1])

    if args.trace:
        overhead = sum(rounds[0][1].values()) - walls[-1]
        metrics = layers.per_layer(tracer, {f"op.{op.name}" for op in ops if op.cli}, figures, overhead)
        os.makedirs(RUNS, exist_ok=True)
        with open(os.path.join(RUNS, f"trace-{args.workload}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh, default=str)
    else:
        metrics = {"setup_s": (setup, "s"), "wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (peak, "MB")}

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    detail = " ".join(f"{k}={v:.4g}s" for k, v in figures.items())
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} {detail}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
