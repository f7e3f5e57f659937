"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

import math
import os
import sys
import time
import types

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _fake_module():
    mod = types.ModuleType("fake")

    def leaf(x):
        time.sleep(0.02)
        return x

    def outer(x):
        time.sleep(0.01)
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    mod.table = {"k": (outer, 1)}
    return mod


def test_self_time_excludes_children_and_uninstall_restores():
    mod = _fake_module()
    leaf, outer = mod.leaf, mod.outer
    tr = Tracer()
    tr.install([mod], spans={"outer": (mod, "outer", None)}, counters={"leaf": ([mod], "leaf", None)})
    assert mod.table["k"][0] is not outer
    assert tr.call("op", mod.outer, 1) == 2
    tr.uninstall()
    assert (mod.leaf, mod.outer, mod.table["k"][0]) == (leaf, outer, outer)

    op, span = tr.spans
    assert span.parent == 0 and op.parent == -1
    assert tr.counters["leaf"].calls == 2
    assert math.isclose(span.self_s + tr.counters["leaf"].total_s, span.duration)
    assert span.self_s < 0.03 < tr.counters["leaf"].self_s
    assert op.self_s < 0.005


def test_kernel_windows_union():
    assert layers._union_size([(2, 10), (2, 10)]) == 9
    assert layers._union_size([(2, 10), (5, 20), (30, 30)]) == 20


def test_k_star_bisection_matches_scan():
    for s in (0.05, 0.2, 0.6):
        k = np.arange(2, 5000)
        log_x = -(k * math.log(4.0) + np.log(k))
        g = (1.0 + np.sqrt(np.log1p(np.exp(log_x)) - log_x)) / k
        assert workloads.wl_k_star(s, 0.5, 4.0, 1.0, 2, 4999) == int(k[np.argmax(g <= s)])


def test_objective_and_scan_on_two_states():
    # mu = (1/2, 1/2), w = 1: Var(f) / E(f) = 1/4 for every nonconstant f,
    # so the gap is 4 and WP(s) tends to 1/4 as s -> 0.
    assert abs(workloads.angular_scan("two_uniform", "WP", 1e-9) - 0.25) < 1e-6
    assert workloads.angular_scan("two_uniform", "SP", 0.1) >= 1.0
