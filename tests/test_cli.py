import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os
import pathlib

import click
import numpy as np
import pytest
from click.testing import CliRunner

from ratecalc import FiniteDirichletForm, KINDS, SolverConfig, SolverError, empirical_rate, log_grid
from ratecalc import cli, optconst, rate_function_from_json, transforms, xi1, xi2
from ratecalc.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _row_indices(rows):
    """The n of each row, all of them xi1 arguments 4^-(n-1)."""
    return np.rint(1.0 - np.concatenate(rows) / np.log(4.0)).astype(int)


def _each_once(rows, n_hi):
    """All rows are xi1 arguments 4^-(n-1) for n = n0..n_hi, each evaluated once."""
    ns = _row_indices(rows)
    assert np.unique(ns).size == ns.size
    assert ns.max() == n_hi
    assert np.array_equal(np.sort(ns), np.arange(ns.min(), n_hi + 1))


def _write_ratefn(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


class TestXi:
    def test_header_and_values(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        out = tmp_path / "out"
        res = runner.invoke(main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "0.25,0.5,2", "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "xi.csv").read_text().splitlines()
        assert lines[0] == "t,xi"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, rel=1e-4)
        assert float(lines[2].split(",")[1]) == pytest.approx(2.0, rel=1e-4)

    def test_undefined_row(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 5.0})
        out = tmp_path / "out"
        res = runner.invoke(main, ["xi", "--kernel", "xi2", "--ratefn", rf, "--t-grid", "4,5,2", "--out", str(out)])
        assert res.exit_code == 0
        lines = (out / "xi.csv").read_text().splitlines()
        assert lines[1] == "4,undefined"
        assert lines[2] == "5,undefined"

    def test_manifest_written(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 1.0})
        out = tmp_path / "out"
        res = runner.invoke(main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "0.1,1,3", "--out", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is True
        assert (manifest["config_paths"], manifest["resolved_config"]) == ([rf], {})
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_config_option_is_refused(self, runner, tmp_path):
        # The kernels read no config: xi takes no --config.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = tmp_path / "out"
        res = runner.invoke(
            main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "0.1,1,3", "--config", str(cfg), "--out", str(out)]
        )
        assert res.exit_code == 2
        assert "No such option" in res.output and "--config" in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "kernel,family,grid,undefined",
        [
            ("xi1", {"family": "inverse_power", "a": 1.0, "p": 1.0}, "1e-3,1e3,40", False),
            ("xi1", {"family": "exp_power", "C": 1.0, "theta": 0.5}, "1e-3,10,40", True),
            ("xi2", {"family": "log_power", "C": 1.0, "q": 0.5}, "1e-2,1e2,40", True),
            ("xi2", {"family": "constant", "B": 5.0}, "1,10,40", True),
            ("xi1", {"family": "table", "points": [[1e-3, 50.0], [1.0, 4.0], [1e3, 2.0]]}, "1e-2,1,40", True),
        ],
    )
    def test_one_kernel_call_equals_the_per_point_loop(self, runner, tmp_path, kernel, family, grid, undefined):
        rf = _write_ratefn(tmp_path / "rf.json", family)
        out = tmp_path / "out"
        res = runner.invoke(main, ["xi", "--kernel", kernel, "--ratefn", rf, "--t-grid", grid, "--out", str(out)])
        assert res.exit_code == 0, res.output
        beta = rate_function_from_json(family)
        lo, hi, count = grid.split(",")
        want = ["t,xi"]
        for t in log_grid(float(lo), float(hi), int(count)):
            v = {"xi1": xi1, "xi2": xi2}[kernel](beta, float(t))
            want.append(f"{float(t):.17g}," + ("undefined" if v.is_undefined else f"{v.value:.17g}"))
        assert (out / "xi.csv").read_text().splitlines() == want
        assert any(line.endswith("undefined") for line in want) == undefined

    @pytest.mark.parametrize(
        "blob, message",
        [
            ('{"family": "constant", "B": Infinity}', "B must be finite"),
            ('{"family": "poly_power", "C": true, "p": 1}', "'C' must be a number"),
            ('{"family": "poly_power", "C": "1.5", "p": 1}', "'C' must be a number"),
            pytest.param(
                '{"family": "constant", "B": 1%s}' % ("0" * 400), "'B' out of range: an integer past double range",
                id="401-digit-B",
            ),
            pytest.param(
                '{"family": "table", "points": [[1%s, 1.0]]}' % ("0" * 400), "points entry out of range",
                id="401-digit-table-point",
            ),
        ],
    )
    def test_non_numeric_or_infinite_ratefn_exits_2(self, runner, tmp_path, blob, message):
        rf = tmp_path / "rf.json"
        rf.write_text(blob)
        out = tmp_path / "out"
        out.mkdir()
        res = runner.invoke(main, ["xi", "--kernel", "xi1", "--ratefn", str(rf), "--t-grid", "0.25,0.5,2", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not (out / "xi.csv").exists()

    def test_bad_grid_is_config_error(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 1.0})
        res = runner.invoke(main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "nope", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_oversized_grid_is_refused_up_front(self, runner, tmp_path):
        # 10^15 points would not fit in the address space; log_grid refuses
        # the count before numpy is asked to allocate it.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(
            main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "1e-3,1,1000000000000000", "--out", str(out)]
        )
        assert res.exit_code == 2, res.output
        assert "exceeds the limit" in res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert manifest["command"] == "xi xi1"
        assert manifest["outputs"] == []

    def test_bad_t_is_math_domain_error(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 1.0})
        res = runner.invoke(
            main, ["xi", "--kernel", "xi1", "--ratefn", rf, "--t-grid", "-1,1,3", "--out", str(tmp_path / "o")]
        )
        assert res.exit_code in (2, 3)


class TestTransform:
    def test_condition_failure_exits_4(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "exp_power", "C": 1.0, "theta": 1.0})
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2sl", "--ratefn", rf, "--s-grid", "0.2,1,8", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 4
        verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
        assert verdict["status"] == "fails_empirically"

    def test_gate_passes_for_vanishing_family(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "exp_power", "C": 1.0, "theta": 0.6})
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2sl", "--ratefn", rf, "--s-grid", "0.2,1,8", "--out", str(out)],
        )
        assert res.exit_code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "holds_empirically"
        lines = (out / "transform.csv").read_text().splitlines()
        assert lines[0] == "s,beta"

    def test_sp2sl_evaluates_each_index_once(self, runner, tmp_path, kernel_rows):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "exp_power", "C": 1.0, "theta": 0.6})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_max": 20000}))
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2sl", "--ratefn", rf, "--s-grid", "1e-3,1,8",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 0
        _each_once(kernel_rows, 20000)

    def test_ungated_direction_writes_placeholder_verdict(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2wl", "--ratefn", rf, "--s-grid", "0.2,1,6", "--out", str(out)],
        )
        assert res.exit_code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["status"] == "not_applicable"

    def test_cap_error_exits_5(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "log_power", "C": 1.0, "q": 0.5})
        res = runner.invoke(
            main,
            ["transform", "--direction", "wl2sp", "--ratefn", rf, "--s-grid", "1e-4,1e-2,6", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 5

    @pytest.mark.parametrize(
        "ratefn, grid, exit_code",
        [
            ({"family": "constant", "B": 2.0}, "1e-3,1e-2,4", 0),
            ({"family": "inverse_power", "a": 1.0, "p": 1.0}, "1e-3,1e-1,5", 4),
            ({"family": "log_power", "C": 1.0, "q": 0.5}, "1e-4,1e-2,6", 5),
        ],
    )
    def test_wl2sp_walks_the_window_once(self, runner, tmp_path, monkeypatch, ratefn, grid, exit_code):
        # verdict.json and k*(s) come from one walk of [n0, N_max], whatever the exit.
        from ratecalc import transforms

        ns = []
        real = transforms._wl_condition_sequence

        def recording(beta, cfg, block, *rest):
            ns.append(block.copy())
            return real(beta, cfg, block, *rest)

        monkeypatch.setattr(transforms, "_wl_condition_sequence", recording)
        rf = _write_ratefn(tmp_path / "rf.json", ratefn)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 3000, "N_max": 3000}))
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "wl2sp", "--ratefn", rf, "--s-grid", grid,
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == exit_code
        assert (out / "verdict.json").exists() and (out / "transform.csv").exists() == (exit_code == 0)
        assert np.array_equal(np.sort(np.concatenate(ns)), np.arange(2, 3001))

    def test_overflowing_beta_writes_log_beta(self, runner, tmp_path):
        # k* = 2000 at s = 1e-3: beta_SP = 4^2000 does not fit in a double,
        # so beta reads inf there and log_beta carries the exact value.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "constant", "B": 2.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 5000, "N_max": 5000}))
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "wl2sp", "--ratefn", rf, "--s-grid", "1e-3,1e-2,4",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = (out / "transform.csv").read_text().splitlines()
        assert lines[0] == "s,beta,log_beta"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows[0][0] == pytest.approx(1e-3)
        assert rows[0][1] == math.inf
        assert rows[0][2] == 2000 * math.log(4.0)
        for s, beta, log_beta in rows:
            assert beta == (math.exp(log_beta) if log_beta < 709 else math.inf)
        assert rows[-1][2] == 200 * math.log(4.0)

    def test_sl2sp_writes_log_beta(self, runner, tmp_path):
        # k*(1e-6) = 1444 for PolyPower{1, 1}: 4^1444 reads inf in beta.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "poly_power", "C": 1.0, "p": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_max": 100_000}))
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "sl2sp", "--ratefn", rf, "--s-grid", "1e-6,1e-4,3",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = (out / "transform.csv").read_text().splitlines()
        assert lines[0] == "s,beta,log_beta"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows[0][1] == math.inf
        assert rows[0][2] == 1444 * math.log(4.0)
        for s, beta, log_beta in rows:
            assert beta == (math.exp(log_beta) if log_beta < 709 else math.inf)

    def test_sl2sp_limit_past_double_range_exits_5(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "log_table", "log_points": [[1e-3, 900], [1, 800]]})
        res = runner.invoke(
            main,
            ["transform", "--direction", "sl2sp", "--ratefn", rf, "--s-grid", "1e-3,1,4", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 5, res.output
        assert "exceeds k_max" in res.output

    def test_failure_writes_manifest(self, runner, tmp_path):
        # n*xi1(4^(-n+1)) does not vanish for ExpPower{1, 1}: exit 4.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "exp_power", "C": 1.0, "theta": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_max": 4000}))
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2sl", "--ratefn", rf, "--s-grid", "0.2,1,8",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert manifest["command"] == "transform sp2sl"
        assert "vanishing side condition fails" in manifest["summary"]
        assert manifest["resolved_config"]["N_max"] == 4000
        assert manifest["outputs"] == ["verdict.json"]

    @pytest.mark.parametrize(
        "config,message",
        [
            ([], "config must be a JSON object"),
            (3, "config must be a JSON object"),
            # The kernels' r-grid is no setting: r_grid is refused as a key,
            # before any of the values it once took is read.
            ({"r_grid": 5}, "unknown config keys: ['r_grid']"),
            ({"r_grid": [1e-8, 1e8]}, "unknown config keys: ['r_grid']"),
            ({"r_grid": {"cnt": 1200}}, "unknown config keys: ['r_grid']"),
            ({"delta": "4"}, "'delta' must be a number"),
            ({"n0": "abc"}, "'n0' must be a number"),
            ({"k_max": True}, "'k_max' must be a number"),
            ({"C2": None}, "'C2' must be a number"),
            ({"r_grid": {"r_min": "1e-3"}}, "unknown config keys: ['r_grid']"),
            ({"k_max": 2.9}, "'k_max' must be an integer"),
            ({"n0": 3.5}, "'n0' must be an integer"),
            ({"N_max": 1e400}, "'N_max' must be an integer"),
            ({"r_grid": {"count": 700.5}}, "unknown config keys: ['r_grid']"),
            ({"delta": 10**400}, "'delta' out of range: an integer past double range"),
            ({"N_max": 10**400}, "'N_max' out of range: an integer past double range"),
            ({"r_grid": {"count": 10**400}}, "unknown config keys: ['r_grid']"),
            ({"r_grid": {"count": 1200}}, "unknown config keys: ['r_grid']"),
            # The verdict's slope threshold is no setting either.
            ({"slope_tol": 0.1}, "unknown config keys: ['slope_tol']"),
        ],
        ids=[
            "list", "int", "r_grid-int", "r_grid-list", "r_grid-cnt", "delta-str", "n0-str", "k_max-bool", "C2-null",
            "r_grid-r_min-str", "k_max-2.9", "n0-3.5", "N_max-1e400", "r_grid-count-700.5", "delta-10**400",
            "N_max-10**400", "r_grid-count-10**400", "r_grid-count-1200", "slope_tol",
        ],
    )
    def test_malformed_config_exits_2(self, runner, tmp_path, config, message):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2wl", "--ratefn", rf, "--s-grid", "0.2,1,6",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"delta": math.inf}, "delta must be finite"),
            ({"C2": math.inf}, "C2 must be finite"),
            ({"C1": -math.inf}, "C1 must be positive"),
            ({"theta_cond": math.inf}, "theta_cond must be finite"),
            ({"slope_tol": math.inf}, "unknown config keys: ['slope_tol']"),
            ({"s0": math.inf}, "s0 must be finite"),
            ({"r_grid": {"r_max": math.inf}}, "unknown config keys: ['r_grid']"),
        ],
        ids=["delta", "C2", "C1", "theta_cond", "slope_tol", "s0", "r_grid-r_max"],
    )
    def test_infinite_config_exits_2(self, runner, tmp_path, config, message):
        # JSON Infinity; {"delta": Infinity} used to exit 0 with beta = 1.88e-280.
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert "Infinity" in cfg.read_text()
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2wl", "--ratefn", rf, "--s-grid", "0.2,1,6",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False
        assert not (out / "transform.csv").exists()

    def test_integral_floats_and_nulls_are_accepted(self, runner, tmp_path):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n0": 2.0, "s0": None, "k_max": 500.0, "delta": 4, "C2": 1}))
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["transform", "--direction", "sp2wl", "--ratefn", rf, "--s-grid", "0.2,1,6",
             "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert (resolved["n0"], resolved["s0"], resolved["k_max"]) == (2, None, 500)
        # integral floats read as ints, and a float field written as an int keeps it
        assert [type(resolved[k]) for k in ("n0", "k_max", "delta", "C2")] == [int] * 4
        assert (resolved["delta"], resolved["C2"]) == (4, 1)


class TestExample11:
    def test_sp2sl_half(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["example11", "--theta", "0.5", "--branch", "sp2sl", "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["predicted_exponent"] == pytest.approx(1.0)
        assert abs(rep["fitted_exponent"] - 1.0) <= 0.15
        assert rep["pass"]

    @pytest.mark.parametrize("theta", ["0.6", "0.75"])
    def test_sp2sl_default_window_fits(self, runner, tmp_path, theta, kernel_rows):
        out = tmp_path / "o"
        res = runner.invoke(main, ["example11", "--theta", theta, "--branch", "sp2sl", "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "report.json").read_text())
        assert abs(rep["fitted_exponent"] - rep["predicted_exponent"]) <= 0.15
        # The window's two rows in their own kernel call, then one sequence, no retry.
        assert _row_indices(kernel_rows[:1]).tolist() == [1000, 200_000]
        _each_once(kernel_rows[1:], 400_000)

    def test_sp2sl_retry_rebuilds_sequence(self, runner, tmp_path, kernel_rows):
        # N0(1e-5) lies between 5e4 and 1e5: one retry, from N_max 5e4 to 1e5,
        # each pass evaluating its window once.
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["example11", "--theta", "0.5", "--branch", "sp2sl", "--s-grid", "1e-5,1e-2,60", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        ns = _row_indices(kernel_rows)
        n0 = ns.min()
        assert ns.max() == 100_000
        assert np.array_equal(np.bincount(ns - n0), np.where(np.arange(100_001 - n0) <= 50_000 - n0, 2, 1))

    def test_sp2sl_failing_condition_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(transforms, "_SLOPE_TOL", 50.0)
        res = runner.invoke(
            main,
            ["example11", "--theta", "0.5", "--branch", "sp2sl", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 4, res.output

    def test_sp2sl_empty_default_window_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n0": 200_000}))
        res = runner.invoke(
            main,
            ["example11", "--theta", "0.5", "--branch", "sp2sl", "--config", str(cfg), "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 2, res.output
        assert "no s-window" in res.output

    def test_sp2wl_theta_two(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["example11", "--theta", "2", "--branch", "sp2wl", "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["predicted_exponent"] == pytest.approx(0.5)
        assert rep["pass"]

    def test_sl2sp_half(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["example11", "--theta", "0.5", "--branch", "sl2sp", "--out", str(out)])
        assert res.exit_code == 0
        assert (out / "transform.csv").read_text().startswith("s,beta\n")
        rep = json.loads((out / "report.json").read_text())
        assert rep["predicted_exponent"] == pytest.approx(0.5)
        assert rep["pass"]

    def test_wl2sp_theta_one(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["example11", "--theta", "1", "--branch", "wl2sp", "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["predicted_exponent"] == pytest.approx(1.0)
        assert rep["pass"]

    def test_wl2sp_default_grid_within_short_window(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N_max": 300}))
        out = tmp_path / "o"
        res = runner.invoke(
            main, ["example11", "--theta", "1", "--branch", "wl2sp", "--config", str(cfg), "--out", str(out)]
        )
        assert res.exception is None or isinstance(res.exception, SystemExit)
        rep = json.loads((out / "report.json").read_text())
        assert rep["fit_range"][0] < rep["fit_range"][1]

    @pytest.mark.parametrize(
        "theta,branch",
        [("0.7", "sp2wl"), ("2", "sp2sl"), ("1.5", "sl2sp"), ("0.8", "wl2sp"), ("0.3", "sp2sl")],
    )
    def test_inconsistent_theta_branch_exits_2(self, runner, tmp_path, theta, branch):
        res = runner.invoke(main, ["example11", "--theta", theta, "--branch", branch, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


_VERIFY_11 = ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7"]


def _invoke(args):
    """Exit code, output and process id of the command line ``args`` run in this process."""
    res = CliRunner().invoke(main, args)
    return res.exit_code, res.output, os.getpid()


class TestVerify:
    def test_two_point_passes_with_degenerate_wl(self, runner, tmp_path):
        form = FiniteDirichletForm(mu=np.array([0.5, 0.5]), edges=[(0, 1, 1.0)])
        p = tmp_path / "form.json"
        form.save(p)
        out = tmp_path / "o"
        res = runner.invoke(main, ["verify", "--form", str(p), "--s-grid", "1e-3,1,8", "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"]
        assert rep["dominations"]["sl"]["passed"]
        assert rep["dominations"]["wl"]["passed"]
        assert rep["wl_transform_degenerate"]

    def test_small_birth_death_passes(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "report.json").read_text())
        assert rep["pass"]
        assert rep["dominations"]["sl"]["fitted_constant"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_one_sp2sl_sequence(self, runner, tmp_path, kernel_rows):
        # The SP-to-SL verdict and table read one sequence on [n0, N_max], and
        # the SP-to-WL map then evaluates its own [n0, k*] sup window.
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 0, res.output
        walk, window = (_row_indices([rows]) for rows in kernel_rows)
        assert np.array_equal(walk, np.arange(walk[0], 401))
        assert np.array_equal(window, np.arange(walk[0], 8))
        assert json.loads((tmp_path / "o" / "report.json").read_text())["wl_transform_degenerate"] is False

    def test_two_kernel_calls_on_the_n41_chain(self, runner, tmp_path, kernel_rows):
        # Two kernel calls: the walk's [n0, N_max], then wl_from_sp's [n0, k*] at s = 1e-3.
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,41", "--s-grid", "1e-3,1,6", "--seed", "7", "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == 0, res.output
        assert len(kernel_rows) == 2
        _each_once(kernel_rows[:1], 400)
        assert _row_indices(kernel_rows[1:]).tolist() == [3, 4, 5, 6, 7]
        assert _row_indices(kernel_rows[:1]).min() == 3
        assert (tmp_path / "o" / "transformed_wl.csv").exists()

    def test_wl_cap_error_after_the_sp2sl_files(self, runner, tmp_path):
        # k_max = 5 admits no k* of the SP-to-WL map at s = 1e-3: the SP-to-SL
        # verdict and table are written first, and the run stops with the cap error.
        cfg, out = tmp_path / "cfg.json", tmp_path / "o"
        cfg.write_text(json.dumps({"k_max": 5}))
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7", "--config", str(cfg),
             "--out", str(out)],
        )
        assert res.exit_code == 5, res.output
        assert "no admissible k <= k_max=5 for s=0.001; increase k_max" in res.output
        empirical = [f"empirical_{kind.lower()}.{ext}" for kind in KINDS for ext in ("csv", "json")]
        for name in [*empirical, "verdict_sp2sl.json", "transformed_sl.csv"]:
            assert (out / name).exists(), name
        assert not (out / "transformed_wl.csv").exists()
        assert not (out / "report.json").exists()
        assert json.loads((out / "manifest.json").read_text())["pass"] is False

    def test_inconclusive_sp2sl_verdict_is_reported(self, runner, tmp_path, monkeypatch):
        real = cli._sl_map

        def inconclusive(*a):
            verdict, *rest = real(*a)
            return (dataclasses.replace(verdict, status="inconclusive"), *rest)

        monkeypatch.setattr(cli, "_sl_map", inconclusive)
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert "warning: sp2sl side condition is empirically inconclusive" in res.output
        assert json.loads((out / "verdict_sp2sl.json").read_text())["status"] == "inconclusive"

    @pytest.fixture(scope="class")
    def reference_run(self, tmp_path_factory):
        """A verify run on the n=11 chain, and the files of its kinds as empirical_rate calls in this process write them."""
        out = tmp_path_factory.mktemp("verify")
        assert _invoke(_VERIFY_11 + ["--out", str(out / "o")])[0] == 0
        form, _ = cli._resolve_form(None, "4,1,2,11")
        run = cli._Run(str(out / "ref"))
        run.make_out_dir()
        for kind in KINDS:
            cli._emit_empirical(run, empirical_rate(form, kind, log_grid(1e-3, 1.0, 6), SolverConfig(seed=7)))
        assert len(run.outputs) == 8
        return out / "o", out / "ref", run.outputs

    @pytest.mark.parametrize("where", ["workers", "one_core", "daemonic"])
    def test_artifacts_equal_in_process_solves(self, tmp_path, reference_run, one_core, record_pids, where):
        # The kinds are solved in worker processes where more than one core
        # is usable and the caller may have children, and in the caller
        # otherwise, as in a multiprocessing.Pool worker.  The files are
        # byte for byte those of another run, and the kinds' files those
        # that the same empirical_rate calls write in this process.
        first, ref, empirical = reference_run
        out = tmp_path / "o"
        pids = record_pids(optconst, "_solve_grid")
        args = _VERIFY_11 + ["--out", str(out)]
        if where == "daemonic":
            pool = multiprocessing.get_context("fork").Pool(1)
            try:
                code, output, caller = pool.apply_async(_invoke, (args,)).get(timeout=120)
            finally:
                pool.close()
                pool.join()
        else:
            if where == "one_core":
                one_core()
            code, output, caller = _invoke(args)
        assert code == 0, output
        in_caller = where != "workers" or len(os.sched_getaffinity(0)) == 1
        if in_caller:
            assert pids() == {caller}
        else:
            assert pids() and caller not in pids()
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        assert names == json.loads((first / "manifest.json").read_text())["outputs"]
        for name in names:
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
        for name in empirical:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        assert multiprocessing.active_children() == []

    def test_solver_error_in_a_worker_exits_6(self, runner, tmp_path, monkeypatch):
        # SL and WP fail: the kinds before the first failure are written, as
        # in a serial loop, and SL's error is the one reported.
        real = optconst._solve_grid

        def failing(form, kind, s, cfg):
            if kind in ("SL", "WP"):
                raise SolverError(f"no restart produced an admissible value for kind {kind}")
            return real(form, kind, s, cfg)

        monkeypatch.setattr(optconst, "_solve_grid", failing)
        out = tmp_path / "o"
        res = runner.invoke(
            main,
            ["verify", "--birth-death", "4,1,2,11", "--s-grid", "1e-3,1,6", "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 6, res.output
        assert "error: no restart produced an admissible value for kind SL" in res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"] == "no restart produced an admissible value for kind SL"
        assert manifest["outputs"] == ["empirical_sp.csv", "empirical_sp.json"]
        assert multiprocessing.active_children() == []

    def test_disconnected_exits_3(self, runner, tmp_path):
        form = FiniteDirichletForm(mu=np.full(4, 0.25), edges=[(0, 1, 1.0), (2, 3, 1.0)])
        p = tmp_path / "form.json"
        form.save(p)
        res = runner.invoke(main, ["verify", "--form", str(p), "--s-grid", "1e-3,1,6", "--out", str(tmp_path / "o")])
        assert res.exit_code == 3

    def test_requires_exactly_one_form_source(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--s-grid", "1e-3,1,6", "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


class TestSpectrumAndOptimal:
    def test_spectrum_prints_gap(self, runner, tmp_path):
        form = FiniteDirichletForm(mu=np.array([0.5, 0.5]), edges=[(0, 1, 1.0)])
        p = tmp_path / "form.json"
        form.save(p)
        res = runner.invoke(main, ["spectrum", "--form", str(p), "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        assert float(res.output.split()[1]) == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize(
        "form",
        [
            {"mu": [0.5, 0.5], "edges": [[0, 1]]},
            {"mu": ["a", 0.5], "edges": [[0, 1, 1.0]]},
            {"mu": [0.5, 0.5], "edges": 5},
            {"mu": [0.5, 0.5], "edges": [[0, 1, True]]},
            {"mu": [0.5, 0.5], "edges": [[0, 1, "2"]]},
        ],
    )
    def test_malformed_form_exits_2(self, runner, tmp_path, form):
        p = tmp_path / "form.json"
        p.write_text(json.dumps(form))
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, ["spectrum", "--form", str(p), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    @pytest.mark.parametrize(
        "form,message",
        [
            ([[0.5, 0.5], [[0, 1, 1.0]]], "error: form must be a JSON object, got list"),
            ({"mu": [0.5, 0.5], "edges": [[0, 1, 1.0]], "weights": 7}, "error: unknown form keys: ['weights']"),
            ({"edges": [[0, 1, 1.0]]}, "error: malformed form JSON: 'mu'"),
        ],
        ids=["list", "unknown-key", "no-mu"],
    )
    def test_form_shape_exits_2(self, runner, tmp_path, command, form, message):
        # The one rule for an input JSON object: a list once failed on Python's "list indices
        # must be integers or slices", and an unknown key was read past.
        p = tmp_path / "form.json"
        p.write_text(json.dumps(form))
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, [command, "--form", str(p), "--s-grid", "1e-3,1,6", "--out", str(out)]
                            if command == "verify" else [command, "--form", str(p), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False

    def test_repeated_edge_exits_2(self, runner, tmp_path):
        p = tmp_path / "form.json"
        p.write_text(json.dumps({"mu": [0.5, 0.5], "edges": [[0, 1, 1.0], [1, 0, 3.0]]}))
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, ["spectrum", "--form", str(p), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "edges[0] = [0, 1, 1.0] and edges[1] = [1, 0, 3.0]" in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_overflowing_weight_exits_2(self, runner, tmp_path, command):
        # 1e308 is above half the largest double: twice it overflows.
        p = tmp_path / "form.json"
        p.write_text(json.dumps({"mu": [0.5, 0.5], "edges": [[0, 1, 1e308]]}))
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, [command, "--form", str(p), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "edge weights must be at most half the largest double" in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False
        assert sorted(os.listdir(out)) == ["manifest.json"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_overflowing_gap_exits_3(self, runner, tmp_path, command):
        # The form admits these numbers, but d L d reaches 1e150 / 1e-200.
        p = tmp_path / "form.json"
        p.write_text(json.dumps({"mu": [1e-200, 1.0], "edges": [[0, 1, 1e150]]}))
        out = tmp_path / "o"
        res = runner.invoke(main, [command, "--form", str(p), "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "error: spectral gap overflows double range" in res.output
        assert json.loads((out / "manifest.json").read_text())["pass"] is False
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_optimal_single_point(self, runner, tmp_path):
        form = FiniteDirichletForm(mu=np.array([0.5, 0.5]), edges=[(0, 1, 1.0)])
        p = tmp_path / "form.json"
        form.save(p)
        out = tmp_path / "o"
        res = runner.invoke(main, ["optimal", "--kind", "WP", "--s", "1e-8", "--form", str(p), "--out", str(out)])
        assert res.exit_code == 0
        rep = json.loads((out / "optimal.json").read_text())
        assert rep["value"] == pytest.approx(0.25, rel=1e-4)


def _two_point_form(tmp_path):
    form = FiniteDirichletForm(mu=np.array([0.5, 0.5]), edges=[(0, 1, 1.0)])
    p = tmp_path / "form.json"
    form.save(p)
    return str(p)


_MANIFEST_KEYS = {
    "command", "config_paths", "resolved_config", "seed", "outputs", "wall_clock_seconds", "pass", "summary",
}


class TestRunRecord:
    @pytest.mark.parametrize(
        "args",
        [
            ["xi", "--kernel", "xi1", "--ratefn", "{rf}", "--t-grid", "0.25,0.5,2"],
            ["transform", "--direction", "sp2wl", "--ratefn", "{rf}", "--s-grid", "0.2,1,6"],
            ["verify", "--form", "{form}", "--s-grid", "1e-3,1,4", "--seed", "7", "--restarts", "4"],
            ["example11", "--theta", "0.5", "--branch", "sl2sp"],
            ["spectrum", "--form", "{form}"],
            ["optimal", "--kind", "WP", "--s", "1e-8", "--form", "{form}"],
        ],
        ids=lambda args: args[0],
    )
    def test_manifest_lists_exactly_the_files_written(self, runner, tmp_path, args):
        paths = {
            "rf": _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0}),
            "form": _two_point_form(tmp_path),
        }
        out = tmp_path / "o"
        res = runner.invoke(main, [a.format(**paths) for a in args] + ["--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _MANIFEST_KEYS
        assert manifest["pass"] is True
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    def test_failing_run_lists_only_its_own_files(self, runner, tmp_path):
        out = tmp_path / "o"
        ok = _write_ratefn(tmp_path / "ok.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        res = runner.invoke(
            main, ["transform", "--direction", "sp2wl", "--ratefn", ok, "--s-grid", "0.2,1,6", "--out", str(out)]
        )
        assert res.exit_code == 0
        # n*xi1(4^(-n+1)) does not vanish for ExpPower{1, 1}: exit 4 after
        # verdict.json, before transform.csv is written again.
        bad = _write_ratefn(tmp_path / "bad.json", {"family": "exp_power", "C": 1.0, "theta": 1.0})
        res = runner.invoke(
            main, ["transform", "--direction", "sp2sl", "--ratefn", bad, "--s-grid", "0.2,1,8", "--out", str(out)]
        )
        assert res.exit_code == 4
        assert (out / "transform.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert manifest["command"] == "transform sp2sl"
        assert manifest["outputs"] == ["verdict.json"]

    def test_failing_spectrum_records_empty_config(self, runner, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "stale.csv").write_text("left by an earlier run\n")
        res = runner.invoke(main, ["spectrum", "--form", str(tmp_path / "missing.json"), "--out", str(out)])
        assert res.exit_code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _MANIFEST_KEYS
        assert manifest["pass"] is False
        assert manifest["command"] == "spectrum"
        assert manifest["config_paths"] == [str(tmp_path / "missing.json")]
        assert manifest["resolved_config"] == {}
        assert manifest["outputs"] == []

    def test_out_naming_a_file_is_config_error(self, runner, tmp_path):
        out = tmp_path / "F"
        out.write_text("not a directory\n")
        res = runner.invoke(main, ["spectrum", "--birth-death", "4,1,2,5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "cannot create output directory" in res.output
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["xi", "--kernel", "xi1", "--ratefn", "{rf}", "--t-grid", "1e-3,inf,3"],
            ["transform", "--direction", "sp2wl", "--ratefn", "{rf}", "--s-grid", "1e-3,inf,3"],
        ],
        ids=["xi", "transform"],
    )
    def test_infinite_grid_bound_is_config_error(self, runner, tmp_path, args):
        rf = _write_ratefn(tmp_path / "rf.json", {"family": "inverse_power", "a": 1.0, "p": 1.0})
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, [a.format(rf=rf) for a in args] + ["--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "log grid needs finite" in res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"] is False
        assert manifest["outputs"] == []


class TestUsageErrors:
    """A usage error that click finds in the arguments writes a failing manifest into --out
    where that is an existing directory; click's message and exit 2 stay as they were."""

    @pytest.mark.parametrize(
        "args, out_form, message",
        [
            (["optimal", "--kind", "XX", "--s", "1e-8", "--birth-death", "4,1,2,5"], "separate",
             "Invalid value for '--kind': 'XX' is not one of"),
            (["spectrum", "--birth-death", "4,1,2,5", "--bogus", "1"], "joined", "No such option '--bogus'"),
        ],
        ids=["bad-choice", "unknown-option"],
    )
    def test_manifest_in_existing_out(self, runner, tmp_path, args, out_form, message):
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, args + (["--out", str(out)] if out_form == "separate" else [f"--out={out}"]))
        assert res.exit_code == 2
        assert f"Error: {message}" in res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == _MANIFEST_KEYS
        assert (manifest["command"], manifest["pass"], manifest["outputs"]) == (args[0], False, [])
        assert manifest["summary"].startswith(message)

    def test_group_option_error_names_no_command(self, runner, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        res = runner.invoke(main, ["--bogus", "spectrum", "--birth-death", "4,1,2,5", "--out", str(out)])
        assert res.exit_code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["pass"]) == ("", False)
        assert manifest["summary"].startswith("No such option '--bogus'")

    def test_missing_out_is_not_created(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["optimal", "--kind", "XX", "--s", "1e-8", "--out", str(out)])
        assert res.exit_code == 2
        assert "Invalid value for '--kind'" in res.output
        assert not out.exists()

    def test_usage_error_raises_without_standalone_mode(self, tmp_path):
        # as perfbench calls the CLI: click raises the usage error in place of exiting
        out = tmp_path / "o"
        out.mkdir()
        with pytest.raises(click.UsageError, match="No such option '--bogus'"):
            main.main(args=["spectrum", "--bogus", "1", "--out", str(out)], standalone_mode=False)
        assert json.loads((out / "manifest.json").read_text())["pass"] is False


def _corpus_tool():
    """tools/cli_corpus.py, loaded as a module: the package never imports it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"
    spec = importlib.util.spec_from_file_location("cli_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCorpusDiff:
    """``python tools/cli_corpus.py --diff A.json B.json`` on two corpus records."""

    RECORD = {
        "xi-inverse-power": {"exit_code": 0, "files": {"manifest.json": {"resolved_config": {"delta": 4.0}}}},
        "exit2-malformed": {"exit_code": 2, "stderr": "Error: bad\n"},
    }

    def _diff(self, tmp_path, capsys, a, b):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = _corpus_tool().main(["cli_corpus.py", "--diff", str(pa), str(pb)])
        return code, capsys.readouterr().out.splitlines()

    def test_equal_records_print_nothing(self, tmp_path, capsys):
        assert self._diff(tmp_path, capsys, self.RECORD, json.loads(json.dumps(self.RECORD))) == (0, [])

    def test_one_line_per_differing_path(self, tmp_path, capsys):
        b = json.loads(json.dumps(self.RECORD))
        b["xi-inverse-power"]["files"]["manifest.json"]["resolved_config"] = {}
        b["exit2-malformed"]["exit_code"] = 2.0  # equal as numbers, not as JSON
        b["exit2-new"] = {"exit_code": 2}
        code, lines = self._diff(tmp_path, capsys, self.RECORD, b)
        assert code == 1
        assert lines == [
            "exit2-malformed/exit_code: 2 -> 2.0",
            "exit2-new: <absent> -> {\"exit_code\": 2}",
            "xi-inverse-power/files/manifest.json/resolved_config/delta: 4.0 -> <absent>",
        ]

    def test_long_values_are_shortened(self, tmp_path, capsys):
        a = {"run": {"stdout": "x" * 200}}
        code, lines = self._diff(tmp_path, capsys, a, {"run": {"stdout": "y"}})
        assert code == 1
        assert lines == ["run/stdout: " + '"' + "x" * 76 + "... -> " + '"y"']

    def test_wrong_arguments_print_both_usages(self, tmp_path, capsys):
        # --diff with one file is a usage error, not a corpus run from SRC_ROOT "--diff" into that file.
        a = tmp_path / "a.json"
        assert _corpus_tool().main(["cli_corpus.py", "--diff", str(a)]) == 2
        assert not a.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["python tools/cli_corpus.py SRC_ROOT OUT", "python tools/cli_corpus.py --diff A.json B.json"]
