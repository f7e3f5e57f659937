"""Run a fixed corpus of ratecalc CLI invocations and record what each one did.

    python tools/cli_corpus.py SRC_ROOT OUT
    python tools/cli_corpus.py --diff A.json B.json

SRC_ROOT is a checkout of this repository; its ``src`` directory is put
on PYTHONPATH, so two checkouts can be compared.  Every invocation runs
in one fresh temporary directory that holds the input files, and names
them and its --out directory by relative paths.  OUT receives one JSON
object: for each invocation its arguments, exit code, stdout, stderr
and every file it wrote, with manifest.json parsed and its one
run-dependent field, wall_clock_seconds, removed.  The runs go one after
another and the JSON is written with sorted keys, so two trees that
behave the same on the corpus give byte-equal OUT files (compare them
with ``cmp``).  With --diff, it compares two such OUT files instead: it
prints one line per invocation and path (a manifest key, say) where they
differ, with both values, and exits 1 if it printed any.  The package
never imports this script.
"""

import json
import os
import subprocess
import sys
import tempfile

_HALF_MAX = float.fromhex("0x1.fffffffffffffp+1022")  # half the largest double
_TWO = {"mu": [0.5, 0.5], "edges": [[0, 1, 1.0]]}
_TRI = {"mu": [0.6, 0.25, 0.15], "edges": [[0, 1, 0.8], [1, 2, 1.2], [0, 2, 0.4]]}
# Every state has degree 3.
_K4 = {
    "mu": [0.1, 0.2, 0.3, 0.4],
    "edges": [[0, 1, 1.0], [2, 0, 0.5], [0, 3, 2.0], [1, 2, 1.5], [3, 1, 0.25], [2, 3, 0.75]],
}
# A hub joined to a cycle of 8: the hub has degree 8, every rim state degree 3.  A dense
# row sum of 9 entries runs in 8 interleaved parts, so the diagonal may round otherwise.
_WHEEL = {
    "mu": [0.2] + [0.1] * 8,
    "edges": [[0, k, 1.0 + 0.1 * k] for k in range(1, 9)] + [[k, k % 8 + 1, 0.3 + 0.07 * k] for k in range(1, 9)],
}

# Form files, valid or not; each one gets a verify and a spectrum run.
FORMS = {
    "two": _TWO,
    "tri": _TRI,
    "k4": _K4,
    "wheel": _WHEEL,
    "zero_weight": {"mu": [0.2, 0.5, 0.3], "edges": [[0, 1, 1.0], [1, 2, 0.5], [0, 2, 0.0]]},
    "disconnected": {"mu": [0.25] * 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]},
    "weight_1e308": {"mu": [0.5, 0.5], "edges": [[0, 1, 1e308]]},
    "degree_overflow": {"mu": [0.25] * 4, "edges": [[0, 1, 6e307], [0, 2, 6e307], [0, 3, 6e307]]},
    "near_limit": {"mu": [0.25] * 4, "edges": [[0, 1, 8e307], [0, 2, 8e307]]},
    # The total at state 0 is the largest double in edge order and inf in the Laplacian's order.
    "order_overflow": {"mu": [0.25] * 4, "edges": [[0, 2, _HALF_MAX], [0, 3, _HALF_MAX], [0, 1, 2.0**969]]},
    "huge_int_weight": {"mu": [0.5, 0.5], "edges": [[0, 1, 10**400]]},
    "huge_int_mu": {"mu": [10**400, 0.5], "edges": [[0, 1, 1.0]]},
    "tiny_mass": {"mu": [1e-200, 1.0], "edges": [[0, 1, 1e150]]},
    "duplicate": {"mu": [0.4, 0.3, 0.3], "edges": [[0, 1, 1.0], [1, 0, 3.0]]},
    "self_loop": {"mu": [0.5, 0.5], "edges": [[0, 0, 1.0], [0, 1, 1.0]]},
    "out_of_range": {"mu": [0.5, 0.5], "edges": [[0, 2, 1.0]]},
    "bool_weight": {"mu": [0.5, 0.5], "edges": [[0, 1, True]]},
    "negative": {"mu": [0.5, 0.5], "edges": [[0, 1, -1.0]]},
}

RATEFNS = {
    "exp_power": {"family": "exp_power", "C": 1.0, "theta": 0.5},
    "log_power": {"family": "log_power", "C": 1.0, "q": 0.5},
    "poly_power": {"family": "poly_power", "C": 1.0, "p": 1.0},
    "inverse_power": {"family": "inverse_power", "a": 1.0, "p": 1.0},
    "constant": {"family": "constant", "B": 2.0},
    "table": {"family": "table", "points": [[0.01, 50.0], [0.1, 5.0], [1.0, 1.0]]},
    "huge_int": {"family": "constant", "B": 10**400},
    "poly_power_int": {"family": "poly_power", "C": 1, "p": 1},
    # Auto n0 = 219, above k_max = 100 of k_max_100.json.
    "exp_power_300": {"family": "exp_power", "C": 300.0, "theta": 0.5},
}

# Every file the runs read, by the relative path they name it with.
INPUTS = {
    **{f"form_{k}.json": json.dumps(v) for k, v in FORMS.items()},
    **{f"rate_{k}.json": json.dumps(v) for k, v in RATEFNS.items()},
    "clamp.json": json.dumps({"C4": 2, "s0": 0.3, "delta": 5}),
    "huge_int_config.json": json.dumps({"delta": 10**400}),
    # Integral fields written as floats, and a float field written as an int.
    "integral_config.json": json.dumps({"k_max": 400.0, "n0": 2.0, "delta": 4}),
    # The kernels' r-grid is no setting: an unknown key.
    "r_grid_config.json": json.dumps({"r_grid": {"count": 1200}}),
    "malformed.json": "{not json",
    # A window of 13 kernel blocks of the SP-to-SL walk with a partial top block.
    "n_max_200000.json": json.dumps({"N_max": 200000}),
    # A window of 4 kernel blocks, the top one partial: past the 32768 rows from which the walk forks workers.
    "n_max_50000.json": json.dumps({"N_max": 50000}),
    # A WL window of 61 blocks of 2^15 and a part, whose crossings all lie left of its last half.
    "n_max_2000000.json": json.dumps({"N_max": 2000000, "k_max": 2000000}),
    # k_max admits no k*(s) of the SP-to-WL map: verify stops after the SP-to-SL files.
    "k_max_5.json": json.dumps({"k_max": 5}),
    # n0 lies above example11 wl2sp's far index 380, which the window clamps into [n0, N_max].
    "n0_400.json": json.dumps({"n0": 400, "k_max": 1000, "N_max": 1000}),
    # k_max caps the k-windows alone: the SP-to-SL walk reads [n0, N_max] past it.
    "k_max_100.json": json.dumps({"k_max": 100, "N_max": 100000}),
    # The vanishing verdict's slope threshold is no setting: an unknown key.
    "slope_tol_config.json": json.dumps({"slope_tol": 0.1}),
    # Form files of the wrong shape, refused by the one rule for an input JSON object.
    "form_list.json": json.dumps([_TWO["mu"], _TWO["edges"]]),
    "form_unknown_key.json": json.dumps({**_TWO, "weights": 7}),
}

_DIRECTIONS = {"sp2sl": "exp_power", "sp2wl": "exp_power", "sl2sp": "poly_power", "wl2sp": "log_power"}
_VERIFY = ["--s-grid", "1e-3,1,6", "--seed", "7"]


def _runs() -> list:
    """(name, arguments) of each invocation, --out left out."""
    runs = [
        ("verify-chain-41", ["verify", "--birth-death", "4,1,2,41", *_VERIFY]),
        ("verify-chain-11", ["verify", "--birth-death", "4,1,2,11", *_VERIFY]),
        ("verify-chain-201", ["verify", "--birth-death", "4,1,3,201", *_VERIFY]),
        ("verify-two-degenerate-wl", ["verify", "--form", "form_two.json", "--s-grid", "1e-3,1,8", "--seed", "7"]),
    ]
    for direction, family in _DIRECTIONS.items():
        args = ["transform", "--direction", direction, "--ratefn", f"rate_{family}.json", "--s-grid", "0.1,1,9"]
        runs.append((f"transform-{direction}", args))
        runs.append((f"transform-{direction}-clamped", [*args, "--config", "clamp.json"]))
        if direction != "sp2wl":
            # Every knot above s0 = 0.3: the map holds its value at s0 on each.
            runs.append((f"transform-{direction}-clamped-above-s0", [
                *args[:-1], "0.4,1,4", "--config", "clamp.json"]))
    for kernel in ("xi1", "xi2"):
        for family in ("inverse_power", "poly_power", "constant", "log_power", "table"):
            runs.append((f"xi-{kernel}-{family}", [
                "xi", "--kernel", kernel, "--ratefn", f"rate_{family}.json", "--t-grid", "0.01,10,9"]))
    for branch, theta in (("sp2sl", "0.5"), ("sl2sp", "0.5"), ("sp2wl", "2"), ("wl2sp", "2")):
        runs.append((f"example11-{branch}", ["example11", "--theta", theta, "--branch", branch]))
    for n in (41, 201, 301):
        runs.append((f"spectrum-chain-{n}", ["spectrum", "--birth-death", f"4,1,2,{n}"]))
    for form in ("tri", "k4"):
        for kind in ("SP", "SL", "WL", "WP"):
            runs.append((f"optimal-{kind}-{form}", [
                "optimal", "--kind", kind, "--s", "0.1", "--form", f"form_{form}.json", "--seed", "7"]))
    runs.append(("optimal-WP-two", ["optimal", "--kind", "WP", "--s", "1e-8", "--form", "form_two.json"]))
    for form in FORMS:
        if form != "two":
            runs.append((f"verify-form-{form}", ["verify", "--form", f"form_{form}.json", *_VERIFY]))
        runs.append((f"spectrum-form-{form}", ["spectrum", "--form", f"form_{form}.json"]))
    runs += [
        ("transform-sl2sp-int-fields", [
            "transform", "--direction", "sl2sp", "--ratefn", "rate_poly_power_int.json", "--s-grid", "0.1,1,9"]),
        ("xi-xi2-poly_power_int", ["xi", "--kernel", "xi2", "--ratefn", "rate_poly_power_int.json", "--t-grid", "0.01,10,9"]),
        ("transform-sp2wl-integral-config", [
            "transform", "--direction", "sp2wl", "--ratefn", "rate_exp_power.json", "--s-grid", "0.1,1,9",
            "--config", "integral_config.json"]),
        ("transform-sp2sl-n-max-200000", [
            "transform", "--direction", "sp2sl", "--ratefn", "rate_exp_power.json", "--s-grid", "1e-5,1e-2,60",
            "--config", "n_max_200000.json"]),
        ("transform-sp2sl-n-max-50000", [
            "transform", "--direction", "sp2sl", "--ratefn", "rate_exp_power.json", "--s-grid", "3e-5,1e-2,40",
            "--config", "n_max_50000.json"]),
        ("transform-wl2sp-n-max-2000000", [
            "transform", "--direction", "wl2sp", "--ratefn", "rate_log_power.json", "--s-grid", "2e-3,0.1,20",
            "--config", "n_max_2000000.json"]),
        ("verify-chain-11-k-max-5", ["verify", "--birth-death", "4,1,2,11", *_VERIFY, "--config", "k_max_5.json"]),
        ("example11-wl2sp-n0-400", ["example11", "--theta", "2", "--branch", "wl2sp", "--config", "n0_400.json"]),
        ("transform-sp2sl-n0-past-k-max", [
            "transform", "--direction", "sp2sl", "--ratefn", "rate_exp_power_300.json", "--s-grid", "1,100,5",
            "--config", "k_max_100.json"]),
    ]
    sp2sl = ["transform", "--direction", "sp2sl", "--s-grid", "0.1,1,9"]
    runs += [
        ("exit2-missing-ratefn", [*sp2sl, "--ratefn", "missing.json"]),
        ("exit2-malformed-ratefn", [*sp2sl, "--ratefn", "malformed.json"]),
        ("exit2-missing-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "missing.json"]),
        ("exit2-malformed-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "malformed.json"]),
        ("exit2-missing-form", ["spectrum", "--form", "missing.json"]),
        ("exit2-malformed-form", ["spectrum", "--form", "malformed.json"]),
        ("exit2-huge-int-ratefn", ["xi", "--kernel", "xi1", "--ratefn", "rate_huge_int.json", "--t-grid", "0.01,10,9"]),
        ("exit2-huge-int-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "huge_int_config.json"]),
        ("exit2-r-grid-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "r_grid_config.json"]),
        ("exit2-slope-tol-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "slope_tol_config.json"]),
        ("exit2-list-form", ["spectrum", "--form", "form_list.json"]),
        ("exit2-unknown-key-form", ["spectrum", "--form", "form_unknown_key.json"]),
        ("exit2-xi-config", [
            "xi", "--kernel", "xi1", "--ratefn", "rate_inverse_power.json", "--t-grid", "0.01,10,9",
            "--config", "clamp.json"]),
    ]
    return runs


def _files(out_dir: str) -> dict:
    """Each file under out_dir by name; manifest.json parsed, without wall_clock_seconds."""
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name)) as fh:
                text = fh.read()
            if name == "manifest.json":
                manifest = json.loads(text)
                manifest.pop("wall_clock_seconds", None)
                files[name] = manifest
            else:
                files[name] = text
    return files


def corpus(src_root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src_root), "src"), PYTHONDONTWRITEBYTECODE="1")
    records = {}
    with tempfile.TemporaryDirectory(prefix="cli_corpus_") as work:
        for name, text in INPUTS.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(text)
        for name, args in _runs():
            args = [*args, "--out", os.path.join("out", name)]
            proc = subprocess.run(
                [sys.executable, "-m", "ratecalc.cli", *args], cwd=work, env=env, capture_output=True, text=True
            )
            records[name] = {
                "args": args,
                "exit_code": proc.returncode,
                "stdout": proc.stdout,
                "stderr": proc.stderr,
                "files": _files(os.path.join(work, "out", name)),
            }
    return records


_ABSENT = "<absent>"


def _diffs(a, b, path: tuple = ()):
    """(path, a value, b value) of every leaf where the JSON values a and b differ.

    Dicts are walked key by key, a key on one side only read as _ABSENT
    on the other; any other value is a leaf.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from _diffs(a.get(key, _ABSENT), b.get(key, _ABSENT), (*path, key))
    elif a != b or type(a) is not type(b):
        yield path, a, b


def _short(value) -> str:
    text = value if value is _ABSENT else json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


def diff(a_path: str, b_path: str) -> int:
    """Print one line per invocation and path where the corpus files differ; 1 if any, else 0."""
    with open(a_path) as fa, open(b_path) as fb:
        a, b = json.load(fa), json.load(fb)
    lines = [f"{'/'.join(path)}: {_short(x)} -> {_short(y)}" for path, x, y in _diffs(a, b)]
    for line in lines:
        print(line)
    return 1 if lines else 0


def main(argv: list) -> int:
    if argv[1:2] == ["--diff"] and len(argv) == 4:
        return diff(argv[2], argv[3])
    if len(argv) != 3 or argv[1] == "--diff":
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    records = corpus(argv[1])
    with open(argv[2], "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
