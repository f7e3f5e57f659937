"""Run a fixed corpus of ratecalc CLI invocations and record what each one did.

    python tools/cli_corpus.py SRC_ROOT OUT

SRC_ROOT is a checkout of this repository; its ``src`` directory is put
on PYTHONPATH, so two checkouts can be compared.  Every invocation runs
in one fresh temporary directory that holds the input files, and names
them and its --out directory by relative paths.  OUT receives one JSON
object: for each invocation its arguments, exit code, stdout, stderr
and every file it wrote, with manifest.json parsed and its one
run-dependent field, wall_clock_seconds, removed.  The runs go one after
another and the JSON is written with sorted keys, so two trees that
behave the same on the corpus give byte-equal OUT files (compare them
with ``cmp``).  The package never imports this script.
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

# Form files, valid or not; each one gets a verify and a spectrum run.
FORMS = {
    "two": _TWO,
    "tri": _TRI,
    "k4": _K4,
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
}

# Every file the runs read, by the relative path they name it with.
INPUTS = {
    **{f"form_{k}.json": json.dumps(v) for k, v in FORMS.items()},
    **{f"rate_{k}.json": json.dumps(v) for k, v in RATEFNS.items()},
    "clamp.json": json.dumps({"C4": 2, "s0": 0.3, "delta": 5}),
    "malformed.json": "{not json",
}

_DIRECTIONS = {"sp2sl": "exp_power", "sp2wl": "exp_power", "sl2sp": "poly_power", "wl2sp": "log_power"}
_VERIFY = ["--s-grid", "1e-3,1,6", "--seed", "7"]


def _runs() -> list:
    """(name, arguments) of each invocation, --out left out."""
    runs = [
        ("verify-chain-41", ["verify", "--birth-death", "4,1,2,41", *_VERIFY]),
        ("verify-chain-11", ["verify", "--birth-death", "4,1,2,11", *_VERIFY]),
        ("verify-two-degenerate-wl", ["verify", "--form", "form_two.json", "--s-grid", "1e-3,1,8", "--seed", "7"]),
    ]
    for direction, family in _DIRECTIONS.items():
        args = ["transform", "--direction", direction, "--ratefn", f"rate_{family}.json", "--s-grid", "0.1,1,9"]
        runs.append((f"transform-{direction}", args))
        runs.append((f"transform-{direction}-clamped", [*args, "--config", "clamp.json"]))
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
    sp2sl = ["transform", "--direction", "sp2sl", "--s-grid", "0.1,1,9"]
    runs += [
        ("exit2-missing-ratefn", [*sp2sl, "--ratefn", "missing.json"]),
        ("exit2-malformed-ratefn", [*sp2sl, "--ratefn", "malformed.json"]),
        ("exit2-missing-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "missing.json"]),
        ("exit2-malformed-config", [*sp2sl, "--ratefn", "rate_exp_power.json", "--config", "malformed.json"]),
        ("exit2-missing-form", ["spectrum", "--form", "missing.json"]),
        ("exit2-malformed-form", ["spectrum", "--form", "malformed.json"]),
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


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    records = corpus(argv[1])
    with open(argv[2], "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
