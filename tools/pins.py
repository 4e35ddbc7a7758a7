"""Values pinned at horizons that tier-1 never reaches, each in a fresh process.

A row of ``PINS`` is a name; a Python expression that computes the value, a
string or a tuple of strings (CSV text, a ``repr`` or a sha256 hex); the
expected value, which the computed one must equal exactly; and, for a row
that bounds its memory, a peak-RSS bound in MB. Every row runs in its own
new interpreter with ``src/`` first on ``PYTHONPATH``. There ``_PRELUDE``
imports the package and defines the names the expressions use, and the row's
peak is the child's own ``ru_maxrss``.

    python tools/pins.py

prints one line per pin: its name, PASS or FAIL, the seconds its process
took and, for a bounded row, the peak MB. A failed pin also prints the
expected and the actual value. The exit code is 1 if any pin fails, else 0.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"

_PRELUDE = """
import contextlib, hashlib, io, resource
from matchplay import analytic, cli, core, dp, policies, sim, verify
CHESS, GRID4 = verify.CHESS, verify.SPEC_GRID[4]
SURE_DRAW = core.MatchSpec.from_probs(0.45, 0.0, 0.55, 0.0, 1.0, 0.0)

def sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

def chess_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main([*argv, *"--pw 0.45 --pd 0 --pl 0.55 --qw 0.10 --qd 0.75 --ql 0.15".split()])
    return out.getvalue().rstrip("\\n")

def per_cell_walk(spec, n):
    table = policies.table_policy(dp.solve(spec, n).policy)
    gain = repr(policies.exact_policy_gain(spec, table, n))
    return gain, sha256(*policies.propagate_policy(spec, table, 300).stages)

def report(value):
    # ru_maxrss is in KiB on Linux
    print(repr((value, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)))
"""


class Pin(NamedTuple):
    name: str
    code: str
    expected: str | tuple[str, ...]
    max_mb: float | None = None


PINS = (
    # 20000 stages of the sweep's frozen-cell frontier, which tier-1 checks
    # against the per-cell reference only up to N = 400
    Pin("nstar CHESS N=20000", "chess_cli('nstar', '--n-max', '20000')",
        "n_star,gain\n2,0.07999999999999996"),
    # N = 5 is the largest horizon brute_force_optimal takes
    Pin("oracle CHESS N=5", "repr(policies.brute_force_optimal(CHESS, 5))", "0.0524903125"),
    # the tables keep only each stage's computed window: about 205 MB here,
    # where rows holding the whole band peaked at 1753 MB
    Pin("solve CHESS N=20000", "repr(dp.solve(CHESS, 20000).gain)", "-0.999999999999728", 300),
    # at N = 20000 one 256 KB block of fixed_style_gain_curve holds a single
    # stage row; the digests are those of summing each stage on its own
    Pin("offense curve N=20000", "sha256(analytic.fixed_style_gain_curve(CHESS.offense, 20000))",
        "f595ea3459eb036504809777bc3c0b1a00c65b0f15c77e91aedcf84c0be778e9"),
    Pin("defense curve N=10000", "sha256(analytic.fixed_style_gain_curve(CHESS.defense, 10000))",
        "566a0741d623c0ff523148336efd86f74a327779caec54e66ee7427cca0427f0"),
    # the trinomial closed form against the walk at a horizon tier-1 never
    # reaches; libm's lgamma and exp set its last digits, so this is a tolerance
    Pin("trinomial defense N=10000",
        "repr(abs(analytic.fixed_style_gain(CHESS.defense, 10000)"
        " - float(analytic.fixed_style_gain_curve(CHESS.defense, 10000)[-1])) <= 1e-10)",
        "True"),
    # the cat and catplus curves, which tier-1 pins against per-horizon
    # evaluation up to N = 300; the digests are those of every stage slicing
    # its own rows and going through sign_expectation
    Pin("lead curves CHESS N=4000", "tuple(map(sha256, policies.lead_policy_curves(CHESS, 4000)))",
        ("534d94dc4c73901a3147d9ea15b5099959151b7d082ccc3dbd42da164598f36e",
         "fc18ea4ca44909a4a79611f269ff35a9ff27714282485ec6a3dd21848965b184")),
    Pin("lead curves SPEC_GRID[4] N=2000",
        "tuple(map(sha256, policies.lead_policy_curves(GRID4, 2000)))",
        ("9890cadaaf8404bc6c9fdbe7cf652cf10f8623ee53f1bc7a88a6e07e170da216",
         "5e20ab84d7be0d8a679835d8483fa41854dd5e0f525210cb80aadeed8b4a892f")),
    # every forward label of gain_curve at once, in the order POLICY_LABELS
    # gives them; the first two digests are those of the row above
    Pin("forward curves SPEC_GRID[4] N=2000",
        "tuple(map(sha256, dp.gain_curve(GRID4, 2000, ('cat', 'catplus', 'off', 'def')).gains.values()))",
        ("9890cadaaf8404bc6c9fdbe7cf652cf10f8623ee53f1bc7a88a6e07e170da216",
         "5e20ab84d7be0d8a679835d8483fa41854dd5e0f525210cb80aadeed8b4a892f",
         "298cb25a8d4284e98fcbe394afa97e5998b7756aa4230c1fe70bbf629d2f88f8",
         "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997")),
    # a solved table gives every stage per-cell coefficients; tier-1 pins those
    # stages against the allocating reference only up to N = 97. The values are
    # those of per-cell stages stepping their exact band on their own views
    Pin("per-cell walk CHESS N=3000", "per_cell_walk(CHESS, 3000)",
        ("-0.999999027050481",
         "11c1ca9355cb6c1041f7860815d185fdd5d40ebdc53ff982b265c8b8d6cd70df")),
    Pin("per-cell walk SPEC_GRID[4] N=1500", "per_cell_walk(GRID4, 1500)",
        ("0.011763791456622652",
         "99ca051986ce5555afde80d1c245a3eecf9b9ec15eeb1abfb980398c017b41fe")),
    # every per-sample array of a 2M-sample run is alive at once: 81 MB measured
    Pin("estimate_gain CHESS cat N=16 2M",
        "repr(sim.estimate_gain(CHESS, policies.cat_policy(), 16, 2_000_000, 5))",
        "SimEstimate(mean=-0.1416715, std_error=0.0006341530131749727, samples=2000000, seed=5)",
        120),
    # the sure-draw defense's solved rows alternate, so the table's offense
    # masks read past dozens of style flips; tier-1 replays them only to N = 60
    Pin("estimate_gain SURE_DRAW N=1000",
        "repr(sim.estimate_gain(SURE_DRAW, policies.table_policy(dp.solve(SURE_DRAW, 1000).policy),"
        " 1000, 20_000, 5))",
        "SimEstimate(mean=0.6306, std_error=0.005488049556481494, samples=20000, seed=5)"),
)


def run(pins=PINS) -> int:
    """Check each pin in a fresh process, print one line per pin, return the exit code."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    failed = 0
    for pin in pins:
        start = time.perf_counter()
        child = [sys.executable, "-c", f"{_PRELUDE}report({pin.code})"]
        proc = subprocess.run(child, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if proc.returncode:
            # the last line of a traceback names the exception
            value, peak_mb = proc.stderr.strip().rpartition("\n")[2], 0
        else:
            value, peak_mb = ast.literal_eval(proc.stdout.splitlines()[-1])
        ok = value == pin.expected and (pin.max_mb is None or peak_mb <= pin.max_mb)
        line = f"{pin.name:<34} {'PASS' if ok else 'FAIL'} {seconds:6.2f} s"
        if pin.max_mb is not None:
            line += f"  peak {peak_mb:.0f} MB (bound {pin.max_mb} MB)"
        if not ok:
            line += f"\n    expected {pin.expected!r}\n    actual   {value!r}"
        print(line, flush=True)
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
