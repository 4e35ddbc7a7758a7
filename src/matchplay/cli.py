"""Command-line interface: classify, curves, horizon search, limits, MC, verify.

Every subcommand is one handler ``(spec, args) -> (rows, columns)``, listed in
``_COMMANDS``: it computes with the library and returns a small table. ``main``
alone builds the spec from the six probability flags, calls the handler, emits
the table as CSV (default) or JSON, and returns the exit code. ``verify`` is
the one handler whose spec is optional: it prints one line per check, its
table goes only to ``--out``, and a failed check exits 4. Output is
byte-stable for identical inputs: floats are rendered with 17 significant
digits, line endings are LF, and no locale-dependent formatting is used.

Where the library returns a record, its fields are the columns, in
declaration order: ``classify`` prints ``Classification``'s flags and then the
drifts ``g1_off`` and ``g1_def``, ``simulate`` prints ``SimEstimate``, and
``verify --out`` writes ``Check``. ``nstar`` and ``limits`` name their own
columns.

Exit codes: 0 success, 2 invalid input (a ``MatchPlayError``, or a flag
argparse rejects, such as an ``--out`` path in a missing directory), 3 over
the resource budget, 4 verification failure. Any other exception is a bug and
propagates with its traceback.

Each command imports the modules it uses when it runs, so a cold process pays
only for those: ``classify`` and ``limits`` never import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .core import POLICY_LABELS, Classification, MatchSpec, optimal_limit
from .errors import HorizonTooLarge, MatchPlayError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

_SPEC_FLAGS = ("pw", "pd", "pl", "qw", "qd", "ql")

_CLASSIFY_COLUMNS = (*(f.name for f in fields(Classification)), "g1_off", "g1_def")
_CURVE_LABELS = {
    "gain_opt": "optimal",
    "gain_cat": "cat",
    "gain_catplus": "catplus",
    "gain_off": "off",
    "gain_def": "def",
}
_CURVE_COLUMNS = ("N", *_CURVE_LABELS)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _render(rows: list[dict], columns: tuple, fmt: str) -> str:
    if fmt == "json":
        payload = []
        for row in rows:
            clean = {}
            for col in columns:
                v = row[col]
                clean[col] = None if isinstance(v, float) and math.isnan(v) else v
            payload.append(clean)
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(row[col]) for col in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(rows: list[dict], columns: tuple, args) -> None:
    text = _render(rows, columns, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _out_path(value: str) -> str:
    """The type of ``--out``: a file path in an existing directory, checked before any work."""
    path = Path(value)
    if path.is_dir() or not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} is not a file path in an existing directory")
    return value


def _spec_from_args(args) -> MatchSpec | None:
    """The spec of the six probability flags, or None when none is given, as verify allows."""
    missing = sorted(flag for flag in _SPEC_FLAGS if getattr(args, flag) is None)
    if len(missing) == len(_SPEC_FLAGS):
        return None
    if missing:
        raise MatchPlayError(f"a spec needs all six probabilities; missing {missing}")
    return MatchSpec.from_probs(*(getattr(args, flag) for flag in _SPEC_FLAGS))


def _classify(spec, args):
    row = asdict(spec.classification)
    row.update(g1_off=spec.offense.drift, g1_def=spec.defense.drift)
    return [row], _CLASSIFY_COLUMNS


def _curve(spec, args):
    from . import dp

    curve = dp.gain_curve(spec, args.n_max, POLICY_LABELS)
    gains = [curve.gains[label].tolist() for label in _CURVE_LABELS.values()]
    rows = [dict(zip(_CURVE_COLUMNS, row)) for row in zip(curve.horizons.tolist(), *gains)]
    return rows, _CURVE_COLUMNS


def _nstar(spec, args):
    from . import dp

    best = dp.find_optimal_horizon(spec, args.n_max)
    return [{"n_star": best.horizon, "gain": best.gain}], ("n_star", "gain")


def _limits(spec, args):
    verdict = optimal_limit(spec)
    row = {
        "regime": verdict.regime.value,
        "optimal_limit": verdict.optimal_limit,
        "cat_limit": verdict.cat_limit,
    }
    return [row], tuple(row)


def _simulate(spec, args):
    from . import dp, policies, sim

    # estimate_gain reads a solved table, or a style's name ("off", "def"), as a policy
    policy = args.policy
    if policy == "optimal":
        policy = dp.solve(spec, args.horizon).policy
    elif policy == "cat":
        policy = policies.cat_policy()
    elif policy == "catplus":
        policy = policies.cat_plus_policy(spec)
    estimate = sim.estimate_gain(spec, policy, args.horizon, args.samples, args.seed)
    return [estimate._asdict()], sim.SimEstimate._fields


def _verify(spec, args):
    from . import verify

    checks = verify.run_checks(user_spec=spec, seed=args.seed)
    for check in checks:
        print(check.line())
    return [asdict(c) for c in checks], tuple(f.name for f in fields(verify.Check))


_N_MAX = ("--n-max", {"type": int, "required": True})
_SEED = ("--seed", {"type": int, "default": 0})

# name, help, handler, and the flags it takes besides the spec and output ones
_COMMANDS = (
    ("classify", "regime flags and one-game gains of a spec", _classify, ()),
    ("curve", "per-horizon gains of the optimal and benchmark policies", _curve, (_N_MAX,)),
    ("nstar", "horizon with the largest optimal gain", _nstar, (_N_MAX,)),
    ("limits", "long-match limits for the spec's regime", _limits, ()),
    (
        "simulate",
        "Monte Carlo gain estimate for a policy",
        _simulate,
        (
            ("--horizon", {"type": int, "required": True}),
            ("--samples", {"type": int, "default": 100_000}),
            _SEED,
            ("--policy", {"choices": POLICY_LABELS, "default": "optimal"}),
        ),
    ),
    ("verify", "run the built-in verification checklist", _verify, (_SEED,)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchplay",
        description="Solve and verify adaptive two-style match play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, extra_flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        # verify runs its checklist without a spec and adds one check with it
        for flag in _SPEC_FLAGS:
            p.add_argument(f"--{flag}", type=float, required=name != "verify", default=None)
        for flag, options in extra_flags:
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=_out_path, default=None, metavar="PATH")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows, columns = args.handler(_spec_from_args(args), args)
    except HorizonTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MatchPlayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    checklist = args.command == "verify"
    if args.out or not checklist:  # verify prints its own lines; its table goes only to --out
        _emit(rows, columns, args)
    return EXIT_VERIFY if checklist and not all(row["passed"] for row in rows) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
