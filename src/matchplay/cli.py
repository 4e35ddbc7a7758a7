"""Command-line interface: classify, curves, horizon search, limits, MC, verify.

Every command reads a match spec from six probability flags, computes with
the library, and emits a small table as CSV (default) or JSON. Output is
byte-stable for identical inputs: floats are rendered with 17 significant
digits, line endings are LF, and no locale-dependent formatting is used.

Exit codes: 0 success, 2 invalid input, 3 over the resource budget, 4
verification failure.

Each command imports the modules it uses when it runs, so a cold process pays
only for those: ``classify`` and ``limits`` never import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .core import POLICY_LABELS, MatchSpec, optimal_limit
from .errors import HorizonTooLarge, MatchPlayError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

_SPEC_FLAGS = ("pw", "pd", "pl", "qw", "qd", "ql")

_CLASSIFY_COLUMNS = (
    "weak",
    "strictly_weak",
    "safe_defense",
    "fair_defense",
    "fair_non_safe",
    "defense_dominates_offense",
    "offense_dominates_defense",
    "g1_off",
    "g1_def",
)
_CURVE_COLUMNS = ("N", "gain_opt", "gain_cat", "gain_catplus", "gain_off", "gain_def")
_CURVE_LABELS = {
    "gain_opt": "optimal",
    "gain_cat": "cat",
    "gain_catplus": "catplus",
    "gain_off": "off",
    "gain_def": "def",
}


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


def _spec_from_args(args) -> MatchSpec:
    return MatchSpec.from_probs(args.pw, args.pd, args.pl, args.qw, args.qd, args.ql)


def _policy_from_label(label: str, spec: MatchSpec, horizon: int):
    from . import dp, policies

    if label == "optimal":
        return policies.table_policy(dp.solve(spec, horizon).policy)
    if label == "cat":
        return policies.cat_policy()
    if label == "catplus":
        return policies.cat_plus_policy(spec)
    return policies.fixed_policy("Off" if label == "off" else "Def")


def _cmd_classify(args) -> int:
    spec = _spec_from_args(args)
    c = spec.classification
    row = {name: getattr(c, name) for name in _CLASSIFY_COLUMNS[:7]}
    row["g1_off"] = spec.offense.drift
    row["g1_def"] = spec.defense.drift
    _emit([row], _CLASSIFY_COLUMNS, args)
    return EXIT_OK


def _cmd_curve(args) -> int:
    from . import dp

    spec = _spec_from_args(args)
    curve = dp.gain_curve(spec, args.n_max, POLICY_LABELS)
    rows = []
    for i, n in enumerate(curve.horizons.tolist()):
        row = {"N": int(n)}
        for column, label in _CURVE_LABELS.items():
            row[column] = float(curve.gains[label][i])
        rows.append(row)
    _emit(rows, _CURVE_COLUMNS, args)
    return EXIT_OK


def _cmd_nstar(args) -> int:
    from . import dp

    spec = _spec_from_args(args)
    best = dp.find_optimal_horizon(spec, args.n_max)
    _emit([{"n_star": best.horizon, "gain": best.gain}], ("n_star", "gain"), args)
    return EXIT_OK


def _cmd_limits(args) -> int:
    spec = _spec_from_args(args)
    verdict = optimal_limit(spec)
    row = {
        "regime": verdict.regime.value,
        "optimal_limit": verdict.optimal_limit,
        "cat_limit": verdict.cat_limit,
    }
    _emit([row], ("regime", "optimal_limit", "cat_limit"), args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import sim

    spec = _spec_from_args(args)
    policy = _policy_from_label(args.policy, spec, args.horizon)
    estimate = sim.estimate_gain(spec, policy, args.horizon, args.samples, args.seed)
    row = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "samples": estimate.samples,
        "seed": estimate.seed,
    }
    _emit([row], ("mean", "std_error", "samples", "seed"), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import verify

    given = [flag for flag in _SPEC_FLAGS if getattr(args, flag) is not None]
    if given and len(given) < len(_SPEC_FLAGS):
        missing = sorted(set(_SPEC_FLAGS) - set(given))
        print(f"error: a spec needs all six probabilities; missing {missing}", file=sys.stderr)
        return EXIT_INPUT
    user_spec = _spec_from_args(args) if given else None
    checks = verify.run_checks(user_spec=user_spec, seed=args.seed)
    for check in checks:
        print(check.line())
    if args.out:
        columns = ("name", "passed", "detail", "seconds")
        _emit([{col: getattr(c, col) for col in columns} for c in checks], columns, args)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def _add_spec_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    for flag in _SPEC_FLAGS:
        parser.add_argument(f"--{flag}", type=float, required=required, default=None)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchplay",
        description="Solve and verify adaptive two-style match play.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="regime flags and one-game gains of a spec")
    _add_spec_flags(p, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("curve", help="per-horizon gains of the optimal and benchmark policies")
    _add_spec_flags(p, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("nstar", help="horizon with the largest optimal gain")
    _add_spec_flags(p, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_nstar)

    p = sub.add_parser("limits", help="long-match limits for the spec's regime")
    _add_spec_flags(p, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("simulate", help="Monte Carlo gain estimate for a policy")
    _add_spec_flags(p, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=POLICY_LABELS, default="optimal")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the built-in verification checklist")
    _add_spec_flags(p, required=False)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except HorizonTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MatchPlayError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
