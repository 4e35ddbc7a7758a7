"""Tests for the command-line interface: output formats, exit codes, goldens."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import matchplay.policies
from matchplay import analytic, estimate_gain, find_optimal_horizon, solve
from matchplay.core import POLICY_LABELS
from matchplay.cli import main

from conftest import CHESS_PROBS, CURVE_PEAK4_PROBS, CURVE_PEAK6_PROBS, fresh_python

GOLDEN = Path(__file__).parent / "golden"


def spec_flags(probs):
    flags = []
    for name, value in zip(("pw", "pd", "pl", "qw", "qd", "ql"), probs):
        flags += [f"--{name}", repr(value)]
    return flags


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


FAIR_NON_SAFE_PROBS = (0.3, 0.0, 0.7, 0.1, 0.8, 0.1)
SURE_DRAW_PROBS = (0.45, 0.0, 0.55, 0.0, 1.0, 0.0)

# golden file -> the command whose output it pins byte for byte
_GOLDEN_COMMANDS = {
    "classify_chess.csv": ["classify", *spec_flags(CHESS_PROBS)],
    "classify_chess.json": ["classify", *spec_flags(CHESS_PROBS), "--format", "json"],
    "curve_peak4.json": [
        "curve", *spec_flags(CURVE_PEAK4_PROBS), "--n-max", "20", "--format", "json",
    ],
    "limits_both_strictly_losing.csv": ["limits", *spec_flags(CHESS_PROBS)],
    "limits_fair_non_safe.csv": ["limits", *spec_flags(FAIR_NON_SAFE_PROBS)],
    "limits_safe_defense.csv": ["limits", *spec_flags(SURE_DRAW_PROBS)],
    "nstar_peak4.csv": ["nstar", *spec_flags(CURVE_PEAK4_PROBS), "--n-max", "20"],
    "nstar_peak4.json": [
        "nstar", *spec_flags(CURVE_PEAK4_PROBS), "--n-max", "20", "--format", "json",
    ],
    "simulate_chess_cat.csv": [
        "simulate", *spec_flags(CHESS_PROBS),
        "--policy", "cat", "--horizon", "6", "--samples", "5000", "--seed", "7",
    ],
    "simulate_chess_optimal.csv": [
        "simulate", *spec_flags(CHESS_PROBS),
        "--policy", "optimal", "--horizon", "16", "--samples", "20000", "--seed", "11",
    ],
    "simulate_one_sample.json": [
        "simulate", *spec_flags(CHESS_PROBS),
        "--horizon", "2", "--samples", "1", "--format", "json",
    ],
    "verify_out.csv": ["verify"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_COMMANDS))
def test_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    argv = _GOLDEN_COMMANDS[name]
    if argv[0] == "verify":
        # one fixed check stands in for the checklist, whose seconds vary run to run
        import matchplay.verify

        check = matchplay.verify.Check("g2_chess", True, "0.08", 0.25)
        monkeypatch.setattr(matchplay.verify, "run_checks", lambda **kw: [check])
        target = tmp_path / name
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert out == "g2_chess=0.08 PASS\n"
        out = target.read_text(encoding="utf-8")
    else:
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestClassify:
    def test_csv_output(self, capsys):
        code, out, err = run(capsys, "classify", *spec_flags(CHESS_PROBS))
        assert code == 0 and err == ""
        header, row = out.splitlines()
        assert header.startswith("weak,strictly_weak,safe_defense")
        cells = row.split(",")
        assert cells[0] == "true" and cells[1] == "true"
        assert cells[2] == "false"
        # drifts are rendered with 17 significant digits
        assert float(cells[7]) == pytest.approx(-0.10, abs=1e-15)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", *spec_flags(CHESS_PROBS), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["weak"] is True
        assert payload[0]["safe_defense"] is False


class TestCurve:
    def test_header_and_length(self, capsys):
        code, out, _ = run(capsys, "curve", *spec_flags(CHESS_PROBS), "--n-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,gain_opt,gain_cat,gain_catplus,gain_off,gain_def"
        assert len(lines) == 7
        assert lines[2].split(",")[0] == "2"
        assert float(lines[2].split(",")[1]) == pytest.approx(0.08, abs=1e-12)

    def test_golden_peak4_curve(self, capsys):
        code, out, _ = run(capsys, "curve", *spec_flags(CURVE_PEAK4_PROBS), "--n-max", "20")
        assert code == 0
        assert out == (GOLDEN / "curve_peak4.csv").read_text(encoding="utf-8")

    def test_golden_peak6_curve(self, capsys):
        code, out, _ = run(capsys, "curve", *spec_flags(CURVE_PEAK6_PROBS), "--n-max", "20")
        assert code == 0
        assert out == (GOLDEN / "curve_peak6.csv").read_text(encoding="utf-8")

    def test_golden_files_use_lf_endings(self):
        for name in ("curve_peak4.csv", "curve_peak6.csv", *_GOLDEN_COMMANDS):
            data = (GOLDEN / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n")

    def test_out_flag_writes_identical_bytes(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "curve", *spec_flags(CHESS_PROBS), "--n-max", "4", "--out", str(target)
        )
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "curve", *spec_flags(CHESS_PROBS), "--n-max", "4")
        assert target.read_text(encoding="utf-8") == out


class TestNstar:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "nstar", *spec_flags(CHESS_PROBS), "--n-max", "16")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n_star,gain"
        n_star, gain = row.split(",")
        best = find_optimal_horizon(
            __import__("matchplay").MatchSpec.from_probs(*CHESS_PROBS), 16
        )
        assert int(n_star) == best.horizon
        assert float(gain) == best.gain


class TestLimits:
    def test_both_strictly_losing(self, capsys):
        code, out, _ = run(capsys, "limits", *spec_flags(CHESS_PROBS))
        assert code == 0
        header, row = out.splitlines()
        assert header == "regime,optimal_limit,cat_limit"
        cells = row.split(",")
        assert cells[0] == "both_strictly_losing"
        assert float(cells[1]) == -1.0
        assert cells[2] == ""  # undefined limit renders as an empty cell

    def test_undefined_limit_is_null_in_json(self, capsys):
        code, out, _ = run(capsys, "limits", *spec_flags(CHESS_PROBS), "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["cat_limit"] is None

    def test_regime_not_covered_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "limits", *spec_flags((0.6, 0.0, 0.4, 0.1, 0.8, 0.1)))
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def test_matches_library_estimate(self, capsys, chess):
        code, out, _ = run(
            capsys,
            "simulate",
            *spec_flags(CHESS_PROBS),
            "--horizon", "4", "--samples", "5000", "--seed", "7", "--policy", "cat",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "mean,std_error,samples,seed"
        est = estimate_gain(chess, matchplay.policies.cat_policy(), 4, 5000, seed=7)
        cells = row.split(",")
        assert float(cells[0]) == est.mean
        assert float(cells[1]) == est.std_error
        assert cells[2:] == ["5000", "7"]

    def test_each_policy_label_runs_the_library_policy(self, capsys, chess):
        library = {
            "optimal": matchplay.policies.table_policy(solve(chess, 5).policy),
            "cat": matchplay.policies.cat_policy(),
            "catplus": matchplay.policies.cat_plus_policy(chess),
            "off": matchplay.policies.fixed_policy("Off"),
            "def": matchplay.policies.fixed_policy("Def"),
        }
        assert sorted(library) == sorted(POLICY_LABELS)
        means = set()
        for label, policy in library.items():
            code, out, _ = run(
                capsys, "simulate", *spec_flags(CHESS_PROBS),
                "--policy", label, "--horizon", "5", "--samples", "4000", "--seed", "3",
            )
            est = estimate_gain(chess, policy, 5, 4000, seed=3)
            assert code == 0
            row = f"{est.mean:.17g},{est.std_error:.17g},4000,3"
            assert out == f"mean,std_error,samples,seed\n{row}\n"
            means.add(est.mean)
        # at this horizon and seed no two policies give the same estimate
        assert len(means) == len(library)

    def test_nan_error_becomes_null_in_json(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            *spec_flags(CHESS_PROBS),
            "--horizon", "2", "--samples", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["std_error"] is None
        assert math.isfinite(payload[0]["mean"])


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        assert "g2_chess=0.08 PASS" in lines
        assert all(line.endswith((" PASS", " FAIL")) for line in lines)

    def test_out_rows_carry_durations_and_stdout_keeps_its_lines(
        self, capsys, monkeypatch, tmp_path
    ):
        import matchplay.verify

        real = matchplay.verify.run_checks
        monkeypatch.setattr(matchplay.verify, "run_checks", lambda **kw: real(**kw, draws=5))
        target = tmp_path / "verify.csv"
        code, out, _ = run(capsys, "verify", "--out", str(target))
        assert code == 0
        header, *rows = target.read_text(encoding="utf-8").splitlines()
        assert header == "name,passed,detail,seconds"
        cells = [row.split(",") for row in rows]
        assert all(passed == "true" and float(seconds) >= 0.0 for _, passed, _, seconds in cells)
        # seconds is the one column that changes from run to run; stdout leaves it out
        assert out.splitlines() == [f"{name}={detail} PASS" for name, _, detail, _ in cells]

    def test_partial_spec_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--pw", "0.4")
        assert code == 2 and "all six probabilities" in err

    def test_corruption_yields_exit_four(self, capsys, monkeypatch):
        real = matchplay.policies.brute_force_optimal
        monkeypatch.setattr(
            matchplay.policies,
            "brute_force_optimal",
            lambda spec, n: real(spec, n) + 1e-6,
        )
        code, out, _ = run(capsys, "verify")
        assert code == 4
        assert any(line.endswith(" FAIL") for line in out.splitlines())


class TestExitCodes:
    def test_invalid_probability(self, capsys):
        code, _, err = run(capsys, "classify", *spec_flags((0.5, 0.4, 0.4, 0.1, 0.8, 0.1)))
        assert code == 2 and "error:" in err

    def test_defensive_convention_violation(self, capsys):
        code, _, _ = run(capsys, "classify", *spec_flags((0.1, 0.8, 0.1, 0.45, 0.0, 0.55)))
        assert code == 2

    def test_bad_horizon(self, capsys):
        code, _, _ = run(capsys, "curve", *spec_flags(CHESS_PROBS), "--n-max", "0")
        assert code == 2

    def test_over_budget(self, capsys):
        code, _, err = run(capsys, "curve", *spec_flags(CHESS_PROBS), "--n-max", "200000")
        assert code == 3 and "budget" in err

    def test_simulate_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(analytic, "DEFAULT_VALUE_HORIZON_BUDGET", 10)
        code, out, err = run(
            capsys, "simulate", *spec_flags(CHESS_PROBS),
            "--policy", "cat", "--horizon", "11", "--samples", "1",
        )
        assert code == 3 and out == "" and "budget" in err

    def test_bad_sample_count(self, capsys):
        code, _, _ = run(
            capsys, "simulate", *spec_flags(CHESS_PROBS), "--horizon", "2", "--samples", "0"
        )
        assert code == 2

    def test_negative_seed_gets_the_library_message(self, capsys):
        code, out, err = run(
            capsys, "simulate", *spec_flags(CHESS_PROBS),
            "--horizon", "2", "--samples", "10", "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer in [0, 2**128), got -1\n"

    def test_negative_verify_seed_gets_the_library_message(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "classify", "--bogus", "1")
        assert code == 2

    def test_an_internal_value_error_is_not_reported_as_bad_input(self, monkeypatch):
        # every bad input raises a MatchPlayError; a bare ValueError is a bug
        import matchplay.dp

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(matchplay.dp, "gain_curve", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["curve", *spec_flags(CHESS_PROBS), "--n-max", "4"])

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
    def test_out_not_a_file_in_an_existing_directory(self, capsys, tmp_path, out):
        out = tmp_path / out
        code, stdout, err = run(capsys, "classify", *spec_flags(CHESS_PROBS), "--out", str(out))
        assert code == 2 and stdout == "" and "--out" in err
        assert not (tmp_path / "missing").exists()

    def test_verify_out_into_a_missing_directory_runs_no_check(
        self, capsys, tmp_path, monkeypatch
    ):
        import matchplay.verify

        def never(*args, **kwargs):
            raise AssertionError("the checklist ran before --out was rejected")

        monkeypatch.setattr(matchplay.verify, "run_checks", never)
        code, stdout, err = run(capsys, "verify", "--out", str(tmp_path / "missing" / "v.csv"))
        assert code == 2 and stdout == "" and "--out" in err


def test_cli_import_leaves_scipy_out():
    # a cold call pays for every module the cli imports; scipy is not one
    code = "import sys, matchplay.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python(code) == "[]\n"


# runs each argv list of sys.argv[1] through cli.main in turn; reports, after
# each step, the exit code, stdout and whether numpy has been imported yet
_COLD_STEPS = """
import contextlib, io, json, sys
import matchplay
steps = [["import matchplay", 0, "", "numpy" in sys.modules]]
import matchplay.cli
steps.append(["import matchplay.cli", 0, "", "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = matchplay.cli.main(argv)
    steps.append([argv[0], code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_cold_classify_and_limits_leave_numpy_out():
    argvs = [
        ["classify", *spec_flags(CHESS_PROBS)],
        ["limits", *spec_flags((0.3, 0.0, 0.7, 0.0, 1.0, 0.0))],
        ["curve", *spec_flags(CURVE_PEAK4_PROBS), "--n-max", "20"],
    ]
    steps = json.loads(fresh_python(_COLD_STEPS, json.dumps(argvs)))
    names = ["import matchplay", "import matchplay.cli", "classify", "limits", "curve"]
    assert [step[0] for step in steps] == names
    assert [step[1] for step in steps] == [0] * 5
    assert [step[3] for step in steps] == [False, False, False, False, True]
    assert steps[2][2].startswith("weak,strictly_weak,")
    assert steps[3][2] == "regime,optimal_limit,cat_limit\nsafe_defense,0,-0.14285714285714279\n"
    # the numpy-free commands leave the numpy-bound one's output unchanged
    assert steps[4][2] == (GOLDEN / "curve_peak4.csv").read_text(encoding="utf-8")
