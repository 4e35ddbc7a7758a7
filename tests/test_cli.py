"""Tests for the command-line interface: output formats, exit codes, goldens."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchplay.policies
from matchplay import estimate_gain, find_optimal_horizon
from matchplay.cli import main

from conftest import CHESS_PROBS, CURVE_PEAK4_PROBS, CURVE_PEAK6_PROBS

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
        for name in ("curve_peak4.csv", "curve_peak6.csv"):
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


def test_cli_import_leaves_scipy_out():
    # a cold call pays for every module the cli imports; scipy is not one
    src = Path(matchplay.policies.__file__).resolve().parents[1]
    paths = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    code = "import sys, matchplay.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
