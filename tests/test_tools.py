"""Tests for the repository tools under ``tools/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Box:
    """Class docstring."""

    label = """an assigned string
is code, not a docstring"""

    def size(self):
        """Function docstring."""

        return (1 +
                2)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    src_lines = load_tool("src_lines")
    # import, class, the assignment's two lines, def, the return's two lines
    assert src_lines.code_lines(SOURCE) == 7
    assert src_lines.code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    src_lines = load_tool("src_lines")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(count) for count, _ in rows] == [7, 1, 8]
    assert rows[-1][1] == "total"


def test_pins_pass_and_fail_on_a_one_character_edit(capsys):
    pins = load_tool("pins")
    row = pins.Pin("oracle CHESS N=2", "repr(policies.brute_force_optimal(CHESS, 2))", "0.08", 1000)
    assert pins.run([row]) == 0
    passed = capsys.readouterr().out.splitlines()
    assert len(passed) == 1
    assert passed[0].split()[:4] == ["oracle", "CHESS", "N=2", "PASS"]
    assert "peak" in passed[0]

    assert pins.run([row._replace(expected="0.09")]) == 1
    failed = capsys.readouterr().out.splitlines()
    assert failed[0].split()[:4] == ["oracle", "CHESS", "N=2", "FAIL"]
    assert failed[1:] == ["    expected '0.09'", "    actual   '0.08'"]


def test_pins_fail_above_the_memory_bound(capsys):
    pins = load_tool("pins")
    row = pins.Pin("oracle CHESS N=2", "repr(policies.brute_force_optimal(CHESS, 2))", "0.08", 1)
    assert pins.run([row]) == 1
    assert capsys.readouterr().out.split()[3] == "FAIL"
