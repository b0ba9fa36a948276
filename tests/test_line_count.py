"""scripts/line_count.py counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a multi-line expression."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_count.py"

# The 12 token-bearing lines are marked: the import, an assignment, the
# three lines of a call, the class, two defs, a return, a string statement
# that is not a docstring and the two lines of a multi-line string. Module,
# class, method and function docstrings, comments and blank lines do not
# count.
MODULE = '''\
"""A module docstring
over two lines."""

import math  # 1, with a trailing comment

# a comment line
LIMIT = 3  # 2
TOTAL = sum(  # 3
    [1, 2,  # 4
     3])  # 5


class Box:  # 6
    """A class docstring."""

    def size(self):  # 7
        """A method docstring."""
        return math.sqrt(LIMIT)  # 8


def note():  # 9
    """A function docstring."""
    "not a docstring"  # 10
    TEXT = """two
lines"""  # 11, 12
'''


@pytest.fixture(scope="module")
def line_count():
    spec = importlib.util.spec_from_file_location("line_count", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hand_written_module(line_count):
    assert line_count.count_lines(MODULE) == 12


def test_prints_each_module_and_the_total(line_count, tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    (tmp_path / "notes.txt").write_text("X = 1\n")
    assert line_count.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["12", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["13", "total"],
    ]
