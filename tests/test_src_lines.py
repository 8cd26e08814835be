"""`tools/src_lines.py`, the net `src/` line counter: its totals are the sums
of its module rows, and docstrings, comments and blanks are not code."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "src_lines.py"

spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    return """a string,
not a docstring"""


class C:
    """Class
    docstring."""

    y = ("a"  # a comment inside brackets
         "b")
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # import, def, the two-line return, class and the two-line assignment.
    assert src_lines.count(SOURCE) == (19, 7)


def test_a_one_line_docstring_leaves_its_statement_counted():
    assert src_lines.count('def f(): """doc"""\n') == (1, 1)


def test_the_working_tree_totals_are_the_module_sums():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["module", "raw", "code"]
    modules = sorted(path.name for path in (ROOT / "src" / "rollupsim").glob("*.py"))
    assert [row[0] for row in rows] == modules
    assert total == ["total", str(sum(int(row[1]) for row in rows)), str(sum(int(row[2]) for row in rows))]
    for name, raw, code in rows:
        text = (ROOT / "src" / "rollupsim" / name).read_text()
        assert int(raw) == len(text.splitlines()) and 0 < int(code) < int(raw), name


def test_the_change_counts_a_module_missing_on_one_side_as_zero():
    now = {"a.py": (10, 6), "new.py": (4, 2)}
    then = {"a.py": (12, 9), "gone.py": (5, 3)}
    rows = [line.split() for line in src_lines.table(now, then, "REV")]
    assert rows == [
        ["module", "raw", "code", "raw@REV", "code@REV", "d_raw", "d_code"],
        ["a.py", "10", "6", "12", "9", "-2", "-3"],
        ["gone.py", "0", "0", "5", "3", "-5", "-3"],
        ["new.py", "4", "2", "0", "0", "+4", "+2"],
        ["total", "14", "8", "17", "12", "-3", "-4"],
    ]
