"""`tools/src_lines.py`, the net `src/` line counter: its totals are the sums
of its module rows, docstrings, comments and blanks are not code, and a
module's nodes are its syntax tree's."""
import ast
import importlib.util
import os
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


def test_nodes_are_the_syntax_tree_nodes():
    assert src_lines.nodes("x = 1\n") == 5  # Module, Assign, Name, Store, Constant
    assert src_lines.nodes(SOURCE) == sum(1 for _ in ast.walk(ast.parse(SOURCE)))
    # A comment or a blank line is no node.
    assert src_lines.nodes("# a comment\n\nx = 1\n") == src_lines.nodes("x = 1\n")
    assert src_lines.measure(SOURCE) == (19, 7, src_lines.nodes(SOURCE))


def test_the_working_tree_totals_are_the_module_sums():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["module", "raw", "code", "nodes"]
    modules = sorted(path.name for path in (ROOT / "src" / "rollupsim").glob("*.py"))
    assert [row[0] for row in rows] == modules
    assert total == ["total", *(str(sum(int(row[i]) for row in rows)) for i in (1, 2, 3))]
    for name, raw, code, nodes in rows:
        text = (ROOT / "src" / "rollupsim" / name).read_text()
        assert int(raw) == len(text.splitlines()) and 0 < int(code) < int(raw), name
        assert int(nodes) == src_lines.nodes(text), name


def test_the_change_counts_a_module_missing_on_one_side_as_zero():
    now = {"a.py": (10, 6, 40), "new.py": (4, 2, 9)}
    then = {"a.py": (12, 9, 55), "gone.py": (5, 3, 12)}
    rows = [line.split() for line in src_lines.table(now, then, "REV")]
    assert rows == [
        ["module", "raw", "code", "nodes", "raw@REV", "code@REV", "nodes@REV", "d_raw", "d_code", "d_nodes"],
        ["a.py", "10", "6", "40", "12", "9", "55", "-2", "-3", "-15"],
        ["gone.py", "0", "0", "0", "5", "3", "12", "-5", "-3", "-12"],
        ["new.py", "4", "2", "9", "0", "0", "0", "+4", "+2", "+9"],
        ["total", "14", "8", "49", "17", "12", "67", "-3", "-4", "-18"],
    ]


def test_a_reader_that_stops_early_ends_it_quietly():
    # As `| head -3` does: the reader has gone before the table is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, str(SCRIPT)], stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert done.stderr == "" and done.returncode == 0
