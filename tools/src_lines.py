"""Count the lines of each `src/rollupsim` module: raw lines, and code lines,
which are neither blank, nor comment-only, nor part of a docstring.

    python tools/src_lines.py            # the working tree
    python tools/src_lines.py --rev REV  # the working tree, REV, and the change

With `--rev`, each module at REV is read through `git show`; a module that
exists on one side only counts as zero lines on the other. Standard library
only: `tokenize` finds the lines that hold code and `ast` the docstrings.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/rollupsim"

Counts = Dict[str, Tuple[int, int]]  # module file name -> (raw, code)

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(source: str) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> Tuple[int, int]:
    """(raw, code) lines of one module's source. A code line holds a token
    other than a comment or a docstring; a string spanning lines makes each
    of its lines a code line."""
    spans = _docstring_spans(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def working_tree() -> Counts:
    return {path.name: count(path.read_text()) for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def at_revision(rev: str) -> Counts:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout

    names = [line for line in git("ls-tree", "--name-only", rev, f"{PACKAGE}/").splitlines() if line.endswith(".py")]
    return {Path(name).name: count(git("show", f"{rev}:{name}")) for name in names}


def table(now: Counts, then: Optional[Counts] = None, rev: str = "") -> List[str]:
    """One row per module and a total row: raw and code lines now, and with
    `then`, the same at `rev` and the change."""
    names = sorted(set(now) | set(then or {}))
    header = ["module", "raw", "code"]
    if then is not None:
        header += [f"raw@{rev}", f"code@{rev}", "d_raw", "d_code"]

    def row(name: str, a: Tuple[int, int], b: Optional[Tuple[int, int]]) -> List[str]:
        cells = [name, *map(str, a)]
        if b is not None:
            cells += [*map(str, b), f"{a[0] - b[0]:+d}", f"{a[1] - b[1]:+d}"]
        return cells

    def total(counts: Counts) -> Tuple[int, int]:
        return sum(raw for raw, _ in counts.values()), sum(code for _, code in counts.values())

    rows = [header]
    for name in names:
        rows.append(row(name, now.get(name, (0, 0)), None if then is None else then.get(name, (0, 0))))
    rows.append(row("total", total(now), None if then is None else total(then)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return [
        "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(r, widths)))
        for r in rows
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="also count each module at this git revision, and print the change")
    args = parser.parse_args(argv)
    then = at_revision(args.rev) if args.rev else None
    print("\n".join(table(working_tree(), then, args.rev or "")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
