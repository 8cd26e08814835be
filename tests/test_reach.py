"""Every `src/` function is reached by a corpus run, or listed here with its reason.

A fresh interpreter runs the corpus through `cli.main` under
`sys.setprofile` and `threading.setprofile`, from the import of `cli` on:
each scenario is `run` at `--workers` 1 and 2, and each run's history is
`derive`d and its report read by `quarantine list` and by `quarantine show`
of its first entry. Every function that `src/` defines (read with `ast`)
that no call reached must be in `UNREACHED`, and every entry there must be
unreached: a function the corpus comes to reach leaves the list. A fresh
interpreter, so that nothing an earlier test imported or compiled hides a
function that only an import or a first compile calls.

Each entry names its reason: `error path` (only a refused input reaches it,
and the corpus is refused nowhere), `Decision` (kept by a decision in
`ROADMAP.md`) or `item N` (the open `ROADMAP.md` item that will reach it).

Print the functions no corpus run reaches, each with its listed reason:

    PYTHONPATH=src python tests/test_reach.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rollupsim"
SCENARIOS = ROOT / "scenarios"

UNREACHED = {
    "cli._fail": "error path: every refusal of the command line prints through it",
    "core.ScenarioError.__init__": "error path: a refused scenario, report or history line, or scenario event",
    "l1da.DerivationGap.__init__": "error path: a history the sequencer could not have written",
    "lines._reread": "error path: a history spelled otherwise than render_history writes it",
    "lines._too_deep": "error path: code nested deeper than MAX_NESTING",
    "vm.AccountOverflow.__init__": "error path: a balance or nonce wider than the state root encodes it",
    "vm.InvalidBlock.__init__": "error path: a replayed block whose transaction cannot execute",
    "core.Record.__eq__": "Decision: Records; core.Record keeps its four methods",
    "core.Record.__hash__": "Decision: Records; core.Record keeps its four methods",
    "core.Record.__repr__": "Decision: Records; core.Record keeps its four methods",
    "core.encode_block": "Decision: encode_block is kept for the tests of guarantees 3 and 9",
    "l1da.L1Chain.escape_withdraw": "item 4: the escape hatch end to end",
}
REASON = re.compile(r"(error path|Decision|item \d+): .+")


def definitions() -> Dict[Tuple[str, int], str]:
    """(file, first line) -> `module.qualname` of every function `src/`
    defines; a decorated function starts at its first decorator, as its
    code object does."""
    found: Dict[Tuple[str, int], str] = {}

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def reached() -> Set[Tuple[str, int]]:
    """(file, first line) of every Python function the corpus runs call,
    from the import of `cli` on."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        from rollupsim.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for scenario in sorted(SCENARIOS.glob("*.scn")):
                for workers in ("1", "2"):
                    report = os.path.join(tmp, f"{scenario.stem}.{workers}.report")
                    history = os.path.join(tmp, f"{scenario.stem}.{workers}.l1")
                    run = ["run", "--scenario", str(scenario), "--report", report, "--l1-out", history]
                    listing = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()):
                        main([*run, "--workers", workers])
                        main(["derive", "--l1", history])
                        with contextlib.redirect_stdout(listing):
                            main(["quarantine", report, "list"])
                        entries = listing.getvalue().split()
                        if entries:
                            main(["quarantine", report, "show", entries[0]])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    files = {name: str(Path(name).resolve()) for name in {code.co_filename for code in codes}}
    return {(files[code.co_filename], code.co_firstlineno) for code in codes}


def unreached() -> List[str]:
    calls = reached()
    return sorted(name for where, name in definitions().items() if where not in calls)


def test_the_unreached_functions_are_exactly_the_listed_ones():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout
    assert [line.split()[0] for line in out.splitlines()] == sorted(UNREACHED), out


def test_every_entry_names_its_reason():
    assert all(REASON.fullmatch(reason) for reason in UNREACHED.values())
    assert sum(not reason.startswith("error path") for reason in UNREACHED.values()) <= 5


if __name__ == "__main__":
    for name in unreached():
        print(name, UNREACHED.get(name, "not listed: reach it, delete it, or list it with its reason"))
