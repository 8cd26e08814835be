"""Seeded input fuzz: corpus scenario, report and history files, mutated
line by line and field by field, go through `cli.main`. Every case must end
in a documented exit code, never an exception."""
import random
from pathlib import Path

import pytest

from rollupsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
FIELD_VALUES = ["", "-1", "-0x1", str(2**64), str(2**256), "0xzz", "0x", "{", "}", "{x y}", "@", "-"]
CASES_PER_FILE = 20


def mutate(lines, rng):
    """One mutation: drop, duplicate, swap or truncate a line, or set one
    field (or a bare word) to an empty, negative, oversized, non-hex or
    brace value."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(["drop", "duplicate", "swap", "truncate", "field", "field"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    else:
        words = lines[i].split(" ")
        k = rng.randrange(len(words))
        key, eq, _value = words[k].partition("=")
        words[k] = f"{key}={rng.choice(FIELD_VALUES)}" if eq else rng.choice(FIELD_VALUES)
        lines[i] = " ".join(words)
    return lines


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The report and the history of every corpus scenario."""
    root = tmp_path_factory.mktemp("corpus")
    for name in NAMES:
        args = ["--report", str(root / f"{name}.report"), "--l1-out", str(root / f"{name}.l1")]
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.scn"), *args]) == 0
    return root


def fuzz(tmp_path, capsys, source, argv, seed):
    rng = random.Random(seed)
    lines = source.read_text().splitlines()
    bad = tmp_path / f"fuzzed{source.suffix}"
    for case in range(CASES_PER_FILE):
        bad.write_text("\n".join(mutate(lines, rng)) + "\n")
        try:
            code = main(argv(bad))
        except Exception as exc:  # pragma: no cover - the failure report
            pytest.fail(f"{source.name} case {case} raised {exc!r} on:\n{bad.read_text()}")
        err = capsys.readouterr().err
        assert code in DOCUMENTED_EXITS and "Traceback" not in err, (source.name, case, code, err)


@pytest.mark.parametrize("seed, name", enumerate(NAMES))
def test_mutated_scenario(tmp_path, capsys, seed, name):
    out = ["--report", str(tmp_path / "r"), "--l1-out", str(tmp_path / "l")]
    fuzz(tmp_path, capsys, SCENARIOS / f"{name}.scn", lambda path: ["run", "--scenario", str(path), *out], seed)


@pytest.mark.parametrize("seed, name", enumerate(NAMES))
def test_mutated_report(tmp_path, capsys, outputs, seed, name):
    report = outputs / f"{name}.report"
    keys = [line.split()[1].partition("=")[2] for line in report.read_text().splitlines() if line.startswith("entry ")]
    action = ["show", keys[0]] if keys else ["list"]
    fuzz(tmp_path, capsys, report, lambda path: ["quarantine", str(path), *action], 1000 + seed)


@pytest.mark.parametrize("seed, name", enumerate(NAMES))
def test_mutated_history(tmp_path, capsys, outputs, seed, name):
    fuzz(tmp_path, capsys, outputs / f"{name}.l1", lambda path: ["derive", "--l1", str(path)], 2000 + seed)
