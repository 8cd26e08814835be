"""Seeded input fuzz: corpus scenario, report and history files, mutated
line by line, field by field and byte by byte, and damaged command lines go
through `cli.main`. Every case must end in a documented exit code (argparse's
usage error, `SystemExit(2)`, included), never an exception or a traceback."""
import random
from pathlib import Path

import pytest

from rollupsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
FIELD_VALUES = ["", "-1", "-0x1", str(2**64), str(2**256), "0xzz", "0x", "{", "}", "{x y}", "@", "-"]
# Bytes that do not decode as UTF-8, held as the surrogates that
# `surrogateescape` writes back as those bytes: a lone 0xff, and the first
# byte of the two-byte "é" without its second.
UNDECODABLE = ["\udcff", "\udcc3"]
CASES_PER_FILE = 20


def mutate(lines, rng):
    """One mutation: drop, duplicate, swap or truncate a line, set one field
    (or a bare word) to an empty, negative, oversized, non-hex or brace
    value, or put an undecodable byte into a line."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(["drop", "duplicate", "swap", "truncate", "field", "field", "bytes"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == "bytes":
        j = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:j] + rng.choice(UNDECODABLE) + lines[i][j:]
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
        bad.write_bytes(("\n".join(mutate(lines, rng)) + "\n").encode("utf-8", "surrogateescape"))
        check(capsys, argv(bad), f"{source.name} case {case}", bad)


def check(capsys, argv, what, bad=None):
    """`main(argv)` must end in a documented exit code with no traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    except Exception as exc:  # pragma: no cover - the failure report
        shown = "" if bad is None else bad.read_bytes().decode("utf-8", "backslashreplace")
        pytest.fail(f"{what} raised {exc!r} on {argv}:\n{shown}")
    err = capsys.readouterr().err
    assert code in DOCUMENTED_EXITS and "Traceback" not in err, (what, argv, code, err)


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


@pytest.fixture(scope="module")
def argument_files(outputs, tmp_path_factory):
    """Named paths for command lines: real inputs, fresh outputs, a missing
    file, a directory and a file that does not decode."""
    root = tmp_path_factory.mktemp("args")
    (root / "binary").write_bytes(b"scenario v1\n\xff\xfe\n")
    report = outputs / "pause_exploit.report"
    key = next(line.split()[1].partition("=")[2] for line in report.read_text().splitlines() if line.startswith("entry "))
    return {
        "SCN": str(SCENARIOS / "pause_exploit.scn"), "REPORT": str(report), "L1": str(outputs / "pause_exploit.l1"),
        "KEY": key, "OUT_R": str(root / "out.report"), "OUT_L": str(root / "out.l1"), "MISSING": str(root / "missing"),
        "DIR": str(root), "BINARY": str(root / "binary"),
    }


# Valid command lines, with {NAME} for the paths above.
COMMAND_LINES = [
    "run --scenario {SCN} --report {OUT_R} --l1-out {OUT_L} --workers 2",
    "derive --l1 {L1} --expect-root 0x" + "00" * 32,
    "quarantine {REPORT} show {KEY}",
    "quarantine {REPORT} list",
]
BAD_VALUES = ["0", "257", "x", "-1", "", "0xzz", "0x", "0x" + "f" * 63, "{MISSING}", "{DIR}", "{BINARY}", "{REPORT}"]

# The damage the seeded sets must reach, named once each.
LISTED_ARGUMENT_SETS = [
    "",
    "run",
    "run --scenario {SCN} --report {OUT_R}",
    "run --scenario {SCN} --scenario {SCN} --report {OUT_R} --l1-out {OUT_L}",
    "run --scenario {SCN} --report {OUT_R} --l1-out {OUT_L} --colour red",
    "run --scenario {SCN} --report {OUT_R} --l1-out {OUT_L} --workers 0",
    "run --scenario {SCN} --report {OUT_R} --l1-out {OUT_L} --workers 257",
    "run --scenario {SCN} --report {OUT_R} --l1-out {OUT_L} --workers x",
    "run --scenario {MISSING} --report {OUT_R} --l1-out {OUT_L}",
    "run --scenario {DIR} --report {OUT_R} --l1-out {OUT_L}",
    "run --scenario {BINARY} --report {OUT_R} --l1-out {OUT_L}",
    "run --scenario {SCN} --report {DIR} --l1-out {OUT_L}",
    "derive",
    "derive --l1 {L1} --expect-root 0xzz",
    "derive --l1 {L1} --expect-root",
    "derive --l1 {MISSING}",
    "derive --l1 {DIR}",
    "derive --l1 {BINARY}",
    "quarantine {REPORT} show",
    "quarantine {REPORT} show 0xzz",
    "quarantine {REPORT} show 0x12",
    "quarantine {REPORT} drop",
    "quarantine {MISSING} list",
    "quarantine {DIR} list",
    "quarantine {BINARY} list",
]
SEEDED_ARGUMENT_SETS = 60


def damage_arguments(words, rng):
    """One damage to a valid command line: drop a word, repeat a flag with
    its value, add an unknown flag, or swap a value for a bad one."""
    words = list(words)
    kind = rng.choice(["drop", "repeat", "unknown", "value", "value"])
    flags = [i for i, word in enumerate(words) if word.startswith("--")]
    if kind == "drop":
        del words[rng.randrange(1, len(words))]
    elif kind == "repeat" and flags:
        i = rng.choice(flags)
        words += words[i : i + 2]
    elif kind == "unknown":
        words.insert(rng.randrange(1, len(words) + 1), rng.choice(["--colour", "-x", "--workers=", "--"]))
    else:
        values = [i for i in range(1, len(words)) if not words[i].startswith("--")]
        words[rng.choice(values)] = rng.choice(BAD_VALUES)
    return words


def fill(words, files):
    return [word.format(**files) for word in words]


@pytest.mark.parametrize("line", LISTED_ARGUMENT_SETS)
def test_listed_argument_set(capsys, argument_files, line):
    check(capsys, fill(line.split(), argument_files), line)


@pytest.mark.parametrize("seed", range(SEEDED_ARGUMENT_SETS))
def test_seeded_argument_set(capsys, argument_files, seed):
    rng = random.Random(3000 + seed)
    check(capsys, fill(damage_arguments(rng.choice(COMMAND_LINES).split(), rng), argument_files), f"seed {seed}")
