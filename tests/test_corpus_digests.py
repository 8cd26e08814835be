"""Pin the bytes of every bundled scenario's report and L1 history.

Each scenario runs through the CLI; the SHA-256 of the report and of the L1
history, the run's exit code and the exit code of `derive --expect-root`
against the reported root must match `corpus_digests.json`. The history is
written under a fixed relative name because the report embeds that path.

Regenerate (only when a byte change is intended):

    PYTHONPATH=src python tests/test_corpus_digests.py > tests/corpus_digests.json
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from rollupsim.cli import main
from rollupsim.formats import parse_report

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
L1_OUT = "history.l1"
REPORT_OUT = "run.report"


def corpus_fingerprint(scenario: Path, workdir: Path) -> dict:
    """Run one scenario from `workdir` and fingerprint everything it emits."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run_code = main(["run", "--scenario", str(scenario), "--report", REPORT_OUT, "--l1-out", L1_OUT])
            report = Path(REPORT_OUT).read_bytes()
            history = Path(L1_OUT).read_bytes()
            root = parse_report(report.decode()).final_root.hex0x()
            derive_code = main(["derive", "--l1", L1_OUT, "--expect-root", root])
    finally:
        os.chdir(cwd)
    return {
        "run_exit": run_code,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "history_sha256": hashlib.sha256(history).hexdigest(),
        "derive_exit": derive_code,
    }


def _scenario_names():
    return sorted(p.stem for p in SCENARIOS.glob("*.scn"))


def test_digest_file_covers_the_corpus():
    assert sorted(json.loads(DIGESTS.read_text())) == _scenario_names()


@pytest.mark.parametrize("name", _scenario_names())
def test_corpus_bytes_unchanged(tmp_path, name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert corpus_fingerprint(SCENARIOS / f"{name}.scn", tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    out = {}
    for name in _scenario_names():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = corpus_fingerprint(SCENARIOS / f"{name}.scn", Path(tmp))
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
