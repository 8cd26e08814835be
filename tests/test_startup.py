"""`tools/startup.py`, the start-up meter: it lists every `rollupsim` module
a bench child imports with its self time, and its counts are the same in
two fresh interpreters."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "startup.py"

spec = importlib.util.spec_from_file_location("startup", SCRIPT)
startup = importlib.util.module_from_spec(spec)
spec.loader.exec_module(startup)

MODULES = {
    "rollupsim", "rollupsim.core", "rollupsim.vm", "rollupsim.l1da", "rollupsim.derivation", "rollupsim.lines",
    "rollupsim.detection", "rollupsim.mempool", "rollupsim.quarantine", "rollupsim.sequencer", "rollupsim.formats",
}
COUNTS = {"classes", "regexes", "tracked_objects", "forward_refs", "typing_named_tuples", "enum_classes"}


def test_self_times_name_every_imported_module():
    times = startup.self_times(ROOT / "src")
    assert set(times) == MODULES and all(us > 0 for us in times.values()), times


def test_counts_are_deterministic():
    first, second = startup.counts(ROOT / "src"), startup.counts(ROOT / "src")
    assert first == second and set(first) == COUNTS, (first, second)
    assert first["classes"] > 0 and first["tracked_objects"] > 0 and first["regexes"] > 0


def test_the_script_prints_a_table_and_the_counts():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", "1"], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].split()[:2] == ["module", "self_us"]
    names = {line.split()[0] for line in out[1:]}
    assert MODULES | {"total"} | COUNTS <= names, out
