"""Same scenario in, same bytes out, whatever the interpreter's hash seed.

A sample of the corpus, `kitchen_sink` included, runs in two fresh
interpreters with different `PYTHONHASHSEED` values, with one worker and
with four. The order in which a set or dict of strings or bytes is walked
follows the hash seed, so output that depended on such an order would
differ here; every report and L1 history must be the same bytes in all
four runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ["kitchen_sink", "flood", "defer_budget", "deposit_many", "economic_release", "replacement_malicious"]
RUN = """
import json, sys
from rollupsim.formats import parse_scenario, render_history, render_report
from rollupsim.sequencer import run
out = {}
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        scenario = parse_scenario(f.read())
    scenario.seq_config = scenario.seq_config._replace(workers=int(sys.argv[1]))
    result = run(scenario)
    out[path] = [render_report(result.report), render_history(result.history)]
print(json.dumps(out))
"""


def outputs(hash_seed: str, workers: int):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
    scenarios = [str(ROOT / "scenarios" / f"{name}.scn") for name in SAMPLE]
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(workers), *scenarios], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_reports_and_histories_do_not_depend_on_the_hash_seed():
    first = outputs("1", 1)
    assert len(first) == len(SAMPLE) and all(report and history for report, history in first.values())
    for hash_seed, workers in [("4242", 1), ("1", 4), ("4242", 4)]:
        assert outputs(hash_seed, workers) == first, (hash_seed, workers)
