"""rollupsim's benchmark: one workload, timed end to end, with its correctness gate.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's scenario from the seed, then starts one fresh
child interpreter per repetition (perfbench/child.py) until `--seconds` have
passed, at least three times. Each child parses, runs, renders and derives.
End-to-end metrics are medians over the repetitions. With `--trace 1` one
more repetition runs with every layer wrapped and the per-layer metrics are
printed instead. Before the timed repetitions the generated scenario goes
once through `python -m rollupsim run` and `derive --expect-root`, which also
leaves the bytecode cache warm.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from generate import WORKLOADS, Expect, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEFAULT_SEED = 1
MIN_REPS = 3
CHILD_TIMEOUT = 120
# Seconds child.calibrate() takes on the reference host (Intel Xeon, 2 vCPU,
# Python 3.11.7). The host's speed drifts by a fifth over tens of seconds as
# neighbours come and go; scaling each time by reference / measured loop time
# removes that drift, so two runs of the same code agree.
REFERENCE_CALIBRATION_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "derive_s": "s",
    "block_ms_p50": "ms",
    "block_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile. Refuses a tail thinner than ten samples, so
    a reported p90 always has at least ten samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if pct > 50 and len(ordered) - rank < 10:
        raise ValueError(f"p{pct:g} of {len(ordered)} samples leaves fewer than 10 beyond it")
    return ordered[max(rank, 1) - 1]


def steady(backlog: Sequence[int], offered_per_block: int) -> bool:
    """False when the backlog of pooled, unresolved transactions grows: the
    mean over the last quarter of blocks exceeds the mean over the second
    quarter by more than one block's offered load."""
    quarter = len(backlog) // 4
    if quarter == 0:
        return True
    second = statistics.mean(backlog[quarter : 2 * quarter])
    last = statistics.mean(backlog[-quarter:])
    return last <= second + offered_per_block


def scaled(rep: dict) -> dict:
    """A repetition's end-to-end values, with every time scaled to the
    reference host speed by the calibration loop timed next to it: setup by
    the loop right after it, run and its blocks by the loops around them,
    derive likewise. The unscaled values stay under "raw"."""
    cal_setup, cal_mid, cal_end = rep["calibration_s"]
    run_factor = REFERENCE_CALIBRATION_S / ((cal_setup + cal_mid) / 2)
    raw = {
        "setup_s": rep["setup_s"],
        "run_s": rep["run_s"],
        "derive_s": rep["derive_s"],
        "block_ms": [seconds * 1e3 for seconds in rep["block_s"]],
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    return {
        "setup_s": raw["setup_s"] * REFERENCE_CALIBRATION_S / cal_setup,
        "run_s": raw["run_s"] * run_factor,
        "derive_s": raw["derive_s"] * REFERENCE_CALIBRATION_S / ((cal_mid + cal_end) / 2),
        "block_ms": [ms * run_factor for ms in raw["block_ms"]],
        "peak_rss_mb": raw["peak_rss_mb"],
        "speed": run_factor,
        "raw": raw,
    }


def summarize(reps: Sequence[dict]) -> Dict[str, float]:
    """The end-to-end metrics: the median over repetitions, and for block
    times the percentile over every block of every repetition."""
    out = {name: statistics.median(r[name] for r in reps) for name in ("setup_s", "run_s", "derive_s", "peak_rss_mb")}
    blocks = [ms for r in reps for ms in r["block_ms"]]
    out["block_ms_p50"] = percentile(blocks, 50)
    out["block_ms_p90"] = percentile(blocks, 90)
    return out


def unit_of(metric: str) -> str:
    if metric == "trace_overhead" or metric.endswith(("_share", "_per_included")):
        return "ratio"
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def run_child(workdir: Path, scenario: Path, expect: Path, traced: bool) -> dict:
    """One repetition; returns the child's result, or {"error": ...}."""
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--scenario", str(scenario), "--expect", str(expect)]
    if traced:
        cmd += ["--traced", "--spans", str(WORK / f"{scenario.stem}-spans.tsv")]
    t0 = monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=workdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT} s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(workdir: Path, scenario: Path) -> dict:
    """`rollupsim run` then `rollupsim derive --expect-root` on the scenario."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli = [sys.executable, "-m", "rollupsim"]
    run = subprocess.run(
        cli + ["run", "--scenario", str(scenario), "--report", "run.report", "--l1-out", "run.l1"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if run.returncode != 0:
        return {"error": f"rollupsim run exited {run.returncode}: {run.stderr.strip()}"}
    root = run.stdout.split()[-1]
    derive = subprocess.run(
        cli + ["derive", "--l1", "run.l1", "--expect-root", root],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if derive.returncode != 0:
        return {"error": f"rollupsim derive exited {derive.returncode}: {derive.stderr.strip()}"}
    return {
        "report_sha256": hashlib.sha256((workdir / "run.report").read_bytes()).hexdigest(),
        "history_sha256": hashlib.sha256((workdir / "run.l1").read_bytes()).hexdigest(),
        "final_root": root,
    }


def metadata(workload: str, seed: int, expect: Expect) -> dict:
    files = sorted((SRC / "rollupsim").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    baseline = json.loads((HERE / "baseline.json").read_text())
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "blocks": expect.blocks,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_net": lines - baseline["meta"]["src_lines"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rollupsim" / "__init__.py").is_file():
        print(f"error: no rollupsim sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        return bench(args, Path(tmp))


def bench(args: argparse.Namespace, workdir: Path) -> int:
    text, expect = generate(args.workload, args.seed)
    scenario = workdir / f"{args.workload}.scn"
    scenario.write_text(text)
    expect_file = workdir / "expect.json"
    expect_file.write_text(json.dumps(dataclasses.asdict(expect)))
    problems: List[str] = []

    cli = run_cli(workdir, scenario)

    reps: List[dict] = []
    start = monotonic()
    while monotonic() - start < args.seconds or len(reps) < MIN_REPS:
        reps.append(run_child(workdir, scenario, expect_file, traced=False))
    elapsed = monotonic() - start
    traced = run_child(workdir, scenario, expect_file, traced=True) if args.trace else None

    # The gate: every repetition, the traced one and the CLI must agree on
    # the bytes, and on the default seed those bytes are pinned.
    digests = json.loads((HERE / "digests.json").read_text())
    reference = None
    if args.seed == digests["seed"]:
        reference = digests["workloads"][args.workload]
    attempts = reps + ([traced] if traced is not None else []) + [cli]
    failed = 0
    for index, rep in enumerate(attempts):
        wrong = [rep["error"]] if "error" in rep else list(rep.get("problems", []))
        if "error" not in rep:
            if reference is None:
                reference = {k: rep[k] for k in ("report_sha256", "history_sha256")}
            for key, value in reference.items():
                if rep[key] != value:
                    wrong.append(f"{key} {rep[key][:16]} differs from {value[:16]}")
            if "backlog" in rep and not steady(rep["backlog"], expect.offered_per_block):
                wrong.append(f"backlog grows across the run: {rep['backlog']}")
        if wrong:
            failed += 1
            label = "cli" if rep is cli else ("traced" if rep is traced else f"rep {index}")
            problems += [f"{label}: {w}" for w in wrong]

    good = [scaled(r) for r in reps if "error" not in r]
    meta = metadata(args.workload, args.seed, expect)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions in {elapsed:.1f} s")
    metrics: Dict[str, dict] = {}
    if good:
        values, raw = summarize(good), summarize([r["raw"] for r in good])
        blocks = sum(len(r["block_ms"]) for r in good)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            count = f"{blocks} blocks of {len(good)} repetitions" if name.startswith("block_ms") else f"median of {len(good)} repetitions"
            print(f"  {name:<14} {values[name]:12.4f} {unit:<5} {count}; unscaled {raw[name]:.4f}")
        print(f"  {'host_speed':<14} {statistics.median(r['speed'] for r in good):12.4f} ratio of reference; median of {len(good)} repetitions")
    print(f"  {'error_rate':<14} {failed / len(attempts):12.4f} ratio {failed} of {len(attempts)} attempts failed")

    if traced is not None:
        metrics = {}
        if "layers" in traced and good:
            layers = dict(traced["layers"])
            layers["trace_overhead"] = scaled(traced)["run_s"] / statistics.median(r["run_s"] for r in good)
            print("  per layer, from one traced repetition (unscaled host seconds):")
            for name, value in layers.items():
                print(f"    {name:<36} {value:14.6g} {unit_of(name)}")
            metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}

    for line in problems:
        print(f"  FAIL {line}")
    if reference is not None:
        print(f"  digests report {reference['report_sha256']} history {reference['history_sha256']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(attempts), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
