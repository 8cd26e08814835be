"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py --src SRC --scenario FILE --t0 T [--traced] [--spans FILE] [--expect FILE]

Drives the public library the way `rollupsim run` and `rollupsim derive`
do: parse_scenario, run, render_report and render_history, then
parse_history and derive. `--t0` is the CLOCK_MONOTONIC reading the parent
took just before starting this process, so `setup_s` covers interpreter
start, `import rollupsim` and parsing. A calibration loop runs after setup,
between run and derive, and after derive, outside every timed span; the
parent uses it to scale the times to a reference host speed. Timing ends
before any check runs.

Without `--traced` only `Sequencer.build_block` is wrapped, for the
per-block times; with it every target in `tracing.LAYER_TARGETS` is. The
last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

L1_NAME = "run.l1"  # what `rollupsim run --l1-out run.l1` writes into the report


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class _Cell:
    balance: int
    nonce: int
    payload: bytes


def calibrate() -> float:
    """Seconds for a fixed loop shaped like the simulator's hot path:
    copying a table of small frozen records and hashing their fields. It
    uses nothing from rollupsim, so its time tracks only how fast the host
    runs Python at this moment. The table stays small so the loop does not
    raise the peak RSS the child reports."""
    start = time.perf_counter()
    table = {i.to_bytes(20, "big"): _Cell(i, 0, i.to_bytes(32, "big")) for i in range(800)}
    for _ in range(120):
        table = {key: _Cell(cell.balance + 1, cell.nonce, cell.payload) for key, cell in table.items()}
        digest = hashlib.sha256()
        for key in sorted(table):
            digest.update(key + table[key].payload)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--expect")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import rollupsim
    from rollupsim import derivation, formats, sequencer

    if not Path(rollupsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported rollupsim from {rollupsim.__file__}, not from {src}")

    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS if args.traced else (tracing.BUILD_BLOCK,))
    try:
        path = Path(args.scenario)
        scenario = formats.parse_scenario(path.read_text(), default_name=path.stem)
        t_setup = monotonic()
        calibration = [calibrate()]
        t_run_start = monotonic()
        outcome = sequencer.run(scenario)
        outcome.report.l1_export = L1_NAME
        report_text = formats.render_report(outcome.report)
        history_text = formats.render_history(outcome.history)
        t_run = monotonic()
        run_spans = len(tracer.spans)
        calibration.append(calibrate())
        t_derive_start = monotonic()
        chain = derivation.derive(formats.parse_history(history_text))
        t_derive = monotonic()
    finally:
        tracer.restore()
    calibration.append(calibrate())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = outcome.report
    build_block = tracer.names.index(tracing.BUILD_BLOCK.name)
    result = {
        "setup_s": t_setup - args.t0,
        "run_s": t_run - t_run_start,
        "derive_s": t_derive - t_derive_start,
        "calibration_s": calibration,
        "block_s": [end - start for name, start, end, _p, _b in tracer.spans if name == build_block],
        "peak_rss_mb": peak_kib / 1024,
        "report_sha256": hashlib.sha256(report_text.encode()).hexdigest(),
        "history_sha256": hashlib.sha256(history_text.encode()).hexdigest(),
        "final_root": report.final_root.hex0x(),
        "problems": check(outcome, chain, args.expect),
        "backlog": backlog(scenario, report),
    }
    if args.traced:
        result["layers"] = layer_metrics(tracer, run_spans, report)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def observed(outcome) -> dict:
    report = outcome.report
    return {
        "included_txs": sum(len(b.tx_hashes) for b in report.blocks),
        "included_deposits": sum(len(b.deposit_ids) for b in report.blocks),
        "entries": len(report.entries),
        "released": sum(1 for a in report.audit if a.kind == "released"),
        "pool_end": len(report.pool),
        "blocks": len(report.blocks),
    }


def check(outcome, chain, expect_path) -> list:
    """Every way this repetition's outputs are wrong, as messages."""
    from rollupsim.core import Address
    from rollupsim.vm import slot_bytes

    report = outcome.report
    problems = []
    if chain.final_root != report.final_root:
        problems.append(f"derive root {chain.final_root.hex0x()} != run root {report.final_root.hex0x()}")
    if report.counters.maintenance_sims != 0:
        problems.append(f"maintenance_sims={report.counters.maintenance_sims}")
    if expect_path is None:
        return problems
    expect = json.loads(Path(expect_path).read_text())
    for key, value in observed(outcome).items():
        if expect[key] != value:
            problems.append(f"{key}: expected {expect[key]}, got {value}")
    tip = outcome.sequencer.chain.tip_state
    for addr, value in expect["balances"].items():
        got = tip.balance_of(Address.from_hex(addr))
        if got != value:
            problems.append(f"balance of {addr}: expected {value}, got {got}")
    for addr, slots in expect["slots"].items():
        storage = tip.account(Address.from_hex(addr)).storage
        for slot, value in slots.items():
            got = int.from_bytes(storage.get(slot_bytes(int(slot)), bytes(32)), "big")
            if got != value:
                problems.append(f"slot {slot} of {addr}: expected {value}, got {got}")
    return problems


def backlog(scenario, report) -> list:
    """Per block: submitted transactions neither included nor quarantined yet."""
    from rollupsim.core import tx_hash
    from rollupsim.sequencer import SubmitEvent

    submits = [(e.at, tx_hash(e.tx)) for e in scenario.events if isinstance(e, SubmitEvent)]
    admitted = {}
    for entry in report.entries:
        admitted.setdefault(entry.admitted_block, []).append(entry.key)
    outstanding = set()
    cursor = 0
    series = []
    for block in report.blocks:
        while cursor < len(submits) and submits[cursor][0] <= block.timestamp:
            outstanding.add(submits[cursor][1])
            cursor += 1
        outstanding.difference_update(block.tx_hashes)
        outstanding.difference_update(admitted.get(block.number, ()))
        series.append(len(outstanding))
    return series


def layer_metrics(tracer: tracing.Tracer, run_spans: int, report) -> dict:
    """The per-layer numbers of one traced repetition, by metric name."""
    stats, by_parent = tracing.aggregate(tracer.names, tracer.spans)
    out = {}

    def span(name: str, *fields: str) -> None:
        entry = stats.get(name, tracing.SpanStats())
        for field in fields:
            out[f"{name}.{field}"] = {"calls": entry.calls, "s": entry.total, "self_s": entry.self_time}[field]

    span("vm.execute_transaction", "calls", "self_s")
    span("vm.make_state", "calls", "s")
    span("vm.state_root", "calls", "s")
    out["vm.apply_block.sequencer.s"] = by_parent.get(("vm.apply_block", "sequencer.build_block"), 0.0)
    out["vm.apply_block.derivation.s"] = by_parent.get(("vm.apply_block", "derivation.derive"), 0.0)
    execute = tracer.names.index("vm.execute_transaction")
    run_executions = sum(1 for row in tracer.spans[:run_spans] if row[0] == execute)
    included = sum(len(b.tx_hashes) + len(b.deposit_ids) for b in report.blocks)
    out["vm.exec_per_included"] = run_executions / included if included else 0.0

    span("detection.hybrid_detect", "calls", "self_s")
    span("detection.assess", "s")
    counters = report.counters
    out["detection.isolated_sims"] = counters.isolated_sims
    out["detection.contextual_sims"] = counters.contextual_sims
    out["detection.deferred"] = counters.deferred_count
    verdicts = counters.parallel_verdicts + counters.sequential_verdicts
    out["detection.parallel_share"] = counters.parallel_verdicts / verdicts if verdicts else 0.0

    span("mempool.submit", "calls", "s")
    span("mempool.pending_candidates", "s")
    span("mempool.retire", "s")
    out["mempool.size_max"] = tracer.maxima.get("mempool.size", 0)

    span("quarantine.per_block_maintenance", "s")
    out["quarantine.active_max"] = tracer.maxima.get("quarantine.active", 0)
    span("quarantine.admit", "calls")
    out["quarantine.release.calls"] = sum(1 for a in report.audit if a.kind == "released")

    span("sequencer.build_block", "self_s")
    span("core.tx_hash", "calls", "s")
    span("core.canonical_encode", "calls")
    span("l1da.post_batch", "calls", "s")
    span("l1da.encode_bitmap", "s")
    span("l1da.snapshot_history", "s")
    span("derivation.derive", "self_s")
    for name in ("formats.parse_scenario", "formats.render_report", "formats.render_history", "formats.parse_history"):
        span(name, "s")
        out[f"{name}.bytes"] = tracer.bytes.get(name, 0)
    return out


if __name__ == "__main__":
    sys.exit(main())
