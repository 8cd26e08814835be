"""Command-line front end.

    rollupsim run --scenario F --report F --l1-out F [--workers N] [--seed N]
    rollupsim derive --l1 F [--expect-root HEX]
    rollupsim quarantine REPORT list
    rollupsim quarantine REPORT show HASH

Exit codes: 0 ok, 2 bad option, scenario error or an output `run` cannot
write, 3 root mismatch, 4 derivation gap, 5 not found. `run` exits 2 before
it runs when `--report` and `--l1-out` resolve to one file: the report
would overwrite the history it names. A run whose execution carries a
balance past 2^128-1 or a nonce past 2^64-1 exits 2, and a history whose
replay does so exits 4, each naming the block and the account.
`--expect-root` is 64 hex digits, with or without `0x`. `derive` exits 4 on
a history the sequencer could not have written: an L1 block or deposit not
at its place, an L1 block time before the previous one's, an L1 block whose
epoch head lies past the inbox, a record with the wrong block number or
epoch, a time not after the previous block's, an epoch head before its L1
block, a bitmap missing from an epoch head, on another record or not fitting
its deposits, or a batch that cannot execute; and on one spelled otherwise
than `run` writes it (a value, a field order, a space, a blank line, a line
end, a line order), naming the first line that differs and the form
expected. A scenario, report or history
line is refused, with its number, when it lacks a field or names an unknown
one, holds a value out of its range, repeats a line its file holds once, or
declares a genesis address twice. Every file is UTF-8 whatever the locale;
one that does not decode exits with its file's code (2, or 4 for a history).
Each command imports the modules it runs, so `derive` loads only the
replica's: `core`, `vm`, `l1da`, `derivation` and `lines`.
"""
from __future__ import annotations

import argparse
import io
import os
import re
import sys
from itertools import zip_longest
from pathlib import Path

from .core import EncodingError, ScenarioError, TxHash

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_ROOT_MISMATCH = 3
EXIT_DERIVATION = 4
EXIT_NOT_FOUND = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args: argparse.Namespace) -> int:
    from .detection import UnauthorizedInvariant
    from .formats import MAX_WORKERS, parse_scenario, render_history, render_report
    from .l1da import L1Error
    from .sequencer import run

    if args.workers is not None and not 1 <= args.workers <= MAX_WORKERS:
        return _fail(EXIT_SCENARIO, f"--workers must be 1..{MAX_WORKERS}, got {args.workers}")
    # The report names the history on one line, which must read back whole.
    if len(f"{args.l1_out}.".splitlines()) > 1:
        return _fail(EXIT_SCENARIO, f"--l1-out must not contain a line break, got {args.l1_out!r}")
    if os.path.realpath(args.report) == os.path.realpath(args.l1_out):  # the report would overwrite the history
        return _fail(EXIT_SCENARIO, f"--report and --l1-out name one file: {args.report!r}")
    path = Path(args.scenario)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_SCENARIO, f"cannot read scenario: {exc}")
    try:
        scenario = parse_scenario(text, default_name=path.stem)
        if args.workers is not None:
            scenario.seq_config = scenario.seq_config._replace(workers=args.workers)
        outcome = run(scenario)
    except (ScenarioError, UnauthorizedInvariant, EncodingError, L1Error, ValueError) as exc:
        return _fail(EXIT_SCENARIO, str(exc))
    outcome.report.l1_export = args.l1_out
    try:  # the history first, so that no report names a history that was never written
        Path(args.l1_out).write_text(render_history(outcome.history), encoding="utf-8")
        Path(args.report).write_text(render_report(outcome.report), encoding="utf-8")
    except OSError as exc:
        return _fail(EXIT_SCENARIO, f"cannot write output: {exc}")
    print(f"final_root {outcome.report.final_root.hex0x()}")
    return EXIT_OK


def _require_canonical(text: str, written: str) -> None:
    """Refuse a history spelled otherwise than `render_history` writes it, at
    its first differing line; the lines are walked only when the texts differ."""
    if text == written:
        return
    for lineno, (line, form) in enumerate(zip_longest(text.splitlines(True), written.splitlines(True)), start=1):
        if line != form:
            expected = "the end of the file" if form is None else repr(form[:-1])
            raise ScenarioError(f"not in canonical form, expected {expected}", line=lineno)


def cmd_derive(args: argparse.Namespace) -> int:
    from .derivation import DerivationGap, derive
    from .l1da import L1Error
    from .lines import parse_history, render_history

    if args.expect_root is not None and not re.fullmatch(r"(0x)?[0-9a-fA-F]{64}", args.expect_root):
        return _fail(EXIT_SCENARIO, f"--expect-root must be 64 hex digits, got {args.expect_root!r}")
    try:
        text = Path(args.l1).read_bytes().decode("utf-8")  # no newline translation: a CR is refused as written
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_DERIVATION, f"cannot read history: {exc}")
    try:
        history = parse_history(text)
        _require_canonical(text, render_history(history))
        chain = derive(history)
    except DerivationGap as exc:
        return _fail(EXIT_DERIVATION, f"derivation gap: {exc}")
    except (ScenarioError, EncodingError, L1Error, ValueError) as exc:
        return _fail(EXIT_DERIVATION, f"unusable history: {exc}")
    print(f"final_root {chain.final_root.hex0x()}")
    if args.expect_root is not None:
        expected = args.expect_root[2:] if args.expect_root.startswith("0x") else args.expect_root
        if chain.final_root.hex() != expected.lower():
            return _fail(EXIT_ROOT_MISMATCH, f"root mismatch: expected 0x{expected.lower()}")
    return EXIT_OK


def cmd_quarantine(args: argparse.Namespace) -> int:
    from .formats import parse_report

    try:
        report = parse_report(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_SCENARIO, f"cannot read report: {exc}")
    except (ScenarioError, EncodingError, ValueError) as exc:
        return _fail(EXIT_SCENARIO, f"unusable report: {exc}")
    if args.action == "list":
        for entry in report.entries:
            print(
                f"{entry.key.hex0x()} kind={entry.kind} sender={entry.sender.hex0x()} "
                f"block={entry.admitted_block} damage={entry.damage}"
            )
        return EXIT_OK
    try:
        key = TxHash.from_hex(args.hash)
    except (EncodingError, ValueError):
        return _fail(EXIT_NOT_FOUND, f"bad hash {args.hash!r}")
    matches = [e for e in report.entries if e.key == key]
    if not matches:
        return _fail(EXIT_NOT_FOUND, f"no quarantine entry {key.hex0x()}")
    for entry in matches:
        print(f"entry {entry.key.hex0x()}")
        print(f"  kind {entry.kind}")
        print(f"  sender {entry.sender.hex0x()}")
        print(f"  sequence {entry.sequence}")
        print(f"  admitted_at {entry.admitted_at} (block {entry.admitted_block})")
        print(f"  violated {', '.join(entry.violated) or '-'}")
        print(f"  victims {', '.join(v.hex0x() for v in entry.victims) or '-'}")
        print(f"  damage {entry.damage}")
    for event in report.audit:
        if event.entry == key:
            print(f"  at={event.at} {event.kind} actor={event.actor} {event.detail}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rollupsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--report", required=True)
    p_run.add_argument("--l1-out", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None, help="ignored; runs are deterministic")
    p_run.set_defaults(func=cmd_run)

    p_derive = sub.add_parser("derive", help="re-derive the chain from an L1 history file")
    p_derive.add_argument("--l1", required=True)
    p_derive.add_argument("--expect-root", default=None)
    p_derive.set_defaults(func=cmd_derive)

    p_q = sub.add_parser("quarantine", help="inspect a run report's quarantine trail")
    p_q.add_argument("report")
    p_q.add_argument("action", choices=["list", "show"])
    p_q.add_argument("hash", nargs="?")
    p_q.set_defaults(func=cmd_quarantine)

    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # names read from a UTF-8 file print whatever the locale
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    if args.command == "quarantine" and args.action == "show" and not args.hash:
        return _fail(EXIT_NOT_FOUND, "show needs a transaction hash")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
