"""Scenario files and run reports, declared on the line codec of `lines`.

In a scenario `#` starts a comment. Besides the refusals of every line (see
`lines`), a file is refused when it repeats `run` in a scenario, or
`counters`, `l1_export` or `final_root` in a report. Scenario `submit`
events may carry `as=<label>`; later events refer to that transaction as
`tx=@<label>`. The history codec and the s-expression readers are bound
here from `lines`.
"""
from __future__ import annotations

import re
from collections import namedtuple
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .core import (
    BASE_TX_GAS, U64_MAX, U128_MAX, Address, DepositTransaction, ScenarioError, SignedTransaction, StateRoot, TxHash,
    tx_hash,
)
from .detection import Counters, Invariant
from .lines import (  # parse_history, render_history and parse_statements are bound for the callers of `formats`
    _ABSENT, _ACCOUNT, _CONTRACT, _NO_SLOTS, ADDRESS, HEX_SPEC, POSITIVE, U64, U128, Codec, Line, _add_genesis, _braced,
    _fmt_bytes, _Genesis, _int, _lines, _list, _new, _parse_address, _parse_bytes, _split_fields, _table, _unbrace,
    parse_expr, parse_history, parse_statements, render_history,
)
from .mempool import PoolConfig
from .quarantine import AuditEvent, QuarantineConfig
from .sequencer import (
    AdvanceEvent,
    ApproveReleaseEvent,
    BlockSummary,
    EntrySummary,
    Event,
    FailureReleaseEvent,
    L1BlockEvent,
    PoolSummary,
    RunReport,
    Scenario,
    SequencerConfig,
    SetBaseFeeEvent,
    StakeEvent,
    SubmitEvent,
)
from . import vm
from .vm import Account, make_state


def _one_field(text: str) -> bool:
    """Whether `text` reads back as one field: not empty, no whitespace
    outside braces, braces balanced."""
    try:
        return _split_fields(text, 0) == [text]
    except ScenarioError:
        return False


def _parse_txref(text: str, lineno: int, what: str, ctx: Any) -> TxHash:
    """`@label` names an earlier labelled submit; anything else is a 0x-hex hash."""
    if text.startswith("@") and text[1:] not in ctx.labels:
        raise ScenarioError(f"unknown label {text!r}", line=lineno)
    return ctx.labels[text[1:]] if text.startswith("@") else TxHash(_parse_bytes(text, lineno))


def _parse_deposits(text: str, lineno: int, what: str, ctx: Any) -> Tuple[DepositTransaction, ...]:
    """`{group; group}`, each group one `_DEPOSIT` line: a deposit takes the
    number of the L1 block it arrives in and its place in that block."""
    body = _unbrace(text)
    groups = [] if body == "-" else [group for group in map(str.strip, body.split(";")) if group]
    return tuple(_DEPOSIT.read(_split_fields(group, lineno), lineno, ctx, l1_block=ctx.l1_blocks, l1_index=index)
                 for index, group in enumerate(groups))


# Transaction and deposit fields read any integer: those records check their own ranges.
TX_U64 = _int(None, None)._replace(least=0, top=U64_MAX)
TX_U128 = TX_U64._replace(top=U128_MAX)
TEXT = Codec(None, lambda text, *_: text, pattern=r"[^\s{}]+", spec=("%s", None))  # one word, outside braces
BYTES = Codec(_fmt_bytes, _parse_bytes, pattern="0x(?:[0-9a-f]{2})*", spec=HEX_SPEC)
HASH = Codec(_fmt_bytes, lambda text, lineno, *_: TxHash(_parse_bytes(text, lineno)), spec=HEX_SPEC)
ROOT = Codec(_fmt_bytes, lambda text, lineno, *_: StateRoot(_parse_bytes(text, lineno)), spec=HEX_SPEC)
RECIPIENT = Codec(
    lambda to: "create" if to is None else _fmt_bytes(to),
    lambda text, lineno, *_: None if text == "create" else _parse_address(text, lineno),
    pattern=f"create|{ADDRESS.pattern}",
)
TXREF = Codec(_fmt_bytes, _parse_txref)
BUDGET = Codec(
    lambda budget: "unlimited" if budget is None else str(budget),
    lambda text, lineno, what, ctx: None if text == "unlimited" else U64.parse(text, lineno, what, ctx),
    0, U64_MAX,
)
OPERATORS = Codec(
    lambda operators: ",".join(sorted(map(_fmt_bytes, operators))),
    lambda text, lineno, *_: frozenset(_parse_address(a, lineno) for a in text.split(",") if a),
)
EXPR = _braced(vm.expr_text, parse_expr)
DETAIL = _braced(str, lambda text, lineno: text)._replace(spec=("{%s}", None))
DEPOSITS = Codec(lambda deps: "{" + "; ".join(map(_DEPOSIT.render, deps)) + "}" if deps else "-", _parse_deposits)


# The record of submit lines (`as=NAME` names one for `tx=@NAME`).
_Submit = namedtuple("_Submit", (
    "event",  # SubmitEvent
    "label",  # Optional[str]
))


def _event(kind: str, make: Callable[..., Any], *fields: tuple, at: str = "at", **options: Any) -> Line:
    return Line(kind, make, ("time", at, U64), *fields, head=f"event {{}} {kind}", **options)


# Scenario lines. Times, fees and block counts are hashed as 8 bytes, so
# nothing exceeds 2^64-1; a worker count is a thread count.
MAX_WORKERS = 256
_SCENARIO = Line("scenario", lambda name=None: name, ("name", TEXT, _ABSENT), head="scenario v1", once=True)
_CONFIG = Line(  # each `config` line sets any of these; a later line overrides an earlier one
    "config", lambda **settings: settings,
    ("block_time", "seq_config.block_time", POSITIVE), ("blocks_per_epoch", "seq_config.blocks_per_epoch", POSITIVE),
    ("base_fee", "seq_config.base_fee", U64), ("detection_budget", "seq_config.detection_budget", BUDGET),
    ("fee_recipient", "seq_config.fee_recipient", ADDRESS), ("workers", "seq_config.workers", _int(1, MAX_WORKERS)),
    ("genesis_timestamp", "seq_config.genesis_timestamp", U64), ("escape_timeout", U64),
    ("quarantine_period", "quarantine_config.time_criterion_period", POSITIVE),
    ("operators", "quarantine_config.operators", OPERATORS),
    ("max_queued", "pool_config.max_queued", POSITIVE), ("max_pending", "pool_config.max_pending", POSITIVE),
    ("replacement_bump", "pool_config.min_replacement_bump_percent", POSITIVE),
    ("tx_lifetime", "pool_config.tx_lifetime", POSITIVE), default=_ABSENT,
)
_INVARIANT = Line(
    "invariant", Invariant, ("id", TEXT), ("contract", ADDRESS), ("registered_by", ADDRESS), ("predicate", EXPR),
    head="genesis invariant",
)
_RUN = Line("run", lambda run_blocks: run_blocks, ("blocks", "run_blocks", _int(0, None)), once=True)
_SUBMIT = _event(
    "submit", lambda at, label=None, **tx: _Submit(SubmitEvent(at, SignedTransaction(**tx)), label),
    ("sender", "event.tx.sender", ADDRESS), ("nonce", "event.tx.nonce", TX_U64, 0),
    ("to", "event.tx.recipient", RECIPIENT), ("value", "event.tx.value", TX_U128, 0),
    ("data", "event.tx.data", BYTES, b""), ("max_fee", "event.tx.max_fee", TX_U64, 1),
    ("priority_fee", "event.tx.priority_fee", TX_U64, 0), ("gas_limit", "event.tx.gas_limit", TX_U64, 30),
    ("as", "label", TEXT, _ABSENT), at="event.at", tail=9, grows=True,
)
_L1_BLOCK = _event("l1_block", L1BlockEvent, ("deposits", DEPOSITS, ()))
_DEPOSIT = Line(
    "deposit", DepositTransaction, ("sender", ADDRESS), ("recipient", ADDRESS), ("value", TX_U128, 0),
    ("data", BYTES, b""), ("gas_limit", TX_U64, 30), head="",
)
_SCENARIO_FILE = _table(
    _SCENARIO, _CONFIG, _ACCOUNT, _CONTRACT, _INVARIANT, _RUN, _SUBMIT, _L1_BLOCK,
    _event("approve_release", ApproveReleaseEvent, ("tx", "key", TXREF), ("approver", ADDRESS)),
    _event("stake", StakeEvent, ("account", ADDRESS), ("amount", U64)),
    _event("request_failure_release", FailureReleaseEvent, ("tx", "key", TXREF)),
    _event("set_base_fee", SetBaseFeeEvent, ("fee", U64)),
    _event("advance", AdvanceEvent, ("seconds", U64)),
)

# Report lines, in file order, each with the `RunReport` attribute it fills;
# the four a report holds many of are written by their `Line.write`.
# `l1_export` holds the rest of its line as written, so that a path may hold
# spaces, tabs or braces.
_REPORT = Line("report", RunReport, ("scenario", TEXT, "?"), head="report v1", once=True)
_L1_EXPORT = Line("l1_export", lambda l1_export: l1_export, ("", "l1_export", TEXT), head="l1_export {}", once=True)
_REPORT_BODY = {
    Line(
        "block", BlockSummary, ("number", U64), ("time", "timestamp", U64), ("base_fee", U64), ("epoch", U64),
        ("parent", "parent_hash", BYTES), ("root", "state_root", ROOT), ("deposits", "deposit_ids", _list(HASH)),
        ("txs", "tx_hashes", _list(HASH)),
    ): "blocks",
    Line(
        "entry", EntrySummary, ("key", HASH), ("kind", TEXT), ("sender", ADDRESS), ("seq", "sequence", U64),
        ("admitted_at", U64), ("admitted_block", U64), ("violated", _list(TEXT)), ("victims", _list(ADDRESS)),
        ("damage", U128),
    ): "entries",
    Line(
        "audit", AuditEvent, ("entry", HASH), ("at", U64), ("kind", TEXT), ("actor", TEXT), ("detail", DETAIL)
    ): "audit",
    Line(
        "pool", PoolSummary, ("key", HASH), ("sender", ADDRESS), ("nonce", U64), ("status", TEXT), ("received_at", U64)
    ): "pool",
    Line("counters", Counters, *((name, f"counters.{name}", U64) for name in Counters.__slots__), once=True):
        "counters",
    _L1_EXPORT: "l1_export",
    Line("final_root", lambda final_root: final_root, ("", "final_root", ROOT), head="final_root {}", once=True):
        "final_root",
}
_REPORT_FILE = _table(_REPORT, *_REPORT_BODY)


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    ctx = SimpleNamespace(labels={}, l1_blocks=0)  # the labels of earlier submits; the next L1 block's number
    name, run_blocks, settings = default_name, None, {}
    accounts: Dict[Address, Account] = {}
    invariants: List[Invariant] = []
    events: List[Event] = []
    l1_events: List[Tuple[int, L1BlockEvent]] = []  # with their line numbers
    for lineno, line, words in _lines(text, _SCENARIO_FILE, _SCENARIO, comments=True, fast=(_SUBMIT, _ACCOUNT)):
        record = None
        if type(words) is re.Match:  # a submit or genesis account line in its declared spelling: built in C
            try:  # a field left out (its group None) takes its declared default
                if line is _ACCOUNT:
                    address, balance, nonce = words.groups()
                    _, default_balance, default_nonce = line.defaults
                    balance = default_balance if balance is None else int(balance)
                    nonce = default_nonce if nonce is None else int(nonce)
                    if balance <= U128_MAX and nonce <= U64_MAX:  # U128 and U64
                        address = bytes.__new__(Address, bytes.fromhex(address[2:]))
                        record = _new(_Genesis, (address, _new(Account, (balance, nonce, None, _NO_SLOTS))))
                else:
                    at, sender, nonce, to, value, data, max_fee, priority_fee, gas_limit, label = words.groups()
                    (_, _, default_nonce, _, default_value, default_data, default_max_fee, default_priority_fee,
                     default_gas_limit, _) = line.defaults
                    at = int(at)
                    nonce = default_nonce if nonce is None else int(nonce)
                    value = default_value if value is None else int(value)
                    data = default_data if data is None else bytes.fromhex(data[2:])
                    max_fee = default_max_fee if max_fee is None else int(max_fee)
                    priority_fee = default_priority_fee if priority_fee is None else int(priority_fee)
                    gas_limit = default_gas_limit if gas_limit is None else int(gas_limit)
                    # a U64 time; the ranges and the fee rules `SignedTransaction.__init__` checks (priority_fee
                    # <= max_fee keeps it a u64 too), its 20-byte addresses fixed by the pattern
                    if (max(at, nonce, max_fee, gas_limit) <= U64_MAX and value <= U128_MAX
                            and priority_fee <= max_fee and gas_limit >= BASE_TX_GAS):
                        tx = object.__new__(SignedTransaction)
                        tx.sender = bytes.__new__(Address, bytes.fromhex(sender[2:]))
                        tx.nonce = nonce
                        tx.recipient = None if to == "create" else bytes.__new__(Address, bytes.fromhex(to[2:]))
                        tx.value = value
                        tx.data = data
                        tx.max_fee = max_fee
                        tx.priority_fee = priority_fee
                        tx.gas_limit = gas_limit
                        tx._hash = tx._blob = None
                        record = _new(_Submit, (_new(SubmitEvent, (at, tx)), label))
            except ValueError:  # more digits than `int` reads from text
                pass
            if record is None:  # the generic reader words the refusal
                words = _split_fields(words.string, lineno)
        if record is None:
            extra = {"number": ctx.l1_blocks} if line is _L1_BLOCK else {}  # the L1 block's number, from its place
            record = line.read(words, lineno, ctx, **extra)
        if line is _SCENARIO:
            name = default_name if record is None else record
            if not _one_field(name):
                message = f"scenario name {name!r} must be one report field: not empty, no whitespace outside braces"
                raise ScenarioError(message, line=lineno)
        elif line is _CONFIG:
            settings.update(record)
        elif line is _RUN:
            run_blocks = record
        elif line is _INVARIANT:
            invariants.append(record)
        elif type(record) is _Genesis:
            _add_genesis(accounts, record, lineno)
        else:
            event = record.event if line is _SUBMIT else record
            if events and event.at < events[-1].at:
                raise ScenarioError(f"event timestamps must be non-decreasing (t={event.at})", line=lineno)
            events.append(event)
            if line is _L1_BLOCK:
                ctx.l1_blocks += 1
                l1_events.append((lineno, event))
            elif line is _SUBMIT and record.label is not None:
                if record.label in ctx.labels:
                    raise ScenarioError(f"duplicate label {record.label!r}", line=lineno)
                ctx.labels[record.label] = tx_hash(event.tx)
    if run_blocks is None:
        raise ScenarioError("missing 'run blocks=N' line", line=len(text.splitlines()))

    def pick(names: Sequence[str]) -> Dict[str, Any]:
        return {key: value for key, value in settings.items() if key in names}

    scenario = Scenario(
        name, SequencerConfig(**pick(SequencerConfig._fields)), PoolConfig(**pick(PoolConfig._fields)),
        QuarantineConfig(**pick(QuarantineConfig._fields)), **pick(Scenario.__slots__), genesis=make_state(accounts),
        invariants=invariants, run_blocks=run_blocks, events=events,
    )
    bpe = scenario.seq_config.blocks_per_epoch
    for lineno, event in l1_events:
        if event.number * bpe >= run_blocks:
            raise ScenarioError(
                f"L1 block {event.number} maps to epoch {event.number} whose first L2 block "
                f"{event.number * bpe} is outside the {run_blocks}-block run",
                line=lineno,
            )
    return scenario


def render_report(report: RunReport) -> str:
    lines = [_REPORT.render(report)]
    for line, attr in _REPORT_BODY.items():
        lines.extend([line.render(report)] if line.once else line.write(getattr(report, attr)))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    for lineno, line, words in _lines(text, _REPORT_FILE, _REPORT, verbatim=_L1_EXPORT):
        record = line.read(words, lineno)
        if line is _REPORT:
            report = record
        elif line.once:
            setattr(report, _REPORT_BODY[line], record)
        else:
            getattr(report, _REPORT_BODY[line]).append(record)
    return report
